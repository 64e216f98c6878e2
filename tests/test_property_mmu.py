"""Property-based tests (hypothesis) for the MMU substrate invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.mmu.address import (
    PAGE_SIZE,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    is_canonical,
    page_align_down,
    page_align_up,
    split_indices,
)
from repro.mmu.flags import PageFlags, flags_from_prot
from repro.mmu.pagetable import PageTable
from repro.mmu.psc import PagingStructureCache
from repro.mmu.tlb import TLB, TLBEntry

#: canonical user-half addresses
user_vas = st.integers(min_value=0, max_value=0x0000_7FFF_FFFF_FFFF)
#: canonical kernel-half addresses
kernel_vas = st.integers(
    min_value=0xFFFF_8000_0000_0000, max_value=0xFFFF_FFFF_FFFF_FFFF
)
canonical_vas = st.one_of(user_vas, kernel_vas)
page_bases = user_vas.map(lambda va: page_align_down(va))


class TestAddressProperties:
    @given(canonical_vas)
    def test_canonical_addresses_accepted(self, va):
        assert is_canonical(va)

    @given(canonical_vas)
    def test_split_indices_in_range(self, va):
        indices = split_indices(va)
        assert len(indices) == 4
        assert all(0 <= i <= 511 for i in indices)

    @given(canonical_vas)
    def test_indices_reconstruct_address(self, va):
        """The four indices plus the page offset fully determine the VA."""
        pml4, pdpt, pd, pt = split_indices(va)
        rebuilt = (pml4 << 39) | (pdpt << 30) | (pd << 21) | (pt << 12)
        rebuilt |= va & 0xFFF
        if pml4 >= 256:  # kernel half: sign extension
            rebuilt |= 0xFFFF_0000_0000_0000
        assert rebuilt == va

    @given(user_vas)
    def test_align_sandwich(self, va):
        down = page_align_down(va)
        up = page_align_up(va)
        assert down <= va <= up
        assert up - down in (0, PAGE_SIZE)
        assert down % PAGE_SIZE == 0 and up % PAGE_SIZE == 0


class TestPageTableProperties:
    @given(st.lists(page_bases, min_size=1, max_size=20, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_map_lookup_roundtrip(self, bases):
        table = PageTable()
        flags = flags_from_prot(read=True, write=True)
        for pfn, base in enumerate(bases, start=1):
            table.map(base, pfn, flags)
        for pfn, base in enumerate(bases, start=1):
            translation = table.lookup(base).translation
            assert translation is not None
            assert translation.pfn == pfn

    @given(st.lists(page_bases, min_size=1, max_size=20, unique=True),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_unmap_removes_exactly_target(self, bases, data):
        table = PageTable()
        flags = flags_from_prot(read=True)
        for pfn, base in enumerate(bases, start=1):
            table.map(base, pfn, flags)
        victim = data.draw(st.sampled_from(bases))
        table.unmap(victim)
        for base in bases:
            assert table.is_mapped(base) == (base != victim)

    @given(st.lists(page_bases, min_size=1, max_size=16, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_iter_terminal_matches_mappings(self, bases):
        table = PageTable()
        flags = flags_from_prot(read=True)
        for pfn, base in enumerate(bases, start=1):
            table.map(base, pfn, flags)
        found = sorted(base for base, __, __ in table.iter_terminal())
        assert found == sorted(bases)

    @given(page_bases, user_vas)
    @settings(max_examples=100, deadline=None)
    def test_unmapped_addresses_never_translate(self, mapped, probe):
        table = PageTable()
        table.map(mapped, 1, flags_from_prot(read=True))
        lookup = table.lookup(probe)
        if page_align_down(probe) != mapped:
            assert not lookup.present
        else:
            assert lookup.present


class TestTLBProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 24),
                    min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, vpns):
        tlb = TLB(entries=16, ways=4)
        flags = PageFlags.PRESENT | PageFlags.USER
        for vpn in vpns:
            tlb.fill(TLBEntry(vpn, vpn, flags, PAGE_SIZE))
        assert tlb.occupancy() <= 16
        for bucket in tlb._sets:
            assert len(bucket) <= 4

    @given(st.lists(st.integers(min_value=0, max_value=1 << 24),
                    min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_most_recent_fill_always_resident(self, vpns):
        tlb = TLB(entries=16, ways=4)
        flags = PageFlags.PRESENT | PageFlags.USER
        for vpn in vpns:
            tlb.fill(TLBEntry(vpn, vpn, flags, PAGE_SIZE))
        assert tlb.lookup(vpns[-1], PAGE_SIZE) is not None

    @given(st.lists(st.integers(min_value=0, max_value=1 << 24),
                    min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_flush_empties(self, vpns):
        tlb = TLB(entries=16, ways=4)
        flags = PageFlags.PRESENT
        for vpn in vpns:
            tlb.fill(TLBEntry(vpn, vpn, flags, PAGE_SIZE))
        tlb.flush()
        assert tlb.occupancy() == 0


class TestPSCProperties:
    @given(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=511),
            st.integers(min_value=0, max_value=511),
            st.integers(min_value=0, max_value=511),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=1, max_size=100,
    ))
    @settings(max_examples=50, deadline=None)
    def test_hit_level_never_exceeds_filled(self, fills):
        psc = PagingStructureCache()
        filled = set()
        for pml4, pdpt, pd, level in fills:
            indices = (pml4, pdpt, pd, 0)
            psc.fill(indices, level, node_id=1)
            filled.add((indices[: level + 1], level))
        for pml4, pdpt, pd, __ in fills:
            indices = (pml4, pdpt, pd, 0)
            hit = psc.deepest_hit(indices)
            if hit is not None:
                # every reported hit corresponds to a prior fill whose key
                # prefix matches
                assert any(
                    key == indices[: lvl + 1] and lvl == hit
                    for key, lvl in filled
                ) or hit < 3

    @given(st.integers(min_value=0, max_value=511))
    def test_occupancy_bounded(self, index):
        psc = PagingStructureCache(pml4e_entries=2, pdpte_entries=2,
                                   pde_entries=2)
        for i in range(10):
            psc.fill((index, i, 0, 0), 1, node_id=i)
        assert psc.occupancy()[1] <= 2


# -- model test: PageTable against a plain {va_base: (pfn, flags, size)} ----

_SIZES = (PAGE_SIZE, PAGE_SIZE_2M, PAGE_SIZE_1G)
_LEVEL_OF = {PAGE_SIZE_1G: 1, PAGE_SIZE_2M: 2, PAGE_SIZE: 3}
_SIZE_AT = {1: PAGE_SIZE_1G, 2: PAGE_SIZE_2M, 3: PAGE_SIZE}
_SHIFTS = (39, 30, 21, 12)
_MAP_FLAGS = (
    PageFlags.PRESENT,
    PageFlags.PRESENT | PageFlags.USER | PageFlags.WRITABLE | PageFlags.NX,
    PageFlags.PRESENT | PageFlags.NX | PageFlags.GLOBAL,
)
_PROTECT_FLAGS = (
    PageFlags.NONE,  # PROT_NONE drops the leaf
    PageFlags.PRESENT | PageFlags.USER,
    PageFlags.PRESENT | PageFlags.WRITABLE | PageFlags.NX,
)


def _pool_va(pml4, pdpt, pd, pt):
    va = (pml4 << 39) | (pdpt << 30) | (pd << 21) | (pt << 12)
    return va | 0xFFFF_0000_0000_0000 if pml4 >= 256 else va


#: a small VA pool so operations collide; the 510/511 indices let runs
#: cross into the next paging structure
_pool = st.builds(
    _pool_va,
    st.sampled_from((0, 1, 510)),
    st.sampled_from((0, 1, 511)),
    st.sampled_from((0, 1, 510, 511)),
    st.sampled_from((0, 1, 2, 510, 511)),
)
_ops = st.one_of(
    st.tuples(st.just("map"), _pool, st.sampled_from(_SIZES),
              st.sampled_from(_MAP_FLAGS), st.integers(1, 3)),
    # one batch of pages in any order, repeats included
    st.tuples(st.just("batch"), st.sampled_from(_SIZES), st.lists(
        st.tuples(_pool, st.sampled_from(_MAP_FLAGS)), min_size=1,
        max_size=6,
    )),
    st.tuples(st.just("unmap"), _pool),
    st.tuples(st.just("protect"), _pool, st.sampled_from(_PROTECT_FLAGS)),
    st.tuples(st.just("set_flag"), _pool,
              st.sampled_from((PageFlags.DIRTY, PageFlags.ACCESSED))),
)


class _ModelTable:
    """Reference page table: leaves by base, directory tables by prefix.

    ``leaves`` maps a mapping's base VA to (pfn, flags, size);
    ``tables`` maps (level, va >> shift of the parent level) of every
    live non-root paging structure to a token that is fresh per
    structure, so the real table's node ids can be checked for identity.
    """

    def __init__(self):
        self.leaves = {}
        self.tables = {}
        self._tokens = iter(range(1, 1 << 30))

    def _leaf_at(self, va, level):
        if level == 0:
            return None
        base = va & ~(_SIZE_AT[level] - 1)
        leaf = self.leaves.get(base)
        if leaf is not None and leaf[2] == _SIZE_AT[level]:
            return base
        return None

    def _table_below(self, va, level):
        return self.tables.get((level + 1, va >> _SHIFTS[level]))

    def _drop_table(self, level, prefix):
        del self.tables[(level, prefix)]
        if level < 3:
            for key in [k for k in self.tables
                        if k[0] == level + 1 and k[1] >> 9 == prefix]:
                self._drop_table(*key)

    def _holds_leaf(self, level, prefix):
        shift = _SHIFTS[level - 1]
        return any(
            base >> shift == prefix and size < _SIZE_AT.get(level - 1, 1 << 48)
            for base, (__, __, size) in self.leaves.items()
        )

    def map(self, va, pfn, flags, size):
        level = _LEVEL_OF[size]
        for depth in range(level):
            if self._leaf_at(va, depth) is not None:
                raise MappingError("already terminal")
            key = (depth + 1, va >> _SHIFTS[depth])
            if key not in self.tables:
                self.tables[key] = next(self._tokens)
        if self._leaf_at(va, level) is not None:
            raise MappingError("already mapped")
        if level < 3 and self._table_below(va, level) is not None:
            prefix = va >> _SHIFTS[level]
            if self._holds_leaf(level + 1, prefix):
                raise MappingError("already mapped")
            self._drop_table(level + 1, prefix)
        if size != PAGE_SIZE:
            flags |= PageFlags.HUGE
        self.leaves[va] = (pfn, flags, size)

    def _find_leaf(self, va):
        for level in range(4):
            base = self._leaf_at(va, level)
            if base is not None:
                return base
            if self._table_below(va, level) is None:
                break
        raise MappingError("not mapped")

    def unmap(self, va):
        del self.leaves[self._find_leaf(va)]

    def protect(self, va, flags):
        base = self._find_leaf(va)
        pfn, old, size = self.leaves.pop(base)
        if flags & PageFlags.PRESENT:
            keep = old & (PageFlags.HUGE | PageFlags.GLOBAL)
            self.leaves[base] = (pfn, flags | keep, size)

    def set_flag(self, va, flag):
        base = self._find_leaf(va)
        pfn, old, size = self.leaves[base]
        self.leaves[base] = (pfn, old | flag, size)

    def lookup(self, va):
        """(translation tuple or None, terminal level, node-token chain)."""
        chain = [(0, 0)]
        for level in range(4):
            base = self._leaf_at(va, level)
            if base is not None:
                pfn, flags, size = self.leaves[base]
                return (pfn, int(flags), size, level), level, chain
            token = self._table_below(va, level)
            if token is None:
                return None, level, chain
            chain.append((level + 1, token))
        raise AssertionError("model walked past the PT level")


def _apply(target, op):
    """Run ``op`` on a PageTable or the model; return the error class."""
    try:
        getattr(target, op[0])(*op[1:])
    except MappingError:
        return MappingError
    return None


class TestPageTableModel:
    @given(st.lists(_ops, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_model(self, ops):
        table = PageTable()
        model = _ModelTable()
        ids = {}  # real node id -> model token, checked as a bijection
        pfn = 1
        probes = sorted({
            _pool_va(a, b, c, d) for a in (0, 1, 510) for b in (0, 1, 511)
            for c in (0, 1, 510, 511) for d in (0, 1, 2, 510, 511)
        })
        for op in ops:
            if op[0] in ("map", "batch"):
                if op[0] == "map":  # a run: consecutive pages, one flags
                    __, va, size, flags, count = op
                    va &= ~(size - 1)
                    pages = [(va + i * size, flags) for i in range(count)]
                else:
                    __, size, pages = op
                    pages = [(va & ~(size - 1), flags) for va, flags in pages]
                vas = [va for va, __ in pages]
                pfns = [pfn + i * (size // PAGE_SIZE) for i in range(len(vas))]
                words = [flags for __, flags in pages]
                real = _apply(table, ("map_pages", vas, pfns, words, size))
                expected = None
                for va, frame, flags in zip(vas, pfns, words):
                    expected = _apply(model, ("map", va, frame, flags, size))
                    if expected is not None:
                        break
                pfn += len(vas) * (size // PAGE_SIZE)
            else:
                real = _apply(table, op)
                expected = _apply(model, op)
            assert real is expected, op
            for va in probes:
                lookup = table.lookup(va)
                want, level, chain = model.lookup(va)
                got = lookup.translation
                if want is None:
                    assert got is None
                else:
                    assert (got.pfn, int(got.flags), got.page_size,
                            got.level) == want
                    assert isinstance(got.flags, PageFlags)
                assert lookup.terminal_level == level
                assert [lvl for lvl, __ in lookup.nodes] == \
                    [lvl for lvl, __ in chain]
                for (__, node), (__, token) in zip(lookup.nodes, chain):
                    assert ids.setdefault(node, token) == token
            assert len(set(ids.values())) == len(ids)
            leaves = [(base, t.pfn, int(t.flags), size)
                      for base, t, size in table.iter_terminal()]
            assert leaves == sorted(
                (base, leaf[0], int(leaf[1]), leaf[2])
                for base, leaf in model.leaves.items()
            )
