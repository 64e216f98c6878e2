"""4-level x86-64 page tables stored as packed PTE words.

The hierarchy is PML4 -> PDPT -> PD -> PT.  Terminal mappings may live at

* PT level    : 4 KiB pages,
* PD level    : 2 MiB huge pages  (PS bit set),
* PDPT level  : 1 GiB huge pages  (PS bit set).

Each paging structure is one 512-slot row of a :class:`TableStore`: int64
PTE words as hardware packs them (flags | PFN << 12, NX in bit 63) plus
the child row of each directory slot.  The per-op walker reads the rows
through :meth:`PageTable.lookup`; the columnar engine descends them with
array indexing.  A row's node id stands in for the structure's physical
address; the walker uses it to model whether a walk's memory accesses
hit the data cache (hot) or go to DRAM (cold) -- the effect behind the
paper's 381-vs-147-cycle TLB-miss result.  Only its identity matters.
"""

import itertools

import numpy as np

from repro.errors import AddressError, MappingError
from repro.mmu.frames import FrameAllocator, PhysicalMemory
from repro.mmu.address import (
    LEVEL_NAMES,
    LEVEL_SHIFTS,
    PAGE_SIZE,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    check_canonical,
    split_indices,
)
from repro.mmu.flags import PageFlags

#: level index (0-based, top-down) at which each page size terminates
_LEVEL_OF_SIZE = {PAGE_SIZE_1G: 1, PAGE_SIZE_2M: 2, PAGE_SIZE: 3}
_SIZE_OF_LEVEL = {1: PAGE_SIZE_1G, 2: PAGE_SIZE_2M, 3: PAGE_SIZE}

#: permissive flags used for non-terminal (directory) entries, mirroring
#: how Linux sets intermediate entries maximally permissive and enforces
#: permissions at the leaf.
_DIR_WORD = int(PageFlags.PRESENT | PageFlags.WRITABLE | PageFlags.USER)

#: PTE word layout: flag bits 0..11 and 63 (NX), PFN in bits 12..51
FLAG_BITS = 0xFFF | int(PageFlags.NX)
PFN_MASK = (1 << 40) - 1
_KEEP_ON_PROTECT = int(PageFlags.HUGE | PageFlags.GLOBAL) | PFN_MASK << 12

#: node id = store serial << 24 | row: unique across the process
_store_serials = itertools.count(1 << 24, 1 << 24)

#: PTE flag bits -> PageFlags; few distinct combinations ever occur
_FLAG_OBJS = {}


def flags_of_word(word):
    """The :class:`PageFlags` of a PTE word (int64 or unsigned)."""
    bits = word & FLAG_BITS
    flags = _FLAG_OBJS.get(bits)
    if flags is None:
        flags = _FLAG_OBJS[bits] = PageFlags(bits)
    return flags


def _int64(word):
    """The int64 storage value of a 64-bit PTE word pattern."""
    return ((word + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)


def _unsigned(va):
    """A VA read back from int64 storage, as the unsigned 64-bit value."""
    return int(va) & ((1 << 64) - 1)


def _leaf(va, word, level):
    """The :class:`Translation` of a present leaf word at ``level``."""
    return Translation(va, (word >> 12) & PFN_MASK, flags_of_word(word),
                       _SIZE_OF_LEVEL[level], level)


class TableStore:
    """Paging-structure rows of one page table and the tables aliasing it.

    A table joins another's store in :meth:`PageTable.share_top_level_from`.
    ``pte[row, index]`` is the PTE word of slot ``index`` of structure
    ``row`` (0 when empty; every stored word is present) and
    ``child[row, index]`` the row a directory slot points to.  Row 0 is
    the first table's root, never anyone's child, so ``child == 0`` marks
    leaves and empty slots.  Rows are never reused.  ``generation`` is
    bumped by every mutation; the lookup memo of each table in the store
    is tagged with it.
    """

    __slots__ = ("pte", "child", "rows", "generation", "id_base", "tables")

    def __init__(self, capacity=16):
        self.pte = np.zeros((capacity, 512), dtype=np.int64)
        self.child = np.zeros((capacity, 512), dtype=np.int32)
        self.rows = 0
        self.generation = 0
        self.id_base = next(_store_serials)
        self.tables = 0

    def new_rows(self, count=1):
        """Append ``count`` empty rows; return the first row index."""
        first = self.rows
        self.rows += count
        if self.rows > len(self.pte):
            capacity = 2 * max(self.rows, len(self.pte))
            for name in ("pte", "child"):
                old = getattr(self, name)
                grown = np.zeros((capacity, 512), dtype=old.dtype)
                grown[:first] = old[:first]
                setattr(self, name, grown)
        return first

    def holds_leaf(self, row):
        """True if any present terminal entry lives under ``row``."""
        kids = self.child[row][self.pte[row] != 0]
        return not kids.all() or any(map(self.holds_leaf, kids.tolist()))


class Translation:
    """A successful virtual-to-physical translation."""

    __slots__ = ("va", "pfn", "flags", "page_size", "level")

    def __init__(self, va, pfn, flags, page_size, level):
        self.va = va
        self.pfn = pfn
        self.flags = flags
        self.page_size = page_size
        self.level = level

    @property
    def physical_address(self):
        offset = self.va & (self.page_size - 1)
        return self.pfn * PAGE_SIZE + offset

    @property
    def level_name(self):
        return LEVEL_NAMES[self.level]

    def __repr__(self):
        return "Translation(va={:#x}, pfn={:#x}, {}, {})".format(
            self.va, self.pfn, self.flags.describe(), self.level_name
        )


class Lookup:
    """Structural walk outcome: translation or termination level.

    ``indices`` carries the per-level VA indices so consumers that hold a
    cached Lookup (the timed walker) need not recompute them.
    """

    __slots__ = ("translation", "terminal_level", "nodes", "indices")

    def __init__(self, translation, terminal_level, nodes, indices=None):
        self.translation = translation
        self.terminal_level = terminal_level
        self.nodes = nodes
        self.indices = indices

    @property
    def present(self):
        return self.translation is not None


class PageTable:
    """A full 4-level page-table tree rooted at a PML4 row of a store.

    Repeated structural lookups of the same VA are memoized in a
    generation-tagged cache: probe sweeps hit the same addresses over and
    over, and the radix traversal dominates their cost.  Any mutation
    (``map``/``unmap``/``protect``/flag updates/top-level sharing) bumps
    the store's generation, which drops the cached lookups of every
    table in the store -- KPTI tables alias structures, so a mutation
    through one must invalidate the other's.
    """

    def __init__(self):
        self.store = TableStore()
        self.root = self.store.new_rows()
        self.store.tables += 1
        self._lookup_cache = {}
        self._cache_generation = self.store.generation

    # -- construction -----------------------------------------------------

    def map(self, va, pfn, flags, page_size=PAGE_SIZE):
        """Install a terminal mapping of ``page_size`` bytes at ``va``."""
        self.map_pages([check_canonical(va)], [pfn], [flags], page_size)

    def map_pages(self, vas, pfns, words, page_size=PAGE_SIZE):
        """Map page ``vas[i]`` to frame ``pfns[i]`` with flag word ``words[i]``.

        Every page is ``page_size`` bytes.  The outcome, errors included,
        is that of one :meth:`map` per page in batch order: missing paging
        structures get rows in first-touch order, and the pages before the
        first refused one stay mapped.  A page is refused below a terminal
        entry, on a live leaf, on a table that holds a leaf, or on a slot
        an earlier page of the batch took.  A huge mapping may replace a
        table that ``unmap`` left empty, like Linux freeing an empty PTE
        page before it installs a huge PMD.  Directories are walked once
        per stretch of the batch that stays in one leaf structure, and
        the leaf words are written with one scatter.
        """
        level = _LEVEL_OF_SIZE.get(page_size)
        if level is None:
            raise MappingError("unsupported page size {:#x}".format(page_size))
        # as int64 a canonical VA is sign-extended: -2**47 <= va < 2**47
        vas = np.asarray(vas, dtype=np.uint64).view(np.int64)
        pfns = np.asarray(pfns, dtype=np.int64)
        words = np.asarray(words, dtype=np.uint64).view(np.int64)
        count = len(vas)
        if not count:
            return
        bad = vas + (1 << 47) >> 48
        if np.count_nonzero(bad):
            raise AddressError("non-canonical virtual address {:#x}".format(
                _unsigned(vas[bad.nonzero()[0][0]])
            ))
        bad = vas & (page_size - 1)
        if np.count_nonzero(bad):
            raise MappingError("va {:#x} not aligned to page size {:#x}".format(
                _unsigned(vas[bad.nonzero()[0][0]]), page_size
            ))
        if np.count_nonzero(words & 1) < count:  # PageFlags.PRESENT
            raise MappingError("terminal mappings must be PRESENT")
        # a negative PFN reads as a huge unsigned one
        bad = pfns.view(np.uint64) > PFN_MASK + 1 - page_size // PAGE_SIZE
        if np.count_nonzero(bad):
            raise MappingError("pfn {:#x} out of range".format(
                int(pfns[bad.nonzero()[0][0]])
            ))
        packed = words | pfns << 12
        if level < 3:
            packed |= int(PageFlags.HUGE)

        shift = LEVEL_SHIFTS[level]
        slots = vas >> shift & 0x1FF
        cut = count  # pages from ``cut`` on are refused
        ranked = np.sort(vas)
        if np.count_nonzero(ranked[1:] == ranked[:-1]):
            # the first page whose slot an earlier page took
            order = vas.argsort(kind="stable")
            ranked = vas[order]
            cut = int(order[1:][ranked[1:] == ranked[:-1]].min())
        # segments: maximal stretches of the batch in one leaf structure,
        # walked in batch order -- the order a page-at-a-time loop
        # first touches each missing directory in
        tables = vas >> (shift + 9)
        heads = [0] + ((tables[1:] != tables[:-1]).nonzero()[0] + 1).tolist()
        store = self.store
        fresh = store.rows  # rows from here on are created below
        rows = np.empty(count, dtype=np.int64)
        emptied = []  # (row, slot) of empty tables a huge leaf replaces
        error = None
        for head, end in zip(heads, heads[1:] + [count]):
            if head >= cut:
                break
            va = vas.item(head)
            row = self.root
            try:
                for depth in range(level):
                    row = self._ensure_child(
                        row, depth, va >> LEVEL_SHIFTS[depth] & 0x1FF
                    )
            except MappingError as exc:
                cut, error = head, exc
                break
            rows[head:end] = row
            if row >= fresh:
                continue
            end = min(end, cut)
            for live in store.pte[row, slots[head:end]].nonzero()[0].tolist():
                kid = store.child.item(row, slots.item(head + live))
                if not kid or store.holds_leaf(kid):
                    cut = head + live
                    break
                emptied.append((row, slots.item(head + live)))
        for row, slot in emptied:
            store.child[row, slot] = 0
        if cut:
            store.pte[rows[:cut], slots[:cut]] = packed[:cut]
            store.generation += 1
        if cut < count:
            raise error or MappingError(
                "va {:#x} already mapped".format(_unsigned(vas[cut]))
            )

    def _ensure_child(self, row, level, index):
        """Row of the structure slot ``index`` of ``row`` points to."""
        store = self.store
        kid = store.child.item(row, index)
        if kid:
            return kid
        if store.pte.item(row, index):
            raise MappingError(
                "level-{} entry {} already terminal".format(level, index)
            )
        kid = store.new_rows()
        store.pte[row, index] = _DIR_WORD
        store.child[row, index] = kid
        return kid

    def unmap(self, va):
        """Remove the terminal mapping covering ``va``.

        Returns the page size of the removed mapping.  Intermediate
        structures are retained (as real kernels usually do), so a later
        walk of the same address terminates at the old terminal level.
        """
        row, index, level = self._find_leaf(va)
        self._write(row, index, 0)
        return _SIZE_OF_LEVEL[level]

    def protect(self, va, flags):
        """Replace the permission flags of the mapping covering ``va``."""
        row, index, __ = self._find_leaf(va)
        word = 0  # PROT_NONE: drop the leaf, like Linux clearing present
        if flags & PageFlags.PRESENT:
            word = int(flags) | self.store.pte.item(row, index) \
                & _KEEP_ON_PROTECT
        self._write(row, index, word)

    def set_flag(self, va, flag):
        """OR ``flag`` into the terminal entry covering ``va`` (A/D bits)."""
        row, index, __ = self._find_leaf(va)
        word = self.store.pte.item(row, index)
        flag = int(flag)
        if word & flag != flag:
            self._write(row, index, word | flag)

    def _write(self, row, index, word):
        """Store one PTE word and bump the store's generation."""
        self.store.pte[row, index] = _int64(word)
        self.store.generation += 1

    # -- lookup ------------------------------------------------------------

    def _find_leaf(self, va):
        """Return (row, index, level) of the present leaf covering ``va``."""
        store = self.store
        row = self.root
        for level, index in enumerate(split_indices(va)):
            if not store.pte.item(row, index):
                break
            kid = store.child.item(row, index)
            if not kid:
                return row, index, level
            row = kid
        raise MappingError("va {:#x} is not mapped".format(va))

    def lookup(self, va):
        """Walk structurally (no timing) and return a :class:`Lookup`.

        ``nodes`` lists the (level, node_id) pairs of every paging
        structure the hardware would read, in top-down order.  Results are
        memoized per VA until the next structural mutation.
        """
        generation = self.store.generation
        if self._cache_generation != generation:
            self._lookup_cache.clear()
            self._cache_generation = generation
        else:
            cached = self._lookup_cache.get(va)
            if cached is not None:
                return cached
        result = self._lookup_uncached(va)
        self._lookup_cache[va] = result
        return result

    def _lookup_uncached(self, va):
        """The raw radix traversal behind :meth:`lookup` (never cached)."""
        va = check_canonical(va)
        indices = split_indices(va)
        store = self.store
        row = self.root
        touched = []
        for level, index in enumerate(indices):
            touched.append((level, store.id_base | row))
            word = store.pte.item(row, index)
            if not word:
                return Lookup(None, level, touched, indices)
            kid = store.child.item(row, index)
            if not kid:
                return Lookup(_leaf(va, word, level), level, touched, indices)
            row = kid
        raise MappingError("malformed page table at {:#x}".format(va))

    def is_mapped(self, va):
        """Return True if ``va`` has a present terminal mapping."""
        return self.lookup(va).present

    # -- sharing (KPTI) ----------------------------------------------------

    def share_top_level_from(self, other, pml4_index):
        """Alias one PML4 slot from ``other`` into this table.

        This is how kernels share the kernel half between per-process page
        tables: top-level entries point at the same lower structures.  A
        table alone on its own store first moves onto ``other``'s.
        """
        store = other.store
        if not store.pte.item(other.root, pml4_index):
            raise MappingError(
                "source PML4 slot {} is empty".format(pml4_index)
            )
        if self.store is not store:
            old = self.store
            if old.tables > 1:
                raise MappingError("table shares its store with others")
            offset = store.new_rows(old.rows)
            moved = slice(offset, offset + old.rows)
            store.pte[moved] = old.pte[:old.rows]
            kids = old.child[:old.rows]
            store.child[moved] = np.where(kids != 0, kids + offset, 0)
            self.store, self.root = store, self.root + offset
            store.tables += 1
            # the memo's generation tag and node ids belong to ``old``
            self._lookup_cache.clear()
        for column in (store.pte, store.child):
            column[self.root, pml4_index] = column[other.root, pml4_index]
        store.generation += 1

    def iter_terminal(self):
        """Yield (va_base, translation, page_size) for every present leaf."""
        store = self.store

        def walk(row, prefix, level):
            for index in np.flatnonzero(store.pte[row]).tolist():
                va = prefix | (index << (39 - 9 * level))
                kid = store.child.item(row, index)
                if kid:
                    yield from walk(kid, va, level + 1)
                    continue
                if va >> 47 & 1:
                    va |= 0xFFFF_0000_0000_0000
                yield va, _leaf(va, store.pte.item(row, index), level), \
                    _SIZE_OF_LEVEL[level]

        yield from walk(self.root, 0, 0)


class AddressSpace:
    """A page table bound to a frame allocator and physical memory.

    This is the unit the OS layer hands to processes (and, with KPTI, the
    pair of tables a process really has).
    """

    def __init__(self, frames=None, memory=None):
        self.page_table = PageTable()
        self.frames = frames if frames is not None else FrameAllocator()
        self.memory = memory if memory is not None else PhysicalMemory()

    def map_range(self, va, size, flags, page_size=PAGE_SIZE):
        """Map ``size`` bytes at ``va`` with fresh frames; return first PFN."""
        if size <= 0 or size % page_size:
            raise MappingError(
                "size {:#x} is not a multiple of page size".format(size)
            )
        return self.map_runs([va], [size // page_size], [flags], page_size)

    def map_runs(self, starts, counts, flags, page_size=PAGE_SIZE):
        """Map ``counts[i]`` pages at ``starts[i]`` with ``flags[i]``.

        Fresh frames are handed out once, in run order -- the frames one
        :meth:`map_range` per run would give -- and every page goes to
        the page table in one :meth:`PageTable.map_pages` call.  Returns
        the first PFN.
        """
        starts = np.asarray(starts, dtype=np.uint64).view(np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        # as int64 the kernel half is negative; a run from it that ends
        # above zero wraps into the user half
        bad = (starts < 0) & (starts + counts * page_size > 0)
        if np.count_nonzero(bad):
            raise AddressError("run at {:#x} leaves its canonical half".format(
                _unsigned(starts[bad.nonzero()[0][0]])
            ))
        total = int(counts.sum())
        frames = page_size // PAGE_SIZE
        first = self.frames.alloc(total * frames)
        index = np.arange(total)
        base = starts - (counts.cumsum() - counts) * page_size
        self.page_table.map_pages(
            base.repeat(counts) + index * page_size,
            first + index * frames,
            np.asarray(flags, dtype=np.uint64).repeat(counts),
            page_size,
        )
        return first

    def unmap_range(self, va, size, page_size=PAGE_SIZE):
        """Unmap ``size`` bytes starting at ``va``."""
        for offset in range(0, size, page_size):
            self.page_table.unmap(va + offset)

    def protect_range(self, va, size, flags, page_size=PAGE_SIZE):
        """Re-protect ``size`` bytes starting at ``va``."""
        for offset in range(0, size, page_size):
            self.page_table.protect(va + offset, flags)

    def translate(self, va):
        """Structural translation (no timing); None if unmapped."""
        return self.page_table.lookup(va).translation
