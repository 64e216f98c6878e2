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

_SLOT_NUMBERS = np.arange(512, dtype=np.int64)

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
        self.map_run(va, pfn, 1, flags, page_size)

    def map_run(self, va, pfn, count, flags, page_size=PAGE_SIZE):
        """Map ``count`` consecutive pages at ``va`` to consecutive frames.

        Page ``i`` maps frame ``pfn + i * page_size // PAGE_SIZE``, as
        ``count`` single-page :meth:`map` calls in address order would,
        errors included: the pages before the first refused one stay
        mapped.  Each run of slots inside one paging structure is checked
        and written as one array slice.  A huge mapping may replace a
        table that ``unmap`` left empty, like Linux freeing an empty PTE
        page before it installs a huge PMD; a leaf or a live table refuses.
        """
        va = check_canonical(va)
        level = _LEVEL_OF_SIZE.get(page_size)
        if level is None:
            raise MappingError("unsupported page size {:#x}".format(page_size))
        if va & (page_size - 1):
            raise MappingError(
                "va {:#x} not aligned to page size {:#x}".format(va, page_size)
            )
        word = int(flags)
        if not word & 1:  # PageFlags.PRESENT
            raise MappingError("terminal mappings must be PRESENT")
        if ((va + (count - 1) * page_size) ^ va) >> 47:
            raise AddressError(
                "run at {:#x} leaves its canonical half".format(va)
            )
        frames = page_size // PAGE_SIZE
        step = frames << 12
        if pfn < 0 or pfn + count * frames > PFN_MASK + 1:
            raise MappingError("pfn {:#x} out of range".format(pfn))
        if level < 3:
            word |= int(PageFlags.HUGE)
        word = _int64(word | pfn << 12)
        store = self.store
        done = 0
        try:
            while done < count:
                at = va + done * page_size
                row = self.root
                for depth in range(level):
                    row = self._ensure_child(
                        row, depth, at >> LEVEL_SHIFTS[depth] & 0x1FF
                    )
                first = at >> LEVEL_SHIFTS[level] & 0x1FF
                n = min(count - done, 512 - first)
                refused = None
                live = store.pte[row, first:first + n]
                if np.count_nonzero(live):
                    for offset in np.flatnonzero(live).tolist():
                        kid = store.child.item(row, first + offset)
                        if not kid or store.holds_leaf(kid):
                            refused = n = offset
                            break
                    store.child[row, first:first + n] = 0
                words = store.pte[row, first:first + n]
                np.multiply(_SLOT_NUMBERS[:n], step, out=words)
                words += word + done * step
                done += n
                if refused is not None:
                    raise MappingError("va {:#x} already mapped".format(
                        va + done * page_size
                    ))
        finally:
            if done:
                store.generation += 1

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
        count = size // page_size
        first = self.frames.alloc(count * (page_size // PAGE_SIZE))
        self.page_table.map_run(va, first, count, flags, page_size)
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
