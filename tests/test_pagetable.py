"""4-level page tables: mapping, permissions, lookups, KPTI sharing."""

import pytest

from repro.errors import AddressError, MappingError
from repro.mmu.address import PAGE_SIZE, PAGE_SIZE_1G, PAGE_SIZE_2M
from repro.mmu.flags import PageFlags
from repro.mmu.pagetable import AddressSpace, PageTable

USER_RW = PageFlags.PRESENT | PageFlags.USER | PageFlags.WRITABLE
KERNEL = PageFlags.PRESENT


class TestMapping:
    def test_map_4k_and_lookup(self):
        table = PageTable()
        table.map(0x40_0000, 0x111, USER_RW)
        lookup = table.lookup(0x40_0ABC)
        assert lookup.present
        assert lookup.translation.pfn == 0x111
        assert lookup.translation.page_size == PAGE_SIZE
        assert lookup.translation.level_name == "PT"

    def test_map_2m(self):
        table = PageTable()
        table.map(PAGE_SIZE_2M * 3, 0x200, KERNEL, PAGE_SIZE_2M)
        lookup = table.lookup(PAGE_SIZE_2M * 3 + 0x1234)
        assert lookup.present
        assert lookup.translation.page_size == PAGE_SIZE_2M
        assert lookup.translation.level_name == "PD"
        assert lookup.translation.flags.huge

    def test_map_1g(self):
        table = PageTable()
        table.map(PAGE_SIZE_1G, 0x300, KERNEL, PAGE_SIZE_1G)
        lookup = table.lookup(PAGE_SIZE_1G + 0xABCDE)
        assert lookup.translation.level_name == "PDPT"

    def test_physical_address_of_4k(self):
        table = PageTable()
        table.map(0x40_0000, 0x111, USER_RW)
        t = table.lookup(0x40_0ABC).translation
        assert t.physical_address == 0x111 * PAGE_SIZE + 0xABC

    def test_physical_address_of_2m(self):
        table = PageTable()
        table.map(PAGE_SIZE_2M, 0x400, KERNEL, PAGE_SIZE_2M)
        t = table.lookup(PAGE_SIZE_2M + 0x12345).translation
        assert t.physical_address == 0x400 * PAGE_SIZE + 0x12345

    def test_unaligned_map_rejected(self):
        table = PageTable()
        with pytest.raises(MappingError):
            table.map(0x1234, 0x1, USER_RW)
        with pytest.raises(MappingError):
            table.map(PAGE_SIZE, 0x1, KERNEL, PAGE_SIZE_2M)

    def test_double_map_rejected(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        with pytest.raises(MappingError):
            table.map(0x1000, 0x2, USER_RW)

    def test_nonpresent_map_rejected(self):
        with pytest.raises(MappingError):
            PageTable().map(0x1000, 0x1, PageFlags.NONE)

    def test_kernel_half_addresses(self):
        table = PageTable()
        va = 0xFFFF_FFFF_8000_0000
        table.map(va, 0x500, KERNEL, PAGE_SIZE_2M)
        assert table.lookup(va + 0x1000).present


class TestUnmapProtect:
    def test_unmap(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        assert table.unmap(0x1000) == PAGE_SIZE
        assert not table.is_mapped(0x1000)

    def test_unmap_unmapped_raises(self):
        with pytest.raises(MappingError):
            PageTable().unmap(0x1000)

    def test_unmap_keeps_intermediate_structures(self):
        # a later walk of the same address terminates at the PT level
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        table.unmap(0x1000)
        assert table.lookup(0x1000).terminal_level == 3

    def test_huge_map_replaces_emptied_table(self):
        # unmap keeps the emptied PT; a 2 MiB page on its PDE frees it
        table = PageTable()
        table.map(PAGE_SIZE_2M + 0x3000, 0x1, KERNEL)
        table.unmap(PAGE_SIZE_2M + 0x3000)
        table.map(PAGE_SIZE_2M, 0x200, KERNEL, PAGE_SIZE_2M)
        lookup = table.lookup(PAGE_SIZE_2M + 0x3000)
        assert lookup.translation.page_size == PAGE_SIZE_2M
        assert lookup.translation.pfn == 0x200

    def test_huge_map_over_live_leaf_raises(self):
        table = PageTable()
        table.map(PAGE_SIZE_2M + 0x3000, 0x1, KERNEL)
        table.map(PAGE_SIZE_2M + 0x4000, 0x2, KERNEL)
        table.unmap(PAGE_SIZE_2M + 0x3000)
        with pytest.raises(MappingError):
            table.map(PAGE_SIZE_2M, 0x200, KERNEL, PAGE_SIZE_2M)
        assert table.lookup(PAGE_SIZE_2M + 0x4000).translation.pfn == 0x2

    def test_lookup_terminal_level_without_structures(self):
        assert PageTable().lookup(0x1000).terminal_level == 0

    def test_protect_changes_flags(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        table.protect(0x1000, PageFlags.PRESENT | PageFlags.USER | PageFlags.NX)
        flags = table.lookup(0x1000).translation.flags
        assert not flags.writable

    def test_protect_to_none_unmaps(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        table.protect(0x1000, PageFlags.NONE)
        assert not table.is_mapped(0x1000)

    def test_protect_preserves_huge_bit(self):
        table = PageTable()
        table.map(PAGE_SIZE_2M, 0x2, KERNEL, PAGE_SIZE_2M)
        table.protect(PAGE_SIZE_2M, PageFlags.PRESENT | PageFlags.NX)
        assert table.lookup(PAGE_SIZE_2M).translation.flags.huge

    def test_set_flag(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        table.set_flag(0x1000, PageFlags.DIRTY)
        assert table.lookup(0x1000).translation.flags.dirty


class TestWalkNodes:
    def test_walk_touches_four_levels_for_4k(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        lookup = table.lookup(0x1000)
        assert [level for level, __ in lookup.nodes] == [0, 1, 2, 3]

    def test_walk_touches_three_levels_for_2m(self):
        table = PageTable()
        table.map(PAGE_SIZE_2M, 0x2, KERNEL, PAGE_SIZE_2M)
        lookup = table.lookup(PAGE_SIZE_2M)
        assert [level for level, __ in lookup.nodes] == [0, 1, 2]

    def test_nonpresent_walk_stops_at_missing_level(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)        # creates PML4->PDPT->PD->PT
        lookup = table.lookup(0x3000)          # same PT, missing entry
        assert not lookup.present
        assert lookup.terminal_level == 3
        other = table.lookup(0x4000_0000_0000)  # different PML4 slot
        assert other.terminal_level == 0


class TestSharing:
    def test_share_top_level(self):
        kernel = PageTable()
        va = 0xFFFF_FFFF_8000_0000
        kernel.map(va, 0x10, KERNEL, PAGE_SIZE_2M)
        user = PageTable()
        user.share_top_level_from(kernel, 511)
        assert user.lookup(va).present
        # later kernel-side mappings in the same slot appear in both
        kernel.map(va + PAGE_SIZE_2M, 0x20, KERNEL, PAGE_SIZE_2M)
        assert user.lookup(va + PAGE_SIZE_2M).present

    @staticmethod
    def _aliased_pair(va):
        kernel = PageTable()
        kernel.map(va, 0x10, KERNEL | PageFlags.WRITABLE, PAGE_SIZE_2M)
        user = PageTable()
        user.share_top_level_from(kernel, 511)
        return kernel, user

    def test_alias_sees_kernel_unmap_of_memoized_va(self):
        va = 0xFFFF_FFFF_8000_0000
        kernel, user = self._aliased_pair(va)
        before = user.lookup(va)
        assert before.present
        assert user.lookup(va) is before  # memoized
        kernel.unmap(va)
        after = user.lookup(va)
        assert not after.present
        # the emptied PD is kept: the walk still ends at the PD level
        assert after.terminal_level == 2
        assert after.nodes == before.nodes

    def test_alias_sees_kernel_protect_of_memoized_va(self):
        va = 0xFFFF_FFFF_8000_0000
        kernel, user = self._aliased_pair(va)
        assert user.lookup(va).translation.flags.writable  # memoized
        kernel.protect(va, KERNEL | PageFlags.NX)
        flags = user.lookup(va).translation.flags
        assert not flags.writable
        assert not flags.executable
        assert flags.huge
        kernel.protect(va, PageFlags.NONE)
        assert not user.lookup(va).present

    def test_moved_table_drops_memo_of_its_old_store(self):
        kva = 0xFFFF_FFFF_8000_0000
        user = PageTable()
        user.map(0x1000, 0x1, PageFlags.PRESENT | PageFlags.USER)
        user.map(0x2000, 0x2, PageFlags.PRESENT | PageFlags.USER)
        assert not user.lookup(kva).present  # memoized on user's store
        kernel = PageTable()
        kernel.map(kva, 0x10, KERNEL, PAGE_SIZE_2M)
        assert user.store.generation == kernel.store.generation + 1
        # the share bumps the kernel store to the user memo's old tag
        user.share_top_level_from(kernel, 511)
        assert user.store is kernel.store
        shared = user.lookup(kva)
        assert shared.present
        assert shared.nodes[1:] == kernel.lookup(kva).nodes[1:]
        assert user.lookup(0x1000).translation.pfn == 0x1

    def test_share_empty_slot_raises(self):
        with pytest.raises(MappingError):
            PageTable().share_top_level_from(PageTable(), 0)


class TestIteration:
    def test_iter_terminal_yields_all(self):
        table = PageTable()
        table.map(0x1000, 0x1, USER_RW)
        table.map(PAGE_SIZE_2M * 5, 0x2, KERNEL, PAGE_SIZE_2M)
        leaves = list(table.iter_terminal())
        bases = sorted(base for base, __, __ in leaves)
        assert bases == [0x1000, PAGE_SIZE_2M * 5]

    def test_iter_terminal_sign_extends_kernel(self):
        table = PageTable()
        va = 0xFFFF_FFFF_8000_0000
        table.map(va, 0x1, KERNEL, PAGE_SIZE_2M)
        (base, __, size), = list(table.iter_terminal())
        assert base == va
        assert size == PAGE_SIZE_2M


class TestAddressSpace:
    def test_map_range(self):
        space = AddressSpace()
        space.map_range(0x10000, 4 * PAGE_SIZE, USER_RW)
        for i in range(4):
            assert space.translate(0x10000 + i * PAGE_SIZE) is not None

    def test_map_range_contiguous_frames(self):
        space = AddressSpace()
        first = space.map_range(0x10000, 2 * PAGE_SIZE, USER_RW)
        t0 = space.translate(0x10000)
        t1 = space.translate(0x11000)
        assert t0.pfn == first
        assert t1.pfn == first + 1

    def test_huge_range_frame_stride(self):
        space = AddressSpace()
        first = space.map_range(0, 2 * PAGE_SIZE_2M, KERNEL, PAGE_SIZE_2M)
        assert space.translate(PAGE_SIZE_2M).pfn == first + 512

    def test_unmap_range(self):
        space = AddressSpace()
        space.map_range(0x10000, 2 * PAGE_SIZE, USER_RW)
        space.unmap_range(0x10000, 2 * PAGE_SIZE)
        assert space.translate(0x10000) is None

    def test_protect_range(self):
        space = AddressSpace()
        space.map_range(0x10000, PAGE_SIZE, USER_RW)
        space.protect_range(
            0x10000, PAGE_SIZE, PageFlags.PRESENT | PageFlags.USER
        )
        assert not space.translate(0x10000).flags.writable

    def test_bad_size_rejected(self):
        with pytest.raises(MappingError):
            AddressSpace().map_range(0x10000, 100, USER_RW)


class TestBatchedMapping:
    def test_rows_in_first_touch_order(self):
        """An unsorted batch numbers new rows as one map per page would."""
        vas = [0x7F00_0000_0000, 0x1000, 0x7F00_0000_1000, 0x4000_0000]
        batched, single = PageTable(), PageTable()
        batched.map_pages(vas, [1, 2, 3, 4], [USER_RW] * 4)
        for pfn, va in enumerate(vas, start=1):
            single.map(va, pfn, USER_RW)
        rows = single.store.rows
        assert batched.store.rows == rows
        assert (batched.store.pte[:rows] == single.store.pte[:rows]).all()
        assert (batched.store.child[:rows] == single.store.child[:rows]).all()

    def test_repeated_slot_keeps_the_pages_before_it(self):
        table = PageTable()
        with pytest.raises(MappingError, match="already mapped"):
            table.map_pages([0x1000, 0x2000, 0x1000, 0x3000], [1, 2, 3, 4],
                            [USER_RW] * 4)
        assert table.lookup(0x1000).translation.pfn == 1
        assert table.is_mapped(0x2000)
        assert not table.is_mapped(0x3000)

    def test_live_leaf_refuses_and_later_pages_stay_unmapped(self):
        table = PageTable()
        table.map(0x2000, 9, USER_RW)
        rows = table.store.rows
        with pytest.raises(MappingError, match="already mapped"):
            table.map_pages([0x1000, 0x2000, 1 << 39], [1, 2, 3],
                            [USER_RW] * 3)
        assert table.is_mapped(0x1000)
        assert table.lookup(0x2000).translation.pfn == 9
        # the refused page's successor created no paging structures
        assert table.store.rows == rows

    def test_page_below_a_huge_leaf_refused(self):
        table = PageTable()
        table.map(0, 1, KERNEL, PAGE_SIZE_2M)
        with pytest.raises(MappingError, match="terminal"):
            table.map_pages([0x1000, PAGE_SIZE_2M], [2, 3], [KERNEL] * 2)
        assert table.lookup(0x1000).translation.pfn == 1
        assert not table.is_mapped(PAGE_SIZE_2M)

    def test_checks_refuse_the_whole_batch(self):
        table = PageTable()
        for vas, pfns, words in (
            ([0x1000, 0x1800], [1, 2], [KERNEL] * 2),  # misaligned
            ([0x1000, 0x2000], [1, 2], [KERNEL, PageFlags.USER]),  # absent
            ([0x1000, 0x2000], [1, -2], [KERNEL] * 2),  # negative pfn
        ):
            with pytest.raises(MappingError):
                table.map_pages(vas, pfns, words)
        with pytest.raises(AddressError):
            table.map_pages([0x1000, 1 << 47], [1, 2], [KERNEL] * 2)
        assert table.store.rows == 1 and not table.is_mapped(0x1000)


class TestMapRuns:
    def test_frames_follow_run_order(self):
        space = AddressSpace()
        first = space.map_runs([0x40_0000, 0x10_0000], [2, 3],
                               [USER_RW, KERNEL])
        assert space.translate(0x40_1000).pfn == first + 1
        assert space.translate(0x10_0000).pfn == first + 2
        assert space.translate(0x10_0000).flags == KERNEL
        assert space.frames.allocated_count == 5

    def test_empty_run_maps_nothing(self):
        space = AddressSpace()
        space.map_runs([0x1000, 0x8000], [0, 1], [USER_RW, USER_RW])
        assert not space.translate(0x1000)
        assert space.translate(0x8000) is not None

    def test_run_off_the_top_of_the_kernel_half_refused(self):
        with pytest.raises(AddressError, match="canonical half"):
            AddressSpace().map_runs([0xFFFF_FFFF_FFFF_F000], [2], [KERNEL])
