"""Linux OS layer: KASLR policy, kernel image, modules, KPTI, procfs."""

import numpy as np
import pytest

from repro.machine import Machine
from repro.mmu.address import (
    LEVEL_SHIFTS,
    PAGE_SIZE,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
)
from repro.mmu.flags import PageFlags
from repro.mmu.pagetable import AddressSpace, PageTable
from repro.os.linux import layout
from repro.os.linux.kaslr import KASLRPolicy
from repro.os.linux.kernel import _KDATA, _KTEXT, SYSCALL_TABLE, LinuxKernel
from repro.os.linux.modules import (
    MODULE_CATALOG,
    ModuleInfo,
    by_name,
    default_module_set,
    page_count_histogram,
    uniquely_sized,
)
from repro.os.linux.process import Process, Region


class TestLayoutConstants:
    def test_kernel_window_is_1gib_512_slots(self):
        assert layout.KERNEL_TEXT_END - layout.KERNEL_TEXT_START == 1 << 30
        assert layout.KERNEL_TEXT_SLOTS == 512

    def test_module_window_is_64mib_16384_slots(self):
        assert layout.MODULE_END - layout.MODULE_START == 64 << 20
        assert layout.MODULE_SLOTS == 16384

    def test_slot_roundtrip(self):
        base = layout.kernel_base_of_slot(271)
        assert base == 0xFFFF_FFFF_A1E0_0000  # the paper's Figure 4 base
        assert layout.kernel_slot_of(base) == 271

    def test_trampoline_offsets(self):
        assert layout.KPTI_TRAMPOLINE_OFFSETS["5.11.0-27"] == 0xC0_0000
        assert layout.KPTI_TRAMPOLINE_OFFSETS["5.11.0-1020-aws"] == 0xE0_0000


class TestKASLRPolicy:
    def test_kernel_base_aligned_and_in_window(self):
        policy = KASLRPolicy(seed=0)
        for _ in range(100):
            base = policy.kernel_base()
            assert base % layout.KERNEL_ALIGN == 0
            assert layout.KERNEL_TEXT_START <= base < layout.KERNEL_TEXT_END

    def test_image_always_fits(self):
        policy = KASLRPolicy(seed=1)
        for _ in range(200):
            base = policy.kernel_base(image_2m_pages=22)
            end = base + 22 * PAGE_SIZE_2M
            assert end <= layout.KERNEL_TEXT_END

    def test_nokaslr_base_is_fixed(self):
        policy = KASLRPolicy(seed=2, enabled=False)
        assert policy.kernel_base() == 0xFFFF_FFFF_8100_0000
        assert policy.kernel_base() == policy.kernel_base()

    def test_entropy_is_used(self):
        policy = KASLRPolicy(seed=3)
        bases = {policy.kernel_base() for _ in range(64)}
        assert len(bases) > 32

    def test_deterministic_across_equal_seeds(self):
        assert KASLRPolicy(seed=7).kernel_base() == KASLRPolicy(seed=7).kernel_base()

    def test_user_bases_in_expected_regions(self):
        policy = KASLRPolicy(seed=4)
        text = policy.user_text_base()
        assert layout.USER_TEXT_REGION <= text < layout.USER_TEXT_REGION + (
            1 << 40
        )
        assert text % PAGE_SIZE == 0
        mmap_base = policy.user_mmap_base()
        assert layout.USER_MMAP_REGION <= mmap_base

    def test_module_area_start(self):
        policy = KASLRPolicy(seed=5)
        start = policy.module_area_start(4000)
        assert layout.MODULE_START <= start < layout.MODULE_END
        assert start % PAGE_SIZE == 0


class TestModuleCatalog:
    def test_125_modules(self):
        assert len(MODULE_CATALOG) == 125

    def test_19_unique_sizes(self):
        assert len(uniquely_sized()) == 19

    def test_paper_named_uniques(self):
        unique_names = {m.name for m in uniquely_sized()}
        assert {"video", "mac_hid", "pinctrl_icelake"} <= unique_names
        assert {"bluetooth", "psmouse"} <= unique_names

    def test_autofs4_x_tables_collide(self):
        assert by_name("autofs4").pages == by_name("x_tables").pages
        histogram = page_count_histogram()
        assert set(histogram[by_name("autofs4").pages]) == {
            "autofs4", "x_tables"
        }

    def test_no_duplicate_names(self):
        names = [m.name for m in MODULE_CATALOG]
        assert len(names) == len(set(names))

    def test_pages_consistent_with_bytes(self):
        for module in MODULE_CATALOG:
            assert module.pages == -(-module.size_bytes // PAGE_SIZE)
            assert module.pages >= 1

    def test_unknown_module_lookup(self):
        with pytest.raises(KeyError):
            by_name("nonexistent_driver")

    def test_default_set_is_fresh_list(self):
        a = default_module_set()
        b = default_module_set()
        assert a == list(MODULE_CATALOG)
        assert a is not b


class TestLinuxKernel:
    @pytest.fixture
    def kernel(self):
        return LinuxKernel(seed=42)

    def test_image_mapped_from_base(self, kernel):
        assert kernel.kernel_space.translate(kernel.base) is not None
        last = kernel.base + (kernel.image_2m_pages - 1) * PAGE_SIZE_2M
        assert kernel.kernel_space.translate(last) is not None

    def test_text_data_split_respects_wx(self, kernel):
        """Strict kernel memory permissions: no page is both W and X."""
        for base, entry, __ in kernel.kernel_space.page_table.iter_terminal():
            assert not (entry.flags.writable and entry.flags.executable)

    def test_kernel_pages_are_supervisor(self, kernel):
        translation = kernel.kernel_space.translate(kernel.base)
        assert not translation.flags.user

    def test_four_k_tail_pages(self, kernel):
        for offset in layout.KERNEL_4K_PAGE_OFFSETS:
            translation = kernel.kernel_space.translate(kernel.base + offset)
            assert translation is not None
            assert translation.page_size == PAGE_SIZE

    def test_slot_before_base_unmapped(self, kernel):
        if kernel.base > layout.KERNEL_TEXT_START:
            assert kernel.kernel_space.translate(
                kernel.base - PAGE_SIZE_2M
            ) is None

    def test_all_modules_loaded(self, kernel):
        assert len(kernel.module_map) == 125
        for name, (start, pages) in kernel.module_map.items():
            assert layout.MODULE_START <= start < layout.MODULE_END
            assert kernel.kernel_space.translate(start) is not None
            last_page = start + (pages - 1) * PAGE_SIZE
            assert kernel.kernel_space.translate(last_page) is not None

    def test_modules_separated_by_guard_pages(self, kernel):
        regions = sorted(kernel.module_map.values())
        for (start_a, pages_a), (start_b, __) in zip(regions, regions[1:]):
            end_a = start_a + pages_a * PAGE_SIZE
            assert start_b > end_a  # at least one unmapped page between
            assert kernel.kernel_space.translate(end_a) is None

    def test_kallsyms_contains_base_and_entry(self, kernel):
        symbols = kernel.kallsyms()
        assert symbols["_text"] == kernel.base
        assert symbols["entry_SYSCALL_64"] == kernel.base + kernel.trampoline_offset
        assert "sys_read" in symbols

    def test_proc_modules_hides_addresses(self, kernel):
        lines = kernel.proc_modules()
        assert len(lines) == 125
        name, size = lines[0]
        assert isinstance(name, str) and isinstance(size, int)

    def test_functions_at_constant_offsets_without_fgkaslr(self):
        a = LinuxKernel(seed=1)
        b = LinuxKernel(seed=2)
        for name in SYSCALL_TABLE[:5]:
            assert a.functions[name] - a.base == b.functions[name] - b.base

    def test_fgkaslr_shuffles_function_offsets(self):
        a = LinuxKernel(seed=1, fgkaslr=True)
        b = LinuxKernel(seed=2, fgkaslr=True)
        offsets_a = [a.functions[n] - a.base for n in SYSCALL_TABLE]
        offsets_b = [b.functions[n] - b.base for n in SYSCALL_TABLE]
        assert offsets_a != offsets_b

    def test_is_kernel_text_mapped_ground_truth(self, kernel):
        assert kernel.is_kernel_text_mapped(kernel.base)
        assert kernel.is_kernel_text_mapped(kernel.base + 0x1234)
        assert not kernel.is_kernel_text_mapped(layout.KERNEL_TEXT_START - 1)


class TestKPTI:
    @pytest.fixture
    def kernel(self):
        return LinuxKernel(seed=7, kpti=True)

    def test_kernel_not_in_user_table(self, kernel):
        assert kernel.user_space is not kernel.kernel_space
        assert kernel.user_space.translate(kernel.base) is None

    def test_trampoline_in_user_table(self, kernel):
        trampoline = kernel.base + kernel.trampoline_offset
        for i in range(layout.KPTI_TRAMPOLINE_PAGES):
            translation = kernel.user_space.translate(trampoline + i * PAGE_SIZE)
            assert translation is not None
            assert not translation.flags.user  # supervisor page

    def test_modules_not_in_user_table(self, kernel):
        start, __ = kernel.module_map["video"]
        assert kernel.user_space.translate(start) is None

    def test_non_kpti_shares_table(self):
        kernel = LinuxKernel(seed=7, kpti=False)
        assert kernel.user_space is kernel.kernel_space


class TestFlare:
    def test_flare_maps_all_text_slots(self):
        kernel = LinuxKernel(seed=9, flare=True)
        for slot in range(0, layout.KERNEL_TEXT_SLOTS, 17):
            va = layout.kernel_base_of_slot(slot)
            assert kernel.kernel_space.translate(va) is not None

    def test_flare_maps_module_window(self):
        kernel = LinuxKernel(seed=9, flare=True)
        for slot in range(0, layout.MODULE_SLOTS, 1111):
            va = layout.MODULE_START + slot * PAGE_SIZE
            assert kernel.kernel_space.translate(va) is not None

    @staticmethod
    def _page_at_a_time(kernel):
        """FLARE dummies one slot at a time, a translate per slot."""
        space = kernel.kernel_space
        image = layout.kernel_slot_of(kernel.base)
        slots = []
        for slot in range(layout.KERNEL_TEXT_SLOTS):
            va = layout.kernel_base_of_slot(slot)
            if image <= slot < image + kernel.image_2m_pages \
                    or space.translate(va) is not None:
                continue
            space.map_range(va, PAGE_SIZE_2M, PageFlags.PRESENT,
                            page_size=PAGE_SIZE_2M)
            slots.append(slot)
        for slot in range(layout.MODULE_SLOTS):
            va = layout.MODULE_START + slot * PAGE_SIZE
            if space.translate(va) is None:
                space.map_range(va, PAGE_SIZE, PageFlags.PRESENT)
        return slots

    @staticmethod
    def _leaves(kernel):
        return [(va, t.pfn, t.flags, size) for va, t, size
                in kernel.kernel_space.page_table.iter_terminal()]

    @pytest.mark.parametrize("seed", [1, 4, 7])
    @pytest.mark.parametrize("fgkaslr", [False, True])
    def test_run_mapping_matches_page_at_a_time(self, seed, fgkaslr):
        kernel = LinuxKernel(seed=seed, flare=True, fgkaslr=fgkaslr)
        reference = LinuxKernel(seed=seed, fgkaslr=fgkaslr)
        slots = self._page_at_a_time(reference)
        assert kernel.flare_dummy_slots == slots
        assert self._leaves(kernel) == self._leaves(reference)
        assert kernel.kernel_space.frames.allocated_count \
            == reference.kernel_space.frames.allocated_count


class TestKernelActivity:
    def test_syscall_loads_entry_translation(self):
        from repro.cpu.core import Core
        from repro.cpu.models import get_cpu_model

        kernel = LinuxKernel(seed=3)
        core = Core(get_cpu_model("i5-12400F"), seed=0)
        core.set_address_space(kernel.user_space)
        kernel.syscall(core, "sys_read")
        assert core.tlb.holds(kernel.entry_address)
        assert core.tlb.holds(kernel.functions["sys_read"])

    def test_touch_module_loads_translations(self):
        from repro.cpu.core import Core
        from repro.cpu.models import get_cpu_model

        kernel = LinuxKernel(seed=3)
        core = Core(get_cpu_model("i5-12400F"), seed=0)
        core.set_address_space(kernel.user_space)
        kernel.touch_module(core, "bluetooth", pages=4)
        start, __ = kernel.module_map["bluetooth"]
        for i in range(4):
            assert core.tlb.holds(start + i * PAGE_SIZE)


# -- batched boot against a page-at-a-time reference ---------------------------

_DIR_WORD = int(PageFlags.PRESENT | PageFlags.WRITABLE | PageFlags.USER)


def _map_pages_one_by_one(table, vas, pfns, words, page_size=PAGE_SIZE):
    """``PageTable.map_pages`` as plain Python, one page at a time."""
    level = {PAGE_SIZE_1G: 1, PAGE_SIZE_2M: 2, PAGE_SIZE: 3}[page_size]
    store = table.store
    for va, pfn, word in zip(vas, pfns, words):
        va = int(va) & ((1 << 64) - 1)
        row = table.root
        for shift in LEVEL_SHIFTS[:level]:
            index = va >> shift & 0x1FF
            kid = int(store.child[row, index])
            if not kid:
                assert not store.pte[row, index]
                kid = store.new_rows()
                store.pte[row, index] = _DIR_WORD
                store.child[row, index] = kid
            row = kid
        index = va >> LEVEL_SHIFTS[level] & 0x1FF
        assert not store.pte[row, index]
        word = int(word) | int(pfn) << 12
        if level < 3:
            word |= int(PageFlags.HUGE)
        store.pte[row, index] = word - (1 << 64) if word >> 63 else word
        store.generation += 1


def _map_runs_one_by_one(space, starts, counts, flags, page_size=PAGE_SIZE):
    """``AddressSpace.map_runs`` as one frame and one map per page."""
    first = None
    for start, count, word in zip(starts, counts, flags):
        for i in range(int(count)):
            pfn = space.frames.alloc(page_size // PAGE_SIZE)
            first = pfn if first is None else first
            space.page_table.map(int(start) + i * page_size, pfn, word,
                                 page_size)
    return first


def _load_modules_one_by_one(kernel):
    """``LinuxKernel._load_modules`` as a loop: one gap draw per module."""
    total = sum(m.pages for m in kernel.modules) + 3 * len(kernel.modules)
    cursor = kernel.policy.module_area_start(total)
    for module in kernel.modules:
        text = max(1, module.pages * 3 // 5)
        kernel.kernel_space.map_runs(
            [cursor, cursor + text * PAGE_SIZE],
            [text, max(0, module.pages - text)], [_KTEXT, _KDATA],
        )
        kernel.module_map[module.name] = (cursor, module.pages)
        cursor += (module.pages + int(kernel.policy.rng.integers(1, 4))) \
            * PAGE_SIZE


def _map_regions_one_by_one(process, specs):
    """``Process._map_regions`` as one ``map_range`` per region."""
    for addr, pages, perms, name, hidden, dirty in specs:
        if perms != "---":
            flags = process._flags(perms)
            if dirty:
                flags |= PageFlags.DIRTY | PageFlags.ACCESSED
            process.space.map_range(addr, pages * PAGE_SIZE, flags)
        process.regions.append(Region(addr, pages, perms, name, hidden))


def _boot_state(machine):
    """Everything a boot leaves behind that later simulation reads."""
    kernel = machine.kernel
    spaces = [kernel.kernel_space]
    if kernel.user_space is not kernel.kernel_space:
        spaces.append(kernel.user_space)
    tables = []
    for space in spaces:
        store = space.page_table.store
        tables.append((store.rows, store.pte[:store.rows].tobytes(),
                       store.child[:store.rows].tobytes()))
    return {
        "tables": tables,
        "next_pfn": kernel.kernel_space.frames.alloc(),
        "module_map": kernel.module_map,
        "regions": [(r.start, r.pages, r.perms, r.name, r.hidden, r.lazy)
                    for r in machine.process.regions],
        "rng": [rng.bit_generator.state
                for rng in (kernel.rng, machine.core.rng, machine.rng)],
    }


_CUSTOM_MODULES = default_module_set()[:30] + [
    ModuleInfo("one_page", PAGE_SIZE), ModuleInfo("two_pages", 2 * PAGE_SIZE),
]

_BOOTS = {
    "base": lambda seed: Machine.linux(seed=seed),
    "nokaslr": lambda seed: Machine.linux(seed=seed, kaslr=False),
    "kpti": lambda seed: Machine.linux(seed=seed, kpti=True),
    "fgkaslr": lambda seed: Machine.linux(seed=seed, fgkaslr=True),
    "flare": lambda seed: Machine.linux(seed=seed, flare=True),
    "gce": lambda seed: Machine.cloud("gce", seed=seed),
    "ec2": lambda seed: Machine.cloud("ec2", seed=seed),
    "ryzen": lambda seed: Machine.linux(cpu="ryzen5-5600X", seed=seed),
    "custom": lambda seed: Machine.linux(seed=seed, modules=_CUSTOM_MODULES),
}


class TestBatchedBoot:
    @pytest.mark.parametrize("variant", sorted(_BOOTS))
    def test_boot_matches_page_at_a_time(self, variant, monkeypatch):
        """Batched boots equal the per-page, per-module-draw reference."""
        boot = _BOOTS[variant]
        for seed in range(40):
            batched = _boot_state(boot(seed))
            with monkeypatch.context() as patch:
                patch.setattr(PageTable, "map_pages", _map_pages_one_by_one)
                patch.setattr(AddressSpace, "map_runs", _map_runs_one_by_one)
                patch.setattr(LinuxKernel, "_load_modules",
                              _load_modules_one_by_one)
                patch.setattr(Process, "_map_regions",
                              _map_regions_one_by_one)
                reference = _boot_state(boot(seed))
            assert batched == reference, (variant, seed)

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_module_region_is_one_page_table_write(self, seed, monkeypatch):
        """Page-table writes per boot, counted: no timing involved."""
        calls = []
        real = PageTable.map_pages

        def counted(table, vas, pfns, words, page_size=PAGE_SIZE):
            calls.append(np.asarray(vas, dtype=np.uint64))
            real(table, vas, pfns, words, page_size)

        monkeypatch.setattr(PageTable, "map_pages", counted)
        machine = Machine.linux(seed=seed)
        in_window = [vas for vas in calls if (
            (vas >= layout.MODULE_START) & (vas < layout.MODULE_END)
        ).any()]
        assert len(in_window) == 1
        assert len(in_window[0]) == sum(
            max(module.pages, 1) for module in machine.kernel.modules
        )
        # image, its 4 KiB tails, modules, process image, 3 playground
        # pages; a per-module loop would make ~250 calls
        assert len(calls) <= 8
