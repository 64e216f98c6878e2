"""User processes: mmap/munmap/mprotect, image loading, /proc/PID/maps.

The process maps into the kernel's *user-visible* page table (the shared
table without KPTI, the user shadow table with it), which is exactly the
table the attacker's probes translate through.
"""

from repro.errors import MappingError
from repro.mmu.address import PAGE_SIZE, page_align_up
from repro.mmu.flags import PageFlags, flags_from_prot
from repro.os.linux.libraries import default_library_set

#: PTE flags of each /proc/PID/maps permission string
_FLAGS_OF_PERMS = {
    "r--": flags_from_prot(read=True, write=False, execute=False),
    "rw-": flags_from_prot(read=True, write=True, execute=False),
    "r-x": flags_from_prot(read=True, write=False, execute=True),
    "rwx": flags_from_prot(read=True, write=True, execute=True),
    "---": flags_from_prot(read=False, write=False, execute=False),
}


class Region:
    """One VMA: a contiguous mapping with uniform permissions.

    ``lazy`` regions follow Linux demand paging: the VMA exists but no
    PTE does until the page is first touched (a minor fault maps it).
    ``populated`` tracks which page indices have been faulted in.
    """

    __slots__ = ("start", "pages", "perms", "name", "hidden", "lazy",
                 "populated")

    def __init__(self, start, pages, perms, name="", hidden=False,
                 lazy=False):
        self.start = start
        self.pages = pages
        self.perms = perms
        self.name = name
        self.hidden = hidden
        self.lazy = lazy
        self.populated = set() if lazy else None

    @property
    def end(self):
        return self.start + self.pages * PAGE_SIZE

    def __repr__(self):
        return "Region({:#x}-{:#x} {} {})".format(
            self.start, self.end, self.perms, self.name
        )


class Process:
    """A single user process inside a simulated Linux kernel."""

    def __init__(self, kernel, libraries=None, executable_pages=(6, 1, 2),
                 with_hidden_pages=True):
        self.kernel = kernel
        self.space = kernel.user_space
        self.policy = kernel.policy
        self.regions = []
        self._mmap_cursor = None

        # the executable, the libraries and the hidden pages are placed
        # first (the RNG draws in load order), then mapped with one
        # page-table write
        self.text_base, specs = self._place_executable(executable_pages)
        self.library_bases = {}
        if libraries is None:
            libraries = default_library_set()
        for image in libraries:
            self.library_bases[image.name], sections = \
                self._place_library(image)
            specs += sections
        if with_hidden_pages:
            specs += self._place_hidden_pages()
        self._map_regions(specs)

    # -- image loading --------------------------------------------------------

    def _place_executable(self, page_spec):
        """Lay out the main executable: text / rodata / data segments.

        Returns the base and the region specs for :meth:`_map_regions`.
        """
        text, rodata, data = page_spec
        base = self.policy.user_text_base()
        specs = []
        cursor = base
        for pages, perms, name in (
            (text, "r-x", "app/.text"),
            (rodata, "r--", "app/.rodata"),
            (data, "rw-", "app/.data"),
        ):
            # loader relocations already wrote the data pages -> dirty
            specs.append((cursor, pages, perms, name, False, perms == "rw-"))
            cursor += pages * PAGE_SIZE
        return base, specs

    def load_library(self, image):
        """Map a library's sections consecutively at a randomized base."""
        base, specs = self._place_library(image)
        self._map_regions(specs)
        return base

    def _place_library(self, image):
        """Lay out a library's sections; return its base and region specs."""
        base = self._next_mmap_address(image.total_pages)
        specs = []
        cursor = base
        for section in image.sections:
            specs.append((
                cursor, section.pages, section.perms,
                "{}:{}".format(image.name, section.name),
                False, section.perms == "rw-",
            ))
            cursor += section.pages * PAGE_SIZE
        return base, specs

    def _place_hidden_pages(self):
        """Loader scratch pages that /proc/PID/maps does not report.

        The paper's probe "detected additional pages that had never been
        identified with a /proc/PID/maps file" (Figure 7); these model
        them.
        """
        return [
            (base, 1, perms, "loader-scratch", True, False)
            for base, perms in (
                (self.text_base + 0x42000, "r--"),
                (self._next_mmap_address(1), "rw-"),
            )
        ]

    # -- syscalls ---------------------------------------------------------------

    def mmap(self, pages, perms="rw-", addr=None, name="anon",
             populate=True):
        """Map ``pages`` anonymous pages; returns the chosen address.

        ``populate=True`` models MAP_POPULATE (PTEs installed eagerly);
        ``populate=False`` models stock Linux demand paging -- the pages
        stay non-present until :meth:`touch` faults them in, and a
        zero-mask AVX probe sees them as unmapped until then.
        """
        if addr is None:
            addr = self._next_mmap_address(pages)
        if populate or perms == "---":
            self._map_regions([(addr, pages, perms, name, False, False)])
        else:
            self.regions.append(
                Region(addr, pages, perms, name, lazy=True)
            )
        return addr

    def touch(self, addr, write=False):
        """First-touch a demand-paged address (the minor-fault path).

        Returns True if a page was faulted in, False if it was already
        present.  A write fault installs the PTE dirty (the CPU sets D on
        the faulting store's retry); a read fault leaves it clean.
        """
        region = self.region_at(addr)
        if region is None or region.perms == "---":
            raise MappingError(
                "segfault: {:#x} is not in a mapped region".format(addr)
            )
        if not region.lazy:
            return False
        index = (addr - region.start) // PAGE_SIZE
        if index in region.populated:
            return False
        if write and "w" not in region.perms:
            raise MappingError(
                "segfault: write fault on {} region".format(region.perms)
            )
        flags = self._flags(region.perms)
        flags |= PageFlags.ACCESSED
        if write:
            flags |= PageFlags.DIRTY
        page_va = region.start + index * PAGE_SIZE
        self.space.map_range(page_va, PAGE_SIZE, flags)
        region.populated.add(index)
        return True

    def is_populated(self, addr):
        """Is there a present PTE behind ``addr`` right now?"""
        return self.space.translate(addr) is not None

    def munmap(self, addr, pages):
        """Remove mappings and the covering region records."""
        end = addr + pages * PAGE_SIZE
        for region in list(self.regions):
            if region.start >= end or region.end <= addr:
                continue
            if region.start < addr or region.end > end:
                raise MappingError("partial munmap of a region is not modelled")
            if region.lazy:
                for index in region.populated:
                    self.space.unmap_range(
                        region.start + index * PAGE_SIZE, PAGE_SIZE
                    )
            elif region.perms != "---":
                self.space.unmap_range(region.start, region.pages * PAGE_SIZE)
            self.regions.remove(region)

    def mprotect(self, addr, pages, perms):
        """Change permissions of an existing region (whole-region only)."""
        region = self.region_at(addr)
        if region is None or region.start != addr or region.pages != pages:
            raise MappingError("mprotect must cover exactly one region")
        old, new = region.perms, perms
        size = pages * PAGE_SIZE
        if old == "---" and new != "---":
            self.space.map_range(addr, size, self._flags(new))
        elif old != "---" and new == "---":
            self.space.unmap_range(addr, size)
        elif old != new:
            self.space.protect_range(addr, size, self._flags(new))
        region.perms = new

    # -- introspection -----------------------------------------------------------

    def maps(self):
        """/proc/PID/maps: visible regions, sorted, PROT_NONE included."""
        visible = [r for r in self.regions if not r.hidden]
        return sorted(visible, key=lambda r: r.start)

    def all_regions(self):
        """Ground truth including hidden pages (for verifying the attack)."""
        return sorted(self.regions, key=lambda r: r.start)

    def region_at(self, addr):
        for region in self.regions:
            if region.start <= addr < region.end:
                return region
        return None

    def true_permissions(self, addr):
        """Ground truth page permissions at ``addr`` ('---' if unmapped)."""
        region = self.region_at(addr)
        return region.perms if region is not None else "---"

    # -- internals -----------------------------------------------------------------

    @staticmethod
    def _flags(perms):
        return _FLAGS_OF_PERMS[perms]

    def _map_regions(self, specs):
        """Map ``(addr, pages, perms, name, hidden, dirty)`` region specs.

        The PTEs of every region but PROT_NONE ones go in with one
        page-table write, with frames in spec order; the regions are
        recorded once they are mapped.
        """
        runs = []
        for addr, pages, perms, __, __, dirty in specs:
            if pages <= 0:
                raise MappingError("region must have at least one page")
            if perms != "---":
                flags = self._flags(perms)
                if dirty:
                    flags |= PageFlags.DIRTY | PageFlags.ACCESSED
                runs.append((addr, pages, flags))
        if runs:
            self.space.map_runs(*zip(*runs))
        self.regions.extend(Region(*spec[:5]) for spec in specs)

    def _next_mmap_address(self, pages):
        if self._mmap_cursor is None:
            self._mmap_cursor = self.policy.user_mmap_base()
        addr = self._mmap_cursor
        # one guard page between consecutive mmap'd objects
        self._mmap_cursor = page_align_up(
            addr + (pages + 1) * PAGE_SIZE
        )
        return addr
