"""Randomization policies: kernel base, module area, user mmap bases.

KASLR places the kernel image at one of 512 2-MiB-aligned slots inside the
1-GiB text window (9 bits of entropy); module load addresses are packed
from a randomized start of the 64-MiB module window; user-space ASLR uses
28 bits at 4-KiB granularity (paper Sections II-B and IV-F).
"""

import numpy as np

from repro.errors import ConfigError
from repro.mmu.address import PAGE_SIZE
from repro.os.linux import layout


class KASLRPolicy:
    """Draws randomized layout decisions from an explicit RNG."""

    def __init__(self, rng=None, seed=0, enabled=True):
        if rng is None:
            rng = np.random.default_rng(seed)
        self.rng = rng
        self.enabled = enabled

    # -- kernel -------------------------------------------------------------

    def kernel_base(self, image_2m_pages=layout.KERNEL_IMAGE_2M_PAGES,
                    extra_tail_bytes=0):
        """Pick the kernel base so the whole image fits in the window.

        With KASLR disabled (``nokaslr``) the base is the fixed
        0xffffffff81000000 the paper uses in its KPTI experiment.
        """
        if not self.enabled:
            return 0xFFFF_FFFF_8100_0000
        tail_slots = -(-extra_tail_bytes // layout.KERNEL_ALIGN)
        usable = layout.KERNEL_TEXT_SLOTS - image_2m_pages - tail_slots
        if usable <= 0:
            raise ConfigError("kernel image too large for the KASLR window")
        slot = int(self.rng.integers(0, usable))
        return layout.kernel_base_of_slot(slot)

    def module_area_start(self, total_pages):
        """Pick the randomized start of the packed module area."""
        slack = layout.MODULE_SLOTS - total_pages
        if slack <= 0:
            raise ConfigError("modules do not fit in the module window")
        if not self.enabled:
            return layout.MODULE_START
        offset = int(self.rng.integers(0, min(slack, 4096)))
        return layout.MODULE_START + offset * PAGE_SIZE

    def intermodule_gaps(self, count):
        """Unmapped guard pages after each of ``count`` modules (1..3).

        One vector draw: the same values, and the same RNG state after,
        as ``count`` scalar draws.
        """
        return self.rng.integers(1, 4, size=count)

    # -- user space ----------------------------------------------------------

    def user_text_base(self):
        """28-bit randomized executable base in the 0x55XX... region."""
        offset = int(self.rng.integers(0, 1 << layout.USER_ASLR_BITS))
        return layout.USER_TEXT_REGION + offset * PAGE_SIZE

    def user_mmap_base(self):
        """28-bit randomized mmap/library base in the 0x7fXX... region."""
        offset = int(self.rng.integers(0, 1 << layout.USER_ASLR_BITS))
        return layout.USER_MMAP_REGION + offset * PAGE_SIZE
