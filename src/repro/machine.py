"""One-call construction of complete attack targets.

A :class:`Machine` bundles a CPU model, a booted OS, an attacker process
(with the handful of user pages the calibration step needs) and a core the
attack code drives.  Factories cover every environment the paper
evaluates: bare Linux, KPTI Linux, Windows (optionally KVAS), the three
cloud instances, and SGX-enclave-hosted attackers.
"""

import numpy as np

from repro.cpu.core import Core
from repro.cpu.models import get_cpu_model
from repro.errors import ConfigError
from repro.mmu.flags import flags_from_prot
from repro.mmu.address import PAGE_SIZE
from repro.os.cloud.instances import CLOUD_CATALOG
from repro.os.linux.kernel import LinuxKernel
from repro.os.linux.process import Process
from repro.os.sgx.enclave import Enclave
from repro.os.windows.kernel import WindowsKernel


class Playground:
    """Attacker-controlled user pages used for threshold calibration.

    The paper's calibration (Section IV-B) measures the masked store on a
    freshly mmap'd USER-M page whose dirty bit is still clear; Figure 3
    additionally needs r--, r-x and PROT_NONE pages.
    """

    __slots__ = ("user_rw", "user_ro", "user_rx", "user_none", "unmapped")

    def __init__(self, user_rw, user_ro, user_rx, user_none, unmapped):
        self.user_rw = user_rw
        self.user_ro = user_ro
        self.user_rx = user_rx
        self.user_none = user_none
        self.unmapped = unmapped


class Machine:
    """A complete simulated target: CPU + OS + attacker context."""

    def __init__(self, cpu, kernel, core, rng, os_family, process=None,
                 playground=None, instance=None):
        self.cpu = cpu
        self.kernel = kernel
        self.core = core
        self.rng = rng
        self.os_family = os_family
        self.process = process
        self.playground = playground
        self.instance = instance
        self.enclave = None
        #: disturbance runtime (:class:`repro.chaos.ChaosRuntime`) or None
        self.chaos = None
        #: the boot seed the factory was called with (None for machines
        #: assembled by hand); campaign journaling records it per unit
        #: so a resumed run can rebuild the identical victim
        self.seed = None

    def _attach_chaos(self, profile, chaos_rng):
        """Attach a disturbance runtime (no-op when ``profile`` is None)."""
        if profile is None:
            return self
        from repro.chaos import ChaosRuntime

        self.chaos = ChaosRuntime(profile, rng=chaos_rng).attach(self)
        return self

    # -- factories -------------------------------------------------------------

    @classmethod
    def linux(cls, cpu="i5-12400F", seed=0, kernel_version="5.11.0-27",
              kaslr=True, kpti=None, pcid=None, flare=False, fgkaslr=False,
              modules=None, libraries=None, noise_factor=1.0, chaos=None):
        """Boot a Linux machine.

        ``kpti=None`` follows the distro default: enabled exactly when the
        CPU is Meltdown-vulnerable.  ``pcid=None`` likewise: KPTI kernels
        use PCID-tagged TLB entries when the CPU has them (all modelled
        parts do); pass ``pcid=False`` for a ``nopcid`` boot, where every
        kernel exit flushes instead.

        ``chaos`` (a profile name or :class:`~repro.chaos.ChaosProfile`)
        attaches a disturbance-injection runtime seeded from the
        machine's 4th spawned stream -- the first three streams are
        unchanged, so chaos-off machines are bit-identical to before.
        """
        cpu = get_cpu_model(cpu)
        if kpti is None:
            kpti = cpu.meltdown_vulnerable
        if pcid is None:
            pcid = kpti
        seeds = np.random.SeedSequence(seed).spawn(4)
        layout_rng = np.random.default_rng(seeds[0])
        noise_rng = np.random.default_rng(seeds[1])
        machine_rng = np.random.default_rng(seeds[2])
        chaos_rng = np.random.default_rng(seeds[3])

        kernel = LinuxKernel(
            version=kernel_version, kaslr=kaslr, kpti=kpti,
            modules=modules, fgkaslr=fgkaslr, flare=flare, rng=layout_rng,
        )
        process = Process(kernel, libraries=libraries)
        core = Core(cpu, rng=noise_rng)
        core.noise.sigma *= noise_factor
        core.set_address_space(kernel.user_space)
        if kpti:
            if pcid:
                core.kernel_asid = 1
            else:
                core.kernel_exit_flushes = True
        playground = cls._build_playground(process)
        machine = cls(cpu, kernel, core, machine_rng, "linux",
                      process=process, playground=playground)
        machine.seed = seed
        return machine._attach_chaos(chaos, chaos_rng)

    @classmethod
    def windows(cls, cpu="i5-12400F", seed=0, version="21H2", kvas=None,
                noise_factor=1.0, chaos=None):
        """Boot a Windows 10 machine (KVAS follows Meltdown vulnerability)."""
        cpu = get_cpu_model(cpu)
        if kvas is None:
            kvas = cpu.meltdown_vulnerable
        seeds = np.random.SeedSequence(seed).spawn(4)
        kernel = WindowsKernel(
            version=version, kvas=kvas,
            rng=np.random.default_rng(seeds[0]),
        )
        core = Core(cpu, rng=np.random.default_rng(seeds[1]))
        core.noise.sigma *= noise_factor
        core.set_address_space(kernel.user_space)
        playground = cls._build_windows_playground(kernel)
        machine = cls(cpu, kernel, core, np.random.default_rng(seeds[2]),
                      "windows", playground=playground)
        machine.seed = seed
        return machine._attach_chaos(chaos, np.random.default_rng(seeds[3]))

    @classmethod
    def cloud(cls, provider, seed=0, chaos=None):
        """Rent one of the paper's cloud instances ('ec2', 'gce', 'azure')."""
        if provider not in CLOUD_CATALOG:
            raise ConfigError(
                "unknown provider {!r}; known: {}".format(
                    provider, ", ".join(sorted(CLOUD_CATALOG))
                )
            )
        instance = CLOUD_CATALOG[provider]
        if instance.os_family == "linux":
            machine = cls.linux(
                cpu=instance.cpu_key, seed=seed,
                kernel_version=instance.kernel_version,
                kpti=instance.kpti, noise_factor=instance.noise_factor,
                chaos=chaos,
            )
        else:
            machine = cls.windows(
                cpu=instance.cpu_key, seed=seed,
                version=instance.kernel_version, kvas=instance.kvas,
                noise_factor=instance.noise_factor, chaos=chaos,
            )
        machine.instance = instance
        return machine

    # -- SGX -----------------------------------------------------------------------

    def create_enclave(self, code_pages=16, data_pages=48, sgx2=True):
        """Create an enclave in this machine's process (Linux only)."""
        if self.process is None:
            raise ConfigError("enclaves require a Linux machine with a process")
        if not self.cpu.supports_sgx:
            raise ConfigError(
                "{} does not support SGX".format(self.cpu.name)
            )
        self.enclave = Enclave(
            self.process, code_pages=code_pages, data_pages=data_pages,
            sgx2=sgx2, rng=self.rng,
        )
        return self.enclave

    # -- shared plumbing --------------------------------------------------------------

    @staticmethod
    def _build_playground(process):
        user_rw = process.mmap(1, "rw-", name="calib/rw")
        user_ro = process.mmap(1, "r--", name="calib/ro")
        user_rx = process.mmap(1, "r-x", name="calib/rx")
        user_none = process.mmap(1, "---", name="calib/none")
        # one guaranteed-unmapped probe address: the guard page after the
        # last calibration mapping
        unmapped = user_none + PAGE_SIZE
        return Playground(user_rw, user_ro, user_rx, user_none, unmapped)

    @staticmethod
    def _build_windows_playground(kernel):
        base = 0x0000_2000_0000_0000
        kernel.user_space.map_runs(
            [base, base + PAGE_SIZE, base + 2 * PAGE_SIZE], [1, 1, 1], [
                flags_from_prot(read=True, write=True),
                flags_from_prot(read=True),
                flags_from_prot(read=True, execute=True),
            ],
        )
        return Playground(
            user_rw=base,
            user_ro=base + PAGE_SIZE,
            user_rx=base + 2 * PAGE_SIZE,
            user_none=base + 3 * PAGE_SIZE,
            unmapped=base + 4 * PAGE_SIZE,
        )

    # -- conveniences --------------------------------------------------------------------

    @property
    def clock(self):
        return self.core.clock

    def elapsed_ms(self, start_cycles):
        """Milliseconds of simulated time since ``start_cycles``."""
        return self.clock.cycles_to_ms(self.clock.elapsed_since(start_cycles))
