"""The disturbance scheduler: seeded chaos injected at probe boundaries.

A :class:`ChaosRuntime` is attached to a machine's core.  Each enabled
event kind is a Poisson process over *simulated* cycles: the runtime
keeps one next-arrival deadline per kind and, whenever the core polls it
(at probe boundaries -- see ``Core.chaos_poll``), fires every deadline
the simulated clock has passed, in deadline order.

Two invariants make runs bit-reproducible and mode-agnostic:

* the runtime owns a **dedicated RNG** (the machine's 4th spawned seed).
  The core's measurement-noise RNG is consumed in different orders by
  the per-op and vectorized sweep engines, so chaos decisions must never
  touch it;
* all RNG consumption happens inside :meth:`poll`, and every sweep
  engine polls at the **same simulated-clock values** (per probed VA).
  Same seed + same profile therefore yields the same event schedule,
  the same effects, and the same disturbance log under every engine.
"""

import hashlib

import numpy as np

from repro.chaos import events
from repro.chaos.events import DisturbanceEvent
from repro.chaos.profiles import get_chaos_profile
from repro.mmu.address import PAGE_SIZE, PAGE_SIZE_2M

#: fixed heap base for neighbour bursts on machines without a Process
#: (Windows); far from both the playground and user images
_FALLBACK_NEIGHBOR_BASE = 0x0000_3000_0000_0000

#: cycles a remote-shootdown IPI costs the victim core
_SHOOTDOWN_COST = 4_000
#: cycles the kernel spends moving its own image (re-randomization stall)
_RERANDOMIZE_COST = 60_000


class ChaosRuntime:
    """Deterministic mid-run fault injector for one machine."""

    def __init__(self, profile, rng=None, seed=0):
        self.profile = get_chaos_profile(profile)
        if self.profile is None:
            raise ValueError("ChaosRuntime needs a profile (got None)")
        if rng is None:
            rng = np.random.default_rng(seed)
        self.rng = rng
        self.machine = None
        self.core = None
        self.neighbor = None
        #: full history of fired events (never cleared by the runtime;
        #: the supervisor slices it per attempt)
        self.log = []
        #: bumped on every KASLR re-randomization so consumers can cheaply
        #: detect "the layout moved since I started"
        self.layout_generation = 0
        self._arrivals = {}
        self._base_sigma = None
        self._base_timer_resolution = 1
        self._active_kinds = ()

    # -- wiring ---------------------------------------------------------------

    def attach(self, machine):
        """Bind to ``machine`` and schedule the initial arrivals."""
        from repro.workloads.background import NoisyNeighbor

        self.machine = machine
        self.core = machine.core
        self.core.chaos = self
        self._base_sigma = self.core.noise.sigma
        self._base_timer_resolution = self.core.timer_resolution

        kinds = list(self.profile.active_kinds)
        if events.RERANDOMIZE in kinds and (
            machine.os_family != "linux"
            or not machine.kernel.kaslr_enabled
            or machine.kernel.flare
        ):
            # nothing to move (non-Linux, nokaslr, or FLARE-pinned slots)
            kinds.remove(events.RERANDOMIZE)
        self._active_kinds = tuple(kinds)

        if events.NEIGHBOR_BURST in self._active_kinds:
            base = None if machine.process is not None \
                else _FALLBACK_NEIGHBOR_BASE
            self.neighbor = NoisyNeighbor(
                machine,
                pressure=self.profile.neighbor_pressure,
                footprint_pages=self.profile.neighbor_footprint_pages,
                rng=self.rng,
                base=base,
            )

        now = self.core.clock.cycles
        for kind in self._active_kinds:
            self._arrivals[kind] = now + self._draw_gap(kind)
        return self

    def _draw_gap(self, kind):
        """Exponential inter-arrival gap for ``kind`` (>= 1 cycle)."""
        return int(self.rng.exponential(self.profile.periods[kind])) + 1

    @property
    def active(self):
        """True when at least one event kind is armed.

        A "quiet" profile attaches the runtime but arms nothing; probe
        paths treat it exactly like an unattached machine (bit-identical
        RNG consumption), which the determinism tests rely on.
        """
        return bool(self._arrivals)

    def next_deadline(self):
        """Earliest armed event deadline in cycles, or None when quiet.

        The columnar engine uses this to bound how many rows it may
        execute as one vectorized segment before the next ``poll()``
        could fire an event: any row whose poll boundary would reach
        this clock value must go back through the per-row path.
        """
        if not self._arrivals:
            return None
        return min(self._arrivals.values())

    # -- the poll loop --------------------------------------------------------

    def poll(self):
        """Fire every due event, in deadline order; called by the core."""
        if not self._arrivals:
            return
        clock = self.core.clock
        while True:
            kind = min(
                self._arrivals,
                key=lambda k: (self._arrivals[k], events.EVENT_KINDS.index(k)),
            )
            deadline = self._arrivals[kind]
            if deadline > clock.cycles:
                return
            applied_at = clock.cycles
            params = self._apply(kind)
            self.log.append(DisturbanceEvent(
                kind, at_cycles=deadline,
                applied_at_cycles=applied_at, params=params,
            ))
            obs = self.core.obs
            if obs.enabled:
                obs.event("chaos", kind=kind, at=deadline,
                          applied_at=applied_at, params=params)
                obs.metrics.inc("chaos.events." + kind)
            self._arrivals[kind] = clock.cycles + self._draw_gap(kind)

    # -- effects --------------------------------------------------------------

    def _apply(self, kind):
        return getattr(self, "_apply_" + kind.replace("-", "_"))()

    def _apply_migration(self):
        """Scheduler moved us: cold translation state, new noise floor."""
        core = self.core
        core.tlb.flush(keep_global=False)
        core.walker.flush()
        factors = self.profile.migration_sigma_factors
        factor = factors[int(self.rng.integers(len(factors)))]
        core.noise.sigma = self._base_sigma * factor
        core.clock.advance(self.profile.migration_cost)
        return {"sigma_factor": factor, "cost": self.profile.migration_cost}

    def _apply_dvfs(self):
        """Frequency step: all subsequent true cycle counts rescale."""
        core = self.core
        scales = self.profile.dvfs_scales
        scale = scales[int(self.rng.integers(len(scales)))]
        old = core.dvfs_scale
        core.dvfs_scale = scale
        core.clock.advance(self.profile.dvfs_stall)
        return {"scale": scale, "previous_scale": old,
                "stall": self.profile.dvfs_stall}

    def _apply_irq_storm(self):
        """Interrupt/SMI burst: big spike on the next measurement, and the
        handler's footprint displaces the L1 TLB arrays (sTLB survives)."""
        core = self.core
        core.tlb.l1[PAGE_SIZE].flush()
        core.tlb.l1[PAGE_SIZE_2M].flush()
        low = self.profile.irq_spike_cycles // 2
        spike = int(self.rng.integers(low, self.profile.irq_spike_cycles + 1))
        core.pending_spike_cycles += spike
        core.clock.advance(self.profile.irq_storm_cost)
        return {"spike": spike, "cost": self.profile.irq_storm_cost}

    def _apply_tlb_shootdown(self):
        """Remote IPI: non-global TLB entries invalidated."""
        core = self.core
        core.tlb.flush(keep_global=True)
        core.clock.advance(_SHOOTDOWN_COST)
        return {"cost": _SHOOTDOWN_COST}

    def _apply_neighbor_burst(self):
        """Co-resident burst thrashing the shared translation caches."""
        start = self.core.clock.cycles
        self.neighbor.run()
        return {"cycles": self.core.clock.cycles - start,
                "pressure": self.profile.neighbor_pressure}

    def _apply_timer_flip(self):
        """Timer defense toggling: resolution flips coarse <-> fine."""
        core = self.core
        coarse = self.profile.coarse_timer_resolution
        if core.timer_resolution == self._base_timer_resolution:
            core.timer_resolution = max(coarse, 2)
        else:
            core.timer_resolution = self._base_timer_resolution
        return {"resolution": core.timer_resolution}

    def _apply_rerandomize(self):
        """The kernel image moves; everything measured so far is stale."""
        kernel = self.machine.kernel
        old_base = kernel.base
        new_base = kernel.rerandomize()
        # the kernel flushes every core's translations after moving itself
        self.core.tlb.flush(keep_global=False)
        self.core.walker.flush()
        self.core.clock.advance(_RERANDOMIZE_COST)
        self.layout_generation += 1
        return {"old_base": old_base, "new_base": new_base,
                "cost": _RERANDOMIZE_COST}

    # -- log access -----------------------------------------------------------

    def mark(self):
        """Cursor into the log (pass to :meth:`events_since`)."""
        return len(self.log)

    def events_since(self, mark):
        """Events fired since :meth:`mark` (the supervisor's per-attempt
        slice: did anything disturb *this* attempt?)."""
        return self.log[mark:]

    def log_as_dicts(self):
        """The full disturbance log as plain dicts (JSON-ready)."""
        return [event.as_dict() for event in self.log]

    def schedule_digest(self):
        """Stable digest of the fired-event schedule.

        Two executions of a unit are equivalent exactly when the same
        event kinds fired at the same simulated-clock points with the
        same drawn parameters.  Wall time never enters the hash, so the
        digest matches across hosts, interruptions and resumes -- the
        campaign journal records it per unit, and the kill/resume
        determinism checks compare it against an uninterrupted run.
        """
        hasher = hashlib.sha256()
        for event in self.log:
            hasher.update(repr((
                event.kind,
                event.at_cycles,
                event.applied_at_cycles,
                sorted(event.params.items()),
            )).encode("utf-8"))
        return hasher.hexdigest()[:16]
