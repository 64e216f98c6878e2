"""Disturbance event records and kind constants.

Every fault the runtime injects is logged as one
:class:`DisturbanceEvent`: what fired, the simulated cycle it was
scheduled for, the cycle at which the victim actually experienced it
(the next probe boundary), and the kind-specific parameters.  The log is
what the supervisor folds into its verdicts and what the determinism
tests compare across sweep engines.
"""

#: migration to another core: TLB + PSC wiped, scheduler cost, and the
#: destination core's slightly different noise floor
MIGRATION = "migration"
#: DVFS frequency transition: every subsequent true cycle count scales
DVFS = "dvfs"
#: interrupt/SMI storm: a large one-shot spike on the next measurement
#: plus partial TLB eviction
IRQ_STORM = "irq-storm"
#: remote TLB shootdown IPI: non-global entries dropped
TLB_SHOOTDOWN = "tlb-shootdown"
#: co-resident neighbour burst: masked loads over a private heap
NEIGHBOR_BURST = "neighbor-burst"
#: timer-coarsening flip: the timer resolution toggles mid-run
TIMER_FLIP = "timer-flip"
#: mid-scan KASLR re-randomization: the kernel image moves
RERANDOMIZE = "rerandomize"

#: all kinds, in the fixed order profiles/schedulers iterate them
EVENT_KINDS = (
    MIGRATION,
    DVFS,
    IRQ_STORM,
    TLB_SHOOTDOWN,
    NEIGHBOR_BURST,
    TIMER_FLIP,
    RERANDOMIZE,
)


class DisturbanceEvent:
    """One injected fault, as recorded in the disturbance log."""

    __slots__ = ("kind", "at_cycles", "applied_at_cycles", "params")

    def __init__(self, kind, at_cycles, applied_at_cycles, params=None):
        self.kind = kind
        #: simulated cycle the event was scheduled to fire at
        self.at_cycles = at_cycles
        #: simulated cycle of the probe boundary that absorbed it
        self.applied_at_cycles = applied_at_cycles
        self.params = dict(params or {})

    def as_dict(self):
        return {
            "kind": self.kind,
            "at_cycles": self.at_cycles,
            "applied_at_cycles": self.applied_at_cycles,
            "params": dict(self.params),
        }

    def __eq__(self, other):
        if not isinstance(other, DisturbanceEvent):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self):
        return (
            "DisturbanceEvent(kind={!r}, at_cycles={}, applied_at_cycles={},"
            " params={!r})".format(
                self.kind, self.at_cycles, self.applied_at_cycles, self.params
            )
        )
