"""In-memory spans around calls into each layer's public functions.

The benchmark wraps the entry points of each layer (machine boot,
threshold calibration, the probe engine, the attack drivers, the
campaign journal) while :func:`instrumented` is active, and records one
span per call: name, start, end, parent span and the unit being run.
Nothing inside the program is changed or traced: ``Core.obs`` stays the
disabled tracer, so the probe engine picks the same executor it picks
untraced.  Spans stay in memory and are written out once, at the end.
"""

import contextlib
import importlib
import json
import time

from stats import self_times

#: span name -> layer.  A unit's wall time is the sum of its spans' self
#: times, so every nanosecond inside a unit lands in exactly one layer
#: ("unit" self time is the part no wrapped layer accounts for).
LAYERS = {
    "unit": "unaccounted",
    "machine.boot": "boot",
    "attacks.calibrate": "calibrate",
    "cpu.sweep": "sweep",
    "attacks.driver": "attack",
}

_CALIBRATION = (
    ("repro.attacks.kaslr_break", "calibrate_store_threshold"),
    ("repro.attacks.kpti_break", "calibrate_store_threshold"),
    ("repro.attacks.module_detect", "calibrate_store_threshold"),
    ("repro.attacks.windows_break", "calibrate_store_threshold"),
    ("repro.attacks.supervisor", "calibrate_store_threshold"),
    ("repro.attacks.userspace", "_calibrate_unmapped_boundary"),
)

_DRIVERS = (
    ("repro.attacks.kaslr_break", "break_kaslr"),
    ("repro.attacks.kpti_break", "break_kaslr_kpti"),
    ("repro.attacks.module_detect", "detect_modules"),
    ("repro.attacks.windows_break", "find_kernel_region"),
    ("repro.attacks.windows_break", "find_kvas_region"),
    ("repro.attacks.userspace", "find_user_code_base"),
    ("repro.attacks.sgx_break", "break_aslr_from_enclave"),
    ("repro.attacks.supervisor", "supervise"),
)


class SpanRecorder:
    """Collects spans in memory; one recorder per benchmark pass."""

    def __init__(self):
        self.spans = []
        self.unit = None
        #: outermost machine booted by the current unit (ground truth)
        self.machine = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "unit": self.unit,
            "start": 0,
            "end": 0,
        }
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter_ns()
            self._stack.pop()

    @contextlib.contextmanager
    def run_unit(self, unit_id):
        """Scope one unit: its spans carry ``unit_id``."""
        self.unit = unit_id
        self.machine = None
        try:
            with self.span("unit"):
                yield
        finally:
            self.unit = None

    def write(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def unit_breakdown(spans):
    """Per-unit layer times (ns) from the unit-scoped spans.

    Returns ``{unit id: {"total": ns, <layer>: ns, "sweep_calls": n,
    "sweep_addresses": n, "calibrations": n}}``.  Layer times are self
    times, so ``boot + calibrate + sweep + attack + unaccounted`` equals
    ``total`` exactly; a sweep issued by the calibration counts as sweep.
    Calls and addresses count outermost sweeps only.
    """
    spans = [s for s in spans if s["unit"] is not None]
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    out = {}
    for span in spans:
        entry = out.setdefault(span["unit"], dict(
            {layer: 0 for layer in LAYERS.values()}, total=0,
            sweep_calls=0, sweep_addresses=0, calibrations=0,
        ))
        entry[LAYERS[span["name"]]] += selfs[span["id"]]
        if span["name"] == "unit":
            entry["total"] = span["end"] - span["start"]
        elif span["name"] == "cpu.sweep":
            parent = by_id.get(span["parent"])
            if parent is None or parent["name"] != "cpu.sweep":
                entry["sweep_calls"] += 1
                entry["sweep_addresses"] += span["addresses"]
        elif span["name"] == "attacks.calibrate":
            entry["calibrations"] += 1
    return out


def _wrap(recorder, name, fn):
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def _patches():
    """Yield a ``patch(owner, attr, value)`` whose patches undo on exit."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]
                      if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)
    try:
        yield patch
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@contextlib.contextmanager
def journal_spans(recorder):
    """Record a ``campaign.append`` span per journal append.

    The campaign runner appends in this process; its units run in
    worker processes, which this wrapper does not reach.
    """
    from repro.campaign.journal import CampaignJournal

    with _patches() as patch:
        patch(CampaignJournal, "append",
              _wrap(recorder, "campaign.append", CampaignJournal.append))
        yield recorder


@contextlib.contextmanager
def instrumented(recorder):
    """Patch the unit-level layer entry points to record into ``recorder``.

    Only for units run in this process: a worker forked while the
    patches are active would inherit them.
    """
    with _patches() as patch:
        _patch_layers(recorder, patch)
        yield recorder


def _patch_layers(recorder, patch):
    from repro.attacks.fingerprint import ApplicationFingerprinter
    from repro.cpu.core import Core
    from repro.machine import Machine

    for factory in ("linux", "windows", "cloud"):
        boot = getattr(Machine, factory).__func__

        def booted(cls, *args, _boot=boot, **kwargs):
            outermost = recorder.machine is None
            with recorder.span("machine.boot"):
                machine = _boot(cls, *args, **kwargs)
            if outermost:
                recorder.machine = machine
            return machine
        patch(Machine, factory, classmethod(booted))

    sweep = Core.probe_sweep

    def probe_sweep(core, vas, *args, **kwargs):
        vas = list(vas)
        with recorder.span("cpu.sweep", addresses=len(vas)):
            return sweep(core, vas, *args, **kwargs)
    patch(Core, "probe_sweep", probe_sweep)

    for module_name, attr in _CALIBRATION:
        module = importlib.import_module(module_name)
        patch(module, attr,
              _wrap(recorder, "attacks.calibrate", getattr(module, attr)))
    for module_name, attr in _DRIVERS:
        module = importlib.import_module(module_name)
        patch(module, attr,
              _wrap(recorder, "attacks.driver", getattr(module, attr)))
    patch(ApplicationFingerprinter, "identify",
          _wrap(recorder, "attacks.driver", ApplicationFingerprinter.identify))
