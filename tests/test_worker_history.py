"""A unit's result and trace do not depend on what ran earlier.

Campaign and serve workers run many units in one process.  Two
scenarios run cold, then twenty unrelated units run in the same process
(other seeds, Windows and KPTI machines, a rerandomizing chaos unit),
then the first two run again: result dicts and trace bytes (modulo
wall-clock fields) must be identical.
"""

import json
import pathlib

from repro import scenarios
from repro.obs import Tracer
from repro.obs.schema import canonical_bytes
from repro.scenarios import run_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def _spec(name, **machine):
    spec = json.loads((SCENARIOS / name).read_text())
    spec["machine"].update(machine)
    return spec


def _observe(spec, monkeypatch):
    """(untraced result, traced result, canonical trace bytes)."""
    plain = run_scenario(spec).as_dict()
    tracer = Tracer()
    boot = scenarios._build_machine

    def boot_traced(machine_spec):
        machine = boot(machine_spec)
        tracer.attach(machine)
        return machine

    with monkeypatch.context() as patch:
        patch.setattr(scenarios, "_build_machine", boot_traced)
        traced = run_scenario(spec).as_dict()
    return plain, traced, canonical_bytes(tracer.finish())


def _unrelated_units():
    units = []
    for seed in (1, 2, 5, 7):
        units += [
            _spec("table1_alderlake_base.json", seed=100 + seed),
            _spec("table1_ryzen_base.json", seed=seed),
            _spec("sec4d_kpti.json", seed=seed),
            _spec("sec4g_windows_region.json", seed=seed),
            _spec("chaos_rerandomizing_kaslr.json", seed=seed),
        ]
    return units


def test_results_and_traces_independent_of_worker_history(monkeypatch):
    subjects = [_spec("chaos_default_kaslr.json"),
                _spec("table1_alderlake_base.json")]
    cold = [_observe(spec, monkeypatch) for spec in subjects]
    assert all(result["passed"] for result, __, __ in cold)
    assert all(b"probe-sweep" in trace for __, __, trace in cold)
    units = _unrelated_units()
    assert len(units) == 20
    for spec in units:
        run_scenario(spec)
    warm = [_observe(spec, monkeypatch) for spec in subjects]
    for before, after in zip(cold, warm):
        assert before[0] == after[0]
        assert before[1] == after[1]
        assert before[2] == after[2]
