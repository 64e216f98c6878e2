"""The benchmark's own tests.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import stats  # noqa: E402
from spans import SpanRecorder, unit_breakdown  # noqa: E402
from units import MIXES, unit_specs  # noqa: E402


# -- seed -> spec generator --


@pytest.mark.parametrize("workload", sorted(MIXES))
def test_same_seed_same_units(workload):
    assert unit_specs(workload, 7, 0, 40) == unit_specs(workload, 7, 0, 40)


@pytest.mark.parametrize("workload", sorted(MIXES))
def test_slices_match_the_whole_sequence(workload):
    whole = unit_specs(workload, 7, 0, 30)
    assert unit_specs(workload, 7, 10, 20) == whole[10:]


def test_seeds_differ_and_only_machine_seeds_vary():
    one = unit_specs("scan-fleet", 1, 0, 24)
    two = unit_specs("scan-fleet", 2, 0, 24)
    assert [s["machine"]["seed"] for __, s in one] \
        != [s["machine"]["seed"] for __, s in two]
    for (id1, s1), (id2, s2) in zip(one, two):
        assert id1 == id2
        assert dict(s1["machine"], seed=0) == dict(s2["machine"], seed=0)
        assert s1["attack"] == s2["attack"]
        assert s1["expect"] == s2["expect"]


def test_serve_trickle_submits_the_kaslr_fleet_units():
    assert unit_specs("serve-trickle", 5, 0, 30) \
        == unit_specs("kaslr-fleet", 5, 0, 30)


def test_specs_are_valid_scenarios():
    from repro.scenarios import _ATTACKS

    for workload in MIXES:
        for unit_id, spec in unit_specs(workload, 3, 0, 24):
            assert spec["name"] == unit_id
            assert spec["attack"]["kind"] in _ATTACKS
            assert 0 <= spec["machine"]["seed"] < 2 ** 31


# -- the tail-percentile rule --


def test_p90_needs_a_hundred_samples():
    with pytest.raises(stats.TooFewSamples):
        stats.tail(list(range(99)), 0.90)
    assert stats.tail(list(range(1, 101)), 0.90) == 90


def test_p99_needs_a_thousand_samples():
    with pytest.raises(stats.TooFewSamples):
        stats.tail(list(range(999)), 0.99)
    assert stats.tail(list(range(1, 1001)), 0.99) == 990


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 201))
    p90 = stats.tail(values, 0.90)
    assert sum(1 for v in values if v > p90) >= stats.MIN_BEYOND


# -- span self-time arithmetic --


def _span(id_, parent, start, end, name="unit", unit="u", **extra):
    return dict({"id": id_, "parent": parent, "start": start, "end": end,
                 "name": name, "unit": unit}, **extra)


def test_covered_merges_overlaps():
    assert stats.covered([(0, 10), (5, 15), (20, 25)]) == 20
    assert stats.covered([]) == 0


def test_self_times_add_up_to_the_root():
    spans = [
        _span(0, None, 0, 100),
        _span(1, 0, 10, 40),
        _span(2, 1, 15, 25),
        _span(3, 0, 50, 90),
    ]
    selfs = stats.self_times(spans)
    assert selfs == {0: 30, 1: 20, 2: 10, 3: 40}
    assert sum(selfs.values()) == 100


def test_unit_breakdown_splits_a_unit_into_layers():
    spans = [
        _span(0, None, 0, 1000),
        _span(1, 0, 0, 600, "machine.boot"),
        _span(2, 1, 100, 500, "machine.boot"),
        _span(3, 0, 600, 950, "attacks.driver"),
        _span(4, 3, 610, 700, "attacks.calibrate"),
        _span(5, 4, 620, 680, "cpu.sweep", addresses=8),
        _span(6, 3, 700, 900, "cpu.sweep", addresses=100),
        _span(7, 6, 710, 720, "cpu.sweep", addresses=4),
    ]
    row = unit_breakdown(spans)["u"]
    assert row["total"] == 1000
    assert row["boot"] == 600
    assert row["calibrate"] == 30
    assert row["sweep"] == 260
    assert row["attack"] == 60
    assert row["unaccounted"] == 50
    assert sum(row[k] for k in ("boot", "calibrate", "sweep", "attack",
                                "unaccounted")) == row["total"]
    assert row["sweep_calls"] == 2
    assert row["sweep_addresses"] == 108
    assert row["calibrations"] == 1


def test_recorder_nests_and_tags_units():
    recorder = SpanRecorder()
    with recorder.run_unit("u1"):
        with recorder.span("attacks.driver"):
            with recorder.span("cpu.sweep", addresses=3):
                pass
    with recorder.span("campaign.append"):
        pass
    unit, driver, sweep, append = recorder.spans
    assert (unit["parent"], driver["parent"], sweep["parent"]) \
        == (None, unit["id"], driver["id"])
    assert {unit["unit"], driver["unit"], sweep["unit"]} == {"u1"}
    assert append["unit"] is None and append["parent"] is None
    assert all(s["end"] >= s["start"] for s in recorder.spans)


# -- the traced replay --


def test_traced_replay_keeps_results_and_accounts_every_nanosecond(tmp_path):
    import json

    import checks

    specs = dict(unit_specs("kaslr-fleet", 9, 0, 2))
    units = []
    for unit_id, spec in specs.items():
        path = tmp_path / (unit_id + ".json")
        path.write_text(json.dumps(spec))
        units.append((unit_id, str(path)))
    recorder = SpanRecorder()
    seen = {}

    def inspect(unit_id, result, machine):
        seen[unit_id] = checks.ground_truth_problems(specs[unit_id], result,
                                                     machine)

    results, bare, traced_s, bare_s = checks.replay(
        units, recorder, inspect, control=True)
    assert traced_s > 0 and bare_s > 0
    assert seen == {unit_id: [] for unit_id, __ in units}
    for unit_id, __ in units:
        assert checks.same_result(results[unit_id], bare[unit_id])
    rows = unit_breakdown(recorder.spans)
    assert set(rows) == {unit_id for unit_id, __ in units}
    for row in rows.values():
        assert row["boot"] > 0 and row["sweep_calls"] >= 1
        assert sum(row[k] for k in ("boot", "calibrate", "sweep", "attack",
                                    "unaccounted")) == row["total"]


def test_benchmark_json_names_what_run_reports():
    import json

    import run

    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} \
        <= set(run.OFFLINE) | {"serve-trickle"}
