#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload scan-fleet --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate pass that records spans around each layer
and reports the per-layer metrics.  Every run checks the program's
outputs (see ``checks.py``) and prints, as its last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  What each
workload and metric is for is in ``perfbench/README.md``.
"""

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import sys
import time
from statistics import median

import checks
from offline import run_batches, setup_samples, write_units
from served import ServeProcess, open_loop
from spans import SpanRecorder, journal_spans, unit_breakdown
from stats import TooFewSamples, tail
from units import unit_specs

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: offline workloads: units per campaign batch (a batch is one campaign
#: with its own pool, so larger batches pay the pool start-up less
#: often), the batch prefix every run completes (attack_success is taken
#: over it, so it is a pure function of the seed) and how many units of
#: batch 0 the output checks replay in-process
OFFLINE = {
    "kaslr-fleet": {"batch": 96, "min_batches": 2, "replay": 48},
    "scan-fleet": {"batch": 48, "min_batches": 2, "replay": 24},
    "chaos-fleet": {"batch": 40, "min_batches": 3, "replay": 20},
}
#: extra campaigns per offline run that only set up (setup_s samples)
SETUP_REPS = 5
#: serve-trickle: offered load (units/s), about a quarter of the
#: closed-loop capacity of a 2-core host (~24 units/s)
SERVE_RATE = 6.0
#: serve units replayed in-process (the first kaslr-fleet batch)
SERVE_REPLAY = 48
#: serve launches per run; setup_s is their median
SERVE_SETUPS = 5
#: an open-loop run whose generator ran later than this (p99) is invalid
LAG_BOUND_MS = 20.0

END_TO_END = (
    ("setup_s", "s"), ("units_per_s", "1/s"), ("unit_ms_p50", "ms"),
    ("unit_ms_p90", "ms"), ("attack_success", "frac"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("machine.boot_ms_p50", "ms"), ("machine.boot_share", "frac"),
    ("calibrate.ms_p50", "ms"),
    ("sweep.ms_per_unit_p50", "ms"), ("sweep.us_per_address", "us"),
    ("sweep.calls_per_unit", "count"), ("sweep.addresses_per_unit", "count"),
    ("attack.self_ms_p50", "ms"),
    ("supervisor.retries_per_unit", "count"),
    ("supervisor.first_try_frac", "frac"),
    ("supervisor.probes_per_unit", "count"),
    ("chaos.disturbances_per_unit", "count"),
    ("campaign.fabric_ms_p50", "ms"), ("campaign.idle_gap_ms_p50", "ms"),
    ("campaign.worker_busy_frac", "frac"), ("campaign.append_ms_p50", "ms"),
    ("campaign.appends_per_unit", "count"),
    ("serve.admit_ms_p50", "ms"), ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p90", "ms"), ("serve.exec_ms_p50", "ms"),
    ("serve.rejected", "count"),
    ("loadgen.lag_ms_p99", "ms"), ("unit.unaccounted_ms_p50", "ms"),
    ("bench.trace_overhead_x", "x"),
)
#: printed and recorded, not in the result line: simulated time is a
#: pure function of the unit, the same on every run of a clean workload
REPORTED = (("sim_ms_p50", "ms"),)


class Run:
    """What one benchmark run collects."""

    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        #: output-check failures; any makes the run incorrect
        self.problems = []
        self.digest = None
        #: traced pass: each layer's share of the in-process unit time
        self.layer_shares = {}


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _median_or_zero(values):
    return median(values) if values else 0.0


def environment():
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
    }


def _unit_failed(result):
    """Errored, lost or skipped (a miss is not a failure)."""
    if result.get("status") in ("INCOMPLETE", "SKIPPED"):
        return True
    return "error" in (result.get("observations") or {})


def _check_replay(run, specs, remote, recorder, control):
    """Replay ``specs`` in-process and check them against ``remote``.

    ``remote`` maps unit id -> the result the workers or the server
    produced.  Adds a problem for any result the replay does not
    reproduce exactly (traced or, with ``control``, bare) and for any
    disagreement with ground truth.
    """
    specs_by_id = {unit_id: spec for unit_id, __, spec in specs}
    sims = []

    def inspect(unit_id, result, machine):
        run.problems.extend(checks.ground_truth_problems(
            specs_by_id[unit_id], result, machine))
        sims.append(checks.sim_ms(machine))

    results, bare, traced_s, bare_s = checks.replay(
        [(unit_id, path) for unit_id, path, __ in specs], recorder, inspect,
        control)
    for unit_id in specs_by_id:
        replayed = [results[unit_id]] + ([bare[unit_id]] if control else [])
        if not all(checks.same_result(r, remote[unit_id]) for r in replayed):
            run.problems.append(
                "{}: in-process replay differs from the remote result"
                .format(unit_id))
    run.metrics["sim_ms_p50"] = _median_or_zero(sims)
    if control:
        run.metrics["bench.trace_overhead_x"] = traced_s / bare_s


def _layer_metrics(run, recorder, observed):
    """Per-layer unit metrics from the traced replay's spans.

    ``observed`` maps unit id -> the unit's duration (s) as the campaign
    events or the server saw it; the difference to the in-process time
    is the fabric's share.
    """
    rows = unit_breakdown(recorder.spans)
    ms = 1e-6
    values = list(rows.values())
    totals = sum(r["total"] for r in values)
    addresses = sum(r["sweep_addresses"] for r in values)
    run.metrics.update({
        "machine.boot_ms_p50": _median_or_zero([r["boot"] * ms
                                                for r in values]),
        "machine.boot_share": sum(r["boot"] for r in values) / totals,
        "calibrate.ms_p50": _median_or_zero(
            [r["calibrate"] * ms for r in values if r["calibrations"]]),
        "sweep.ms_per_unit_p50": _median_or_zero([r["sweep"] * ms
                                                  for r in values]),
        "sweep.us_per_address": (sum(r["sweep"] for r in values) * 1e-3
                                 / addresses) if addresses else 0.0,
        "sweep.calls_per_unit": _mean([r["sweep_calls"] for r in values]),
        "sweep.addresses_per_unit": addresses / len(values),
        "attack.self_ms_p50": _median_or_zero([r["attack"] * ms
                                               for r in values]),
        "unit.unaccounted_ms_p50": _median_or_zero(
            [r["unaccounted"] * ms for r in values]),
        "campaign.fabric_ms_p50": _median_or_zero([
            observed[unit_id] * 1e3 - rows[unit_id]["total"] * ms
            for unit_id in rows if unit_id in observed]),
    })
    layers = ("boot", "calibrate", "sweep", "attack", "unaccounted")
    run.layer_shares = {layer: sum(r[layer] for r in values) / totals
                        for layer in layers}
    for unit_id, row in rows.items():
        parts = sum(row[layer] for layer in layers)
        if parts != row["total"]:
            run.problems.append("{}: layer times add up to {} ns, not {}"
                                .format(unit_id, parts, row["total"]))


def _supervisor_metrics(run, observations):
    supervised = [obs for obs in observations if "retries" in obs]
    run.metrics.update({
        "supervisor.retries_per_unit": _mean(
            [obs["retries"] for obs in supervised]),
        "supervisor.first_try_frac": _mean(
            [1.0 if obs["retries"] == 0 else 0.0 for obs in supervised]),
        "supervisor.probes_per_unit": _mean(
            [obs["probes"] for obs in supervised]),
        "chaos.disturbances_per_unit": _mean(
            [obs["disturbances"] for obs in supervised]),
    })


def run_offline(run, workload, seed, seconds, trace, workdir, jobs):
    shape = OFFLINE[workload]
    setups = setup_samples(workload, seed, shape["batch"], workdir, jobs,
                           SETUP_REPS)
    campaign_spans = SpanRecorder()
    if trace:
        with journal_spans(campaign_spans):
            batches = run_batches(workload, seed, seconds,
                                  shape["min_batches"], shape["batch"],
                                  workdir, jobs)
    else:
        batches = run_batches(workload, seed, seconds, shape["min_batches"],
                              shape["batch"], workdir, jobs)
    # children are reaped once the pools shut down: the largest worker
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss \
        / 1024.0

    entries = [u for b in batches for u in b.store["units"]]
    run.attempted = len(entries)
    run.failed = sum(1 for u in entries if _unit_failed(u))
    prefix = [u for b in batches[:shape["min_batches"]]
              for u in b.store["units"]]
    spans_by_unit = {uid: span for b in batches
                     for uid, span in b.unit_spans().items()}
    unit_ms = [(f - s) * 1e3 for s, f in spans_by_unit.values()]
    wall = sum(b.wall_s for b in batches)
    run.metrics.update({
        "setup_s": median(setups + [b.setup_s() for b in batches]),
        "units_per_s": median([len(b.units) / b.wall_s for b in batches]),
        "unit_ms_p50": median(unit_ms),
        "unit_ms_p90": tail(unit_ms, 0.90),
        "attack_success": _mean([
            1.0 if u["observations"].get("correct") is True else 0.0
            for u in prefix]),
        "peak_rss_mb": peak_rss_mb,
    })
    for entry in entries:
        if not isinstance(entry["observations"].get("correct"), bool) \
                and not _unit_failed(entry):
            run.problems.append("{}: no boolean 'correct' observation"
                                .format(entry["id"]))
    first = batches[0]
    run.digest = checks.store_digest(first.store)
    remote = {u["id"]: u for u in first.store["units"]}
    recorder = SpanRecorder()
    _check_replay(run, first.units[:shape["replay"]], remote, recorder,
                  control=bool(trace))
    if not trace:
        return
    _layer_metrics(run, recorder, {
        uid: f - s for uid, (s, f) in spans_by_unit.items()})
    _supervisor_metrics(run, [u["observations"] for u in entries])
    appends = [s["end"] - s["start"] for s in campaign_spans.spans
               if s["name"] == "campaign.append"]
    busy = sum(f - s for s, f in spans_by_unit.values())
    run.metrics.update({
        "campaign.idle_gap_ms_p50": _median_or_zero(
            [g * 1e3 for b in batches for g in b.idle_gaps()]),
        "campaign.worker_busy_frac": busy / (jobs * wall),
        "campaign.append_ms_p50": _median_or_zero([a * 1e-6
                                                   for a in appends]),
        "campaign.appends_per_unit": len(appends) / len(entries),
        "serve.admit_ms_p50": 0.0, "serve.queue_ms_p50": 0.0,
        "serve.queue_ms_p90": 0.0, "serve.exec_ms_p50": 0.0,
        "serve.rejected": 0, "loadgen.lag_ms_p99": 0.0,
    })
    recorder.write(workdir / "spans.jsonl")
    campaign_spans.write(workdir / "campaign-spans.jsonl")


def run_serve(run, seed, seconds, trace, workdir, jobs):
    setups = []
    for index in range(SERVE_SETUPS - 1):
        probe = ServeProcess(ROOT, workdir / "probe{}".format(index), jobs)
        try:
            setups.append(probe.start())
        finally:
            probe.stop()
    count = int(round(SERVE_RATE * seconds))
    specs = unit_specs("serve-trickle", seed, 0, count)
    server = ServeProcess(ROOT, workdir / "state", jobs)
    try:
        setups.append(server.start())
        requests, lags = open_loop(server.address, specs, SERVE_RATE)
    finally:
        server.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss \
        / 1024.0

    done = [r for r in requests
            if r.verdict is not None and r.verdict.get("status") == "done"]
    results = {r.unit_id: r.verdict["result"] for r in done}
    run.attempted = len(requests)
    run.failed = len(requests) - len(done) + sum(
        1 for result in results.values() if _unit_failed(result))
    unit_ms = [(r.verdict_at - r.due) * 1e3 for r in done]
    lag_p99 = tail(lags, 0.99) * 1e3
    run.metrics.update({
        "setup_s": median(setups),
        "units_per_s": len(done) / (max(r.verdict_at for r in done)
                                    - requests[0].due),
        "unit_ms_p50": median(unit_ms),
        "unit_ms_p90": tail(unit_ms, 0.90),
        "attack_success": _mean([
            1.0 if result["observations"].get("correct") is True else 0.0
            for result in results.values()]),
        "peak_rss_mb": peak_rss_mb,
        "loadgen.lag_ms_p99": lag_p99,
    })
    if lag_p99 > LAG_BOUND_MS:
        run.problems.append(
            "invalid open-loop run: generator lag p99 {:.1f} ms exceeds "
            "the {:g} ms bound".format(lag_p99, LAG_BOUND_MS))
    missing = [r.unit_id for r in requests[:SERVE_REPLAY]
               if r.unit_id not in results]
    if missing:
        run.problems.append("no served result for {} of the first {} units"
                            .format(len(missing), SERVE_REPLAY))
        return
    run.digest = checks.store_digest(
        {"units": [[r.unit_id, results.get(r.unit_id)] for r in requests]})
    replayed = write_units(workdir / "replay", specs[:SERVE_REPLAY])
    recorder = SpanRecorder()
    _check_replay(run, replayed, results, recorder, control=bool(trace))
    if not trace:
        return
    _layer_metrics(run, recorder, {
        r.unit_id: r.finished - r.started for r in done
        if r.finished is not None and r.started is not None})
    _supervisor_metrics(run, [res["observations"]
                              for res in results.values()])
    admitted = [r for r in requests if r.accepted is not None]
    queued = [(r.started - r.accepted) * 1e3 for r in admitted
              if r.started is not None]
    run.metrics.update({
        "serve.admit_ms_p50": median([(r.accepted - r.sent) * 1e3
                                      for r in admitted]),
        "serve.queue_ms_p50": median(queued),
        "serve.queue_ms_p90": tail(queued, 0.90),
        "serve.exec_ms_p50": median([
            (r.finished - r.started) * 1e3 for r in done
            if r.finished is not None and r.started is not None]),
        "serve.rejected": sum(1 for r in requests if r.rejected is not None),
        "campaign.idle_gap_ms_p50": 0.0, "campaign.worker_busy_frac": 0.0,
        "campaign.append_ms_p50": 0.0, "campaign.appends_per_unit": 0.0,
    })
    recorder.write(workdir / "spans.jsonl")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(OFFLINE) + ["serve-trickle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no repro package under {}".format(ROOT / "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    # unit paths inside result stores are relative, so stores of the
    # same seed hash alike in any checkout
    workdir = WORK.relative_to(ROOT) / args.workload / "s{}".format(args.seed)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment()
    jobs = env["nproc"]

    run = Run()
    started = time.perf_counter()
    try:
        if args.workload == "serve-trickle":
            run_serve(run, args.seed, args.seconds, args.trace, workdir, jobs)
        else:
            run_offline(run, args.workload, args.seed, args.seconds,
                        args.trace, workdir, jobs)
    except TooFewSamples as error:
        run.problems.append("invalid run: {}".format(error))
    if run.digest is not None:
        run.problems.extend(checks.DigestBook(WORK / "digests.json").check(
            "{}:{}".format(args.workload, args.seed), run.digest))

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": run.metrics.get(name), "unit": unit}
               for name, unit in wanted}
    absent = [name for name, entry in metrics.items()
              if entry["value"] is None]
    if absent:
        run.problems.append("not measured: {}".format(", ".join(absent)))
    correct = not run.problems
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "valid": correct, "problems": run.problems, "digest": run.digest,
        "attempted": run.attempted, "failed": run.failed,
        "failed_frac": run.failed / max(1, run.attempted),
        "layer_shares": run.layer_shares,
        "run_wall_s": time.perf_counter() - started,
        "metrics": {name: value for name, value in sorted(
            run.metrics.items())},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / "{}-s{}-t{}.json".format(
        args.workload, args.seed, args.trace)).write_text(
        json.dumps(record, indent=1, sort_keys=True))

    print("env      : nproc={nproc} python={python} numpy={numpy} "
          "cpu={cpu}".format(**env))
    print("digest   : {}".format(run.digest))
    print("units    : attempted={} failed={} failed_frac={:.4f}".format(
        run.attempted, run.failed, record["failed_frac"]))
    units = dict(END_TO_END + PER_LAYER + REPORTED)
    for name, value in sorted(run.metrics.items()):
        print("  {:30s} {:>14.6g} {}".format(name, value, units[name]))
    if run.layer_shares:
        print("layers   : " + "  ".join(
            "{} {:.1%}".format(layer, share)
            for layer, share in run.layer_shares.items()))
    for problem in run.problems:
        print("PROBLEM  : {}".format(problem))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: entry for name, entry in metrics.items()
                    if entry["value"] is not None},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
