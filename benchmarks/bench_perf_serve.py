"""Cost of the serve layer over the campaign fabric it wraps.

Two questions, both measured host-side against a real server on a real
Unix socket:

* **throughput** -- sustained inline-scenario requests per second and
  the p50/p99 request latency, driven by three tenants submitting
  concurrently over their own connections (the smoke-test shape);
* **plan overhead** -- a sharded campaign submitted through the
  service versus the same directory run offline on an identical
  4-shard fabric.  The service adds admission, quota accounting and
  event streaming around the exact same runner, so its per-unit cost
  must stay within the 1.15x budget;
* **fairness cost** -- two weighted tenants pipelining cheap noop
  units against the fair-share scheduler, then the same contention
  against a FIFO-mode backend.  Records each tenant's p99 queue wait
  and the weight-normalized dispatch ratio observed mid-contention,
  and asserts fair-share dispatch costs at most 1.10x of FIFO.

The numbers land in ``BENCH_serve.json`` at the repo root so the
service-overhead trajectory is tracked from this change onward.
"""

import json
import pathlib
import tempfile
import threading
import time

from _bench_utils import once

from repro.analysis.report import format_table
from repro.campaign import ShardedCampaignRunner, strip_wall_stamps
from repro.ioutil import write_json_atomic
from repro.serve import FairShareScheduler, OverloadGovernor, \
    QuotaLedger, ServeBackend, ServeClient, ServeServer, TenantQuota
from repro.serve import scheduler as serve_scheduler
from repro.serve.soak import noop_scenario

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_serve.json"

#: fabric shape for both the served and the offline side
SHARDS = 4
JOBS = 4
#: inline submissions for the throughput measurement
TENANTS = ("alice", "bob", "carol")
REQUESTS_PER_TENANT = 8
#: plan size for the served-vs-offline comparison
PLAN_UNITS = 16
#: serve per-unit cost budget relative to the offline fabric
BUDGET_X = 1.15
#: fairness measurement: two weighted tenants pipelining noop units
FAIR_WEIGHTS = {"gold": 2.0, "silver": 1.0}
FAIR_UNITS = 96
FAIR_WINDOW = 12
#: fair-share dispatch cost budget relative to FIFO on the same load
FAIRSHARE_BUDGET_X = 1.10
#: contention repetitions per arm; the cost ratio compares best-of-N
#: walls (a single ~0.7s socket-bound run carries more OS-scheduling
#: noise than the 10% budget it is asserted against)
FAIR_REPS = 3


def _write_plan(directory, count):
    directory.mkdir(parents=True, exist_ok=True)
    for index in range(count):
        (directory / "unit{:02d}.json".format(index)).write_text(
            json.dumps({
                "name": "unit{:02d}".format(index),
                "machine": {"os": "linux", "cpu": "i5-12400F",
                            "seed": index},
                "attack": {"kind": "kaslr", "params": {"trials": 2}},
                "expect": {"correct": True},
            })
        )
    return directory


def _scenario(seed):
    return {
        "name": "inline{}".format(seed),
        "machine": {"os": "linux", "cpu": "i5-12400F", "seed": seed},
        "attack": {"kind": "kaslr", "params": {"trials": 2}},
        "expect": {"correct": True},
    }


def _start_server(tmp):
    backend = ServeBackend(tmp / "state", shards=SHARDS, jobs=JOBS,
                           watchdog_s=120.0)
    ledger = QuotaLedger(TenantQuota(max_requests=32, max_units=256))
    server = ServeServer(backend, ledger,
                         socket_path=str(tmp / "bench.sock"),
                         max_queue=512)
    server.start()
    return server


def _percentile(values, fraction):
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _bench_throughput(server):
    """Concurrent inline submissions: requests/s and latency spread."""
    latencies = []
    lock = threading.Lock()
    failures = []

    def tenant_load(tenant, offset):
        with ServeClient(server.address).connect(tenant) as client:
            for index in range(REQUESTS_PER_TENANT):
                started = time.perf_counter()
                verdict = client.submit(
                    "r{}".format(index),
                    scenario=_scenario(offset + index),
                )
                elapsed = time.perf_counter() - started
                with lock:
                    if verdict.get("status") != "done":
                        failures.append(verdict)
                    latencies.append(elapsed)

    threads = [
        threading.Thread(target=tenant_load, args=(tenant, 100 * rank))
        for rank, tenant in enumerate(TENANTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    assert not failures, failures[:3]
    requests = len(latencies)
    return {
        "tenants": len(TENANTS),
        "requests": requests,
        "wall_s": round(wall_s, 4),
        "requests_per_s": round(requests / wall_s, 2),
        "p50_ms": round(_percentile(latencies, 0.50) * 1000.0, 2),
        "p99_ms": round(_percentile(latencies, 0.99) * 1000.0, 2),
    }


def _bench_plan(server, tmp):
    """A plan through the service vs the same fabric offline."""
    plan_dir = _write_plan(tmp / "plan", PLAN_UNITS)

    offline = ShardedCampaignRunner(
        tmp / "offline.jsonl", directory=str(plan_dir),
        shards=SHARDS, jobs=JOBS, seed=1, watchdog_s=120.0,
    )
    start = time.perf_counter()
    offline_report = offline.run()
    offline_s = time.perf_counter() - start
    assert offline_report.ok, offline_report.summary

    with ServeClient(server.address).connect("alice") as client:
        start = time.perf_counter()
        verdict = client.submit(
            "bench-plan",
            plan={"directory": str(plan_dir), "shards": SHARDS,
                  "seed": 1, "jobs": JOBS},
        )
        served_s = time.perf_counter() - start
    assert verdict["status"] == "done" and verdict["ok"], verdict

    served_store = json.loads(pathlib.Path(verdict["store"]).read_text())
    assert strip_wall_stamps(served_store) \
        == strip_wall_stamps(offline_report.store)
    return {
        "units": PLAN_UNITS,
        "shards": SHARDS,
        "offline_s": round(offline_s, 4),
        "served_s": round(served_s, 4),
        "offline_unit_ms": round(offline_s / PLAN_UNITS * 1000.0, 2),
        "served_unit_ms": round(served_s / PLAN_UNITS * 1000.0, 2),
        "overhead_x": round(served_s / offline_s, 3),
        "budget_x": BUDGET_X,
    }


def _fair_server(tmp, name, mode):
    backend = ServeBackend(tmp / (name + "-state"), shards=2, jobs=2,
                           watchdog_s=120.0,
                           scheduler=FairShareScheduler(mode=mode))
    ledger = QuotaLedger(
        TenantQuota(max_requests=256, max_units=4096),
        {tenant: TenantQuota(name=tenant, max_requests=256,
                             max_units=4096, weight=weight)
         for tenant, weight in FAIR_WEIGHTS.items()},
    )
    # the subject is dispatch order, not shedding: no watermarks, so
    # the deep pipelines are never refused
    server = ServeServer(backend, ledger,
                         socket_path=str(tmp / (name + ".sock")),
                         max_queue=1024, governor=OverloadGovernor([]))
    server.start()
    return server


def _pipelined_contention(server):
    """Both tenants keep FAIR_WINDOW submits in flight until done.

    Returns the wall time, a scheduler snapshot taken mid-drain while
    the pipelines still contend (after the join everyone has finished
    and the dispatch ratio is trivially flat), and the final snapshot
    (whose wait percentiles cover every unit).
    """
    done = {tenant: 0 for tenant in FAIR_WEIGHTS}
    lock = threading.Lock()
    errors = []

    def tenant_load(tenant, offset):
        try:
            with ServeClient(server.address).connect(tenant) as client:
                outstanding = set()
                sent = 0
                while sent < FAIR_UNITS or outstanding:
                    while sent < FAIR_UNITS \
                            and len(outstanding) < FAIR_WINDOW:
                        rid = "f{}".format(sent)
                        client.send({
                            "type": "submit", "id": rid,
                            "scenario": noop_scenario(
                                "{}-{}".format(tenant, sent),
                                offset + sent, spin=64),
                        })
                        outstanding.add(rid)
                        sent += 1
                    reply = client.recv()
                    rid = reply.get("id")
                    kind = reply.get("type")
                    if rid not in outstanding or kind not in (
                            "verdict", "rejected"):
                        continue  # accepted acks, unit event stream
                    if kind != "verdict" or reply.get("status") != "done":
                        raise AssertionError(repr(reply))
                    outstanding.discard(rid)
                    with lock:
                        done[tenant] += 1
        except Exception as exc:
            with lock:
                errors.append("{}: {!r}".format(tenant, exc))

    threads = [
        threading.Thread(target=tenant_load, args=(tenant, 1000 * rank))
        for rank, tenant in enumerate(sorted(FAIR_WEIGHTS))
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    mid = None
    total = FAIR_UNITS * len(FAIR_WEIGHTS)
    while mid is None and any(t.is_alive() for t in threads):
        time.sleep(0.005)
        with lock:
            finished = sum(done.values())
        if finished >= total // 2:
            mid = server.backend.scheduler.snapshot()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    assert not errors, errors[:3]
    if mid is None:
        mid = server.backend.scheduler.snapshot()
    return wall_s, mid, server.backend.scheduler.snapshot()


def _contention_arm(tmp, name, mode):
    """Best-of-FAIR_REPS contention walls on one server.

    Fairness evidence (the mid-drain dispatch ratio, the wait
    percentiles) comes from the first repetition only: the scheduler's
    dispatched counters are lifetime, so later repetitions -- which
    each end with both pipelines fully drained -- would dilute the
    mid-contention ratio toward flat.
    """
    server = _fair_server(tmp, name, mode)
    walls = []
    mid = final = None
    try:
        for __ in range(FAIR_REPS):
            wall_s, rep_mid, rep_final = _pipelined_contention(server)
            walls.append(wall_s)
            if mid is None:
                mid, final = rep_mid, rep_final
    finally:
        server.drain(timeout=300.0)
    return min(walls), walls, mid, final


def _bench_fairness(tmp):
    """Weighted contention under fair-share, then the FIFO control arm."""
    fair_s, fair_walls, mid, final = _contention_arm(
        tmp, "fair", serve_scheduler.FAIR)
    fifo_s, fifo_walls, _, _ = _contention_arm(
        tmp, "fifo", serve_scheduler.FIFO)

    shares = {
        tenant: mid["tenants"].get(tenant, {}).get("dispatched", 0)
        / weight
        for tenant, weight in FAIR_WEIGHTS.items()
    }
    floor = min(shares.values())
    ratio = round(max(shares.values()) / floor, 3) if floor > 0 \
        else float("inf")
    return {
        "tenants": {
            tenant: {
                "weight": FAIR_WEIGHTS[tenant],
                "dispatched_mid": mid["tenants"]
                .get(tenant, {}).get("dispatched", 0),
                "p99_wait_ms": final["tenants"]
                .get(tenant, {}).get("p99_wait_ms", 0.0),
            }
            for tenant in sorted(FAIR_WEIGHTS)
        },
        "units_per_tenant": FAIR_UNITS,
        "window": FAIR_WINDOW,
        "fairness_ratio": ratio,
        "fair_s": round(fair_s, 4),
        "fifo_s": round(fifo_s, 4),
        "fair_walls_s": [round(w, 4) for w in fair_walls],
        "fifo_walls_s": [round(w, 4) for w in fifo_walls],
        "fairshare_cost_x": round(fair_s / fifo_s, 3),
        "budget_x": FAIRSHARE_BUDGET_X,
    }


def run_serve_bench():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        server = _start_server(tmp)
        try:
            throughput = _bench_throughput(server)
            plan = _bench_plan(server, tmp)
        finally:
            server.drain(timeout=300.0)
        fairness = _bench_fairness(tmp)

    # the service is a thin layer: admission + streaming must not tax
    # the fabric beyond its budget
    assert plan["overhead_x"] <= plan["budget_x"], plan
    # deficit round-robin bookkeeping must stay in the dispatch noise
    assert fairness["fairshare_cost_x"] <= fairness["budget_x"], fairness

    write_json_atomic(BENCH_JSON, {
        "throughput": throughput, "plan": plan, "fairness": fairness,
    }, indent=2)

    rows = [
        ["inline submits, {} tenants".format(throughput["tenants"]),
         throughput["requests"], throughput["wall_s"],
         "{}/s, p99 {} ms".format(throughput["requests_per_s"],
                                  throughput["p99_ms"])],
        ["plan via serve ({} shards)".format(plan["shards"]),
         plan["units"], plan["served_s"],
         "{}x offline ({}s)".format(plan["overhead_x"],
                                    plan["offline_s"])],
        ["fair-share vs fifo (2 tenants)",
         FAIR_UNITS * len(FAIR_WEIGHTS), fairness["fair_s"],
         "{}x fifo, ratio {}".format(fairness["fairshare_cost_x"],
                                     fairness["fairness_ratio"])],
    ]
    return format_table(["workload", "n", "seconds", "rate"], rows)


def test_perf_serve(benchmark, record_result):
    record_result("perf_serve", once(benchmark, run_serve_bench))
