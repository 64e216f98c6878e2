"""The service harness for ``repro serve`` (``repro soak``).

The unit tests prove single behaviors; the soak proves the *service*
contract end to end, under sustained multi-tenant load.  It is the one
service harness -- CI's ``soak-smoke`` job runs it -- and checks:

* **burst** -- phase A opens with :data:`BURST_CONNECTIONS` connections
  opened together, each submitting :data:`BURST_SUBMITS` real KASLR
  units: every one of them must come back ``done``;
* **fairness** -- flood tenants with different configured weights
  receive executor throughput proportional to those weights, and a
  trickle tenant (low, steady demand) is never starved behind the
  floods;
* **overload discipline** -- every refusal during the soak is a typed
  ``rejected`` with a reason (and ``retry_after_s`` where promised);
  no client ever sees a timeout or a crash.  A capped tenant
  (``max_requests`` 1) sends real KASLR units from six connections at
  once and must see typed ``QuotaExceeded`` / ``requests-in-flight``
  refusals, and verdicts, and nothing else;
* **drain correctness** -- a SIGTERM lands mid-soak, with floods in
  full swing and a campaign plan streaming: the server must exit 0
  with zero orphan processes, and a restarted server must *resume*
  the plan to a store byte-identical (modulo wall-clock stamps) to an
  uninterrupted offline run.  Phase B ends with the ``repro drain``
  verb, run as a subprocess: it must exit 0, and so must the server,
  again with zero orphans;
* **slow-reader isolation** -- clients that submit and never read
  past the admission lose their streams, never their computations:
  every admitted submission has a persisted result;
* **scale** -- a sharded campaign of ``campaign_units`` noop units
  (100k in the full configuration) completes through the same fabric
  at microsecond unit cost, proving the journals and the coordinator,
  not the attack math, set the ceiling.

Everything here drives real processes over real sockets: the server
runs as a ``python -m repro serve`` subprocess in its own process
group (that is what makes the zero-orphan assertion honest), clients
are plain :class:`~repro.serve.ServeClient` instances with churn
(connections are torn down and reopened throughout), and the fault
profile rides a plan submission through the public protocol.

:func:`run_soak` is the importable driver -- ``repro soak`` is a thin
wrapper over it -- and returns a JSON-able report with every
measurement the assertions were made from.
"""

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import threading
import time

from repro.campaign import ShardedCampaignRunner, store_digest
from repro.errors import ReproError, ServeError
from repro.serve.client import ServeClient

#: fabric shape and seed of the served and the offline runs
SHARDS = 4
JOBS = 4
SEED = 9
#: units in each of the two plans (drain/resume determinism, faults)
PLAN_UNITS = 48
#: noop unit cost knob
SPIN = 2000
#: fault profile injected into the second plan
FAULT_PROFILE = "default"
#: bound on the weight-normalized flood throughput max/min
FAIRNESS_RATIO_MAX = 3.0
#: bound on the trickle tenant's p99 scheduler wait
TRICKLE_P99_MS = 5000.0
#: socket timeout of every soak client
IO_TIMEOUT_S = 120.0
#: a flood stream reconnects after this many verdicts
CHURN_EVERY = 25
#: phase A's opening burst: connections opened together, submits each
BURST_CONNECTIONS = 25
BURST_SUBMITS = 2

#: load modes a soak tenant can run
FLOOD = "flood"
TRICKLE = "trickle"
SLOW_READER = "slow-reader"
CAPPED = "capped"

#: the tenant mix: two floods at 2:1 weights, one trickle, one slow
#: reader, and one capped tenant.  ``streams`` is concurrent
#: connections per tenant; ``max_requests`` defaults to 8 per stream.
TENANTS = (
    {"name": "flood-a", "mode": FLOOD, "weight": 2.0, "streams": 2,
     "window": 6},
    {"name": "flood-b", "mode": FLOOD, "weight": 1.0, "streams": 2,
     "window": 6},
    {"name": "trickle", "mode": TRICKLE, "weight": 1.0, "streams": 1,
     "pause_s": 0.5},
    {"name": "sloth", "mode": SLOW_READER, "weight": 1.0, "streams": 1,
     "pause_s": 1.0},
    {"name": "capped", "mode": CAPPED, "weight": 1.0, "streams": 6,
     "pause_s": 0.2, "max_requests": 1},
)

PHASES = ("phase_a", "phase_b")


def _names(mode):
    return [t["name"] for t in TENANTS if t["mode"] == mode]


class SoakError(ReproError):
    """A soak assertion failed (the report travels in ``report``)."""

    def __init__(self, message, report=None):
        super(SoakError, self).__init__(message)
        self.report = report


def noop_scenario(name, seed, spin=SPIN):
    """A microsecond-scale unit: the soak measures the fabric, not AVX."""
    return {
        "name": name,
        "machine": {"os": "none", "seed": seed},
        "attack": {"kind": "noop", "spin": spin},
        "expect": {"correct": True},
    }


def kaslr_scenario(name, seed):
    """A real unit: one-trial KASLR break on an i5-12400F."""
    return {
        "name": name,
        "machine": {"os": "linux", "cpu": "i5-12400F", "seed": seed},
        "attack": {"kind": "kaslr", "params": {"trials": 1}},
        "expect": {"correct": True},
    }


def write_noop_plan(directory, units, seed_base=0, spin=SPIN):
    """Materialize ``units`` noop scenario files under ``directory``."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    width = max(5, len(str(max(1, units - 1))))
    for index in range(units):
        name = "unit-{:0{w}d}".format(index, w=width)
        (directory / (name + ".json")).write_text(
            json.dumps(noop_scenario(name, seed_base + index, spin=spin))
        )
    return directory


def _child_env():
    """The environment of a ``python -m repro`` child: this source tree."""
    src_dir = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class _TenantLoad(threading.Thread):
    """One stream of one tenant's load: submit, churn, record.

    Four personalities: **flood** keeps ``window`` submissions
    pipelined on one connection (without that pressure the scheduler
    queue never builds and fairness is unobservable -- a serial client
    is RTT-bound, not executor-bound), churning the connection every
    :data:`CHURN_EVERY` verdicts; **trickle** submits serially through
    :meth:`ServeClient.submit` (which also exercises the retry/backoff
    path on shed refusals) with a pause between units; **capped** does
    the same with real KASLR units; **slow-reader** submits, reads the
    admission and abandons the stream.
    """

    def __init__(self, soak, tenant, stream):
        super(_TenantLoad, self).__init__(
            name="soak-{}-{}".format(tenant["name"], stream), daemon=True)
        self.soak = soak
        self.tenant = tenant["name"]
        self.mode = tenant["mode"]
        self.stream = stream
        self.pause_s = tenant.get("pause_s", 0.0)
        self.window = tenant.get("window", 1)
        self.submitted = 0
        self.done = 0
        self.rejected = {}
        self.errors = []
        #: slow reader: request ids the server admitted
        self.admitted = []
        #: slow reader: set once it stopped submitting for a drain
        self.parked = threading.Event()
        self._index = 0

    def _client(self):
        return ServeClient(
            self.soak.socket, timeout_s=IO_TIMEOUT_S, retries=2, seed=SEED,
        ).connect(self.tenant)

    def _connect_or_wait(self):
        """One connection attempt; None while nobody is listening."""
        try:
            return self._client()
        except (ServeError, OSError):
            # between drain and restart there is nobody to talk
            # to; that is the soak's design, not a bug
            self.soak.stop_load.wait(0.2)
            return None

    def _drop(self, client):
        try:
            client.sock.close()
        except (OSError, AttributeError):
            pass

    def _stream_died(self, rid):
        soak = self.soak
        if not soak.draining.is_set() and not soak.stop_load.is_set():
            self.errors.append(
                "stream died outside a drain window "
                "(around request {})".format(rid))

    def _next_rid(self):
        rid = "{}-s{}-{}".format(self.soak.phase, self.stream,
                                 self._index)
        self._index += 1
        return rid

    def _scenario(self, rid):
        if self.mode == CAPPED:
            return kaslr_scenario(rid, self._index)
        return noop_scenario(rid, self._index)

    def _count_rejection(self, reply):
        """Tally a refusal by reason; typed means a known error + reason."""
        error = reply.get("error")
        if error == "QuotaExceeded":
            reason = reply.get("quota") or "unknown"
        elif error == "Overloaded":
            reason = reply.get("reason") or "unknown"
        else:
            reason = "unknown"
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        if reason == "unknown" and not self.soak.draining.is_set():
            self.errors.append("untyped rejection: {!r}".format(reply))
        return reason

    def run(self):
        if self.mode == FLOOD:
            self._run_flood()
        else:
            self._run_serial()

    def _run_flood(self):
        soak = self.soak
        client = None
        outstanding = set()
        since_churn = 0
        while not soak.stop_load.is_set():
            if client is None:
                outstanding.clear()
                client = self._connect_or_wait()
                continue
            try:
                # keep the pipeline full -- unless a churn is due, in
                # which case let it drain so no verdicts are abandoned
                while len(outstanding) < self.window \
                        and since_churn < CHURN_EVERY \
                        and not soak.stop_load.is_set():
                    rid = self._next_rid()
                    client.send({"type": "submit", "id": rid,
                                 "scenario": self._scenario(rid)})
                    outstanding.add(rid)
                    self.submitted += 1
                if not outstanding:
                    # pipeline drained for a churn: fresh connection
                    client.close()
                    client = None
                    since_churn = 0
                    continue
                reply = client.recv()
            except (ServeError, OSError):
                self._stream_died(sorted(outstanding)[:1])
                self._drop(client)
                client = None
                continue
            kind = reply.get("type")
            rid = reply.get("id")
            if rid not in outstanding:
                continue  # draining broadcasts, stream noise
            if kind == "verdict":
                outstanding.discard(rid)
                self.done += 1
                since_churn += 1
            elif kind == "rejected":
                outstanding.discard(rid)
                reason = self._count_rejection(reply)
                if reason != "draining":
                    # a refused window must not busy-spin the server
                    soak.stop_load.wait(0.05)
        if client is not None:
            client.close()

    def _run_serial(self):
        soak = self.soak
        client = None
        while not soak.stop_load.is_set():
            if self.mode == SLOW_READER and soak.quiesce.is_set():
                self.parked.set()
                soak.stop_load.wait(0.05)
                continue
            if client is None:
                client = self._connect_or_wait()
                continue
            rid = self._next_rid()
            try:
                self.submitted += 1
                reply = client.submit(
                    rid, scenario=self._scenario(rid),
                    wait=self.mode != SLOW_READER,
                )
                kind = reply.get("type")
                if kind == "verdict":
                    self.done += 1
                elif kind == "accepted" and self.mode == SLOW_READER:
                    self.admitted.append(rid)
                elif kind == "rejected":
                    self._count_rejection(reply)
                else:
                    self.errors.append(
                        "unexpected terminal {!r}".format(reply))
                if self.mode == SLOW_READER:
                    # read nothing more, walk away mid-stream
                    soak.stop_load.wait(self.pause_s)
                    self._drop(client)
                    client = None
                    continue
            except (ServeError, OSError):
                self._stream_died(rid)
                self._drop(client)
                client = None
                continue
            soak.stop_load.wait(self.pause_s)
        if client is not None:
            client.close()


class SoakHarness:
    """One full soak: a burst, then two load phases around a SIGTERM.

    ``root`` is scratch space (recreated); ``duration_s`` covers the
    *load* windows (roughly half before the mid-soak SIGTERM, half
    after the restart).  ``campaign_units`` sizes the sharded-campaign
    scale smoke (0 skips it).
    """

    def __init__(self, root, duration_s=30.0, campaign_units=2000):
        self.root = pathlib.Path(root)
        self.duration_s = duration_s
        self.campaign_units = campaign_units
        self.socket = str(self.root / "serve.sock")
        self.state = self.root / "state"
        self.stop_load = threading.Event()
        self.draining = threading.Event()
        #: slow readers stop submitting while this is set
        self.quiesce = threading.Event()
        self.phase = "a"
        self._proc = None
        self._log = []

    # -- plumbing --------------------------------------------------------------

    def log(self, message):
        self._log.append(message)
        print("soak: " + message, flush=True)

    def _tenants_json(self):
        # the plan tenant needs headroom for whole campaigns at once
        spec = {"plans": {"max_requests": 4,
                          "max_units": max(4096, 2 * PLAN_UNITS),
                          "weight": 1.0}}
        for tenant in TENANTS:
            spec[tenant["name"]] = {
                "max_requests": tenant.get(
                    "max_requests", 8 * tenant["streams"]),
                "max_units": 4096,
                "weight": tenant["weight"],
            }
        path = self.root / "tenants.json"
        path.write_text(json.dumps(spec, indent=2, sort_keys=True))
        return path

    def _start_server(self, ready_name):
        ready = self.root / ready_name
        proc = self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", self.socket, "--state", str(self.state),
             "--shards", str(SHARDS), "--jobs", str(JOBS),
             "--seed", str(SEED), "--max-queue", "1024",
             "--watchdog", "120",
             "--tenants", str(self._tenants_json()),
             "--ready-file", str(ready)],
            env=_child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        deadline = time.time() + 60
        while not ready.exists():
            if proc.poll() is not None:
                raise SoakError("server died on startup:\n"
                                + proc.stdout.read().decode())
            if time.time() > deadline:
                raise SoakError("server never became ready")
            time.sleep(0.05)
        return proc

    def _wait_clean_exit(self, proc, what):
        """Exit 0 + empty process group, or the soak fails."""
        try:
            code = proc.wait(timeout=180)
        except subprocess.TimeoutExpired:
            raise SoakError("{}: server never exited".format(what))
        output = proc.stdout.read().decode()
        if code != 0:
            raise SoakError("{}: server exited {} (want 0):\n{}".format(
                what, code, output))
        deadline = time.time() + 20
        while time.time() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                self._proc = None
                self.log("{}: clean exit 0, zero orphans".format(what))
                return
            time.sleep(0.2)
        raise SoakError(
            "{}: orphan processes survived the drain".format(what))

    def _kill_server(self):
        """Take down whatever a failed soak left of the server group."""
        if self._proc is None:
            return
        try:
            os.killpg(self._proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._proc.wait()
        self._proc = None

    def _spawn_load(self):
        threads = [_TenantLoad(self, tenant, stream)
                   for tenant in TENANTS
                   for stream in range(tenant["streams"])]
        for thread in threads:
            thread.start()
        return threads

    def _join_load(self, threads):
        self.stop_load.set()
        for thread in threads:
            thread.join(timeout=IO_TIMEOUT_S + 30)
        self.stop_load.clear()
        return self._fold_load(threads)

    @staticmethod
    def _fold_load(threads):
        folded = {}
        for thread in threads:
            entry = folded.setdefault(thread.tenant, {
                "mode": thread.mode, "submitted": 0, "done": 0,
                "rejected": {}, "errors": [], "admitted": [],
            })
            entry["submitted"] += thread.submitted
            entry["done"] += thread.done
            for reason, count in thread.rejected.items():
                entry["rejected"][reason] = \
                    entry["rejected"].get(reason, 0) + count
            entry["errors"].extend(thread.errors)
            entry["admitted"].extend(thread.admitted)
        return folded

    def _status(self):
        client = ServeClient(self.socket, timeout_s=IO_TIMEOUT_S)
        client.connect()
        try:
            return client.status()
        finally:
            client.close()

    def _result_path(self, tenant, rid):
        return self.state / "results" / "{}.{}.json".format(tenant, rid)

    def _quiesce_slow_readers(self, threads):
        """Park the slow readers and let what they got admitted finish.

        A drain abandons queued units unrecorded, so a slow-reader unit
        admitted just before one may never run.  Parking the slow
        readers (and waiting out their backlog) before each drain is
        what makes "every admitted unit is persisted" an exact check.
        """
        self.quiesce.set()
        deadline = time.monotonic() + 60.0
        for thread in threads:
            if thread.mode != SLOW_READER:
                continue
            thread.parked.wait(max(0.0, deadline - time.monotonic()))
            for rid in thread.admitted:
                while not self._result_path(thread.tenant, rid).exists() \
                        and time.monotonic() < deadline:
                    time.sleep(0.05)

    def _drain_verb(self, report):
        """Drain through ``repro drain``, the operator's verb."""
        try:
            drain = subprocess.run(
                [sys.executable, "-m", "repro", "drain",
                 "--socket", self.socket],
                env=_child_env(), stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, timeout=IO_TIMEOUT_S + 60,
            )
        except subprocess.TimeoutExpired:
            raise SoakError("repro drain never returned")
        report["drain_verb"] = {
            "exit_code": drain.returncode,
            "output": drain.stdout.decode().strip(),
        }
        if drain.returncode != 0:
            raise SoakError("repro drain exited {} (want 0)".format(
                drain.returncode))
        self.log("drain verb: repro drain exit 0")

    # -- phases ----------------------------------------------------------------

    def run(self):
        if self.root.exists():
            shutil.rmtree(self.root)
        self.root.mkdir(parents=True)
        report = {
            "config": {
                "duration_s": self.duration_s, "shards": SHARDS,
                "jobs": JOBS, "seed": SEED, "plan_units": PLAN_UNITS,
                "campaign_units": self.campaign_units,
                "fault_profile": FAULT_PROFILE,
                "tenants": [dict(t) for t in TENANTS],
            },
        }
        try:
            self._run(report)
        except SoakError as error:
            error.report = report
            raise
        finally:
            report["log"] = list(self._log)
            self.stop_load.set()
            self._kill_server()
        report["ok"] = True
        return report

    def _run(self, report):
        plan_dir = write_noop_plan(
            self.root / "plan", PLAN_UNITS, seed_base=1000)
        fault_dir = write_noop_plan(
            self.root / "fault-plan", PLAN_UNITS, seed_base=5000)
        plan = {"directory": str(plan_dir), "shards": SHARDS, "seed": SEED}
        half = max(2.0, self.duration_s / 2.0)

        # ---- phase A: burst, load, plan, SIGTERM mid-soak ---------------
        self.phase = "a"
        proc = self._start_server("ready-a")
        self._burst(report)
        threads = self._spawn_load()
        planner = ServeClient(self.socket,
                              timeout_s=IO_TIMEOUT_S).connect("plans")
        reply = planner.submit("det-plan", plan=plan, wait=False)
        if reply.get("type") != "accepted":
            raise SoakError("plan not accepted: {!r}".format(reply))
        # let the floods contend for at least half the budget, and be
        # sure the plan is journaling units before the SIGTERM lands
        time.sleep(half)
        deadline = time.time() + 120
        while True:
            journals = sorted(
                (self.state / "plans").glob("plans.det-plan*.jsonl"))
            if any(b"unit-finish" in j.read_bytes() for j in journals):
                break
            if time.time() > deadline:
                raise SoakError("plan never started finishing units")
            time.sleep(0.05)
        self._quiesce_slow_readers(threads)
        status_a = self._status()
        self.draining.set()
        os.kill(proc.pid, signal.SIGTERM)
        self._wait_clean_exit(proc, "phase-a")
        report["phase_a"] = self._join_load(threads)
        report["status_a"] = {
            "scheduler": status_a.get("scheduler"),
            "overload": status_a.get("overload"),
        }
        try:
            planner.sock.close()
        except OSError:
            pass
        self.draining.clear()
        self.quiesce.clear()

        # ---- phase B: restart, resume, keep loading, drain verb ----------
        self.phase = "b"
        proc = self._start_server("ready-b")
        threads = self._spawn_load()
        resumer = ServeClient(self.socket, timeout_s=300.0).connect("plans")
        verdict = resumer.submit("det-plan", plan=plan)
        if verdict.get("status") != "done" or not verdict.get("ok"):
            raise SoakError(
                "resumed plan did not finish clean: {!r}".format(verdict))
        store_path = pathlib.Path(verdict["store"])
        fault_verdict = resumer.submit(
            "fault-plan",
            plan={"directory": str(fault_dir), "shards": SHARDS,
                  "seed": SEED, "fault_profile": FAULT_PROFILE},
        )
        if fault_verdict.get("type") != "verdict":
            raise SoakError(
                "fault-profile plan had no typed verdict: {!r}"
                .format(fault_verdict))
        report["fault_plan"] = {
            "status": fault_verdict.get("status"),
            "ok": fault_verdict.get("ok"),
            "summary": fault_verdict.get("summary"),
        }
        resumer.close()
        time.sleep(half)
        self._quiesce_slow_readers(threads)
        status_b = self._status()
        report["status_b"] = {
            "scheduler": status_b.get("scheduler"),
            "overload": status_b.get("overload"),
        }
        self.draining.set()
        self._drain_verb(report)
        self._wait_clean_exit(proc, "phase-b")
        report["phase_b"] = self._join_load(threads)
        self.draining.clear()

        # ---- verification ------------------------------------------------
        self._verify_load(report)
        self._verify_capped(report)
        self._verify_fairness(report, status_b)
        self._verify_trickle(report, status_b)
        self._verify_slow_reader(report)
        self._verify_determinism(report, plan_dir, store_path)
        if self.campaign_units:
            report["campaign_smoke"] = self._campaign_smoke()

    def _burst(self, report):
        """Many connections at once, each submitting real units.

        The uncapped tenants share :data:`BURST_CONNECTIONS` connections
        that open together and submit :data:`BURST_SUBMITS` KASLR units
        each; every submission must come back ``done``.
        """
        tenants = _names(FLOOD) + _names(TRICKLE)
        barrier = threading.Barrier(BURST_CONNECTIONS)
        replies = []
        lock = threading.Lock()

        def connection(index):
            tenant = tenants[index % len(tenants)]
            try:
                with ServeClient(self.socket, timeout_s=IO_TIMEOUT_S) \
                        .connect(tenant) as client:
                    barrier.wait(timeout=60.0)
                    for submit in range(BURST_SUBMITS):
                        rid = "burst-{}-{}".format(index, submit)
                        reply = client.submit(rid, scenario=kaslr_scenario(
                            rid, BURST_SUBMITS * index + submit))
                        with lock:
                            replies.append(reply)
            except (ServeError, OSError, threading.BrokenBarrierError) \
                    as error:
                with lock:
                    replies.append({"type": "client-error",
                                    "error": repr(error)})

        threads = [threading.Thread(target=connection, args=(index,))
                   for index in range(BURST_CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=IO_TIMEOUT_S + 60)
        submitted = BURST_CONNECTIONS * BURST_SUBMITS
        bad = [r for r in replies
               if r.get("type") != "verdict" or r.get("status") != "done"]
        done = len(replies) - len(bad)
        report["burst"] = {
            "connections": BURST_CONNECTIONS,
            "submitted": submitted,
            "replies": len(replies),
            "done": done,
        }
        if done != submitted:
            raise SoakError("burst: {} of {} submissions done; first "
                            "others: {!r}".format(done, submitted, bad[:3]))
        self.log("burst: {} submissions over {} connections, all done"
                 .format(submitted, BURST_CONNECTIONS))

    # -- assertions ------------------------------------------------------------

    def _phase_sum(self, report, tenant, field):
        return sum(report[phase].get(tenant, {}).get(field, 0)
                   for phase in PHASES)

    def _verify_load(self, report):
        errors = []
        for phase in PHASES:
            for tenant, entry in sorted(report[phase].items()):
                errors.extend(
                    "{}/{}: {}".format(phase, tenant, e)
                    for e in entry["errors"])
        if errors:
            raise SoakError(
                "load errors (timeouts/crashes where typed refusals "
                "were promised): " + "; ".join(errors[:8]))
        total_done = sum(
            entry["done"]
            for phase in PHASES
            for entry in report[phase].values())
        if total_done == 0:
            raise SoakError("no load completed at all")
        self.log("load clean: {} verdicts, no untyped failures"
                 .format(total_done))

    def _verify_capped(self, report):
        """Over-quota submits get typed requests-in-flight refusals."""
        capped = {}
        for name in _names(CAPPED):
            refused = sum(
                report[phase].get(name, {}).get("rejected", {})
                .get("requests-in-flight", 0) for phase in PHASES)
            capped[name] = {
                "submitted": self._phase_sum(report, name, "submitted"),
                "done": self._phase_sum(report, name, "done"),
                "requests_in_flight_rejections": refused,
            }
            if not refused or not capped[name]["done"]:
                raise SoakError(
                    "capped tenant {} wants verdicts and requests-in-"
                    "flight refusals: {!r}".format(name, capped[name]))
        report["capped"] = capped
        self.log("capped: " + json.dumps(capped, sort_keys=True))

    def _verify_fairness(self, report, status):
        """Flood tenants' weight-normalized throughput must stay close."""
        weights = {t["name"]: t["weight"] for t in TENANTS
                   if t["mode"] == FLOOD}
        counts = {tenant: self._phase_sum(report, tenant, "done")
                  for tenant in weights}
        dispatched = {
            name: info.get("dispatched", 0)
            for name, info in
            (status.get("scheduler", {}).get("tenants") or {}).items()
        }
        normalized = {
            tenant: counts[tenant] / weights[tenant] for tenant in weights
        }
        floor = min(normalized.values())
        if floor <= 0:
            raise SoakError(
                "a flood tenant was starved outright: {!r}".format(counts))
        ratio = max(normalized.values()) / floor
        report["fairness"] = {
            "counts": counts,
            "weights": weights,
            "normalized": {k: round(v, 2) for k, v in normalized.items()},
            "dispatched_b": dispatched,
            "ratio": round(ratio, 3),
            "bound": FAIRNESS_RATIO_MAX,
        }
        if ratio > FAIRNESS_RATIO_MAX:
            raise SoakError(
                "weight-normalized flood throughput ratio {:.2f} exceeds "
                "{:.2f}: {!r}".format(
                    ratio, FAIRNESS_RATIO_MAX, normalized))
        self.log("fairness: normalized ratio {:.2f} <= {:.2f} ({})".format(
            ratio, FAIRNESS_RATIO_MAX,
            ", ".join("{}={}".format(k, v)
                      for k, v in sorted(counts.items()))))

    def _verify_trickle(self, report, status):
        sched = status.get("scheduler", {}).get("tenants") or {}
        trickle = {}
        for name in _names(TRICKLE):
            done = self._phase_sum(report, name, "done")
            p99 = (sched.get(name) or {}).get("p99_wait_ms", 0.0)
            trickle[name] = {
                "submitted": self._phase_sum(report, name, "submitted"),
                "done": done, "p99_wait_ms": p99,
            }
            if done == 0:
                raise SoakError(
                    "trickle tenant {} completed nothing".format(name))
            if p99 > TRICKLE_P99_MS:
                raise SoakError(
                    "trickle tenant {} p99 queue wait {:.0f}ms exceeds "
                    "{:.0f}ms -- starved behind the floods".format(
                        name, p99, TRICKLE_P99_MS))
        report["trickle"] = trickle
        self.log("trickle: " + json.dumps(trickle, sort_keys=True))

    def _verify_slow_reader(self, report):
        """Every slow-reader submission the server admitted is on disk."""
        outcome = {}
        for name in _names(SLOW_READER):
            admitted = [rid for phase in PHASES
                        for rid in report[phase].get(name, {})
                        .get("admitted", [])]
            missing = [rid for rid in admitted
                       if not self._result_path(name, rid).exists()]
            outcome[name] = {
                "submitted": self._phase_sum(report, name, "submitted"),
                "admitted": len(admitted),
                "persisted": len(admitted) - len(missing),
            }
            if not admitted or missing:
                raise SoakError(
                    "slow reader {}: {} admitted, not persisted: {!r}"
                    .format(name, len(admitted), missing[:8]))
        report["slow_reader"] = outcome
        self.log("slow reader: " + json.dumps(outcome, sort_keys=True))

    def _verify_determinism(self, report, plan_dir, store_path):
        offline = ShardedCampaignRunner(
            self.root / "offline.jsonl", directory=str(plan_dir),
            shards=SHARDS, jobs=JOBS, seed=SEED, watchdog_s=120.0,
        ).run()
        if not offline.ok:
            raise SoakError(
                "offline reference run failed: " + offline.summary)
        served_sha = store_digest(json.loads(store_path.read_text()))
        offline_sha = store_digest(offline.store)
        report["determinism"] = {
            "served_sha256": served_sha,
            "offline_sha256": offline_sha,
            "equal": served_sha == offline_sha,
        }
        if served_sha != offline_sha:
            raise SoakError(
                "served store {} != offline store {} after drain+resume"
                .format(served_sha, offline_sha))
        self.log("determinism: served == offline ({})".format(served_sha))

    def _campaign_smoke(self):
        """The scale leg: a sharded campaign at real unit counts."""
        directory = write_noop_plan(
            self.root / "campaign", self.campaign_units,
            seed_base=100000, spin=64)
        started = time.monotonic()
        result = ShardedCampaignRunner(
            self.root / "campaign.jsonl", directory=str(directory),
            shards=SHARDS, jobs=JOBS, seed=SEED, watchdog_s=300.0,
        ).run()
        elapsed = time.monotonic() - started
        if not result.ok:
            raise SoakError("campaign smoke failed: " + result.summary)
        smoke = {
            "units": self.campaign_units,
            "elapsed_s": round(elapsed, 2),
            "units_per_s": round(self.campaign_units / elapsed, 1),
            "summary": result.summary,
        }
        self.log("campaign smoke: {} units in {:.1f}s ({}/s)".format(
            self.campaign_units, elapsed, smoke["units_per_s"]))
        return smoke


def run_soak(root, **kwargs):
    """Run one soak; returns the report dict (raises SoakError on fail)."""
    return SoakHarness(root, **kwargs).run()
