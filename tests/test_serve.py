"""The multi-tenant serve layer: protocol, quotas, breakers, service.

The integration tests drive a real server over a real Unix socket --
admission rejections, streamed events, graceful drain, and the load-
bearing property: a plan served (even across a drain-restart-resubmit
cycle) produces the same result store, modulo the two wall-clock
fields, as an offline ``repro campaign run``.
"""

import functools
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.campaign import (
    ShardedCampaignRunner,
    SupervisedPool,
    strip_wall_stamps,
)
from repro.cli import EXIT_INTERRUPTED, main
from repro.errors import (
    CampaignError,
    Overloaded,
    ProtocolError,
    QuotaExceeded,
)
from repro.ioutil import prune_stale_artifacts
from repro.serve import protocol
from repro.serve.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
)
from repro.serve.client import ServeClient
from repro.serve.quota import QuotaLedger, TenantQuota, load_tenant_quotas
from repro.serve.scheduler import FairShareScheduler
from repro.serve.server import ServeServer
from repro.serve import backend as backend_module
from repro.serve.backend import ServeBackend, Submission

SRC_DIR = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def _write_scenarios(directory, count, trials=2):
    directory.mkdir(parents=True, exist_ok=True)
    for index in range(count):
        spec = {
            "name": "unit{}".format(index),
            "machine": {"os": "linux", "cpu": "i5-12400F", "seed": index},
            "attack": {"kind": "kaslr", "params": {"trials": trials}},
            "expect": {"correct": True},
        }
        (directory / "unit{}.json".format(index)).write_text(
            json.dumps(spec)
        )
    return directory


def _scenario_spec(seed=3):
    return {
        "name": "inline",
        "machine": {"os": "linux", "cpu": "i5-12400F", "seed": seed},
        "attack": {"kind": "kaslr", "params": {"trials": 2}},
        "expect": {"correct": True},
    }


# -- protocol ------------------------------------------------------------------


class TestProtocol:
    def test_encode_parse_roundtrip(self):
        message = {"type": "submit", "id": "r1", "scenario": {"a": 1}}
        assert protocol.parse_line(
            protocol.encode(message).rstrip(b"\n")
        ) == message

    def test_junk_line_is_typed(self):
        with pytest.raises(ProtocolError):
            protocol.parse_line(b"\x00\xff not json")
        with pytest.raises(ProtocolError):
            protocol.parse_line(b"[1, 2, 3]")
        with pytest.raises(ProtocolError):
            protocol.parse_line(b'{"no": "type"}')

    def test_validate_rejects_bad_shapes(self):
        with pytest.raises(ProtocolError):
            protocol.validate_client({"type": "frobnicate"})
        with pytest.raises(ProtocolError):
            protocol.validate_client({"type": "hello", "tenant": "../../x"})
        with pytest.raises(ProtocolError):
            protocol.validate_client(
                {"type": "hello", "tenant": "a", "proto": "repro-serve/v0"}
            )
        with pytest.raises(ProtocolError):
            protocol.validate_client({"type": "submit", "id": "ok"})
        with pytest.raises(ProtocolError):
            protocol.validate_client({
                "type": "submit", "id": "ok",
                "scenario": {}, "plan": {"directory": "d"},
            })
        with pytest.raises(ProtocolError):
            protocol.validate_client({
                "type": "submit", "id": "ok", "scenario": {},
                "deadline_s": -1,
            })

    def test_rejected_carries_typed_fields(self):
        error = QuotaExceeded("over", tenant="a", quota="units-in-flight",
                              retry_after_s=1.0)
        message = protocol.rejected("r1", error)
        assert message["error"] == "QuotaExceeded"
        assert message["tenant"] == "a"
        assert message["quota"] == "units-in-flight"
        assert message["retry_after_s"] == 1.0

    def test_line_cap_enforced(self):
        with pytest.raises(ProtocolError):
            protocol.encode({"type": "submit", "id": "r",
                             "scenario": {"blob": "x" * protocol.MAX_LINE_BYTES}})


# -- quotas --------------------------------------------------------------------


class TestQuota:
    def test_admit_and_release_roundtrip(self):
        ledger = QuotaLedger(TenantQuota(max_requests=2, max_units=8))
        ledger.admit("a", 4)
        ledger.admit("a", 4)
        with pytest.raises(QuotaExceeded) as excinfo:
            ledger.admit("a", 1)
        assert excinfo.value.quota == "requests-in-flight"
        ledger.release("a", 4)
        ledger.admit("a", 2)

    def test_unit_quota_is_typed_and_charges_nothing(self):
        ledger = QuotaLedger(TenantQuota(max_requests=10, max_units=4))
        ledger.admit("a", 3)
        with pytest.raises(QuotaExceeded) as excinfo:
            ledger.admit("a", 2)
        assert excinfo.value.quota == "units-in-flight"
        # the failed admit charged nothing: one more unit still fits
        ledger.admit("a", 1)

    def test_deadline_cap_and_default(self):
        ledger = QuotaLedger(TenantQuota(max_deadline_s=10.0))
        with pytest.raises(QuotaExceeded) as excinfo:
            ledger.admit("a", 1, deadline_s=30.0)
        assert excinfo.value.quota == "deadline"
        # no deadline requested: the cap becomes the default budget
        assert ledger.admit("b", 1) == 10.0
        assert ledger.admit("c", 1, deadline_s=5.0) == 5.0

    def test_tenants_are_isolated(self):
        ledger = QuotaLedger(TenantQuota(max_units=2))
        ledger.admit("a", 2)
        ledger.admit("b", 2)  # b's budget is b's own
        snapshot = ledger.snapshot()
        assert snapshot["a"]["units"] == 2
        assert snapshot["b"]["admitted"] == 1

    def test_load_tenant_quotas(self):
        default, tenants = load_tenant_quotas({
            "default": {"max_units": 16},
            "noisy": {"max_requests": 1, "max_units": 2},
        })
        assert default.max_units == 16
        assert tenants["noisy"].max_requests == 1


# -- circuit breakers ----------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_threshold_and_sheds(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=10.0,
                                 clock=lambda: clock[0])
        for __ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN and not breaker.allow()
        assert breaker.retry_after_s() == pytest.approx(10.0)

    def test_half_open_admits_one_probe(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 6.0
        assert breaker.state == HALF_OPEN
        assert breaker.allow()
        assert not breaker.allow()  # only one probe
        breaker.record_success()
        assert breaker.state == CLOSED and breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 6.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN

    def test_board_folds_reports(self):
        board = BreakerBoard(2, failure_threshold=1)

        class Report:
            shard_states = {0: "done", 1: "dead"}
            shard_failures = {1: "CampaignError: disk died"}

        board.record_report(Report())
        assert board.degraded_shards() == [1]
        assert board.backend.state == CLOSED

        class Wipeout:
            shard_states = {0: "dead", 1: "dead"}
            shard_failures = {0: "x", 1: "y"}

        board.record_report(Wipeout())
        assert board.backend.state == OPEN


# -- artifact rotation ---------------------------------------------------------


class TestArtifactRotation:
    def test_prune_keeps_newest_and_drops_stale(self, tmp_path):
        old = time.time() - 7200.0
        for index in range(6):
            path = tmp_path / "c.beats-{}".format(index)
            path.mkdir()
            os.utime(path, (old + index, old + index))
        fresh = tmp_path / "c.beats-fresh"
        fresh.mkdir()
        keep = tmp_path / "keep.json"
        keep.write_text("{}")
        removed = prune_stale_artifacts(
            tmp_path, patterns=("c.beats-*",), max_age_s=3600.0, keep=3
        )
        survivors = sorted(p.name for p in tmp_path.glob("c.beats-*"))
        assert len(survivors) == 3
        assert "c.beats-fresh" in survivors
        assert len(removed) == 4
        assert keep.exists()  # non-matching files are untouched

    def test_campaign_run_rotates_previous_debris(self, tmp_path):
        scenarios = _write_scenarios(tmp_path / "scenarios", 1)
        journal = tmp_path / "c.jsonl"
        stale_beats = tmp_path / "c.beats-stale"
        stale_beats.mkdir()
        stale_tmp = tmp_path / "c.results.json.tmp"
        stale_tmp.write_text("torn")
        old = time.time() - 7200.0
        os.utime(stale_beats, (old, old))
        os.utime(stale_tmp, (old, old))
        # push the stale entries out of the keep-newest window
        for index in range(4):
            pad = tmp_path / "c.beats-pad{}".format(index)
            pad.mkdir()
        code = main(["campaign", "run", str(scenarios),
                     "--journal", str(journal), "--jobs", "1"])
        assert code == 0
        assert not stale_beats.exists()
        assert not stale_tmp.exists()
        # the run's own beat dir cleaned up after itself too
        assert list(tmp_path.glob("c.beats-*")) != []  # pads are newer
        assert journal.exists()


# -- the service ---------------------------------------------------------------


def _start_server(tmp_path, quota=None, ledger=None, shards=2, jobs=2,
                  max_queue=64, name="serve.sock", scheduler=None,
                  **kwargs):
    backend = ServeBackend(tmp_path / "state", shards=shards, jobs=jobs,
                           watchdog_s=60.0, scheduler=scheduler)
    if ledger is None:
        ledger = QuotaLedger(quota or TenantQuota())
    server = ServeServer(backend, ledger,
                         socket_path=str(tmp_path / name),
                         max_queue=max_queue, **kwargs)
    server.start()
    return server


class _GatedScheduler(FairShareScheduler):
    """Dispatches nothing until ``gate`` is set: admitted work stays in
    flight for exactly as long as a test needs it to."""

    def __init__(self):
        super(_GatedScheduler, self).__init__()
        self.gate = threading.Event()

    def take(self, room):
        if not self.gate.is_set():
            return []
        return super(_GatedScheduler, self).take(room)


class TestServeService:
    def test_hello_health_and_scenario_verdict(self, tmp_path):
        server = _start_server(
            tmp_path, quota=TenantQuota(max_requests=2, max_units=8),
            ready_file=str(tmp_path / "ready"),
        )
        try:
            assert (tmp_path / "ready").exists()
            events = []
            with ServeClient(server.address).connect("alice") as client:
                assert client.welcome["quota"]["max_units"] == 8
                health = client.health()
                assert health["status"] == "ok" and health["ready"]
                verdict = client.submit(
                    "r1", scenario=_scenario_spec(),
                    on_event=lambda m: events.append(m["kind"]),
                )
            assert verdict["status"] == "done"
            assert verdict["result"]["passed"] is True
            assert "unit-start" in events and "unit-finish" in events
            # the result was persisted before the verdict was streamed
            persisted = json.loads(
                (tmp_path / "state" / "results" / "alice.r1.json")
                .read_text()
            )
            assert persisted == verdict["result"]
        finally:
            server.drain(timeout=60.0)
        assert not (tmp_path / "ready").exists()

    def test_protocol_error_keeps_session_usable(self, tmp_path):
        server = _start_server(tmp_path)
        try:
            client = ServeClient(server.address).connect("alice")
            client.sock.sendall(b"this is not json\n")
            reply = client.recv()
            assert reply["type"] == "error"
            # same connection still works
            verdict = client.submit("r1", scenario=_scenario_spec())
            assert verdict["status"] == "done"
            client.close()
        finally:
            server.drain(timeout=60.0)

    def test_quota_rejection_is_typed(self, tmp_path):
        scenarios = _write_scenarios(tmp_path / "plan", 4)
        server = _start_server(
            tmp_path, quota=TenantQuota(max_requests=4, max_units=2)
        )
        try:
            with ServeClient(server.address).connect("greedy") as client:
                reply = client.submit(
                    "p1", plan={"directory": str(scenarios)}
                )
            assert reply["type"] == "rejected"
            assert reply["error"] == "QuotaExceeded"
            assert reply["quota"] == "units-in-flight"
            assert reply["tenant"] == "greedy"
        finally:
            server.drain(timeout=60.0)

    def test_requests_in_flight_quota_refuses_every_extra_submit(
            self, tmp_path):
        scheduler = _GatedScheduler()
        server = _start_server(
            tmp_path, quota=TenantQuota(max_requests=1, max_units=8),
            scheduler=scheduler,
        )
        try:
            with ServeClient(server.address).connect("capped") as held:
                reply = held.submit("held", scenario=_scenario_spec(),
                                    wait=False)
                assert reply["type"] == "accepted", reply
                for index in range(5):
                    with ServeClient(server.address) \
                            .connect("capped") as client:
                        reply = client.submit(
                            "extra{}".format(index),
                            scenario=_scenario_spec(seed=index),
                            wait=False,
                        )
                    assert reply["type"] == "rejected", reply
                    assert reply["error"] == "QuotaExceeded", reply
                    assert reply["quota"] == "requests-in-flight", reply
                assert server.ledger.snapshot()["capped"]["requests"] == 1
                scheduler.gate.set()
                while True:
                    reply = held.recv()
                    if reply.get("id") == "held" \
                            and reply["type"] not in ("event", "accepted"):
                        break
            assert reply["type"] == "verdict", reply
            assert reply["status"] == "done", reply
            # the quota is released before the verdict is sent
            assert server.ledger.snapshot()["capped"]["requests"] == 0
        finally:
            scheduler.gate.set()
            server.drain(timeout=60.0)

    def test_queue_full_is_overloaded(self, tmp_path):
        scenarios = _write_scenarios(tmp_path / "plan", 4)
        server = _start_server(
            tmp_path, quota=TenantQuota(max_units=64), max_queue=2
        )
        try:
            with ServeClient(server.address).connect("alice") as client:
                reply = client.submit(
                    "p1", plan={"directory": str(scenarios)}
                )
            assert reply["type"] == "rejected"
            assert reply["error"] == "Overloaded"
            assert reply["reason"] == "queue-full"
        finally:
            server.drain(timeout=60.0)

    def test_bad_plan_directory_rejects_and_releases_quota(self, tmp_path):
        server = _start_server(tmp_path, quota=TenantQuota(max_units=4))
        try:
            with ServeClient(server.address).connect("alice") as client:
                reply = client.submit(
                    "p1", plan={"directory": str(tmp_path / "empty")}
                )
                assert reply["type"] == "rejected"
                assert reply["error"] == "CampaignError"
                # nothing leaked: a full-size scenario still admits
                verdict = client.submit("r2", scenario=_scenario_spec())
                assert verdict["status"] == "done"
            assert server.ledger.snapshot()["alice"]["requests"] == 0
        finally:
            server.drain(timeout=60.0)

    def test_circuit_open_sheds_with_retry_after(self, tmp_path):
        server = _start_server(tmp_path)
        try:
            for __ in range(3):
                server.breakers.backend.record_failure()
            with pytest.raises(Overloaded) as excinfo:
                server.admit("alice", 1)
            assert excinfo.value.reason == "circuit-open"
            assert excinfo.value.retry_after_s > 0
        finally:
            server.drain(timeout=60.0)

    def test_draining_server_admits_nothing(self, tmp_path):
        server = _start_server(tmp_path)
        server.drain(timeout=60.0)
        with pytest.raises(Overloaded) as excinfo:
            server.admit("alice", 1)
        assert excinfo.value.reason == "draining"
        health = server.health()
        assert health["status"] == "draining" and not health["ready"]

    def test_dead_client_drops_stream_not_computation(self, tmp_path):
        server = _start_server(tmp_path)
        try:
            raw = socket.socket(socket.AF_UNIX)
            raw.connect(server.address)
            raw.sendall(protocol.encode(
                {"type": "hello", "tenant": "ghost"}
            ))
            raw.sendall(protocol.encode({
                "type": "submit", "id": "r1",
                "scenario": _scenario_spec(),
            }))
            raw.close()  # the client dies right after submitting
            result_path = tmp_path / "state" / "results" / "ghost.r1.json"
            deadline = time.monotonic() + 60.0
            while not result_path.exists() \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            assert result_path.exists()
            # and the quota was released despite the dead stream
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                usage = server.ledger.snapshot().get("ghost", {})
                if usage.get("requests") == 0:
                    break
                time.sleep(0.05)
            assert server.ledger.snapshot()["ghost"]["requests"] == 0
        finally:
            server.drain(timeout=60.0)

    def test_plan_store_matches_offline_run(self, tmp_path):
        scenarios = _write_scenarios(tmp_path / "plan", 3)
        server = _start_server(tmp_path, shards=2, jobs=2)
        try:
            with ServeClient(server.address).connect("alice") as client:
                verdict = client.submit(
                    "p1",
                    plan={"directory": str(scenarios), "shards": 2,
                          "seed": 5},
                )
            assert verdict["status"] == "done" and verdict["ok"]
            served = strip_wall_stamps(json.loads(
                pathlib.Path(verdict["store"]).read_text()
            ))
        finally:
            server.drain(timeout=60.0)
        offline = ShardedCampaignRunner(
            tmp_path / "offline.jsonl", directory=str(scenarios),
            shards=2, jobs=2, seed=5, watchdog_s=60.0,
        ).run()
        assert served == strip_wall_stamps(offline.store)

    def test_drain_restart_resubmit_reaches_offline_store(self, tmp_path):
        scenarios = _write_scenarios(tmp_path / "plan", 5)
        server = _start_server(tmp_path, shards=2, jobs=2)
        try:
            with ServeClient(server.address).connect("alice") as client:
                accepted = client.submit(
                    "p1",
                    plan={"directory": str(scenarios), "shards": 2,
                          "seed": 7},
                    wait=False,
                )
                assert accepted["type"] == "accepted"
        finally:
            # drain immediately: the plan is interrupted mid-flight,
            # its journal sealed with the finished units recorded
            server.drain(timeout=120.0)
        journal = tmp_path / "state" / "plans" / "alice.p1.jsonl"
        assert journal.exists()

        # a fresh incarnation over the same state dir; resubmitting the
        # same (tenant, id) resumes the sealed journal
        server = _start_server(tmp_path, shards=2, jobs=2, name="s2.sock")
        try:
            with ServeClient(server.address).connect("alice") as client:
                verdict = client.submit(
                    "p1",
                    plan={"directory": str(scenarios), "shards": 2,
                          "seed": 7},
                )
            assert verdict["status"] == "done" and verdict["ok"]
            served = strip_wall_stamps(json.loads(
                pathlib.Path(verdict["store"]).read_text()
            ))
        finally:
            server.drain(timeout=120.0)
        offline = ShardedCampaignRunner(
            tmp_path / "offline.jsonl", directory=str(scenarios),
            shards=2, jobs=2, seed=7, watchdog_s=60.0,
        ).run()
        assert served == strip_wall_stamps(offline.store)

    def test_deadline_expired_queue_skips_with_typed_verdict(self, tmp_path):
        server = _start_server(tmp_path)
        try:
            with ServeClient(server.address).connect("alice") as client:
                verdict = client.submit(
                    "r1", scenario=_scenario_spec(),
                    deadline_s=0.000001,
                )
            assert verdict["status"] in ("skipped", "done")
            if verdict["status"] == "skipped":
                assert verdict["reason"] == "deadline"
            else:  # raced past the queue before expiry: degraded instead
                assert verdict["result"]["degraded"] == "deadline"
        finally:
            server.drain(timeout=60.0)


class TestWakeOnWork:
    def test_idle_backend_launches_each_submission_at_once(
            self, tmp_path, monkeypatch):
        # a 30 s tick turns a lost doorbell ring into a ~30 s hang
        monkeypatch.setattr(backend_module, "SupervisedPool",
                            functools.partial(SupervisedPool, tick_s=30.0))
        backend = ServeBackend(tmp_path / "state", shards=1, jobs=1)
        backend.start()
        try:
            for n in range(3):
                sub = Submission("alice.r{}".format(n), "alice",
                                 "r{}".format(n), "scenario", 1)
                backend.submit_scenario(sub, _scenario_spec(seed=n))
                assert sub.done.wait(5.0), "unit {} waited a tick".format(n)
                assert sub.verdict["status"] == "done"
        finally:
            start = time.monotonic()
            backend.drain(timeout=60.0)
            drained_in = time.monotonic() - start
        assert not backend._pool_thread.is_alive()
        assert drained_in < 5.0


# -- serve CLI -----------------------------------------------------------------


class TestServeCLI:
    def test_serve_submit_drain_verbs(self, tmp_path, capsys):
        sock = str(tmp_path / "cli.sock")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_scenario_spec()))
        codes = {}

        def run_server():
            codes["serve"] = main([
                "serve", "--socket", sock,
                "--state", str(tmp_path / "state"),
                "--shards", "2", "--jobs", "2",
                "--ready-file", str(tmp_path / "ready"),
            ])

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30.0
        while not (tmp_path / "ready").exists() \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert (tmp_path / "ready").exists()

        code = main(["submit", "--socket", sock, "--tenant", "alice",
                     "--id", "r1", "--scenario", str(spec_path),
                     "--json"])
        out = capsys.readouterr().out
        assert code == 0
        reply = json.loads(out.strip().splitlines()[-1])
        assert reply["status"] == "done"

        code = main(["drain", "--socket", sock])
        assert code == 0
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert codes["serve"] == 0

    def test_serve_needs_an_address(self, capsys):
        code = main(["serve", "--state", "unused"])
        assert code == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ServeError"

    def test_submit_needs_exactly_one_payload(self, tmp_path, capsys):
        code = main(["submit", "--socket", str(tmp_path / "no.sock"),
                     "--id", "r1"])
        assert code == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ServeError"


# -- graceful signals for campaign run -----------------------------------------


class TestCampaignSignals:
    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        return env

    def _strip(self, store_path):
        return strip_wall_stamps(
            json.loads(pathlib.Path(store_path).read_text()))

    def test_sigterm_drains_seals_and_resumes_identically(self, tmp_path):
        scenarios = _write_scenarios(tmp_path / "scenarios", 8, trials=4)
        clean = tmp_path / "clean.jsonl"
        base_cmd = [sys.executable, "-m", "repro", "campaign"]
        subprocess.run(
            base_cmd + ["run", str(scenarios), "--journal", str(clean),
                        "--jobs", "1"],
            env=self._env(), check=True, capture_output=True, timeout=300,
        )

        drained = tmp_path / "drained.jsonl"
        process = subprocess.Popen(
            base_cmd + ["run", str(scenarios), "--journal", str(drained),
                        "--jobs", "1"],
            env=self._env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if process.poll() is not None:
                break
            if drained.exists() and b"unit-start" in drained.read_bytes():
                process.send_signal(signal.SIGTERM)
                break
            time.sleep(0.02)
        out, err = process.communicate(timeout=120)
        if process.returncode == EXIT_INTERRUPTED:
            assert b"interrupted: journal sealed" in out
            subprocess.run(
                base_cmd + ["resume", str(drained), "--jobs", "1"],
                env=self._env(), check=True, capture_output=True,
                timeout=300,
            )
        else:
            # raced to completion before the signal landed; still a
            # valid outcome -- the stores must agree either way
            assert process.returncode == 0, err
        assert self._strip(tmp_path / "clean.results.json") \
            == self._strip(tmp_path / "drained.results.json")

    def test_predrained_runner_reports_interrupted(self, tmp_path, capsys):
        from repro.campaign import CampaignRunner

        scenarios = _write_scenarios(tmp_path / "scenarios", 2)
        runner = CampaignRunner(tmp_path / "c.jsonl",
                                directory=str(scenarios), jobs=1)
        runner.request_drain()
        report = runner.run()
        assert report.interrupted
        # nothing ran, nothing was skipped: the units stay pending
        assert report.summary["skipped"] == 0
        assert all(unit["status"] == "INCOMPLETE"
                   for unit in report.store["units"])
        # and a resume picks them all up
        resumed = CampaignRunner(tmp_path / "c.jsonl", jobs=1) \
            .run(resume=True)
        assert not resumed.interrupted
        assert resumed.summary["passed"] == 2

    def test_interrupted_report_exit_code(self, tmp_path, capsys):
        from repro.cli import _print_campaign_report
        from repro.campaign.runner import CampaignReport

        store = {"units": [], "summary": {"passed": 0, "failed": 1,
                                          "skipped": 0, "degraded": 0}}
        report = CampaignReport(store, tmp_path / "r.json",
                                interrupted=True)
        code = _print_campaign_report(report)
        assert code == EXIT_INTERRUPTED
        assert "interrupted" in capsys.readouterr().out


# -- the serve loop on a faulted fabric ----------------------------------------


def _dead_shard_profile(tmp_path):
    """A fault profile that kills shard 0's disk on its first append."""
    profile = tmp_path / "dead-shard-0.json"
    profile.write_text(json.dumps({
        "name": "dead-shard-0",
        "description": "shard 0's disk is full from the first byte",
        "rates": {"enospc": 1.0},
        "enospc_sticky": True,
        "shards": [0],
    }))
    return profile


class TestServeUnderFaults:
    """Quarantines degrade service; they never cascade or hang it."""

    def test_faulted_plan_quarantines_dead_shard_and_completes(
            self, tmp_path):
        profile = _dead_shard_profile(tmp_path)
        directory = _write_scenarios(tmp_path / "scen", 6, trials=1)
        server = _start_server(tmp_path)
        try:
            with ServeClient(server.address, timeout_s=120) \
                    .connect("alice") as client:
                verdict = client.submit("p1", plan={
                    "directory": str(directory), "shards": 2, "seed": 3,
                    "fault_profile": str(profile),
                })
            assert verdict["status"] == "done" and verdict["ok"], verdict
            # shard 0 died with a typed failure; the survivor stole its
            # backlog, so the campaign still passed every unit
            assert "0" in verdict["shard_failures"], verdict
            assert verdict["steals"] >= 1, verdict
            assert verdict["summary"]["failed"] == 0, verdict
        finally:
            server.drain(timeout=60.0)

    def test_typed_outcomes_under_2x_quota_pressure_with_dead_shard(
            self, tmp_path):
        """The ISSUE acceptance shape: 2x quota pressure + a quarantined
        shard, and every request still ends in a typed outcome."""
        profile = _dead_shard_profile(tmp_path)
        directory = _write_scenarios(tmp_path / "scen", 8, trials=1)
        server = _start_server(
            tmp_path, quota=TenantQuota(max_requests=2, max_units=64),
        )
        plan_verdict = {}
        outcomes = []
        lock = threading.Lock()

        def run_plan():
            with ServeClient(server.address, timeout_s=120) \
                    .connect("alice") as client:
                plan_verdict.update(client.submit("p1", plan={
                    "directory": str(directory), "shards": 2, "seed": 3,
                    "fault_profile": str(profile),
                }))

        def pressure(index):
            with ServeClient(server.address, timeout_s=120) \
                    .connect("carol") as client:
                reply = client.submit(
                    "q{}".format(index),
                    scenario=_scenario_spec(seed=index),
                )
                with lock:
                    outcomes.append(reply)

        try:
            planner = threading.Thread(target=run_plan)
            planner.start()
            # 4 concurrent requests against carol's quota of 2
            hammers = [threading.Thread(target=pressure, args=(i,))
                       for i in range(4)]
            for thread in hammers:
                thread.start()
            for thread in hammers:
                thread.join(timeout=120)
            planner.join(timeout=120)
            assert len(outcomes) == 4, outcomes
            for reply in outcomes:
                assert reply["type"] in ("verdict", "rejected"), reply
                if reply["type"] == "rejected":
                    assert reply["error"] in ("QuotaExceeded", "Overloaded")
                    assert reply.get("quota") or reply.get("reason"), reply
                else:
                    assert reply["status"] in ("done", "skipped"), reply
            assert plan_verdict["status"] == "done", plan_verdict
            assert plan_verdict["ok"], plan_verdict
            assert "0" in plan_verdict["shard_failures"], plan_verdict
        finally:
            server.drain(timeout=60.0)
