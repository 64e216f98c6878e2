"""serve-trickle: ``repro serve`` as its own process, fed by an open loop.

Two tenants, one connection each, submit inline scenarios on a fixed
schedule: request ``k`` is due at ``k / rate`` seconds, whatever the
server is doing.  Requests are pipelined (no request waits for an
earlier reply), and each is timed from when it was due, so a stalled
server or a late generator shows in the latency.  The generator wakes
on a fixed grid between sends and records how late every wake-up was.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

#: generator wake-up grid between sends (lateness is sampled on it)
TICK_S = 0.005
#: how long to wait for the last verdicts after the final send
DRAIN_WAIT_S = 60.0

_ADDRESS = re.compile(r"serving on \('([\d.]+)', (\d+)\)")


class ServeProcess:
    """One ``repro serve`` process on an ephemeral localhost port."""

    def __init__(self, root, state_dir, jobs):
        self.root = root
        self.state_dir = state_dir
        self.jobs = jobs
        self.proc = None
        self.address = None

    def start(self):
        """Launch and wait for the first health reply; returns seconds."""
        from repro.serve import ServeClient

        self.state_dir.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        started = time.perf_counter()
        with open(self.state_dir / "stderr.log", "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host",
                 "127.0.0.1", "--port", "0", "--state", str(self.state_dir),
                 "--shards", "1", "--jobs", str(self.jobs)],
                cwd=str(self.root), env=env, stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        line = self.proc.stdout.readline()
        match = _ADDRESS.search(line)
        if match is None:
            self.stop()
            raise RuntimeError("repro serve did not start: {!r}".format(line))
        self.address = (match.group(1), int(match.group(2)))
        with ServeClient(self.address, timeout_s=30.0) as client:
            client.connect()
            client.health()
        return time.perf_counter() - started

    def stop(self):
        """SIGTERM (graceful drain) and wait; SIGKILL if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


class Request:
    __slots__ = ("unit_id", "spec", "tenant", "due", "sent", "accepted",
                 "started", "finished", "verdict_at", "verdict", "rejected")

    def __init__(self, unit_id, spec, tenant, due):
        self.unit_id = unit_id
        self.spec = spec
        self.tenant = tenant
        self.due = due
        self.sent = self.accepted = self.started = None
        self.finished = self.verdict_at = None
        self.verdict = self.rejected = None

    @property
    def done(self):
        return self.verdict is not None or self.rejected is not None


class _Connection:
    """One tenant's socket: a reader thread stamps every reply."""

    def __init__(self, address, tenant, requests):
        from repro.serve import protocol

        self.protocol = protocol
        self.requests = requests
        self.sock = socket.create_connection(address, timeout=30.0)
        self.sock.sendall(protocol.encode(
            {"type": "hello", "tenant": tenant, "proto": protocol.PROTO}))
        self._buffer = b""
        welcome = self._read()
        if welcome.get("type") != "welcome":
            raise RuntimeError("hello refused: {!r}".format(welcome))
        self.sock.settimeout(None)
        self.reader = threading.Thread(target=self._read_loop, daemon=True)
        self.reader.start()

    def _read(self):
        while b"\n" not in self._buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                return None
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def _read_loop(self):
        while True:
            try:
                message = self._read()
            except OSError:
                return
            if message is None:
                return
            now = time.perf_counter()
            request = self.requests.get(message.get("id"))
            if request is None:
                continue
            kind = message.get("type")
            if kind == "accepted":
                request.accepted = now
            elif kind == "event" and message.get("kind") == "unit-start":
                request.started = now
            elif kind == "event" and message.get("kind") == "unit-finish":
                request.finished = now
            elif kind == "verdict":
                request.verdict_at = now
                request.verdict = message
            elif kind == "rejected":
                request.verdict_at = now
                request.rejected = message

    def send(self, message):
        self.sock.sendall(self.protocol.encode(message))

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self.reader.join(timeout=5.0)


def open_loop(address, specs, rate, tenants=("tenant-a", "tenant-b")):
    """Submit ``specs`` at ``rate`` per second; returns (requests, lags).

    ``lags`` holds the lateness (seconds) of every generator wake-up:
    each send and each tick of the :data:`TICK_S` grid between sends.
    """
    by_tenant = {tenant: {} for tenant in tenants}
    requests = []
    for k, (unit_id, spec) in enumerate(specs):
        tenant = tenants[k % len(tenants)]
        request = Request(unit_id, spec, tenant, k / rate)
        by_tenant[tenant][unit_id] = request
        requests.append(request)
    connections = {}
    try:
        for tenant in tenants:
            connections[tenant] = _Connection(address, tenant,
                                              by_tenant[tenant])
        lags = []
        origin = time.perf_counter()
        wake = origin
        for request in requests:
            request.due += origin
            while True:
                target = min(wake, request.due)
                pause = target - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                now = time.perf_counter()
                lags.append(now - target)
                while wake <= now:
                    wake += TICK_S
                if target == request.due:
                    break
            request.sent = time.perf_counter()
            connections[request.tenant].send({
                "type": "submit", "id": request.unit_id,
                "scenario": request.spec,
            })
        give_up = time.perf_counter() + DRAIN_WAIT_S
        while not all(r.done for r in requests) \
                and time.perf_counter() < give_up:
            time.sleep(0.05)
    finally:
        for connection in connections.values():
            connection.close()
    return requests, lags
