"""A supervised process pool: watchdogs, heartbeats, crash recovery.

``ProcessPoolExecutor`` alone is too fragile for long campaigns: one
worker SIGKILLed by the OOM killer breaks the whole pool and every
pending future with it, and a worker stuck in an infinite loop blocks
its slot forever.  :class:`SupervisedPool` wraps the executor with the
missing supervision:

* **heartbeats** -- each unit's worker touches a beat file (a daemon
  thread, one touch per ``heartbeat_s``); the parent learns which pid
  runs which unit and when it last made progress;
* **wall-clock watchdogs** -- a unit running longer than ``watchdog_s``
  is killed (SIGKILL to the recorded pid) and charged a retry;
* **broken-pool recovery** -- when the executor breaks (a worker died,
  or the watchdog shot one), the pool is respawned and only the units
  that were actually *in flight* on a dead worker are charged; units
  that were merely queued are resubmitted for free;
* **retry budgets with exponential backoff** -- a charged unit waits
  ``backoff_base_s * 2**(attempt-1)`` before its next launch; once the
  budget is exhausted it becomes a terminal ``failed`` outcome with a
  deterministic detail string (no pids, no timestamps -- the campaign
  result store must be byte-stable across reruns);
* **deadlines** -- past ``deadline`` (a ``time.monotonic`` value), no
  new unit is launched (queued units come back ``skipped``) and units
  that finish late are flagged so the campaign can degrade, rather
  than drop, their verdicts;
* **wake-on-work** -- a pool fed incrementally waits on a
  :class:`Doorbell` that its work source rings, so a unit launches the
  moment it is queued instead of on the next supervision tick;
* **worker hygiene** -- workers take SIGTERM's default action (the
  teardown's SIGTERM kills them, which is how recovery recognises a
  bystander), ignore SIGINT (Ctrl-C drains through the parent only)
  and exit once their parent has died.

The pool is generic: ``run(units, worker)`` takes ``(unit_id,
payload)`` pairs and any picklable module-level ``worker(payload)``.
Both the scenario suite and the campaign runner drive it.
"""

import collections
import concurrent.futures
import os
import shutil
import signal
import tempfile
import threading
import time
import zlib

from concurrent.futures.process import BrokenProcessPool

#: outcome statuses
OK = "ok"
FAILED = "failed"
SKIPPED = "skipped"

#: default seconds without a heartbeat before a worker counts as frozen
STALE_AFTER_S = 5.0

#: how often a worker checks that the process that started it is alive
ORPHAN_CHECK_S = 0.5


def seeded_jitter(seed, key, n):
    """Deterministic jitter factor in ``[1, 2)``.

    A pure function of ``(seed, key, n)`` -- the same triple always
    draws the same factor, so retry/backoff schedules built on it are
    reproducible run-to-run while different keys still spread out
    instead of thundering in lockstep.  Shared by the pool's retry
    backoff and the serve client's refusal backoff.
    """
    draw = zlib.crc32(
        "{}:{}:{}".format(seed, key, n).encode("utf-8")
    ) / float(0xFFFFFFFF)
    return 1.0 + draw


class Doorbell:
    """A re-armable wake-up between a work source and a waiting pool.

    A ``concurrent.futures.Future`` behind a lock, so the pool can wait
    on it together with its in-flight futures.  The pool calls
    :meth:`arm` *before* asking its feed for work and then waits on the
    returned future; a producer calls :meth:`ring` *after* making work
    visible to the feed.  A ring that lands between "the feed returned
    nothing" and the wait resolves the armed future, so it is never
    lost; a ring before the arm is covered by the feed call that
    follows it.  Rings while the bell is already fired coalesce.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._future = concurrent.futures.Future()

    def arm(self):
        """Return the future the next ring resolves (fresh once fired)."""
        with self._lock:
            if self._future.done():
                self._future = concurrent.futures.Future()
            return self._future

    def ring(self):
        """Wake the pool waiting on the armed future (idempotent)."""
        with self._lock:
            if not self._future.done():
                self._future.set_result(None)


class PoolOutcome:
    """Terminal state of one unit.

    ``status`` is one of :data:`OK` / :data:`FAILED` / :data:`SKIPPED`;
    ``value`` is the worker's return value (OK only); ``detail`` is a
    deterministic human-readable reason for failures and skips;
    ``attempts`` counts launches actually charged against the retry
    budget (free requeues of never-started units are not charged).
    """

    __slots__ = ("unit", "status", "value", "detail", "attempts", "late")

    def __init__(self, unit, status, value=None, detail="", attempts=0,
                 late=False):
        self.unit = unit
        self.status = status
        self.value = value
        self.detail = detail
        self.attempts = attempts
        #: finished after the deadline passed (degrade, don't drop)
        self.late = late

    def __repr__(self):
        return "PoolOutcome({!r}, {}, attempts={})".format(
            self.unit, self.status, self.attempts
        )


class _Task:
    __slots__ = ("id", "payload", "attempts", "eligible_at", "kill_reason")

    def __init__(self, unit_id, payload):
        self.id = unit_id
        self.payload = payload
        self.attempts = 0
        self.eligible_at = 0.0
        self.kill_reason = None


# -- worker-side plumbing ------------------------------------------------------


def _exit_when_orphaned(parent):
    while os.getppid() == parent:
        time.sleep(ORPHAN_CHECK_S)
    os._exit(1)


def _worker_init(parent):
    """Executor initializer: reset inherited signals, watch ``parent``.

    A worker forks from a parent that may have installed a Python
    SIGTERM/SIGINT handler (the CLI's graceful drain, the server's).
    Inherited, it would make the worker ignore the teardown's SIGTERM:
    :meth:`SupervisedPool._nuke` would stall on the join and
    :meth:`SupervisedPool._recover` would charge bystanders.  Ctrl-C
    reaches the whole process group; only the parent drains.  A worker
    whose parent was SIGKILLed would otherwise block on its call queue
    forever.  ``parent`` is the pid the pool read before forking: read
    here, a parent killed before the initializer ran would already be
    the reaper's pid, and the watch would never fire.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_when_orphaned, args=(parent,), daemon=True,
    ).start()


def _beat_loop(path, stop, interval):
    while not stop.wait(interval):
        try:
            os.utime(path)
        except OSError:
            return


def _beat_name(unit_id):
    return unit_id.replace(os.sep, "_") + ".beat"


def _pool_task(worker, unit_id, payload, beat_dir, heartbeat_s):
    """Worker-side wrapper: announce the pid, beat while running."""
    beat = os.path.join(beat_dir, _beat_name(unit_id))
    with open(beat, "w") as handle:
        handle.write("{} {}".format(os.getpid(), time.monotonic()))
    stop = threading.Event()
    beater = threading.Thread(
        target=_beat_loop, args=(beat, stop, heartbeat_s), daemon=True
    )
    beater.start()
    try:
        return worker(payload)
    finally:
        stop.set()
        try:
            os.unlink(beat)
        except OSError:
            pass


class SupervisedPool:
    """Run units through a self-healing process pool.

    ``jobs`` caps concurrent workers; ``watchdog_s`` (None disables) is
    the per-unit wall-clock kill limit; ``heartbeat_s`` is the worker
    beat interval and ``stale_after_s`` (default ``10 * heartbeat_s``,
    floored at :data:`STALE_AFTER_S`) the silence that counts as frozen;
    ``max_retries`` bounds charged re-launches per unit, spaced by
    ``backoff_base_s * 2**(attempt-1)`` -- stretched by seeded jitter
    when ``seed`` is given (see :meth:`_backoff_s`); ``tick_s`` is the
    watchdog/heartbeat cadence -- the supervision loop wakes at least
    this often -- and the upper bound on the launch delay a missed
    doorbell ring can cost (no effect on results); ``faults`` lets an
    infra fault injector skew the clock the heartbeat watchdog reads
    through.

    ``beat_root`` anchors the per-run heartbeat directory: by default
    beat files live in a fresh system temp directory, but a campaign
    passes its journal directory (with a ``beat_prefix`` naming the
    campaign) so the debris a SIGKILLed run leaves behind is
    discoverable -- and rotated out via
    :func:`repro.ioutil.prune_stale_artifacts` -- instead of
    accumulating invisibly in ``/tmp`` across crash-resume cycles.
    """

    def __init__(self, jobs=1, watchdog_s=None, heartbeat_s=0.25,
                 stale_after_s=None, max_retries=0, backoff_base_s=0.05,
                 tick_s=0.1, seed=None, faults=None, beat_root=None,
                 beat_prefix="repro-pool-"):
        self.jobs = max(1, jobs)
        self.watchdog_s = watchdog_s
        self.heartbeat_s = heartbeat_s
        if stale_after_s is None:
            stale_after_s = max(10.0 * heartbeat_s, STALE_AFTER_S)
        self.stale_after_s = stale_after_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.tick_s = tick_s
        #: campaign seed for reproducible retry jitter (None = no jitter)
        self.seed = seed
        #: fault injector whose clock-skew draws taint heartbeat reads
        self.faults = faults
        #: where the per-run beat directory is created (None = system tmp)
        self.beat_root = beat_root
        self.beat_prefix = beat_prefix

    # -- public entry ----------------------------------------------------------

    def run(self, units, worker, deadline=None, on_start=None,
            on_finish=None, on_retry=None, on_skip=None, feed=None,
            feed_priority=None, drain=None, doorbell=None):
        """Run ``(unit_id, payload)`` pairs; return {unit_id: PoolOutcome}.

        Callbacks (all optional) fire in the parent, in submission
        order, and are the campaign runner's journaling hook points:
        ``on_start(unit_id, attempt)``, ``on_finish(unit_id, outcome)``,
        ``on_retry(unit_id, attempt, reason)``, ``on_skip(unit_id,
        reason)``.

        ``feed`` (optional) is an incremental work source: called as
        ``feed(room)`` whenever the pool has capacity, it returns up to
        ``room`` more ``(unit_id, payload)`` pairs, an empty list when
        nothing is available *right now* (the pool waits for a ring on
        ``doorbell`` -- how a shard waits for stealable work), or None
        when the source is exhausted for good.  The initial ``units``
        list still runs first; a shard passes ``units=[]`` and lives
        entirely off its coordinator's feed.

        ``feed_priority`` (optional) is a key function ``(unit_id,
        payload) -> sortable`` applied to the *pending* queue after
        each feed batch lands: lower keys launch first.  The sort is
        stable, so equal keys keep the order the feed produced them
        in; in-flight and backoff-waiting units are unaffected.  The
        serve backend uses this to launch urgent-deadline, higher-
        priority submissions ahead of batch work the fair-share
        scheduler released in the same breath.

        ``drain`` (optional) is a ``threading.Event``: once set, no
        further unit is launched or pulled from ``feed`` -- queued and
        backoff-waiting units are abandoned *unrecorded* (they stay
        pending in the campaign journal, exactly what a resume needs)
        while in-flight units finish normally.  This is the graceful
        SIGTERM path: finish what is running, journal it, stop.

        ``doorbell`` (optional) is the :class:`Doorbell` the feed's
        producer rings after queuing work (and a drainer rings after
        setting ``drain``).  Every wait of the loop -- idle, retry
        backoff, in flight -- also returns on a ring, so new work
        launches at once; each wait still times out at ``tick_s``.
        Without one the pool uses a private bell nobody rings, so its
        waits simply run out each tick.
        """
        results = {}
        queue = collections.deque(_Task(uid, payload)
                                  for uid, payload in units)
        waiting = []
        in_flight = {}
        executor = None
        exhausted = feed is None
        if doorbell is None:
            doorbell = Doorbell()
        if self.beat_root is not None:
            os.makedirs(self.beat_root, exist_ok=True)
        beat_dir = tempfile.mkdtemp(prefix=self.beat_prefix,
                                    dir=self.beat_root)
        try:
            while True:
                # armed before the feed and drain are read: a ring
                # after this point cuts the coming wait short
                armed = doorbell.arm()
                if drain is not None and drain.is_set():
                    # graceful drain: abandon (don't skip) pending work,
                    # let the in-flight units run to their journaled end
                    queue.clear()
                    waiting.clear()
                    exhausted = True
                if not exhausted:
                    room = 2 * self.jobs - (
                        len(queue) + len(waiting) + len(in_flight)
                    )
                    if room > 0:
                        batch = feed(room)
                        if batch is None:
                            exhausted = True
                        else:
                            queue.extend(_Task(uid, payload)
                                         for uid, payload in batch)
                            if feed_priority is not None and batch \
                                    and len(queue) > 1:
                                queue = collections.deque(sorted(
                                    queue,
                                    key=lambda t:
                                    feed_priority(t.id, t.payload),
                                ))
                if not (queue or waiting or in_flight):
                    if exhausted:
                        break
                    self._nap(self.tick_s, armed)
                    continue
                now = time.monotonic()
                ripe = [t for t in waiting if t.eligible_at <= now]
                waiting = [t for t in waiting if t.eligible_at > now]
                queue.extend(ripe)

                # launch up to `jobs` units
                while queue and len(in_flight) < self.jobs:
                    task = queue.popleft()
                    if deadline is not None \
                            and time.monotonic() >= deadline:
                        results[task.id] = PoolOutcome(
                            task.id, SKIPPED, detail="deadline",
                            attempts=task.attempts,
                        )
                        if on_skip is not None:
                            on_skip(task.id, "deadline")
                        continue
                    if executor is None:
                        executor = self._spawn()
                    task.attempts += 1
                    task.kill_reason = None
                    if on_start is not None:
                        on_start(task.id, task.attempts)
                    try:
                        future = executor.submit(
                            _pool_task, worker, task.id, task.payload,
                            beat_dir, self.heartbeat_s,
                        )
                    except BrokenProcessPool:
                        task.attempts -= 1
                        queue.appendleft(task)
                        executor = self._recover(
                            executor, in_flight, queue, waiting, results,
                            beat_dir, on_finish, on_retry,
                        )
                        continue
                    in_flight[future] = task

                if not in_flight:
                    if queue:
                        continue
                    if waiting:
                        pause = min(t.eligible_at for t in waiting) \
                            - time.monotonic()
                        self._nap(max(0.0, min(pause, self.tick_s)), armed)
                        continue
                    if exhausted:
                        break
                    self._nap(self.tick_s, armed)
                    continue

                done, __ = concurrent.futures.wait(
                    [*in_flight, armed], timeout=self.tick_s,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                done.discard(armed)
                broken = False
                for future in done:
                    task = in_flight.pop(future)
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        in_flight[future] = task
                        broken = True
                        break
                    except Exception as error:
                        outcome = PoolOutcome(
                            task.id, FAILED,
                            detail="worker raised {!r}".format(error),
                            attempts=task.attempts,
                        )
                        results[task.id] = outcome
                        if on_finish is not None:
                            on_finish(task.id, outcome)
                    else:
                        late = deadline is not None \
                            and time.monotonic() > deadline
                        outcome = PoolOutcome(
                            task.id, OK, value=value,
                            attempts=task.attempts, late=late,
                        )
                        results[task.id] = outcome
                        if on_finish is not None:
                            on_finish(task.id, outcome)
                if broken:
                    executor = self._recover(
                        executor, in_flight, queue, waiting, results,
                        beat_dir, on_finish, on_retry,
                    )
                    continue

                if self._watchdog_pass(in_flight, beat_dir):
                    executor = self._recover(
                        executor, in_flight, queue, waiting, results,
                        beat_dir, on_finish, on_retry,
                    )
        finally:
            if executor is not None:
                self._nuke(executor)
            shutil.rmtree(beat_dir, ignore_errors=True)
        return results

    # -- supervision internals -------------------------------------------------

    def _backoff_s(self, unit_id, attempts):
        """Backoff before launch ``attempts + 1`` of ``unit_id``.

        The base schedule is exponential; with a ``seed`` the delay is
        stretched by a jitter factor in ``[1, 2)`` that is a pure
        function of ``(seed, unit_id, attempts)`` -- two runs of the
        same campaign seed produce the same retry schedule (and hence
        the same journal timings bucket-for-bucket), while different
        units no longer thunder in lockstep.
        """
        delay = self.backoff_base_s * (2 ** (attempts - 1))
        if self.seed is None:
            return delay
        return delay * seeded_jitter(self.seed, unit_id, attempts)

    @staticmethod
    def _nap(seconds, armed):
        """Sleep ``seconds``, or less if the armed doorbell rings."""
        concurrent.futures.wait([armed], timeout=seconds)

    def _spawn(self):
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs, initializer=_worker_init,
            initargs=(os.getpid(),),
        )

    @staticmethod
    def _read_beat(beat_dir, unit_id):
        """Return (pid, started_at, last_beat) or None if never started."""
        path = os.path.join(beat_dir, _beat_name(unit_id))
        try:
            with open(path) as handle:
                pid_text, start_text = handle.read().split()
            last_beat = os.stat(path).st_mtime
        except (OSError, ValueError):
            return None
        return int(pid_text), float(start_text), last_beat

    def _watchdog_pass(self, in_flight, beat_dir):
        """Kill hung / frozen workers; True when the pool needs recycling.

        ``st_mtime`` (wall clock) and ``time.monotonic`` tick at the
        same rate, so beat ages are compared within one clock each:
        start age via the monotonic stamp in the file body, beat age
        via mtime against the current wall clock.
        """
        now_mono = time.monotonic()
        now_wall = time.time()
        recycled = False
        for task in in_flight.values():
            beat = self._read_beat(beat_dir, task.id)
            if beat is None:
                continue  # queued inside the executor, not started yet
            pid, started_at, last_beat = beat
            # an injected clock skew ages the beat artificially: the
            # supervisor judges a healthy worker through a bad clock
            skew = self.faults.heartbeat_skew() if self.faults else 0.0
            if self.watchdog_s is not None \
                    and now_mono - started_at > self.watchdog_s:
                task.kill_reason = (
                    "watchdog timeout after {:g}s".format(self.watchdog_s)
                )
            elif now_wall - last_beat + skew > self.stale_after_s:
                task.kill_reason = "heartbeat went stale"
            else:
                continue
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            recycled = True
        return recycled

    def _recover(self, executor, in_flight, queue, waiting, results,
                 beat_dir, on_finish, on_retry):
        """Respawn after a break; requeue / charge / fail in-flight units.

        Only the units that were running on a worker that *died by
        itself* (SIGKILL, OOM, segfault) or that the watchdog shot
        deliberately are charged a retry.  The executor tears the
        remaining workers down with SIGTERM (both CPython's broken-pool
        handler and :meth:`_nuke` do), so after the teardown an exit
        code of ``-SIGTERM`` identifies an innocent bystander -- its
        unit, like the units still queued inside the executor, is
        resubmitted for free.
        """
        workers = dict(getattr(executor, "_processes", None) or {})
        self._nuke(executor)
        fates = {}  # task id -> charged reason, or None for a free requeue
        for task in in_flight.values():
            beat = self._read_beat(beat_dir, task.id)
            if task.kill_reason is not None:
                fates[task.id] = task.kill_reason
                continue
            if beat is None:
                fates[task.id] = None  # never started
                continue
            process = workers.get(beat[0])
            if process is not None \
                    and process.exitcode == -signal.SIGTERM:
                fates[task.id] = None  # collateral of someone else's death
            else:
                fates[task.id] = \
                    "worker process died before returning a result"
        now = time.monotonic()
        for task in list(in_flight.values()):
            self._clear_beat(beat_dir, task.id)
            reason = fates[task.id]
            if reason is None:
                task.attempts -= 1
                queue.append(task)
                continue
            if task.attempts > self.max_retries:
                outcome = PoolOutcome(
                    task.id, FAILED, detail=reason, attempts=task.attempts
                )
                results[task.id] = outcome
                if on_finish is not None:
                    on_finish(task.id, outcome)
            else:
                task.eligible_at = now + self._backoff_s(
                    task.id, task.attempts
                )
                waiting.append(task)
                if on_retry is not None:
                    on_retry(task.id, task.attempts, reason)
        in_flight.clear()
        return None  # respawned lazily at the next launch

    @staticmethod
    def _clear_beat(beat_dir, unit_id):
        try:
            os.unlink(os.path.join(beat_dir, _beat_name(unit_id)))
        except OSError:
            pass

    @staticmethod
    def _nuke(executor):
        """Shut an executor down hard.

        Lingering workers get SIGTERM first (so recovery can tell them
        apart from workers that died by themselves), a short join, and
        SIGKILL only if they ignore the SIGTERM.
        """
        processes = list(
            (getattr(executor, "_processes", None) or {}).values()
        )
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                try:
                    process.terminate()
                except (OSError, ValueError):
                    pass
        for process in processes:
            process.join(timeout=2.0)
            if process.is_alive():
                try:
                    process.kill()
                except (OSError, ValueError):
                    pass
                process.join(timeout=1.0)
