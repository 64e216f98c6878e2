"""The serve execution backend: admitted requests become campaign work.

Two request shapes run here, both through the *existing* campaign
machinery -- the service adds admission and streaming, never a second
execution path (that is what keeps serve results byte-comparable with
offline runs):

* **inline scenarios** run on one persistent
  :class:`~repro.campaign.pool.SupervisedPool` fed incrementally from
  the per-tenant :class:`~repro.serve.scheduler.FairShareScheduler`
  (weighted fair share across tenants, earliest-deadline-first within
  one, aging against starvation -- admission decides *whether* work
  enters, the scheduler decides *whose* work runs next).  The worker
  function is the campaign runner's
  own :func:`~repro.campaign.runner._run_unit`, the deadline
  degradation goes through the same
  :func:`~repro.campaign.runner.outcome_result` mapping, and every
  result is persisted to the state directory *before* the verdict is
  streamed -- a slow or dead client drops the stream, never the
  computation;
* **plan submissions** run a full
  :class:`~repro.campaign.coordinator.ShardedCampaignRunner` over a
  scenario directory, one runner thread per admitted plan, with the
  journal parked under the state directory keyed by ``(tenant, id)``.
  Resubmitting the same request id after a drain resumes that journal
  -- the store that comes out is byte-identical (modulo wall-clock
  stamps) to an uninterrupted offline ``repro campaign run``.

Draining stops the feed (queued-but-admitted scenarios still finish:
the client was told "accepted", so its work is in-flight from the
contract's point of view), asks every live plan runner to drain, and
joins the executor thread.  Everything the backend learns about
failures feeds the :class:`~repro.serve.breaker.BreakerBoard`.
"""

import pathlib
import threading
import time

from repro.campaign.coordinator import ShardedCampaignRunner
from repro.campaign.pool import Doorbell, SupervisedPool
from repro.campaign.runner import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_WATCHDOG_S,
    _run_unit,
    outcome_result,
)
from repro.errors import ProtocolError, ReproError
from repro.ioutil import prune_stale_artifacts, write_json_atomic
from repro.serve.breaker import BreakerBoard
from repro.serve.scheduler import FairShareScheduler

#: terminal verdict statuses
DONE = "done"
SKIPPED = "skipped"
FAILED = "failed"
INTERRUPTED = "interrupted"


class Submission:
    """One admitted request travelling through the backend.

    ``rid`` is the tenant-namespaced request key (``tenant.id``) used
    for unit ids and state-directory file names; ``units`` is what the
    quota ledger charged.  ``on_event`` streams unit progress to the
    client; ``on_done`` fires exactly once with the terminal verdict
    fields -- both callbacks belong to the connection and are allowed
    to be broken (a dead client never breaks the backend).
    """

    __slots__ = ("rid", "tenant", "request_id", "kind", "units",
                 "deadline_s", "deadline", "priority", "degrade_marks",
                 "on_event", "on_done", "done", "verdict", "_lock")

    def __init__(self, rid, tenant, request_id, kind, units,
                 deadline_s=None, priority=1, on_event=None,
                 on_done=None):
        self.rid = rid
        self.tenant = tenant
        self.request_id = request_id
        self.kind = kind
        self.units = units
        self.deadline_s = deadline_s
        self.deadline = None if deadline_s is None \
            else time.monotonic() + deadline_s
        #: admission priority: higher launches first within a feed
        #: batch; below the degraded floor it is shed under overload
        self.priority = priority
        #: degrade flags the server stamped at admission ("overload");
        #: they ride the verdict *message*, never the persisted result
        self.degrade_marks = []
        self.on_event = on_event
        self.on_done = on_done
        self.done = threading.Event()
        self.verdict = None
        self._lock = threading.Lock()

    def expired(self):
        return self.deadline is not None \
            and time.monotonic() >= self.deadline

    def emit_event(self, kind, fields):
        """Stream one progress event; sink failures are the client's loss."""
        if self.on_event is None:
            return
        try:
            self.on_event(kind, dict(fields))
        except Exception:  # noqa: BLE001 -- never let a dead stream
            pass           # poison the executor thread

    def complete(self, status, **fields):
        """Record the terminal verdict; idempotent, first writer wins."""
        with self._lock:
            if self.done.is_set():
                return
            self.verdict = {"status": status}
            self.verdict.update(fields)
            self.done.set()
        if self.on_done is not None:
            try:
                self.on_done(self)
            except Exception:  # noqa: BLE001
                pass


class ServeBackend:
    """Execute admitted submissions against the campaign fabric.

    ``state_dir`` holds everything durable: inline scenario specs and
    their persisted results, and one campaign journal (plus shard
    journals, store and beat debris) per plan submission.  ``shards``
    and ``jobs`` size the fabric defaults; a plan block may override
    shards/seed per request -- but not the supervision parameters,
    which are service policy.
    """

    def __init__(self, state_dir, shards=2, jobs=None,
                 watchdog_s=DEFAULT_WATCHDOG_S,
                 max_retries=DEFAULT_MAX_RETRIES, seed=0, breakers=None,
                 scheduler=None, prune_age_s=3600.0, prune_keep=4):
        self.state_dir = pathlib.Path(state_dir)
        self.scenario_dir = self.state_dir / "scenarios"
        self.result_dir = self.state_dir / "results"
        self.plan_dir = self.state_dir / "plans"
        self.shards = max(1, shards)
        self.jobs = max(1, jobs if jobs is not None else self.shards)
        self.watchdog_s = watchdog_s
        self.max_retries = max_retries
        self.seed = seed
        self.breakers = breakers if breakers is not None \
            else BreakerBoard(self.shards)
        #: the fair-share scheduler between admission and the pool; the
        #: server wires its weight_of to the tenant quota config
        self.scheduler = scheduler if scheduler is not None \
            else FairShareScheduler()
        #: debris-rotation policy (service deployments tune these)
        self.prune_age_s = prune_age_s
        self.prune_keep = prune_keep
        self._lock = threading.Lock()
        self._active = {}
        self._plan_runners = {}
        self._plan_threads = []
        self._drain = threading.Event()
        #: rung after every push and on drain: the pool launches a
        #: submission the moment it is queued, not on its next tick
        self._doorbell = Doorbell()
        self._pool_thread = None

    # -- lifecycle -------------------------------------------------------------

    def start(self):
        """Create the state layout and the persistent executor thread."""
        for directory in (self.state_dir, self.scenario_dir,
                          self.result_dir, self.plan_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self.housekeep()
        self._pool_thread = threading.Thread(
            target=self._pool_loop, name="repro-serve-pool", daemon=True,
        )
        self._pool_thread.start()

    def drain(self, timeout=None):
        """Graceful stop: finish admitted work, refuse nothing new here.

        (Refusing *new* work is the server's admission check; by the
        time a submission reaches the backend it was accepted and must
        reach a terminal verdict.)  Blocks until the executor thread
        and every plan runner thread have ended, or ``timeout``.
        """
        self._drain.set()
        self._doorbell.ring()
        with self._lock:
            runners = list(self._plan_runners.values())
            threads = list(self._plan_threads)
        for runner in runners:
            runner.request_drain()
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        for thread in [self._pool_thread] + threads:
            if thread is None:
                continue
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            thread.join(remaining)

    @property
    def draining(self):
        return self._drain.is_set()

    def housekeep(self):
        """Rotate crash debris out of the state directory.

        Runs at start *and* periodically during long service runs --
        which is why live plans are excluded: a plan that has been
        appending its journal for hours still owns every artifact
        named after its rid (journal tmp siblings, shard journals,
        beat directories), however stale their mtimes look.  Returns
        the removed paths.
        """
        with self._lock:
            live = set(self._plan_runners)

        def is_live(path):
            name = path.name
            return any(name.startswith(rid + ".") for rid in live)

        removed = []
        # plan journals themselves are precious -- only tmp files and
        # beat directories are fair game
        for directory in (self.result_dir, self.plan_dir):
            removed.extend(prune_stale_artifacts(
                directory, patterns=("*.tmp", "*.beats-*"),
                max_age_s=self.prune_age_s, keep=self.prune_keep,
                exclude=is_live,
            ))
        return removed

    def queue_depth(self):
        """Scenario units queued or running (health / accepted replies)."""
        with self._lock:
            active = len(self._active)
        return self.scheduler.depth() + active

    def inflight(self):
        """Scenario units actually launched on the pool (overload signal)."""
        with self._lock:
            return len(self._active)

    # -- intake ----------------------------------------------------------------

    def submit_scenario(self, sub, spec):
        """Persist ``spec`` and hand it to the fair-share scheduler."""
        path = self.scenario_dir / (sub.rid + ".json")
        write_json_atomic(path, spec)
        with self._lock:
            if sub.rid in self._active or self.scheduler.queued(sub.rid):
                raise ProtocolError(
                    "request {} is already in flight".format(sub.rid)
                )
            self.scheduler.push(
                sub.tenant, sub.rid, (sub, str(path)),
                deadline=sub.deadline,
            )
        self._doorbell.ring()

    def submit_plan(self, sub, plan):
        """Launch (or resume) a sharded campaign for ``plan``."""
        with self._lock:
            if sub.rid in self._plan_runners:
                raise ProtocolError(
                    "request {} is already in flight".format(sub.rid)
                )
            journal = self.plan_dir / (sub.rid + ".jsonl")
            runner = ShardedCampaignRunner(
                journal,
                directory=plan["directory"],
                shards=plan.get("shards", self.shards),
                jobs=plan.get("jobs", self.jobs),
                watchdog_s=self.watchdog_s,
                deadline_s=sub.deadline_s,
                max_retries=self.max_retries,
                seed=plan.get("seed", self.seed),
                fault_profile=plan.get("fault_profile"),
                event_sink=sub.emit_event,
            )
            self._plan_runners[sub.rid] = runner
            thread = threading.Thread(
                target=self._plan_run, args=(sub, runner),
                name="repro-serve-plan-" + sub.rid, daemon=True,
            )
            self._plan_threads.append(thread)
        thread.start()

    # -- plan execution --------------------------------------------------------

    def _plan_run(self, sub, runner):
        resume = runner.journal.path.exists() \
            and runner.journal.path.stat().st_size > 0
        try:
            report = runner.run(resume=resume)
        except ReproError as error:
            self.breakers.backend.record_failure()
            sub.complete(FAILED, error=type(error).__name__,
                         message=str(error))
            return
        except Exception as error:  # noqa: BLE001 -- a plan thread must
            # end in a typed verdict, surprises included
            self.breakers.backend.record_failure()
            sub.complete(FAILED, error=type(error).__name__,
                         message=str(error))
            return
        finally:
            with self._lock:
                self._plan_runners.pop(sub.rid, None)
        self.breakers.record_report(report)
        fields = {
            "summary": report.summary,
            "store": str(report.store_path),
            "ok": report.ok,
            "steals": report.steals,
        }
        if report.shard_failures:
            fields["shard_failures"] = {
                str(k): v for k, v in sorted(report.shard_failures.items())
            }
        if report.interrupted:
            sub.complete(INTERRUPTED, resumable=True, **fields)
        else:
            sub.complete(DONE, **fields)

    # -- scenario execution ----------------------------------------------------

    def _pool_loop(self):
        """The persistent executor: one supervised pool fed off the queue.

        A pool that breaks hard (anything escaping ``run``) fails the
        in-flight submissions with a typed verdict, trips the backend
        breaker, and respawns -- the service outlives its executor.
        """
        while True:
            pool = SupervisedPool(
                jobs=self.jobs, watchdog_s=self.watchdog_s,
                max_retries=self.max_retries, seed=self.seed,
                beat_root=str(self.state_dir), beat_prefix="serve.beats-",
            )
            try:
                pool.run(
                    [], _run_unit,
                    feed=self._feed,
                    feed_priority=self._feed_rank,
                    on_retry=self._on_retry,
                    on_finish=self._on_finish,
                    doorbell=self._doorbell,
                )
            except Exception as error:  # noqa: BLE001
                self.breakers.backend.record_failure()
                self._fail_in_flight(error)
                if self._drain.is_set():
                    return
                time.sleep(0.2)
                continue
            return  # feed returned None: drained and empty

    def _feed(self, room):
        """Hand the pool scheduler-ordered scenarios; expired ones skip here.

        The scheduler decides *which tenant's* unit dispatches next
        (weighted fair share + aging); this feed only moves what it
        releases onto the pool.
        """
        batch = []
        expired = []
        # take() and the _active registration happen under one hold of
        # the backend lock: submit_scenario checks "in _active or still
        # queued" under the same lock, so a duplicate rid can never
        # slip through the window between leaving the scheduler and
        # becoming in-flight
        with self._lock:
            for __, rid, (sub, path) in self.scheduler.take(room):
                if sub.expired():
                    expired.append(sub)
                    continue
                self._active[rid] = sub
                batch.append((rid, sub, path))
        for sub in expired:
            sub.emit_event("unit-skip",
                           {"unit": sub.rid, "reason": "deadline"})
            sub.complete(SKIPPED, reason="deadline")
        if not batch and self.scheduler.depth() == 0 \
                and self._drain.is_set():
            return None
        for rid, sub, __ in batch:
            sub.emit_event("unit-start", {"unit": rid, "attempt": 0})
        return [(rid, path) for rid, __, path in batch]

    def _feed_rank(self, unit_id, _payload):
        """Pool launch order within a feed batch: priority, then deadline."""
        with self._lock:
            sub = self._active.get(unit_id)
        if sub is None:
            return (0, float("inf"))
        deadline = sub.deadline if sub.deadline is not None \
            else float("inf")
        return (-sub.priority, deadline)

    def _on_retry(self, unit_id, attempt, reason):
        with self._lock:
            sub = self._active.get(unit_id)
        if sub is not None:
            sub.emit_event("retry", {"unit": unit_id,
                                     "attempt": attempt - 1,
                                     "reason": reason})

    def _on_finish(self, unit_id, outcome):
        with self._lock:
            sub = self._active.pop(unit_id, None)
        if sub is None:
            return
        # the pool knows no per-unit deadlines (requests own them), so
        # lateness is stamped here and degrades through the same
        # outcome_result rule the campaign runners use
        if sub.expired():
            outcome.late = True
        result, degraded = outcome_result(unit_id, outcome)
        write_json_atomic(self.result_dir / (sub.rid + ".json"), result)
        self.breakers.backend.record_success()
        if degraded:
            sub.emit_event("degradation",
                           {"unit": unit_id, "reason": "deadline"})
        sub.emit_event("unit-finish",
                       {"unit": unit_id, "attempt": outcome.attempts - 1,
                        "passed": bool(result.get("passed"))})
        sub.complete(DONE, result=result, degraded=result.get("degraded"))

    def _fail_in_flight(self, error):
        """A broken executor fails its in-flight units with typed verdicts."""
        with self._lock:
            active = list(self._active.values())
            self._active.clear()
        for sub in active:
            sub.complete(
                FAILED, error=type(error).__name__,
                message="executor pool broke: {}; resubmit".format(error),
            )
