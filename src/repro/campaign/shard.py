"""One campaign shard: a self-contained fault domain.

A shard owns the three things that can fail together without taking
the campaign down: its *own* write-ahead journal (a sibling of the
coordinator's, see :func:`shard_journal_path`), its *own* supervised
worker pool, and its *own* fault injector.  A dead disk under shard 2's
journal, a lying fsync, an OOM-killed worker -- each is contained to
that shard; the coordinator quarantines the shard and the survivors
steal its pending units.

Work arrives incrementally: the shard's pool runs entirely off a
``feed`` callback wired to :meth:`ShardedCampaignRunner.feed`, so the
shard never holds more than one pool-refill of units hostage when it
dies.  Every unit transition is journaled to the shard journal *before*
state advances (the same write-ahead discipline as the single-pool
runner, through the same :func:`repro.campaign.runner.outcome_result`
mapping), which is what makes the merged, folded state of all journals
deterministic no matter which shard ran which unit.

Unit assignment is by stable hash (:func:`shard_of`), so two runs of
the same campaign partition identically and a resume re-offers each
pending unit to the shard that already holds its history.
"""

import pathlib
import threading
import time
import zlib

from repro.campaign import journal as wal
from repro.campaign.journal import CampaignJournal
from repro.campaign.pool import Doorbell, SupervisedPool
from repro.campaign.runner import _run_unit, outcome_result

#: shard lifecycle states
IDLE = "idle"
RUNNING = "running"
DONE = "done"
DEAD = "dead"


def shard_of(unit_id, shards):
    """The shard index that owns ``unit_id``: a stable CRC32 hash.

    Pure in ``(unit_id, shards)`` -- the partition never depends on
    arrival order, process identity or platform hash randomization, so
    clean and resumed runs agree about ownership.
    """
    return zlib.crc32(unit_id.encode("utf-8")) % max(1, shards)


def shard_journal_path(base, index):
    """The journal path of shard ``index``: ``c.jsonl`` -> ``c.shard-2.jsonl``."""
    base = pathlib.Path(base)
    return base.with_name(
        "{}.shard-{}{}".format(base.stem, index, base.suffix)
    )


class Shard:
    """One shard thread: journal + pool + (optional) fault injector.

    The shard reports to its ``coordinator`` (a
    :class:`~repro.campaign.coordinator.ShardedCampaignRunner`) for
    work (:meth:`_feed`), for unit bookkeeping (``unit_resolved``), for
    observability (``emit_event`` / ``observe_fsync``) and -- in its
    ``finally`` -- for its own death (``shard_exited``).  Any typed
    repro error or OSError ends the shard in :data:`DEAD` with the
    failure preserved; nothing escapes into the coordinator thread.
    """

    def __init__(self, index, journal_path, coordinator, jobs=1,
                 watchdog_s=None, max_retries=0, seed=0, deadline=None,
                 faults=None, drain=None, beat_root=None,
                 beat_prefix="repro-pool-"):
        self.index = index
        self.coordinator = coordinator
        self.jobs = max(1, jobs)
        self.watchdog_s = watchdog_s
        self.max_retries = max_retries
        self.seed = seed
        self.deadline = deadline
        self.faults = faults
        #: coordinator-owned drain event (graceful stop), or None
        self.drain = drain
        self.beat_root = beat_root
        self.beat_prefix = beat_prefix
        self.journal = CampaignJournal(journal_path, faults=faults)
        #: the coordinator rings it whenever this shard's feed may have
        #: changed its answer (a shard exited, a drain was requested)
        self.doorbell = Doorbell()
        self.state = IDLE
        self.failure = None
        self._thread = None

    # -- lifecycle -------------------------------------------------------------

    def start(self):
        self._thread = threading.Thread(
            target=self._run, name="repro-shard-{}".format(self.index),
            daemon=True,
        )
        self._thread.start()

    def join(self, timeout=None):
        if self._thread is not None:
            self._thread.join(timeout)

    @property
    def alive(self):
        return self.state in (IDLE, RUNNING)

    def _run(self):
        self.state = RUNNING
        try:
            self.journal.open()
            self._append(wal.SHARD_START, shard=self.index)
            self.coordinator.emit_event("shard-start", shard=self.index)
            pool = SupervisedPool(
                jobs=self.jobs, watchdog_s=self.watchdog_s,
                max_retries=self.max_retries, seed=self.seed,
                faults=self.faults, beat_root=self.beat_root,
                beat_prefix=self.beat_prefix,
            )
            pool.run(
                [], _run_unit,
                deadline=self.deadline,
                feed=self._feed,
                on_start=self._on_start,
                on_retry=self._on_retry,
                on_skip=self._on_skip,
                on_finish=self._on_finish,
                drain=self.drain,
                doorbell=self.doorbell,
            )
            self._append(wal.SHARD_FINISH, shard=self.index)
            self.state = DONE
        except Exception as error:  # noqa: BLE001 -- a shard is a fault
            # domain: *anything* that escapes its pool or journal ends
            # in quarantine with the failure preserved, typed errors
            # (ReproError, FaultInjected OSErrors) and surprises alike
            self.state = DEAD
            self.failure = error
        finally:
            self.journal.close()
            self.coordinator.shard_exited(self)

    # -- work intake -----------------------------------------------------------

    def _feed(self, room):
        return self.coordinator.feed(self.index, room)

    # -- pool callbacks (journal first, then tell the coordinator) -------------

    def _append(self, kind, **fields):
        started = time.perf_counter()
        self.journal.append(kind, **fields)
        self.coordinator.observe_fsync(
            self.index, (time.perf_counter() - started) * 1e6
        )

    def _on_start(self, unit_id, attempt):
        self._append(wal.UNIT_START, unit=unit_id, attempt=attempt - 1,
                     shard=self.index)

    def _on_retry(self, unit_id, attempt, reason):
        self._append(wal.UNIT_RETRY, unit=unit_id, attempt=attempt - 1,
                     reason=reason, shard=self.index)
        self.coordinator.emit_event("retry", unit=unit_id,
                                    attempt=attempt - 1, reason=reason,
                                    shard=self.index)

    def _on_skip(self, unit_id, reason):
        self._append(wal.UNIT_SKIP, unit=unit_id, reason=reason,
                     shard=self.index)
        self.coordinator.emit_event("unit-skip", unit=unit_id,
                                    reason=reason, shard=self.index)
        self.coordinator.unit_resolved(self.index, unit_id)

    def _on_finish(self, unit_id, outcome):
        result, degraded = outcome_result(unit_id, outcome)
        self._append(wal.UNIT_FINISH, unit=unit_id,
                     attempt=outcome.attempts - 1, result=result,
                     shard=self.index)
        if degraded:
            self.coordinator.emit_event("degradation", unit=unit_id,
                                        reason="deadline",
                                        shard=self.index)
        self.coordinator.emit_event("unit-finish", unit=unit_id,
                                    attempt=outcome.attempts - 1,
                                    passed=bool(result.get("passed")),
                                    shard=self.index)
        self.coordinator.unit_resolved(self.index, unit_id)
