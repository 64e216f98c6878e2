"""Campaign orchestration: plan, journal, run, resume, degrade, report.

A *campaign* is one scenario directory turned into a durable unit of
work.  Each scenario file becomes a unit; the journal
(:mod:`repro.campaign.journal`) records every unit transition before it
happens, and the supervised pool (:mod:`repro.campaign.pool`) executes
units with watchdogs and crash recovery.  The contract:

* **kill-resume determinism** -- SIGKILL the campaign process at any
  point, ``resume`` the journal, and the final result store is
  byte-identical (modulo the two wall-clock fields) to an
  uninterrupted run of the same seeds.  Completed units are never
  re-executed; interrupted units re-run from scratch, and because
  every unit is a pure function of its scenario file (seeds included),
  the re-run reproduces the exact result the uninterrupted run would
  have produced -- the journaled chaos schedule digests make that
  checkable record by record;
* **no lost work** -- the result store is rebuilt *from the journal*
  in both the clean and the resumed path, so the two serialize through
  identical code and completed results survive any crash;
* **deadline-aware degradation** -- when the wall-clock deadline
  expires, queued units are marked ``SKIPPED(deadline)`` and reported,
  in-flight units may finish (bounded by the watchdog) but their
  confidence-scored observations are downgraded via the supervisor's
  degradation rule rather than dropped.
"""

import hashlib
import json
import pathlib
import threading
import time

from repro.campaign import journal as wal
from repro.campaign.journal import CampaignJournal, fold_records
from repro.campaign.pool import OK, SupervisedPool
from repro.errors import CampaignError
from repro.ioutil import prune_stale_artifacts, write_json_atomic
from repro.obs.metrics import FSYNC_US_BUCKETS
from repro.obs.trace import NULL_TRACER, Tracer
from repro.scenarios import ScenarioResult, _run_scenario_guarded

#: schema tag of the atomically-written result store
RESULT_SCHEMA = "repro-campaign-result/v1"
#: schema tag stamped into the campaign-start journal record
JOURNAL_SCHEMA = "repro-campaign-journal/v1"

#: default per-unit wall-clock watchdog (seconds)
DEFAULT_WATCHDOG_S = 300.0
#: default per-unit retry budget for killed/hung workers
DEFAULT_MAX_RETRIES = 2


def _sha256_file(path):
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()[:16]


def plan_units(directory):
    """One unit per ``*.json`` scenario: id, path, digest, seed, chaos.

    The config digest pins the exact scenario bytes; the machine seed
    and chaos profile are lifted out of the spec so the journal records
    what a resumed run must rebuild bit-identically.
    """
    directory = pathlib.Path(directory)
    units = []
    for path in sorted(directory.glob("*.json")):
        try:
            spec = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise CampaignError(
                "cannot plan campaign: {}: {}".format(path, error)
            ) from error
        machine_spec = spec.get("machine") or {}
        units.append({
            "id": path.stem,
            "path": str(path),
            "sha256": _sha256_file(path),
            "seed": machine_spec.get("seed", 0),
            "chaos": machine_spec.get("chaos"),
        })
    if not units:
        raise CampaignError(
            "no *.json scenarios in {}".format(directory)
        )
    return units


def _run_unit(path):
    """Module-level pool worker: run one scenario, return its dict."""
    return _run_scenario_guarded(path).as_dict()


def verify_unit_digests(units):
    """Refuse to resume over scenario files that changed underneath us."""
    for unit in units:
        path = pathlib.Path(unit["path"])
        if not path.exists():
            raise CampaignError(
                "scenario {} vanished since the campaign started"
                .format(path)
            )
        if _sha256_file(path) != unit["sha256"]:
            raise CampaignError(
                "scenario {} changed since the campaign started "
                "(config digest mismatch); resuming would mix "
                "results from two different configurations"
                .format(path)
            )


def outcome_result(unit_id, outcome):
    """Map a pool outcome to the result dict a unit-finish journals.

    Returns ``(result, degraded)``: the scenario-result dict (with the
    deadline degradation applied to late finishes, and a deterministic
    synthetic failure for lost units) and whether degradation happened.
    Shared by the single-pool runner and the sharded fabric so both
    journal byte-identical finish records for identical outcomes.
    """
    if outcome.status == OK:
        result = outcome.value
        if outcome.late:
            result = ScenarioResult.from_dict(result) \
                .degrade("deadline").as_dict()
            return result, True
        return result, False
    result = ScenarioResult(
        unit_id, False, {"error": outcome.detail},
        ["unit lost: {}".format(outcome.detail)],
    ).as_dict()
    return result, False


def build_store(config, folded, wall_elapsed_s):
    """Serialize journal-folded state into the versioned result store.

    Both the clean and the resumed path -- and both the single-pool and
    the sharded runner -- call this on a fresh replay of the journal(s),
    so the stores they write are byte-comparable apart from the two
    wall-clock stamps at the bottom.  Only *stable* config fields enter
    the campaign block: shard count, seed and fault-profile name are
    part of the campaign's identity, but live shard state never is.
    """
    units_out = []
    counts = {"passed": 0, "failed": 0, "skipped": 0, "degraded": 0}
    for unit in config["units"]:
        entry = folded.get(unit["id"]) or {"status": "pending"}
        out = {
            "id": unit["id"],
            "seed": unit["seed"],
            "chaos": unit["chaos"],
        }
        if entry["status"] == "done":
            result = entry["result"]
            out["status"] = "PASS" if result["passed"] else "FAIL"
            out["name"] = result["name"]
            out["observations"] = result["observations"]
            out["violations"] = result["violations"]
            out["chaos_digest"] = result.get("chaos_digest")
            out["degraded"] = result.get("degraded")
            counts["passed" if result["passed"] else "failed"] += 1
            if result.get("degraded"):
                counts["degraded"] += 1
        elif entry["status"] == "skipped":
            out["status"] = "SKIPPED"
            out["reason"] = entry.get("reason")
            counts["skipped"] += 1
        else:
            out["status"] = "INCOMPLETE"
            counts["failed"] += 1
        units_out.append(out)
    campaign = {
        "directory": config["directory"],
        "watchdog_s": config["watchdog_s"],
        "max_retries": config["max_retries"],
        "units": len(config["units"]),
    }
    for key in ("seed", "shards"):
        if config.get(key) is not None:
            campaign[key] = config[key]
    profile = config.get("fault_profile")
    if profile is not None:
        campaign["fault_profile"] = profile.get("name") \
            if isinstance(profile, dict) else profile
    return {
        "schema": RESULT_SCHEMA,
        "campaign": campaign,
        "units": units_out,
        "summary": counts,
        # the only wall-clock fields; determinism checks strip them
        "generated_at": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "wall_elapsed_s": round(wall_elapsed_s, 3),
    }


#: the result store's only wall-clock fields
WALL_STAMPS = ("generated_at", "wall_elapsed_s")


def strip_wall_stamps(store):
    """A copy of a result store without its wall-clock stamps.

    Two runs of the same campaign -- clean, resumed, sharded or served
    -- must agree on everything else.
    """
    stripped = dict(store)
    for key in WALL_STAMPS:
        del stripped[key]
    return stripped


def store_digest(store):
    """sha256 of a result store, modulo its wall-clock stamps."""
    blob = json.dumps(strip_wall_stamps(store), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CampaignReport:
    """What a finished (or resumed-to-finished) campaign hands back."""

    __slots__ = ("store", "store_path", "interrupted")

    def __init__(self, store, store_path, interrupted=False):
        self.store = store
        self.store_path = store_path
        #: True when a graceful drain stopped the campaign before every
        #: unit reached a terminal state -- the journal is sealed and
        #: ``repro campaign resume`` picks up exactly where it stopped
        self.interrupted = interrupted

    @property
    def summary(self):
        """The store's count block: passed / failed / skipped / degraded."""
        return self.store["summary"]

    @property
    def ok(self):
        """True when every unit passed (nothing failed, nothing skipped)."""
        summary = self.summary
        return summary["failed"] == 0 and summary["skipped"] == 0


class CampaignRunner:
    """Drive one campaign journal to completion.

    ``journal_path`` names the write-ahead journal (created fresh, or
    replayed when resuming); ``directory`` is the scenario directory a
    *new* campaign plans its units from (a resumed campaign takes the
    unit set from its campaign-start record instead).  ``watchdog_s`` /
    ``deadline_s`` / ``max_retries`` parameterize the supervised pool;
    on resume the journaled values win, except ``deadline_s`` which a
    caller may tighten per invocation.  ``store_path`` defaults to the
    journal path with a ``.results.json`` suffix; ``trace_path``
    (optional) records a campaign trace -- see the note on ``obs``
    below.
    """

    def __init__(self, journal_path, directory=None, jobs=1,
                 watchdog_s=DEFAULT_WATCHDOG_S, deadline_s=None,
                 max_retries=DEFAULT_MAX_RETRIES, store_path=None,
                 trace_path=None, seed=0, event_sink=None,
                 prune_age_s=3600.0, prune_keep=4):
        self.journal = CampaignJournal(journal_path)
        self.directory = directory
        #: debris-rotation policy for start-time pruning
        self.prune_age_s = prune_age_s
        self.prune_keep = prune_keep
        #: optional live observer: called as ``event_sink(kind, fields)``
        #: for every unit transition (the serve layer streams these to
        #: clients); a broken sink never breaks the campaign
        self.event_sink = event_sink
        self._drain = threading.Event()
        self.jobs = max(1, jobs)
        self.watchdog_s = watchdog_s
        self.deadline_s = deadline_s
        self.max_retries = max_retries
        self.seed = seed
        if store_path is None:
            store_path = pathlib.Path(journal_path).with_suffix(
                ".results.json"
            )
        self.store_path = pathlib.Path(store_path)
        # the campaign tracer has no simulated clock (units run in worker
        # processes with their own clocks), so its timestamps are null and
        # its fsync-latency metric carries "wall" in its name -- the
        # determinism helpers strip it
        self.obs = NULL_TRACER if trace_path is None else Tracer(
            path=trace_path, meta={"command": "campaign"},
        )

    # -- entry points ----------------------------------------------------------

    def run(self, resume=False):
        """Run (or resume) the campaign; returns a :class:`CampaignReport`.

        A fresh journal starts a new campaign over ``directory``.  An
        existing journal requires ``resume=True``; its campaign-start
        record then fixes the unit set and the supervision parameters,
        and only units without a journaled finish/skip are executed.
        """
        exists = self.journal.path.exists() \
            and self.journal.path.stat().st_size > 0
        if exists and not resume:
            raise CampaignError(
                "journal {} already exists; resume it (or choose a new "
                "journal path)".format(self.journal.path)
            )
        prune_stale_artifacts(
            self.journal.path.parent,
            patterns=(self.journal.path.stem + "*.tmp",
                      self.journal.path.stem + ".beats-*"),
            max_age_s=self.prune_age_s, keep=self.prune_keep,
        )
        records = self.journal.open()
        try:
            return self._execute(records)
        finally:
            self.journal.close()

    def request_drain(self):
        """Ask a running campaign to stop gracefully (signal-handler safe).

        No new unit launches after this; in-flight units finish and are
        journaled; queued units stay pending for ``resume``.  The run
        then returns a report with ``interrupted=True``.
        """
        self._drain.set()

    def status(self):
        """Read-only view of a journal: (config, unit-state dict)."""
        if not self.journal.path.exists():
            raise CampaignError(
                "no journal at {}".format(self.journal.path)
            )
        records, __ = wal.replay(self.journal.path)
        meta, folded = fold_records(records)
        if meta["config"] is None:
            raise CampaignError(
                "journal {} has no campaign-start record".format(
                    self.journal.path
                )
            )
        return meta, folded

    # -- internals -------------------------------------------------------------

    def _execute(self, records):
        meta, folded = fold_records(records)
        if records and meta["config"] is None:
            raise CampaignError(
                "journal {} has no campaign-start record".format(
                    self.journal.path
                )
            )
        if records:
            config = meta["config"]
            self._verify_unit_digests(config["units"])
            self.watchdog_s = config.get("watchdog_s", self.watchdog_s)
            self.max_retries = config.get("max_retries", self.max_retries)
            self.seed = config.get("seed", self.seed)
            if self.deadline_s is None:
                self.deadline_s = config.get("deadline_s")
        else:
            if self.directory is None:
                raise CampaignError(
                    "a new campaign needs a scenario directory"
                )
            config = {
                "schema": JOURNAL_SCHEMA,
                "directory": str(self.directory),
                "watchdog_s": self.watchdog_s,
                "deadline_s": self.deadline_s,
                "max_retries": self.max_retries,
                "seed": self.seed,
                "units": plan_units(self.directory),
            }
            self._journal_append(wal.CAMPAIGN_START, **config)

        pending = [
            unit for unit in config["units"]
            if folded.get(unit["id"], {}).get("status")
            not in ("done", "skipped")
        ]
        if self.obs.enabled:
            self.obs.meta.setdefault("directory", config["directory"])
        start = time.monotonic()
        deadline = None
        if self.deadline_s is not None:
            deadline = start + self.deadline_s
        with self.obs.span("campaign", units=len(config["units"]),
                           pending=len(pending), jobs=self.jobs):
            if pending:
                pool = SupervisedPool(
                    jobs=self.jobs, watchdog_s=self.watchdog_s,
                    max_retries=self.max_retries, seed=self.seed,
                    beat_root=str(self.journal.path.parent),
                    beat_prefix=self.journal.path.stem + ".beats-",
                )
                pool.run(
                    [(unit["id"], unit["path"]) for unit in pending],
                    _run_unit,
                    deadline=deadline,
                    on_start=self._on_start,
                    on_retry=self._on_retry,
                    on_skip=self._on_skip,
                    on_finish=self._on_finish,
                    drain=self._drain,
                )
            # Rebuild the final state purely from the journal: the clean
            # and the resumed paths then serialize through identical
            # code, which is what makes the stores byte-comparable.
            records, __ = wal.replay(self.journal.path)
            meta, folded = fold_records(records)
            done = all(
                folded.get(unit["id"], {}).get("status")
                in ("done", "skipped")
                for unit in config["units"]
            )
            if done and not meta["finished"]:
                self._journal_append(wal.CAMPAIGN_FINISH)
        wall_elapsed = time.monotonic() - start

        store = self._build_store(meta["config"], folded, wall_elapsed)
        write_json_atomic(self.store_path, store)
        if self.obs.enabled:
            self.obs.finish(wall_ms=wall_elapsed * 1000.0)
        return CampaignReport(store, self.store_path,
                              interrupted=not done and self._drain.is_set())

    def _verify_unit_digests(self, units):
        verify_unit_digests(units)

    def _journal_append(self, kind, **fields):
        """Journal one record, timing the durable append when traced.

        The fsync latency is inherently wall-clock, so the histogram name
        carries ``wall`` -- :func:`repro.obs.schema.strip_wall_fields`
        drops it before determinism comparisons.
        """
        if not self.obs.enabled:
            self.journal.append(kind, **fields)
            return
        started = time.perf_counter()
        self.journal.append(kind, **fields)
        self.obs.metrics.observe(
            "campaign.journal_fsync_wall_us",
            (time.perf_counter() - started) * 1e6,
            buckets=FSYNC_US_BUCKETS,
        )
        self.obs.metrics.inc("campaign.journal_appends")

    # -- pool callbacks (each journals before state advances) ------------------

    def _emit(self, kind, **fields):
        """Forward one unit event to the live sink (serve streaming)."""
        if self.event_sink is None:
            return
        try:
            self.event_sink(kind, fields)
        except Exception:  # noqa: BLE001 -- a dead client's sink must
            pass           # never take the campaign down with it

    def _on_start(self, unit_id, attempt):
        self.obs.event("unit-start", unit=unit_id, attempt=attempt - 1)
        self._emit("unit-start", unit=unit_id, attempt=attempt - 1)
        self._journal_append(wal.UNIT_START, unit=unit_id,
                             attempt=attempt - 1)

    def _on_retry(self, unit_id, attempt, reason):
        self.obs.event("retry", unit=unit_id, attempt=attempt - 1,
                       reason=reason)
        self._emit("retry", unit=unit_id, attempt=attempt - 1,
                   reason=reason)
        if self.obs.enabled:
            self.obs.metrics.inc("campaign.unit_retries")
        self._journal_append(wal.UNIT_RETRY, unit=unit_id,
                             attempt=attempt - 1, reason=reason)

    def _on_skip(self, unit_id, reason):
        self.obs.event("unit-skip", unit=unit_id, reason=reason)
        self._emit("unit-skip", unit=unit_id, reason=reason)
        if self.obs.enabled:
            self.obs.metrics.inc("campaign.units_skipped")
        self._journal_append(wal.UNIT_SKIP, unit=unit_id, reason=reason)

    def _on_finish(self, unit_id, outcome):
        result, degraded = outcome_result(unit_id, outcome)
        if degraded:
            self.obs.event("degradation", unit=unit_id,
                           reason="deadline")
            self._emit("degradation", unit=unit_id, reason="deadline")
            if self.obs.enabled:
                self.obs.metrics.inc("campaign.units_degraded")
        self.obs.event("unit-finish", unit=unit_id,
                       attempt=outcome.attempts - 1,
                       passed=bool(result.get("passed")))
        self._emit("unit-finish", unit=unit_id,
                   attempt=outcome.attempts - 1,
                   passed=bool(result.get("passed")))
        if self.obs.enabled:
            self.obs.metrics.inc("campaign.units_finished")
        self._journal_append(wal.UNIT_FINISH, unit=unit_id,
                             attempt=outcome.attempts - 1, result=result)

    # -- the result store ------------------------------------------------------

    @staticmethod
    def _build_store(config, folded, wall_elapsed_s):
        return build_store(config, folded, wall_elapsed_s)
