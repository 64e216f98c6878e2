"""Output checks: in-process replay against ground truth, and digests.

Units run in worker processes (offline) or in the server (serve), out of
the benchmark's reach.  After the timed window the benchmark replays a
fixed prefix of the units in its own process through ``run_scenario``
-- the function the workers run -- with the machine factories wrapped so
the booted victim is at hand.  Each replayed unit must reproduce the
worker's result exactly, and its ``correct`` flag must agree with the
victim's real layout wherever the observations carry the recovered
value.  The replay also yields each unit's simulated attack time.
"""

import hashlib
import json
import math
import time

from spans import instrumented

#: store fields that carry wall-clock time (dropped before hashing)
WALL_FIELDS = ("generated_at", "wall_elapsed_s")


def canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def store_digest(store):
    """sha256 of a result store with its wall-clock fields stripped."""
    stripped = {k: v for k, v in store.items() if k not in WALL_FIELDS}
    return hashlib.sha256(canonical(stripped).encode("utf-8")).hexdigest()


def _truth(spec, machine):
    """The value a correct attack recovers, or None if not observable."""
    kind = spec["attack"]["kind"]
    if kind in ("kaslr", "kpti", "windows-region", "windows-kvas"):
        return machine.kernel.base
    if kind == "user-scan":
        return machine.process.text_base
    return None


def ground_truth_problems(spec, result, machine):
    """Disagreements between a unit's result and its victim machine."""
    obs = result["observations"]
    problems = []
    if "error" in obs:
        return ["{}: unit raised {}".format(spec["name"], obs["error"])]
    if not isinstance(obs.get("correct"), bool):
        return ["{}: no boolean 'correct' observation".format(spec["name"])]
    truth = _truth(spec, machine)
    if truth is not None and obs["correct"] != (obs.get("base") == truth):
        problems.append("{}: correct={} but base {} vs truth {}".format(
            spec["name"], obs["correct"], obs.get("base"), truth))
    if spec["attack"]["kind"] == "fingerprint" \
            and obs["correct"] != (obs.get("guess") == spec["attack"]["app"]):
        problems.append("{}: correct={} but guess {!r}".format(
            spec["name"], obs["correct"], obs.get("guess")))
    if "total_ms" in obs and not math.isclose(
            obs["total_ms"], sim_ms(machine), rel_tol=1e-9):
        problems.append("{}: total_ms {} but the clock says {}".format(
            spec["name"], obs["total_ms"], sim_ms(machine)))
    return problems


def sim_ms(machine):
    """Simulated time the victim's clock advanced over the unit."""
    return machine.elapsed_ms(0)


def replay(units, recorder, inspect, control=False):
    """Run ``(unit_id, path)`` units in this process, spans recorded.

    The layer entry points are wrapped (spans, and the booted machine
    for ground truth).  ``inspect(unit_id, result, machine)`` sees each
    traced unit; the machine is dropped right after, inside the timed
    region, as ``run_scenario`` drops it in the bare arm.  With
    ``control`` every unit also runs bare, the control arm for the
    tracing overhead: the two runs of a unit follow each other, in
    alternating order, after one untimed warm-up unit, so warm-up and
    drift fall on both arms alike.  Returns ``(results, bare_results,
    traced_s, bare_s)``.
    """
    from repro.scenarios import run_scenario

    results, bare_results = {}, {}
    traced_s = bare_s = 0.0
    if control and units:
        run_scenario(units[0][1])
    for index, (unit_id, path) in enumerate(units):
        arms = ("traced",)
        if control:
            arms = ("bare", "traced") if index % 2 == 0 \
                else ("traced", "bare")
        for arm in arms:
            if arm == "bare":
                started = time.perf_counter()
                bare_results[unit_id] = run_scenario(path).as_dict()
                bare_s += time.perf_counter() - started
                continue
            with instrumented(recorder):
                started = time.perf_counter()
                with recorder.run_unit(unit_id):
                    results[unit_id] = run_scenario(path).as_dict()
                inspect(unit_id, results[unit_id], recorder.machine)
                recorder.machine = None
                traced_s += time.perf_counter() - started
    return results, bare_results, traced_s, bare_s


def same_result(replayed, remote):
    """A replayed ``ScenarioResult.as_dict`` equals a remote result.

    ``remote`` is either a result dict (serve verdicts) or a result
    store unit entry (offline), which carries ``status`` in place of
    ``passed``.
    """
    if "status" in remote:
        remote = dict(remote, passed=remote["status"] == "PASS")
    fields = ("name", "passed", "observations", "violations",
              "chaos_digest", "degraded")
    return all(canonical(replayed.get(f)) == canonical(remote.get(f))
               for f in fields)


class DigestBook:
    """Digests recorded per (workload, seed) across runs in a checkout.

    The first run of a seed records its digest; every later run of the
    same seed, traced or not, must reproduce it.
    """

    def __init__(self, path):
        self.path = path

    def check(self, key, digest):
        book = {}
        if self.path.exists():
            book = json.loads(self.path.read_text())
        known = book.get(key)
        if known is None:
            book[key] = digest
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(canonical(book))
            tmp.replace(self.path)
            return []
        if known != digest:
            return ["{}: result digest {} differs from the {} an earlier "
                    "run of the same seed recorded".format(key, digest[:16],
                                                          known[:16])]
        return []
