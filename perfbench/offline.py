"""Offline workloads: campaign batches through ``CampaignRunner``.

Units run in batches of one campaign each (``jobs = nproc``, the
``repro campaign run`` default single pool).  Batches follow each other
until the measuring window is spent and a fixed prefix of batches is
done; each batch is a fresh ``run()``, so every batch gives one set-up
sample.  Unit times come from the runner's ``event_sink``.
"""

import json
import time

from units import unit_specs


class Batch:
    """One campaign run: its units, events, wall time and store."""

    def __init__(self, units, wall_s, events, store):
        #: [(unit_id, path, spec)]
        self.units = units
        self.wall_s = wall_s
        #: [(perf_counter seconds, kind, unit_id)] relative to run() start
        self.events = events
        self.store = store

    def setup_s(self):
        """run() to the first unit-start."""
        return min(t for t, kind, __ in self.events if kind == "unit-start")

    def unit_spans(self):
        """{unit_id: (start, finish)} of each unit's last attempt."""
        starts, spans = {}, {}
        for t, kind, unit in self.events:
            if kind == "unit-start":
                starts[unit] = t
            elif kind == "unit-finish":
                spans[unit] = (starts[unit], t)
        return spans

    def idle_gaps(self):
        """unit-finish -> next unit-start, while units remain queued."""
        gaps = []
        pending_finish = []
        for t, kind, __ in sorted(self.events):
            if kind == "unit-finish":
                pending_finish.append(t)
            elif kind == "unit-start" and pending_finish:
                gaps.append(t - pending_finish.pop(0))
        return gaps


def write_units(directory, specs):
    directory.mkdir(parents=True)
    out = []
    for unit_id, spec in specs:
        path = directory / (unit_id + ".json")
        path.write_text(json.dumps(spec, sort_keys=True))
        out.append((unit_id, str(path), spec))
    return out


def setup_samples(workload, seed, batch_size, workdir, jobs, reps):
    """Set-up times of ``reps`` extra campaigns over batch 0's units.

    Each campaign is drained at its first unit-start, so only the units
    already launched run; its results are discarded.
    """
    from repro.campaign.runner import CampaignRunner

    specs = unit_specs(workload, seed, 0, batch_size)
    samples = []
    for rep in range(reps):
        name = "setup{:02d}".format(rep)
        write_units(workdir / name, specs)
        runner = CampaignRunner(workdir / (name + ".jsonl"),
                                directory=workdir / name, jobs=jobs)
        first = []

        def sink(kind, fields, first=first, runner=runner):
            if kind == "unit-start" and not first:
                first.append(time.perf_counter())
                runner.request_drain()

        runner.event_sink = sink
        started = time.perf_counter()
        runner.run()
        samples.append(first[0] - started)
    return samples


def run_batches(workload, seed, seconds, min_batches, batch_size, workdir,
                jobs):
    """Run campaign batches for ``seconds`` and at least ``min_batches``."""
    from repro.campaign.runner import CampaignRunner

    batches = []
    started = time.perf_counter()
    while len(batches) < min_batches \
            or time.perf_counter() - started < seconds:
        index = len(batches)
        name = "b{:03d}".format(index)
        units = write_units(
            workdir / name,
            unit_specs(workload, seed, index * batch_size, batch_size),
        )
        events = []
        origin = [0.0]

        def sink(kind, fields, events=events, origin=origin):
            events.append((time.perf_counter() - origin[0], kind,
                           fields.get("unit")))

        runner = CampaignRunner(
            workdir / (name + ".jsonl"), directory=workdir / name,
            jobs=jobs, event_sink=sink,
        )
        origin[0] = time.perf_counter()
        report = runner.run()
        wall = time.perf_counter() - origin[0]
        batches.append(Batch(units, wall, events, report.store))
    return batches
