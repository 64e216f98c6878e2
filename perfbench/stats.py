"""Percentiles with the tail rule, and span self-time arithmetic."""

import math

#: a tail percentile is reported only with this many samples beyond it
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A tail percentile was asked of a sample too small to carry it."""


def tail(values, q):
    """Nearest-rank ``q`` percentile (``0 < q < 1``) of ``values``.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples lie beyond the percentile, i.e. ``len(values) * (1 - q)``
    is at least 10: p90 needs 100 samples, p99 needs 1000.
    """
    n = len(values)
    beyond = n * (1.0 - q)
    if beyond + 1e-9 < MIN_BEYOND:
        raise TooFewSamples(
            "p{:g} of {} samples has {:.1f} beyond it; needs {}".format(
                100 * q, n, beyond, MIN_BEYOND)
        )
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * n) - 1)]


def covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time of every span: its duration minus what children cover.

    ``spans`` is a list of dicts with ``id``, ``parent``, ``start`` and
    ``end``.  Returns ``{span id: self time}``.  Self times of a span
    tree add up to the root's duration exactly.
    """
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        inner = [(c["start"], c["end"]) for c in children.get(span["id"], ())]
        out[span["id"]] = span["end"] - span["start"] - covered(inner)
    return out
