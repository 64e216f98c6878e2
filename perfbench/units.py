"""Seed -> unit-spec generator for the four workloads.

Every unit is a scenario spec (the JSON the ``repro`` scenario runner
reads).  A workload is a fixed cycle of *shapes* taken from the shipped
``scenarios/*.json`` files -- machine, attack and expectations -- and
only the machine seed varies: unit ``i`` of a workload draws its seed
from a generator keyed by ``(workload, workload seed)``.  The same
workload seed therefore always yields the same units, and the share of
each shape is the same for every seed, so run-to-run differences come
from the host and not from the mix.
"""

import random

#: Table I base breaks, the KPTI trampoline break and the cloud breaks
#: (scenarios/table1_*_base.json, sec4d_kpti.json, sec4h_cloud_gce.json)
KASLR_SHAPES = (
    ("base-i5", {"os": "linux", "cpu": "i5-12400F"}, {"kind": "kaslr"},
     {"correct": True, "method": "intel-p2", "max_total_ms": 0.45}),
    ("base-i7", {"os": "linux", "cpu": "i7-1065G7"}, {"kind": "kaslr"},
     {"correct": True, "method": "intel-p2", "max_total_ms": 1.0}),
    ("base-ryzen", {"os": "linux", "cpu": "ryzen5-5600X"}, {"kind": "kaslr"},
     {"correct": True, "method": "amd-p3", "max_total_ms": 4.0}),
    ("kpti-i5", {"os": "linux", "cpu": "i5-12400F", "kpti": True},
     {"kind": "kpti"}, {"correct": True}),
    ("cloud-gce", {"os": "cloud", "provider": "gce"}, {"kind": "kaslr"},
     {"correct": True, "method": "intel-p2"}),
    ("cloud-ec2", {"os": "cloud", "provider": "ec2"}, {"kind": "kaslr"},
     {"correct": True}),
)

_MODULES_I5 = (
    "modules-i5", {"os": "linux", "cpu": "i5-12400F"},
    {"kind": "modules", "min_accuracy": 0.98},
    {"correct": True, "identified": 19, "max_total_ms": 3.5},
)
_MODULES_I7 = (
    "modules-i7", {"os": "linux", "cpu": "i7-1065G7"},
    {"kind": "modules", "min_accuracy": 0.98},
    {"correct": True, "identified": 19, "max_total_ms": 13.5},
)

_SGX = (
    "sgx", {"os": "linux", "cpu": "i7-1065G7"}, {"kind": "sgx"},
    {"correct": True, "max_load_seconds": 120, "min_store_seconds": 10},
)

#: full-range scans.  The Table I module scans come three times each per
#: cycle so the probe engine carries the largest share of the mix; SGX,
#: the slowest shape, comes twice, so the 90th percentile falls inside
#: one shape's spread instead of on the edge between two.
SCAN_SHAPES = (
    _MODULES_I5,
    _MODULES_I7,
    ("fingerprint", {"os": "linux", "cpu": "i7-1065G7"},
     {"kind": "fingerprint", "app": "video-call", "intervals": 20},
     {"correct": True, "guess": "video-call"}),
    _MODULES_I5,
    _MODULES_I7,
    _SGX,
    ("user-scan", {"os": "linux", "cpu": "i5-12400F"},
     {"kind": "user-scan"}, {"correct": True}),
    _MODULES_I5,
    _MODULES_I7,
    ("win-region", {"os": "windows", "cpu": "i5-12400F"},
     {"kind": "windows-region"},
     {"correct": True, "bits": 18, "max_probing_seconds": 0.3}),
    ("win-kvas", {"os": "windows", "cpu": "i7-6600U", "version": "1709"},
     {"kind": "windows-kvas"},
     {"correct": True, "max_probing_seconds": 40}),
    _SGX,
)

_CHAOS_KASLR_EXPECT = {"correct": True, "status": "found",
                       "max_retries": 3, "min_confidence": 0.5}


def _chaos(profile):
    return {"os": "linux", "cpu": "i5-12400F", "kpti": False,
            "chaos": profile}


_CHAOS_KASLR_DEFAULT = (
    "chaos-kaslr-default", _chaos("default"),
    {"kind": "supervised", "attack": "kaslr"}, _CHAOS_KASLR_EXPECT,
)
_CHAOS_KASLR_HOSTILE = (
    "chaos-kaslr-hostile", _chaos("hostile"),
    {"kind": "supervised", "attack": "kaslr"}, _CHAOS_KASLR_EXPECT,
)
_CHAOS_USER = (
    "chaos-user-default", _chaos("default"),
    {"kind": "supervised", "attack": "userspace"},
    {"correct": True, "status": "found", "max_retries": 3},
)
_CHAOS_MODULES = (
    "chaos-modules-default", _chaos("default"),
    {"kind": "supervised", "attack": "modules"},
    {"correct": True, "status": "found", "max_retries": 3,
     "min_identified": 5},
)

#: supervised units on chaos machines (scenarios/chaos_*.json).  Module
#: scans are two units in ten, enough for the 90th percentile to fall
#: inside their spread.  The rerandomizing profile is left out:
#: LinuxKernel.rerandomize raises MappingError ("already mapped") on
#: about one seed in nine, and a workload must not contain operations
#: that fail.
CHAOS_SHAPES = (
    _CHAOS_KASLR_DEFAULT, _CHAOS_KASLR_HOSTILE, _CHAOS_USER,
    _CHAOS_KASLR_DEFAULT, _CHAOS_MODULES, _CHAOS_KASLR_HOSTILE,
    _CHAOS_USER, _CHAOS_KASLR_DEFAULT, _CHAOS_USER, _CHAOS_MODULES,
)

#: workload -> shape cycle; serve-trickle submits the kaslr-fleet mix
MIXES = {
    "kaslr-fleet": KASLR_SHAPES,
    "scan-fleet": SCAN_SHAPES,
    "chaos-fleet": CHAOS_SHAPES,
    "serve-trickle": KASLR_SHAPES,
}


def unit_specs(workload, seed, start, count):
    """Units ``start .. start+count-1`` of ``workload`` under ``seed``.

    Returns ``(unit_id, spec)`` pairs.  The machine seed of unit ``i``
    is the ``i``-th draw of a generator keyed by the workload's mix and
    the workload seed, so any slice of the sequence is reproducible on
    its own.  serve-trickle shares kaslr-fleet's key: the same seed
    submits the same units, which is what lets served results be
    compared with offline ones.
    """
    shapes = MIXES[workload]
    key = "kaslr-fleet" if workload == "serve-trickle" else workload
    rng = random.Random("{}:{}".format(key, seed))
    for __ in range(start):
        rng.getrandbits(31)
    out = []
    for i in range(start, start + count):
        name, machine, attack, expect = shapes[i % len(shapes)]
        unit_id = "u{:05d}-{}".format(i, name)
        spec = {
            "name": unit_id,
            "machine": dict(machine, seed=rng.getrandbits(31)),
            "attack": dict(attack),
            "expect": dict(expect),
        }
        out.append((unit_id, spec))
    return out
