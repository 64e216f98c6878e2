"""Shared fixtures: prebuilt machines for the heavier attack tests,
and the orphan-process check of the SIGKILL-the-parent tests."""

import pathlib
import time

import pytest

from repro.machine import Machine


@pytest.fixture
def linux_machine():
    """A fresh default Linux machine (Alder Lake, KASLR on, KPTI off)."""
    return Machine.linux(seed=1234)


@pytest.fixture
def icelake_machine():
    return Machine.linux(cpu="i7-1065G7", seed=1234)


@pytest.fixture
def amd_machine():
    return Machine.linux(cpu="ryzen5-5600X", seed=1234)


@pytest.fixture
def kpti_machine():
    return Machine.linux(seed=1234, kpti=True)


@pytest.fixture
def windows_machine():
    return Machine.windows(seed=1234)


@pytest.fixture
def small_module_set():
    """A compact module list for fast module-window scans."""
    from repro.os.linux.modules import MODULE_CATALOG

    names = {"video", "mac_hid", "autofs4", "x_tables", "psmouse",
             "bluetooth", "fat", "vfat", "coretemp", "ahci"}
    return [m for m in MODULE_CATALOG if m.name in names]


def _cmdline_holders(needle):
    """Pids of live processes whose command line contains ``needle``."""
    needle = needle.encode("utf-8")
    pids = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if needle in cmdline:
            pids.append(int(entry.name))
    return pids


@pytest.fixture
def assert_no_orphans():
    """Assert every process naming a journal is gone within 5 s.

    Pool workers fork with their parent's command line, so after a
    SIGKILLed campaign parent the journal path finds its orphans.
    """
    def check(journal):
        deadline = time.monotonic() + 5.0
        while _cmdline_holders(str(journal)) \
                and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _cmdline_holders(str(journal)) == []
    return check
