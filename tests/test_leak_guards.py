"""The leak guards blame only the test's own processes.

A shm segment or spill directory named for a live process outside the
test's process tree belongs to someone else (a benchmark run beside the
suite) and must not fail the test; one named for the test process, a
live descendant, or an exited process must.
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro.exec.shm import SEGMENT_PREFIX
from repro.tiles import SPILL_PREFIX
from tests.conftest import _leaked, _owner_pid, _ours


def test_owner_pid_parses_both_name_shapes():
    assert _owner_pid(f"{SEGMENT_PREFIX}_4242_7", SEGMENT_PREFIX) == 4242
    assert _owner_pid(f"{SPILL_PREFIX}_4242_3_k2j9x", SPILL_PREFIX) == 4242
    assert _owner_pid(f"{SEGMENT_PREFIX}_odd", SEGMENT_PREFIX) is None


def test_own_and_unparseable_names_are_ours():
    assert _ours(os.getpid())
    assert _ours(None)


def test_live_unrelated_process_is_not_ours():
    # The test runner's parent is alive and is no descendant of ours.
    assert not _ours(os.getppid())


def test_exited_process_is_ours():
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    assert _ours(child.pid)


def test_live_descendants_are_ours():
    script = (
        "import subprocess, sys, time\n"
        "grandchild = subprocess.Popen([sys.executable, '-c', "
        "'import time; time.sleep(30)'])\n"
        "print(grandchild.pid, flush=True)\n"
        "sys.stdin.read()\n"
        "grandchild.kill(); grandchild.wait()\n"
    )
    child = subprocess.Popen(
        [sys.executable, "-c", script],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        grandchild = int(child.stdout.readline())
        assert _ours(child.pid)
        assert _ours(grandchild)
    finally:
        child.stdin.close()
        child.wait(timeout=30)


def test_leaked_filters_other_processes_names():
    mine = f"{SEGMENT_PREFIX}_{os.getpid()}_1"
    theirs = f"{SEGMENT_PREFIX}_{os.getppid()}_1"
    old = f"{SEGMENT_PREFIX}_{os.getpid()}_0"
    assert _leaked({old}, {old, mine, theirs}, SEGMENT_PREFIX) == [mine]
