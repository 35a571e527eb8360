"""Repo-wide fixtures: shared-memory segments and spill dirs must never leak.

Every segment the shm plane creates is named ``repro_shm_*`` (see
:data:`repro.exec.shm.SEGMENT_PREFIX`), so on platforms with a visible
``/dev/shm`` a leak is directly observable as a leftover file. The
autouse fixture below snapshots the directory around every test and
fails any test that leaves a segment behind — close, double-close and
worker-crash paths all have to clean up to stay green. (On hosts
without ``/dev/shm`` the check degrades to a no-op; the promoted
resource_tracker warnings in ``pyproject.toml`` still cover leaks.)

The tile plane gets the same treatment: every spill directory is named
``$TMPDIR/repro_tiles_*`` (:data:`repro.tiles.SPILL_PREFIX`), so a
:class:`~repro.tiles.TileStore` that outlives its test — an unclosed
tiled matrix, a worker-side reader, an exception path that skipped
``close()`` — shows up as a leftover directory and fails that test.

Both names embed the creating process's pid (``repro_shm_<pid>_*``,
``repro_tiles_<pid>_*``), so a leftover only fails the test when that
pid is the test process, a live descendant of it (a pool worker), or a
process that has exited. A segment or spill directory of a live,
unrelated process — a benchmark or repro run beside the suite — is not
this test's leak.
"""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.exec.shm import SEGMENT_PREFIX
from repro.tiles import SPILL_PREFIX

_SHM_DIR = "/dev/shm"


def _owner_pid(name: str, prefix: str) -> int | None:
    """The creator pid embedded after ``prefix`` in ``name``, if any."""
    head = name[len(prefix) :].lstrip("_").split("_", 1)[0]
    return int(head) if head.isdigit() else None


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _parent(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            stat = handle.read()
    except OSError:
        return None
    # The command name may hold spaces or parentheses: ppid is the second
    # field after its closing parenthesis.
    return int(stat.rsplit(")", 1)[1].split()[1])


def _ours(pid: int | None) -> bool:
    """True when a leftover created by ``pid`` is this test's to answer for."""
    me = os.getpid()
    if pid is None or pid == me or not _alive(pid):
        return True
    if not os.path.isdir("/proc"):
        return True  # ancestry unknowable here: stay strict
    seen = set()
    while pid is not None and pid > 1 and pid not in seen:
        seen.add(pid)
        pid = _parent(pid)
        if pid == me:
            return True
    return False


def _leaked(before: set[str], after: set[str], prefix: str) -> list[str]:
    return sorted(
        name for name in after - before if _ours(_owner_pid(name, prefix))
    )


def _segments() -> set[str]:
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return set()
    return {name for name in names if name.startswith(SEGMENT_PREFIX)}


def _spill_dirs() -> set[str]:
    root = tempfile.gettempdir()
    try:
        names = os.listdir(root)
    except OSError:
        return set()
    return {name for name in names if name.startswith(SPILL_PREFIX)}


@pytest.fixture(autouse=True)
def no_shm_segment_leaks():
    if not os.path.isdir(_SHM_DIR):
        yield
        return
    before = _segments()
    yield
    leaked = _leaked(before, _segments(), SEGMENT_PREFIX)
    assert not leaked, (
        f"test leaked shared-memory segment(s): {leaked} — every "
        f"ShmArrays/ShmBroadcast must be unlinked via close()"
    )


@pytest.fixture(autouse=True)
def no_tile_spill_leaks():
    before = _spill_dirs()
    yield
    leaked = _leaked(before, _spill_dirs(), SPILL_PREFIX)
    assert not leaked, (
        f"test leaked tile spill director{'y' if len(leaked) == 1 else 'ies'}: "
        f"{leaked} — every TileStore (or the TiledCsrMatrix that "
        f"owns it) must be closed"
    )
