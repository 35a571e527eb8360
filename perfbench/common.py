"""Shared pieces of the workloads: job records, output capture, checks.

A job's output is captured outside its timed region and written to the
run's work directory, then released, so a run never holds more than one
job's output in memory (peak RSS stays the pipeline's own) and the
checks can run after the measured window.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from checker import check_kmeans, check_tfidf

__all__ = [
    "Job",
    "capture_output",
    "check_capture",
    "nearest_rank",
    "peak_rss_mb",
    "process_peak_rss_mb",
    "host_probe",
    "host_steal_s",
    "remove_quietly",
    "stop_resource_tracker",
]


@dataclass
class Job:
    """One job of a run, as the client saw it."""

    #: ``first`` (input never seen in this run), ``repeat`` or ``edit``.
    kind: str
    #: Identifies the input content; jobs with equal keys must agree.
    key: str
    docs: int
    #: Due time to result, in seconds (closed loop: the job is due when
    #: the client sends it).
    seconds: float = 0.0
    traced: bool = False
    #: Path of the captured output (``.npz``), when captured.
    output: str | None = None
    digest: str | None = None
    error: str | None = None
    #: Highest tile bytes pinned at once (tiled runs only).
    pinned_peak: int = 0
    #: Raw per-layer numbers of a traced job.
    layers: dict = field(default_factory=dict)


def _matrix_arrays(matrix):
    if hasattr(matrix, "as_arrays"):
        return matrix.as_arrays()
    indptr, indices, values = [0], [], []
    for row in matrix.iter_rows():
        indices.extend(row.indices)
        values.extend(row.values)
        indptr.append(len(indices))
    return (
        np.asarray(indptr, dtype=np.int64),
        np.asarray(indices, dtype=np.int64),
        np.asarray(values, dtype=np.float64),
    )


def capture_output(result, path: str) -> str:
    """Write a run's matrix, vocabulary and clustering to ``path``.

    Returns a SHA-256 over the exact bytes, so two runs agree only when
    their outputs are bit-identical.
    """
    indptr, indices, values = _matrix_arrays(result.tfidf.matrix)
    km = result.kmeans
    arrays = {
        "indptr": np.asarray(indptr, dtype=np.int64),
        "indices": np.asarray(indices, dtype=np.int64),
        "values": np.asarray(values, dtype=np.float64),
        "vocabulary": np.array(["\n".join(result.tfidf.vocabulary)]),
        "assignments": np.asarray(km.assignments, dtype=np.int64),
        "centroids": np.ascontiguousarray(km.centroids, dtype=np.float64),
        "inertia": np.array([km.inertia], dtype=np.float64),
        "history": np.asarray(km.inertia_history, dtype=np.float64),
        "converged": np.array([bool(km.converged)]),
    }
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(arrays[name].tobytes())
    np.savez(path, **arrays)
    return digest.hexdigest()


def check_capture(path: str, texts: list[str]) -> list[str]:
    """Every problem the independent checker finds in a captured output."""
    with np.load(path) as data:
        vocabulary = str(data["vocabulary"][0]).split("\n")
        if vocabulary == [""]:
            vocabulary = []
        problems = check_tfidf(
            texts, vocabulary, data["indptr"], data["indices"], data["values"]
        )
        problems += check_kmeans(
            data["indptr"],
            data["indices"],
            data["values"],
            data["assignments"],
            data["centroids"],
            float(data["inertia"][0]),
            data["history"],
            bool(data["converged"][0]),
        )
        if not bool(data["converged"][0]):
            problems.append("k-means stopped at the iteration cap unconverged")
    return problems


def nearest_rank(values: list[float], q: float) -> float:
    """The ``q`` quantile by nearest rank: always a measured value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set size (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM line for pid {pid}")


def host_probe() -> float:
    """Fixed pure-Python work rate of the host, in million loop steps/s.

    Best of three short timings of the same loop; taken before and after
    a run so host drift can be told apart from a program change.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return 0.2 / best


def host_steal_s() -> float:
    """CPU seconds the hypervisor has stolen from this machine's CPUs so far.

    Read from the ``steal`` column of ``/proc/stat``; the difference over
    a run tells how much of its wall time the host took away.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def remove_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    Process pools and shared memory start it on first use; left alone it
    exits only after the process that started it has, outliving the run.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
