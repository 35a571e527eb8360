"""Headline benchmark of the TF/IDF -> K-means pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-seq --seed 1 --seconds 15 --trace 0

Runs one workload (batch-seq, batch-procs, repeat-tiled or serve-open,
see ``perfbench/README.md``) through the program's public API for
``--seconds`` of measured time, checks every job's output with the
independent checker, and prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones, and the per-layer table is
printed above. A ``record`` line before the result carries the run's
own notes (host-speed probe before and after, job counts, shed/lost
serve jobs); it is not a metric. The benchmark imports the program
from ``src/`` next to this directory and exits 2 when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("batch-seq", "batch-procs", "repeat-tiled", "serve-open")
#: Cold starts per run, before and after the measured window; ``setup_s``
#: is their median. Taking them at both ends samples two host states.
COLD_STARTS_BEFORE = 2
COLD_STARTS_AFTER = 3


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _batch_setup(workload: str, work: str, count: int) -> list[float]:
    """Seconds from launch to ready, for ``count`` fresh clients."""
    times = []
    for _ in range(count):
        launched = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "coldstart.py"), workload, work],
            check=True, capture_output=True, text=True, timeout=120,
        ).stdout
        times.append(float(out.strip().splitlines()[-1]) - launched)
    return times


def run_batch(args, work: str) -> tuple[dict, dict]:
    import workloads
    from common import peak_rss_mb
    from layers import LayerTracer
    from report import end_to_end, per_layer, print_table

    cold_starts = 0 if args.trace else COLD_STARTS_BEFORE
    setup = _batch_setup(args.workload, work, cold_starts)
    load = workloads.Workload(args.workload, args.seed, work)
    tracer = LayerTracer() if args.trace else None
    try:
        jobs = workloads.run_closed_loop(load, args.seconds, tracer)
        rss = peak_rss_mb()
    finally:
        load.close()
    problems = workloads.check_jobs(load, jobs)
    if not args.trace:
        setup += _batch_setup(args.workload, work, COLD_STARTS_AFTER)
    done = [job for job in jobs if job.error is None]
    if args.trace:
        metrics = per_layer(jobs, tracer, tracer.worker_peak_rss_mb)
        print_table(args.workload, metrics, tracer,
                    sum(job.traced for job in done), sys.stdout)
    else:
        metrics = end_to_end(done, setup, rss) if done else {}
    record = {
        "jobs": len(jobs),
        "failed": len(jobs) - len(done),
        "kinds": {kind: sum(j.kind == kind for j in jobs)
                  for kind in sorted({j.kind for j in jobs})},
        "errors": sorted({job.error for job in jobs if job.error})[:5],
        "job_s": [round(job.seconds, 4) for job in jobs],
        "setup_s": setup,
        "problems": problems[:20],
    }
    return _result(jobs, done, problems, metrics), record


def run_serve(args, work: str) -> tuple[dict, dict]:
    from report import end_to_end, per_layer, print_table
    from serve_open import ServeRun

    serve = ServeRun(ROOT, work, args.seed)
    try:
        problems = serve.check_references()
        setup = []
        for _ in range(COLD_STARTS_BEFORE - 1 if not args.trace else 0):
            setup.append(serve.start_daemon())
            serve.stop_daemon()
        setup.append(serve.start_daemon())
        sent = serve.open_loop(args.seconds)
        rss = serve.peak_rss_mb()
        serve.stop_daemon()
        jobs, tally, fold_problems = serve.fold(sent)
        for _ in range(COLD_STARTS_AFTER if not args.trace else 0):
            setup.append(serve.start_daemon())
            serve.stop_daemon()
    finally:
        serve.close()
    problems += fold_problems
    done = [job for job in jobs if job.error is None]
    for job in done:
        job.traced = bool(args.trace)
    if args.trace:
        metrics = per_layer(jobs)
        print_table(args.workload, metrics, None, len(done), sys.stdout)
    else:
        metrics = end_to_end(done, setup, rss) if done else {}
    late = [entry["late_s"] for entry in sent]
    record = {
        "jobs": len(jobs),
        "failed": tally["failed"],
        "shed": tally["shed"],
        "lost": tally["lost"],
        "job_s": [round(job.seconds, 4) for job in jobs],
        "generator_late_max_s": max(late, default=0.0),
        "generator_late_p50_s": statistics.median(late) if late else 0.0,
        "setup_s": setup,
        "problems": problems[:20],
    }
    return _result(jobs, done, problems, metrics), record


def _result(jobs, done, problems, metrics) -> dict:
    return {
        "correct": not problems and bool(done),
        "attempted": len(jobs),
        "failed": len(jobs) - len(done),
        "metrics": metrics,
    }


def _terminate(signum, frame) -> None:
    # Unwind through the finally blocks, so worker pools and the serve
    # daemon are stopped and the work directory is removed.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from common import host_probe, host_steal_s, stop_resource_tracker

    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    # Spill tiles, cache stores and child temp files stay in the checkout.
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work
    try:
        probe_before = host_probe()
        steal_before, wall_before = host_steal_s(), time.monotonic()
        if args.workload == "serve-open":
            result, record = run_serve(args, work)
        else:
            result, record = run_batch(args, work)
        steal_s = host_steal_s() - steal_before
        wall_s = time.monotonic() - wall_before
        probe_after = host_probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        stop_resource_tracker()
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": os.cpu_count(),
        "host_probe_mloops_per_s": [probe_before, probe_after],
        "host_steal_share": steal_s / (wall_s * (os.cpu_count() or 1)),
    })
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
