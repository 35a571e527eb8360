"""The serve-open workload: an open loop against a ``repro serve`` daemon.

One client process submits jobs on a fixed schedule, well below the
daemon's capacity, to a ``repro serve run`` subprocess (threads backend,
2 workers, 1 executor) over a few on-disk corpora of different sizes.
Each job is timed from when it was due until its result file is
visible to the client, so a stall also delays every job queued behind
it; how late the generator itself ran is recorded apart.

The per-layer split comes from the daemon's own journal (submitted,
running, done stamps) and result payloads (pipeline seconds), so
tracing this workload adds no code to the daemon.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

from common import (
    Job,
    capture_output,
    check_capture,
    process_peak_rss_mb,
    remove_quietly,
)

__all__ = ["ServeRun", "SIZES", "INTERVAL_S"]

#: Documents per on-disk corpus; jobs cycle through them in this order,
#: so every run offers the same size mix and the seed changes the text.
SIZES = (16, 32, 64, 32)
#: Seconds between due times: about twice the mean service time, so the
#: daemon is about half busy.
INTERVAL_S = 0.4
#: Seconds to wait for stragglers after the last due time.
GRACE_S = 60.0


def _wait_serving(state: str, proc: subprocess.Popen, timeout: float) -> dict:
    """Block until the daemon's heartbeat says ``serving``; return it."""
    from repro.serve.transport import read_heartbeat

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        beat = read_heartbeat(state)
        if beat is not None and beat.get("state") == "serving":
            return beat
        if proc.poll() is not None:
            raise RuntimeError(f"serve daemon exited with {proc.returncode}")
        time.sleep(0.002)
    raise RuntimeError("serve daemon never reported serving")


class ServeRun:
    """Inputs, daemon lifecycle and the open-loop client of one run."""

    def __init__(self, root: str, work: str, seed: int) -> None:
        from repro.io import FsStorage, store_corpus
        from repro.text.synth import MIX_PROFILE, generate_corpus

        self.root = root
        self.work = work
        self.dirs: list[str] = []
        for index, size in enumerate(SIZES):
            corpus = generate_corpus(
                MIX_PROFILE, scale=size / MIX_PROFILE.n_docs,
                seed=seed * 1000 + index,
            )
            path = os.path.join(work, f"corpus-{index}")
            store_corpus(FsStorage(path), corpus)
            self.dirs.append(path)
        self.reference: list[str] = []
        self.proc: subprocess.Popen | None = None
        self.state = ""
        self._daemons = 0

    # -- daemon lifecycle ---------------------------------------------------

    def start_daemon(self) -> float:
        """Launch a daemon on a fresh state dir; seconds until serving."""
        self._daemons += 1
        self.state = os.path.join(self.work, f"state-{self._daemons}")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        log = open(os.path.join(self.work, f"daemon-{self._daemons}.log"), "wb")
        launched = time.time()
        try:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "run",
                    "--state", self.state, "--backend", "threads",
                    "--workers", "2", "--executors", "1",
                    "--max-depth", "64",
                ],
                cwd=self.work, env=env, stdout=log, stderr=subprocess.STDOUT,
            )
        finally:
            log.close()
        beat = _wait_serving(self.state, self.proc, timeout=60.0)
        return float(beat["ts"]) - launched

    def stop_daemon(self) -> None:
        """Drain the daemon and wait for it to exit."""
        from repro.serve.transport import request_drain

        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            request_drain(self.state)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    # -- reference outputs ----------------------------------------------------

    def check_references(self) -> list[str]:
        """Run each corpus in-process the way the daemon does, check it
        independently, and keep its digest for the served jobs."""
        from repro.bench.oocore_child import output_digest
        from repro.core.pipeline import run_pipeline
        from repro.exec.inline import ThreadBackend
        from repro.io import FsStorage, load_corpus
        from repro.ops.kmeans import KMeansOperator
        from repro.ops.tfidf import TfIdfOperator

        problems: list[str] = []
        backend = ThreadBackend(2)
        try:
            for index, path in enumerate(self.dirs):
                corpus = load_corpus(FsStorage(path), "", name=f"c{index}")
                result = run_pipeline(
                    corpus, backend=backend, tfidf=TfIdfOperator(),
                    kmeans=KMeansOperator(),
                )
                self.reference.append(output_digest(result))
                out = os.path.join(self.work, f"ref-{index}.npz")
                capture_output(result, out)
                texts = [doc.text for doc in corpus]
                problems += [
                    f"corpus {index}: {p}" for p in check_capture(out, texts)
                ]
                remove_quietly(out)
        finally:
            backend.close()
        return problems

    # -- the open loop ------------------------------------------------------

    def open_loop(self, seconds: float) -> list[dict]:
        """Submit ``seconds / INTERVAL_S`` jobs on schedule; wait for all."""
        from repro.serve.transport import result_path, submit_job

        n_jobs = max(1, int(seconds / INTERVAL_S))
        t0_mono = time.monotonic() + INTERVAL_S
        t0_wall = time.time() + INTERVAL_S
        sent: list[dict] = []
        pending: dict[str, dict] = {}
        while len(sent) < n_jobs or pending:
            now = time.monotonic()
            if len(sent) < n_jobs:
                due = t0_mono + len(sent) * INTERVAL_S
                if now >= due:
                    index = len(sent) % len(self.dirs)
                    job_id = f"job-{len(sent):05d}"
                    late_s = now - due
                    submit_job(self.state, {
                        "input": self.dirs[index], "job_id": job_id,
                    })
                    entry = {
                        "job_id": job_id, "corpus": index,
                        "docs": SIZES[index],
                        "due_wall": t0_wall + (due - t0_mono),
                        "late_s": late_s, "due": due,
                        "visible": None,
                    }
                    sent.append(entry)
                    pending[job_id] = entry
                    continue
            for job_id in list(pending):
                if os.path.exists(result_path(self.state, job_id)):
                    pending.pop(job_id)["visible"] = now
            if len(sent) == n_jobs and now > t0_mono + n_jobs * INTERVAL_S + GRACE_S:
                break
            wait = 0.002
            if len(sent) < n_jobs:
                next_due = t0_mono + len(sent) * INTERVAL_S
                wait = min(wait, max(0.0, next_due - time.monotonic()))
            time.sleep(wait)
        return sent

    def fold(self, sent: list[dict]) -> tuple[list[Job], dict, list[str]]:
        """Journal + result files -> jobs, shed/lost counts and problems."""
        from repro.serve.journal import read_journal, replay
        from repro.serve.transport import read_result

        records, journal_problems = read_journal(self.state)
        views = replay(records)
        stamps: dict[str, dict[str, float]] = {}
        counts: dict[str, dict[str, int]] = {}
        for record in records:
            if record.get("kind") != "job":
                continue
            per_job = counts.setdefault(record["job_id"], {})
            event = record["event"]
            per_job[event] = per_job.get(event, 0) + 1
            per_job["records"] = per_job.get("records", 0) + 1
            stamps.setdefault(record["job_id"], {}).setdefault(
                event, float(record["ts"])
            )
        problems = [f"journal: {p}" for p in journal_problems]
        jobs: list[Job] = []
        tally = {"shed": 0, "lost": 0, "failed": 0}
        for entry in sent:
            job_id = entry["job_id"]
            job = Job(kind="first", key=f"c{entry['corpus']}", docs=entry["docs"])
            view = views.get(job_id)
            state = view.state if view is not None else "lost"
            if state != "done" or entry["visible"] is None:
                bucket = state if state in tally else "lost"
                tally[bucket] += 1
                job.error = f"ended {state}"
                jobs.append(job)
                continue
            job.seconds = entry["visible"] - entry["due"]
            if counts[job_id].get("done") != 1:
                problems.append(f"{job_id} reached done {counts[job_id].get('done')} times")
            if view.digest != self.reference[entry["corpus"]]:
                problems.append(f"{job_id} digest differs from the checked run")
            stamp = stamps[job_id]
            payload = read_result(self.state, job_id) or {}
            run_s = stamp["done"] - stamp["running"]
            pipeline_s = float(payload.get("total_s", 0.0))
            job.layers = {
                "serve.pickup_s": stamp["submitted"] - entry["due_wall"],
                "serve.queue_s": stamp["running"] - stamp["submitted"],
                "serve.run_s": run_s,
                "serve.pipeline_s": pipeline_s,
                "serve.overhead_s": run_s - pipeline_s,
                "serve.notify_s": (
                    entry["due_wall"] + job.seconds - stamp["done"]
                ),
                "serve.journal_records": counts[job_id]["records"],
                "serve.gen_late_s": entry["late_s"],
                "phases": payload.get("phases", {}),
                "wall_s": job.seconds,
            }
            jobs.append(job)
        return jobs, tally, problems

    def close(self) -> None:
        self.stop_daemon()

