"""The three in-process workloads: batch-seq, batch-procs, repeat-tiled.

Each is a closed loop: one client runs a job, waits for its result,
captures the output outside the timed region, and sends the next, until
the run's measuring window has passed. Inputs come from
``repro.text.synth`` before the window opens, seeded from the run's
``--seed``; the program only ever sees the generated corpora.

Inputs are drawn from a fixed-size pool. A run that outpaces its pool
starts another pass over it: on batch-seq and batch-procs nothing is
cached, so a second pass costs what the first did; repeat-tiled starts
each pass with an empty cache, so every pass carries the same traffic.

Generating the inputs and checking the outputs happen outside the
measured window, on two worker processes, to keep a run short.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor

from repro.cache import PipelineCache
from repro.core.pipeline import run_pipeline
from repro.exec.inline import SequentialBackend
from repro.exec.process import ProcessBackend
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.text.corpus import Corpus
from repro.text.synth import (
    MIX_PROFILE,
    NSF_ABSTRACTS_PROFILE,
    generate_corpus,
    generate_document_text,
)

from common import Job, capture_output, check_capture, remove_quietly

__all__ = ["BATCH_WORKLOADS", "Workload", "make_backend", "run_closed_loop", "check_jobs"]

BATCH_WORKLOADS = ("batch-seq", "batch-procs", "repeat-tiled")
#: Documents per batch-seq job (Mix at scale 0.05) and batch-procs job
#: (NSF at scale 0.012).
BATCH_SEQ_DOCS = 1172
BATCH_PROCS_DOCS = 1218
#: Documents per repeat-tiled base corpus: small enough that a run
#: holds several rounds, so its percentiles rest on more samples.
REPEAT_DOCS = 240
#: Documents replaced by a localized edit, all inside one 32-doc shard.
EDIT_DOCS = 3
#: Tile-plane budget for repeat-tiled: below the ~1.1 MB matrix of a
#: 240-doc Mix corpus, so every transform spills and k-means streams.
REPEAT_BUDGET = 1 << 19
#: Distinct inputs (rounds) generated per run.
POOL = {"batch-seq": 8, "batch-procs": 4, "repeat-tiled": 6}
#: Documents of the untimed warm-up job that loads lazy imports and
#: first-call paths before the window opens.
WARMUP_DOCS = 64
#: Worker processes for input generation and output checks.
HELPERS = 2


def make_backend(name: str):
    """The execution backend a workload's jobs run on."""
    if name == "batch-procs":
        return ProcessBackend(os.cpu_count() or 1, shm=True)
    return SequentialBackend()


def make_kmeans(name: str) -> KMeansOperator:
    if name == "batch-procs":
        return KMeansOperator(n_clusters=32, init="kmeans++")
    return KMeansOperator()


def _corpus(profile, n_docs: int, seed: int) -> Corpus:
    return generate_corpus(profile, scale=n_docs / profile.n_docs, seed=seed)


def _edited(base: Corpus, seed: int, rng: random.Random) -> Corpus:
    """``base`` with ``EDIT_DOCS`` adjacent documents of one shard rewritten."""
    shard = rng.randrange(len(base) // 32)
    first = shard * 32 + rng.randrange(32 - EDIT_DOCS + 1)
    edited = Corpus(name=f"{base.name}-edit")
    for index, doc in enumerate(base):
        text = doc.text
        if first <= index < first + EDIT_DOCS:
            text = generate_document_text(MIX_PROFILE, index, seed=seed)
        edited.add(doc.name, text)
    return edited


def _round_inputs(name: str, seed: int, r: int):
    """Corpora and steps of round ``r``: ``({key: corpus}, [(kind, key)])``."""
    base_seed = seed * 1000 + r
    if name == "batch-seq":
        return {f"m{r}": _corpus(MIX_PROFILE, BATCH_SEQ_DOCS, base_seed)}, [("first", f"m{r}")]
    if name == "batch-procs":
        return (
            {f"n{r}": _corpus(NSF_ABSTRACTS_PROFILE, BATCH_PROCS_DOCS, base_seed)},
            [("first", f"n{r}")],
        )
    base = _corpus(MIX_PROFILE, REPEAT_DOCS, base_seed)
    rng = random.Random(f"perfbench/{name}/{seed}/{r}")
    edit = _edited(base, base_seed + 500, rng)
    b, e = f"b{r}", f"e{r}"
    # Four repeats in six jobs put the run's median three quarters into
    # the repeat class and its p90 inside the first-seen class, away
    # from the edges where one job more or less would swap classes.
    steps = [
        ("first", b), ("repeat", b), ("edit", e),
        ("repeat", e), ("repeat", b), ("repeat", e),
    ]
    return {b: base, e: edit}, steps


def _check_input(name: str, key: str, corpus: Corpus, output: str | None):
    """Check one distinct input; returns ``(key, digest, problems)``.

    Batch workloads check the job's own captured output. repeat-tiled
    runs one uncached, untiled reference and checks that instead, so its
    cached and tiled jobs must equal a run that used neither.
    """
    texts = [doc.text for doc in corpus]
    if output is not None:
        return key, None, check_capture(output, texts)
    output = os.path.join(os.environ["TMPDIR"], f"ref-{key}.npz")
    result = run_pipeline(
        corpus, backend=SequentialBackend(),
        tfidf=TfIdfOperator(), kmeans=make_kmeans(name),
    )
    digest = capture_output(result, output)
    problems = check_capture(output, texts)
    remove_quietly(output)
    return key, digest, problems


def _helpers() -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        HELPERS, mp_context=multiprocessing.get_context("spawn")
    )


class Workload:
    """Inputs, backend and per-job settings of one in-process workload."""

    def __init__(self, name: str, seed: int, work: str) -> None:
        if name not in BATCH_WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.work = work
        self.memory_budget = REPEAT_BUDGET if name == "repeat-tiled" else None
        self.corpora: dict[str, Corpus] = {}
        #: Rounds of (kind, corpus key) steps; a batch round is one job.
        self.rounds: list[list[tuple[str, str]]] = []
        with _helpers() as pool:
            futures = [
                pool.submit(_round_inputs, name, seed, r) for r in range(POOL[name])
            ]
            for future in futures:
                corpora, steps = future.result()
                self.corpora.update(corpora)
                self.rounds.append(steps)
        profile = NSF_ABSTRACTS_PROFILE if name == "batch-procs" else MIX_PROFILE
        self.warmup = _corpus(profile, WARMUP_DOCS, seed * 1000 + 999)
        self.backend = make_backend(name)

    def fresh_cache(self, label: str) -> PipelineCache | None:
        """A new, empty result cache for repeat-tiled (else ``None``)."""
        if self.name != "repeat-tiled":
            return None
        return PipelineCache(os.path.join(self.work, f"cache-{label}"))

    def run(self, corpus: Corpus, cache, *, trace: bool):
        return run_pipeline(
            corpus,
            backend=self.backend,
            tfidf=TfIdfOperator(),
            kmeans=make_kmeans(self.name),
            cache=cache,
            memory_budget=self.memory_budget,
            trace=trace,
        )

    def close(self) -> None:
        self.backend.close()


def _layer_record(result, seconds: float, cache, tracer) -> dict:
    """The program's own counters for one traced job."""
    record = result.to_record()
    return {
        "wall_s": seconds,
        "phases": record["phases"],
        "ipc": (record["ipc"] or {}).get("total", {}),
        "trace": record["trace"] or {},
        "cache": record["cache"] or {},
        "stored_bytes": cache.store.total_bytes if cache is not None else 0,
        "tiles": tracer.take_tile_stats(),
        "iters": result.kmeans.n_iters,
    }


def _release(result) -> None:
    close = getattr(result.tfidf.matrix, "close", None)
    if close is not None:
        close()


def run_closed_loop(load: Workload, seconds: float, tracer=None) -> list[Job]:
    """Run whole rounds until ``seconds`` of wall time have passed.

    With a ``tracer``, rounds alternate untraced and traced (hooks
    installed and the program's span tracing on), so the traced and
    untraced rates come from the same stretch of time.
    """
    _release(load.run(load.warmup, load.fresh_cache("warmup"), trace=tracer is not None))
    jobs: list[Job] = []
    cache = None
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        if index % len(load.rounds) == 0:
            cache = load.fresh_cache(f"pass{index // len(load.rounds)}")
        traced = tracer is not None and index % 2 == 1
        for kind, key in load.rounds[index % len(load.rounds)]:
            corpus = load.corpora[key]
            job = Job(kind=kind, key=key, docs=len(corpus), traced=traced)
            stored_before = cache.store.total_bytes if cache is not None else 0
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                result = load.run(corpus, cache, trace=traced)
                job.seconds = time.perf_counter() - t0
            except Exception as exc:  # a failed job is counted, not timed
                job.error = f"{type(exc).__name__}: {exc}"
                jobs.append(job)
                continue
            finally:
                if traced:
                    tracer.remove()
            if traced:
                job.layers = _layer_record(result, job.seconds, cache, tracer)
                job.layers["stored_bytes"] -= stored_before
            job.output = os.path.join(load.work, f"out-{len(jobs)}.npz")
            job.digest = capture_output(result, job.output)
            job.pinned_peak = (result.tiles or {}).get("peak_pinned_bytes", 0)
            _release(result)
            jobs.append(job)
        index += 1
    return jobs


def check_jobs(load: Workload, jobs: list[Job]) -> list[str]:
    """Check every job's output, after the measured window.

    Each distinct input is checked once by the independent checker, and
    every job on that input must match the checked output bit for bit.
    """
    firsts: dict[str, Job] = {}
    for job in jobs:
        if job.error is None:
            firsts.setdefault(job.key, job)
    reference = load.name == "repeat-tiled"
    problems: list[str] = []
    expected: dict[str, str] = {}
    with _helpers() as pool:
        futures = [
            pool.submit(
                _check_input, load.name, key, load.corpora[key],
                None if reference else job.output,
            )
            for key, job in firsts.items()
        ]
        for future in futures:
            key, digest, found = future.result()
            expected[key] = digest or firsts[key].digest
            problems += [f"{key}: {p}" for p in found]
    budget = load.memory_budget
    for job in jobs:
        if budget is not None and job.pinned_peak > budget:
            problems.append(
                f"{job.kind} job on {job.key}: tile pinning peaked at "
                f"{job.pinned_peak} bytes, over the {budget}-byte budget"
            )
        if job.error is None and job.digest != expected[job.key]:
            problems.append(
                f"{job.kind} job on {job.key} differs from the checked output"
            )
        if job.output is not None:
            remove_quietly(job.output)
    return problems
