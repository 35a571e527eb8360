"""End-to-end and per-layer metrics of a run, and the per-layer table.

The names, units and directions here are the ones ``BENCHMARK.json``
declares; ``test_metrics.py`` keeps the two in step.
"""

from __future__ import annotations

import statistics

from common import nearest_rank

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end", "per_layer", "print_table"]

MB = float(1 << 20)

END_TO_END = [
    ("docs_per_s", "docs/s", "higher"),
    ("repeat_p50_s", "s", "lower"),
    ("latency_p50_s", "s", "lower"),
    ("latency_p90_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

_PHASE_KEYS = (
    ("input+wc", "input_wc"),
    ("transform", "transform"),
    ("kmeans", "kmeans"),
    ("other", "other"),
)

_HOOKED_LAYERS = [
    "text.tokenize_s", "wordcount.count_s", "wordcount.merge_s",
    "tfidf.vocab_s", "tfidf.transform_s", "sparse.vector_s", "sparse.csr_s",
    "kmeans.seed_s", "kmeans.assign_s", "kmeans.merge_s",
    "exec.map_s", "exec.configure_s", "exec.shm_s",
    "cache.key_s", "cache.get_s", "cache.store_s",
    "tiles.write_s", "tiles.read_s",
]

#: The serve layers that lie outside the daemon's pipeline phases.
_SERVE_OUTSIDE = ("serve.pickup_s", "serve.queue_s", "serve.overhead_s", "serve.notify_s")

_SERVE_LAYERS = [
    "serve.pickup_s", "serve.queue_s", "serve.run_s", "serve.pipeline_s",
    "serve.overhead_s", "serve.notify_s", "serve.gen_late_s",
]

PER_LAYER = (
    [(f"pipeline.{key}_s", "s", "lower") for _, key in _PHASE_KEYS]
    + [(f"pipeline.{key}.unattributed_s", "s", "lower") for _, key in _PHASE_KEYS]
    + [(name, "s", "lower") for name in _HOOKED_LAYERS]
    + [
        ("kmeans.iters", "count", "lower"),
        ("exec.tasks", "count", "lower"),
        ("exec.pool_starts", "count", "lower"),
        ("exec.task_pickle_mb", "MB", "lower"),
        ("exec.result_pickle_mb", "MB", "lower"),
        ("exec.shm_mb", "MB", "lower"),
        ("exec.worker_busy_s", "s", "lower"),
        ("exec.queue_wait_s", "s", "lower"),
        ("exec.utilization", "ratio", "higher"),
        ("exec.worker_peak_rss_mb", "MB", "lower"),
        ("cache.serve_s", "s", "lower"),
        ("cache.hits", "count", "higher"),
        ("cache.misses", "count", "lower"),
        ("cache.shard_hits", "count", "higher"),
        ("cache.hit_ratio", "ratio", "higher"),
        ("cache.stored_mb", "MB", "lower"),
        ("tiles.write_mb", "MB", "lower"),
        ("tiles.read_mb", "MB", "lower"),
        ("tiles.evictions", "count", "lower"),
        ("tiles.peak_pinned_mb", "MB", "lower"),
    ]
    + [(name, "s", "lower") for name in _SERVE_LAYERS]
    + [
        ("serve.journal_records", "count", "lower"),
        ("trace.docs_per_s", "docs/s", "higher"),
        ("trace.untraced_docs_per_s", "docs/s", "higher"),
        ("trace.overhead_pct", "%", "lower"),
    ]
)


def _rate(jobs) -> float:
    seconds = sum(job.seconds for job in jobs)
    return sum(job.docs for job in jobs) / seconds if seconds > 0 else 0.0


def end_to_end(jobs, setup_s: list[float], peak_rss_mb: float) -> dict:
    """The end-to-end metrics of a run's completed jobs.

    ``repeat_p50_s`` is the median over jobs whose input was seen before;
    a workload that never repeats an input reports its median job.
    Latency is due time to result: a closed-loop job is due when the
    client sends it, so there it is the job's wall time.
    """
    times = [job.seconds for job in jobs]
    repeats = [job.seconds for job in jobs if job.kind == "repeat"] or times
    values = {
        "docs_per_s": _rate(jobs),
        "repeat_p50_s": statistics.median(repeats),
        "latency_p50_s": statistics.median(times),
        "latency_p90_s": nearest_rank(times, 0.9),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in END_TO_END
    }


def _phase_sums(traced) -> dict[str, float]:
    sums = {phase: 0.0 for phase, _ in _PHASE_KEYS}
    for job in traced:
        phases = job.layers.get("phases", {})
        for phase, _ in _PHASE_KEYS[:-1]:
            sums[phase] += float(phases.get(phase, 0.0))
        sums["other"] += job.layers["wall_s"] - sum(
            float(v) for v in phases.values()
        )
    return sums


def per_layer(jobs, tracer=None, worker_peak_rss_mb: float = 0.0) -> dict:
    """Per-job means of every per-layer metric over the traced jobs.

    Each phase's ``unattributed`` residual is its wall time minus the
    self time of every hooked layer that ran in it. Layers a workload
    never touches read 0.
    """
    done = [job for job in jobs if job.error is None]
    traced = [job for job in done if job.traced]
    untraced = [job for job in done if not job.traced]
    n = max(1, len(traced))
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    phases = _phase_sums(traced)
    attributed = tracer.phase_attributed() if tracer is not None else {}
    if tracer is not None:
        for layer, seconds in tracer.layer_totals().items():
            values[layer] = seconds / n
    for phase, key in _PHASE_KEYS:
        values[f"pipeline.{key}_s"] = phases[phase] / n
        values[f"pipeline.{key}.unattributed_s"] = (
            phases[phase] - attributed.get(phase, 0.0)
        ) / n

    def total(section: str, field: str) -> float:
        return sum(float(job.layers.get(section, {}).get(field, 0)) for job in traced)

    ipc = lambda field: total("ipc", field)  # noqa: E731
    busy = queue = capacity = 0.0
    for job in traced:
        for stats in job.layers.get("trace", {}).values():
            busy += stats["busy_s"]
            queue += stats["queue_wait_s"]
            capacity += stats["n_workers"] * stats["window_s"]
    hits, misses = total("cache", "hits"), total("cache", "misses")
    values.update({
        "kmeans.iters": sum(job.layers.get("iters", 0) for job in traced) / n,
        "exec.tasks": ipc("tasks") / n,
        "exec.pool_starts": (ipc("configures") + ipc("pool_restarts")) / n,
        "exec.task_pickle_mb": ipc("task_pickle_bytes") / MB / n,
        "exec.result_pickle_mb": ipc("result_pickle_bytes") / MB / n,
        "exec.shm_mb": (ipc("segment_bytes") + ipc("broadcast_buffer_bytes")) / MB / n,
        "exec.worker_busy_s": busy / n,
        "exec.queue_wait_s": queue / n,
        "exec.utilization": busy / capacity if capacity > 0 else 0.0,
        "exec.worker_peak_rss_mb": worker_peak_rss_mb,
        "cache.serve_s": total("cache", "serve_s") / n,
        "cache.hits": hits / n,
        "cache.misses": misses / n,
        "cache.shard_hits": total("cache", "shard_hits") / n,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.stored_mb": sum(job.layers.get("stored_bytes", 0) for job in traced) / MB / n,
        "tiles.write_mb": ipc("tile_write_bytes") / MB / n,
        "tiles.read_mb": total("tiles", "read_bytes") / MB / n,
        "tiles.evictions": total("tiles", "evictions") / n,
        "tiles.peak_pinned_mb": max(
            [job.layers.get("tiles", {}).get("peak_pinned_bytes", 0) for job in traced],
            default=0,
        ) / MB,
    })
    for name in _SERVE_LAYERS + ["serve.journal_records"]:
        values[name] = sum(job.layers.get(name, 0.0) for job in traced) / n
    if any("serve.run_s" in job.layers for job in traced):
        # The daemon runs without hooks: its phases stay unattributed,
        # and outside them the serve layers account for the job's time.
        values["pipeline.other.unattributed_s"] = values["pipeline.other_s"] - sum(
            values[name] for name in _SERVE_OUTSIDE
        )
    traced_rate = _rate(traced)
    untraced_rate = _rate(untraced) if untraced else traced_rate
    values["trace.docs_per_s"] = traced_rate
    values["trace.untraced_docs_per_s"] = untraced_rate
    values["trace.overhead_pct"] = (
        (untraced_rate / traced_rate - 1.0) * 100.0 if traced_rate > 0 else 0.0
    )
    return {
        name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER
    }


def print_table(workload: str, metrics: dict, tracer, n_traced: int, out) -> None:
    """The per-layer table: per phase, hooked self times and the residual."""
    value = lambda name: metrics[name]["value"]  # noqa: E731
    print(f"per-layer table: {workload} ({n_traced} traced jobs, mean per job)", file=out)
    print(f"  {'phase':<10} {'layer':<32} {'seconds':>10} {'share':>7}", file=out)
    by_phase = tracer.self_s if tracer is not None else {}
    for phase, key in _PHASE_KEYS:
        phase_s = value(f"pipeline.{key}_s")
        rows = sorted(
            ((layer, s / max(1, n_traced)) for (p, layer), s in by_phase.items() if p == phase),
            key=lambda row: -row[1],
        )
        if phase == "other" and value("serve.run_s"):
            rows = [(name, value(name)) for name in _SERVE_OUTSIDE]
        rows.append(("unattributed", value(f"pipeline.{key}.unattributed_s")))
        for layer, seconds in rows:
            share = 100.0 * seconds / phase_s if phase_s else 0.0
            print(f"  {phase:<10} {layer:<32} {seconds:>10.4f} {share:>6.1f}%", file=out)
        print(f"  {phase:<10} {'(phase total)':<32} {phase_s:>10.4f}", file=out)
    print("  counters:", file=out)
    skip = {f"pipeline.{key}_s" for _, key in _PHASE_KEYS} | {
        f"pipeline.{key}.unattributed_s" for _, key in _PHASE_KEYS
    } | set(_HOOKED_LAYERS)
    for name, unit, _ in PER_LAYER:
        if name not in skip:
            print(f"    {name:<30} {value(name):>12.4f} {unit}", file=out)
    print(
        f"  tracing overhead: {value('trace.docs_per_s'):.1f} docs/s traced vs "
        f"{value('trace.untraced_docs_per_s'):.1f} untraced "
        f"({value('trace.overhead_pct'):+.1f}%)",
        file=out,
    )
    if tracer is not None and tracer.missing:
        print(f"  hooks absent in this version: {', '.join(tracer.missing)}", file=out)
