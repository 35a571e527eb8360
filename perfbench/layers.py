"""Per-layer timing from outside the program.

:class:`LayerTracer` replaces named functions of ``repro`` with timing
wrappers for the duration of a traced job and restores them afterwards,
so untraced jobs run the program's own code objects. Every wrapper
records its *self* time (its duration minus the time its wrapped
callees took), charged to the pipeline phase it ran in, so per-phase
self times add up and each phase's residual — the part no hooked layer
accounts for — can be reported as ``unattributed``.

Only calls on the thread that installed the hooks are timed: kernels
that a process backend runs in its workers are not seen here, and the
worker side is read from the program's own span trace instead.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

from common import process_peak_rss_mb

__all__ = ["HOOKS", "LayerTracer"]

#: (module, owner attribute path or "", function name, layer, phase).
#: Phases are named as ``run_pipeline`` reports them in
#: ``phase_seconds``; a call outside every phase entry point is charged
#: to ``other``.
#: ``layer`` None marks a phase entry point whose own glue stays in the
#: phase's unattributed residual; ``phase`` None inherits the caller's.
HOOKS = [
    ("repro.ops.wordcount", "WordCountStep", "run", "wordcount.merge_s", "input+wc"),
    ("repro.cache.pipeline_cache", "RunCacheSession", "wordcount", None, "input+wc"),
    ("repro.text.tokenizer", "Tokenizer", "tokenize", "text.tokenize_s", None),
    ("repro.ops.kernels", "", "count_chunk", "wordcount.count_s", None),
    ("repro.ops.tfidf", "TfIdfOperator", "transform_wordcount", None, "transform"),
    ("repro.ops.tfidf", "TfIdfOperator", "transform_wordcount_tiled", None, "transform"),
    ("repro.cache.pipeline_cache", "RunCacheSession", "transform", None, "transform"),
    ("repro.cache.pipeline_cache", "RunCacheSession", "transform_tiled", None, "transform"),
    ("repro.ops.tfidf", "TfIdfOperator", "build_vocabulary", "tfidf.vocab_s", None),
    ("repro.ops.kernels", "", "transform_chunk", "tfidf.transform_s", None),
    ("repro.sparse.vector", "SparseVector", "__init__", "sparse.vector_s", None),
    ("repro.sparse.vector", "SparseVector", "normalized", "sparse.vector_s", None),
    ("repro.sparse.matrix", "CsrMatrix", "from_rows", "sparse.csr_s", None),
    ("repro.ops.tfidf", "TfIdfOperator", "_append_tile", "sparse.csr_s", None),
    ("repro.ops.kmeans", "KMeansOperator", "fit", None, "kmeans"),
    ("repro.cache.pipeline_cache", "RunCacheSession", "kmeans_fit", None, "kmeans"),
    ("repro.ops.kmeans", "KMeansOperator", "_init_centroids", "kmeans.seed_s", None),
    ("repro.ops.kmeans", "KMeansOperator", "_init_centroids_tiled", "kmeans.seed_s", None),
    ("repro.ops.kmeans", "KMeansOperator", "_lloyd", "kmeans.merge_s", None),
    ("repro.ops.kernels", "", "assign_chunk", "kmeans.assign_s", None),
    ("repro.ops.kernels", "", "assign_block_span", "kmeans.assign_s", None),
    ("repro.ops.kernels", "", "assign_chunk_tiled", "kmeans.assign_s", None),
    ("repro.exec.inline", "ExecutionBackend", "map_stream", "exec.map_s", None),
    ("repro.exec.inline", "SequentialBackend", "map", "exec.map_s", None),
    ("repro.exec.process", "ProcessBackend", "map", "exec.map_s", None),
    ("repro.exec.process", "ProcessBackend", "map_stream", "exec.map_s", None),
    ("repro.exec.inline", "ExecutionBackend", "configure", "exec.configure_s", None),
    ("repro.exec.process", "ProcessBackend", "configure", "exec.configure_s", None),
    ("repro.exec.process", "ProcessBackend", "share_arrays", "exec.shm_s", None),
    ("repro.exec.process", "ProcessBackend", "open_broadcast", "exec.shm_s", None),
    ("repro.exec.inline", "ExecutionBackend", "broadcast", "exec.shm_s", None),
    ("repro.cache.pipeline_cache", "PipelineCache", "begin_run", "cache.key_s", None),
    ("repro.cache.store", "CacheStore", "get", "cache.get_s", None),
    ("repro.cache.store", "CacheStore", "put", "cache.store_s", None),
    ("repro.tiles.store", "TileStore", "append", "tiles.write_s", None),
    ("repro.tiles.store", "TileStore", "adopt_tile", "tiles.write_s", None),
    ("repro.tiles.store", "TileReader", "tile", "tiles.read_s", None),
]


class LayerTracer:
    """Installs the timing wrappers of :data:`HOOKS` and sums self times."""

    def __init__(self) -> None:
        #: (phase, layer) -> self seconds, summed over traced jobs.
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        #: Hooks whose target does not exist in this version of the program.
        self.missing: list[str] = []
        #: Every tile reader built while hooks were installed. The
        #: reader k-means streams through is not the matrix's own, so
        #: the result's spill stats alone would miss its reads.
        self.tile_readers: list = []
        #: Highest peak RSS (VmHWM, MB) of any process-pool worker,
        #: sampled just before each pool generation shuts down.
        self.worker_peak_rss_mb = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._thread = 0

    def _wrap(self, fn, layer: str | None, phase: str | None):
        stack = self._stack
        totals = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            frame = [phase or (stack[-1][0] if stack else "other"), 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if layer is not None:
                    totals[(frame[0], layer)] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return timed

    def install(self) -> None:
        """Wrap every hook target that exists (idempotent per job)."""
        if self._patches:
            return
        self._thread = threading.get_ident()
        self.missing = []
        for module_name, owner_path, name, layer, phase in HOOKS:
            owner = importlib.import_module(module_name)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            raw = vars(owner).get(name)
            if raw is None:
                self.missing.append(f"{module_name}.{owner_path}.{name}")
                continue
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, layer, phase))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, layer, phase))
            else:
                wrapped = self._wrap(raw, layer, phase)
            setattr(owner, name, wrapped)
            self._patches.append((owner, name, raw))

        from repro.tiles.store import TileReader

        original_init = vars(TileReader)["__init__"]
        readers = self.tile_readers

        @functools.wraps(original_init)
        def registering_init(reader, *args, **kwargs):
            original_init(reader, *args, **kwargs)
            readers.append(reader)

        TileReader.__init__ = registering_init
        self._patches.append((TileReader, "__init__", original_init))

        from repro.exec.process import ProcessBackend

        original_close = vars(ProcessBackend)["_close_pool"]

        @functools.wraps(original_close)
        def sampling_close(backend, *args, **kwargs):
            pool = getattr(backend, "_pool", None)
            for pid in getattr(pool, "_processes", None) or ():
                try:
                    rss = process_peak_rss_mb(pid)
                except OSError:  # the worker already exited
                    continue
                self.worker_peak_rss_mb = max(self.worker_peak_rss_mb, rss)
            return original_close(backend, *args, **kwargs)

        ProcessBackend._close_pool = sampling_close
        self._patches.append((ProcessBackend, "_close_pool", original_close))

    def take_tile_stats(self) -> dict:
        """Reads, evictions and pinning peak over the readers of one job."""
        readers, self.tile_readers[:] = list(self.tile_readers), []
        return {
            "read_bytes": sum(r.read_bytes for r in readers),
            "evictions": sum(r.evictions for r in readers),
            "peak_pinned_bytes": max(
                (r.peak_pinned_bytes for r in readers), default=0
            ),
        }

    def remove(self) -> None:
        """Restore every wrapped function."""
        for owner, name, raw in reversed(self._patches):
            setattr(owner, name, raw)
        self._patches = []
        self._stack.clear()

    def layer_totals(self) -> dict[str, float]:
        """Self seconds per layer, summed over phases."""
        totals: dict[str, float] = defaultdict(float)
        for (_, layer), seconds in self.self_s.items():
            totals[layer] += seconds
        return totals

    def phase_attributed(self) -> dict[str, float]:
        """Self seconds of all hooked layers per phase."""
        totals: dict[str, float] = defaultdict(float)
        for (phase, _), seconds in self.self_s.items():
            totals[phase] += seconds
        return totals
