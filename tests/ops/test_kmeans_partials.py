"""Sparse per-block k-means partials: exactness, thread safety, IPC volume.

``kernels._assign_block`` returns each block's partial centroid
accumulator as sorted unique flat keys ``cluster * V + term`` plus their
sums, and ``KMeansOperator._lloyd`` scatters them into the merged buffer
in fixed block order. These tests hold that shape to three promises:

* scattering a sparse partial gives the dense K×V partial bit for bit
  (checked against a dense reference kernel kept only here);
* the kernel keeps no shared state, so every backend reproduces the
  sequential fit byte for byte;
* the k-means phase's result pickles scale with nnz, not with K×V, and
  the planner's calibration probe prices them within a small factor.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.inline import SequentialBackend, ThreadBackend
from repro.exec.process import ProcessBackend
from repro.exec.shm import shm_available
from repro.ops import kernels
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.plan import CalibrationStore, PhasePlan, PhaseWorkload, RealCostModel
from repro.text.synth import NSF_ABSTRACTS_PROFILE, generate_corpus


def dense_assign_block(
    start, stop, centroids, centroid_sq_norms, indices, values, sq_norms
):
    """The former dense kernel: a K×V partial accumulated per document."""
    K = centroids.shape[0]
    partial = np.zeros_like(centroids)
    counts = np.zeros(K, dtype=np.int64)
    assignments: list[int] = []
    inertia = 0.0
    for doc in range(start, stop):
        idx = indices[doc]
        val = values[doc]
        if len(idx):
            dots = centroids[:, idx] @ val
        else:
            dots = np.zeros(K)
        distances = sq_norms[doc] - 2.0 * dots + centroid_sq_norms
        best = int(np.argmin(distances))
        assignments.append(best)
        inertia += float(max(0.0, distances[best]))
        partial[best, idx] += val
        counts[best] += 1
    return assignments, partial, counts, inertia


def block_args(docs, centroids, start=0, stop=None):
    """Kernel arguments for ``docs`` (``{term: value}`` dicts)."""
    indices = [np.array(sorted(doc), dtype=np.intp) for doc in docs]
    values = [
        np.array([doc[term] for term in sorted(doc)], dtype=np.float64)
        for doc in docs
    ]
    sq_norms = [float(val @ val) for val in values]
    centroids = np.asarray(centroids, dtype=np.float64)
    centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)
    stop = len(docs) if stop is None else stop
    return (start, stop, centroids, centroid_sq_norms, indices, values, sq_norms)


def assert_matches_dense(args):
    """Run both kernels on ``args``; the scattered sparse partial must be
    the dense partial bit for bit. Returns the sparse result."""
    assignments, keys, sums, counts, inertia = kernels._assign_block(*args)
    ref_assignments, ref_partial, ref_counts, ref_inertia = dense_assign_block(
        *args
    )
    assert keys.dtype == np.int64 and sums.dtype == np.float64
    assert np.all(np.diff(keys) > 0), "keys must be sorted and unique"
    scattered = np.zeros_like(ref_partial)
    scattered.reshape(-1)[keys] += sums
    assert scattered.tobytes() == ref_partial.tobytes()
    assert assignments == ref_assignments
    assert counts.tobytes() == ref_counts.tobytes()
    assert np.float64(inertia).tobytes() == np.float64(ref_inertia).tobytes()
    return assignments, keys, sums, counts, inertia


values = st.one_of(
    st.just(0.0),
    st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.1, 0.2, 0.3, 1e-300, 1e16]),
)


@st.composite
def blocks(draw):
    K = draw(st.integers(1, 4))
    V = draw(st.integers(1, 12))
    docs = draw(
        st.lists(
            st.dictionaries(st.integers(0, V - 1), values, max_size=V),
            max_size=20,
        )
    )
    centroids = draw(
        st.lists(
            st.lists(values, min_size=V, max_size=V), min_size=K, max_size=K
        )
    )
    start = draw(st.integers(0, len(docs)))
    stop = draw(st.integers(start, len(docs)))
    return block_args(docs, centroids, start, stop)


class TestSparsePartialIsDenseBitForBit:
    @settings(max_examples=300, deadline=None)
    @given(blocks())
    def test_scatter_equals_dense_partial(self, args):
        assert_matches_dense(args)

    def test_empty_block_range(self):
        docs = [{0: 0.5, 2: 0.25}, {1: 1.0}]
        assignments, keys, sums, counts, inertia = assert_matches_dense(
            block_args(docs, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], start=1, stop=1)
        )
        assert assignments == [] and inertia == 0.0
        assert keys.size == 0 and sums.size == 0
        assert counts.tolist() == [0, 0]

    def test_empty_rows(self):
        docs = [{}, {1: 0.5}, {}, {}]
        assignments, keys, sums, counts, _ = assert_matches_dense(
            block_args(docs, [[1.0, 0.0], [0.0, 1.0]])
        )
        assert counts.sum() == 4
        assert keys.tolist() == [assignments[1] * 2 + 1]
        assert sums.tolist() == [0.5]

    def test_one_cluster_with_overlapping_terms_sums_in_document_order(self):
        # Every document is closest to cluster 2 and they share terms 0-2;
        # 0.1 + 0.2 + 0.3 rounds differently by grouping, so this pins the
        # per-coordinate document order.
        docs = [{0: 0.1, 1: 0.3}, {0: 0.2, 1: 0.2, 2: 0.5}, {0: 0.3, 1: 0.1}]
        centroids = [[0.0, 0.0, 0.0, 9.0], [0.0, 0.0, 9.0, 9.0], [0.2, 0.2, 0.2, 0.0]]
        assignments, keys, sums, counts, _ = assert_matches_dense(
            block_args(docs, centroids)
        )
        assert assignments == [2, 2, 2]
        assert counts.tolist() == [0, 0, 3]
        assert keys.tolist() == [8, 9, 10]
        assert sums[0] == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        assert sums[1] == (0.3 + 0.2) + 0.1

    def test_zero_valued_entries_keep_their_keys(self):
        docs = [{0: 0.0, 3: 0.0}, {0: 0.0, 1: 0.75}]
        _, keys, sums, _, _ = assert_matches_dense(
            block_args(docs, [[0.0, 1.0, 0.0, 0.0]])
        )
        assert keys.tolist() == [0, 1, 3]
        assert sums.tolist() == [0.0, 0.75, 0.0]


# -- backend-level: race guard, IPC volume, planner pricing -------------------------

N_DOCS = 640
K = 32


@pytest.fixture(scope="module")
def nsf_corpus():
    corpus = generate_corpus(
        NSF_ABSTRACTS_PROFILE, scale=N_DOCS / NSF_ABSTRACTS_PROFILE.n_docs, seed=7
    )
    assert len(corpus) >= 600
    return corpus


@pytest.fixture(scope="module")
def nsf_matrix(nsf_corpus):
    return TfIdfOperator().fit_transform(nsf_corpus).matrix


def fit(matrix, backend):
    """Fit K=32 k-means++ on ``backend``; return the result and its k-means IPC."""
    try:
        result = KMeansOperator(n_clusters=K, init="kmeans++").fit(
            matrix, backend=backend
        )
        return result, backend.ipc.phase_stats("kmeans")
    finally:
        backend.close()


@pytest.fixture(scope="module")
def sequential_fit(nsf_matrix):
    result, _ = fit(nsf_matrix, SequentialBackend())
    return result


@pytest.fixture(scope="module")
def shm_fit(nsf_matrix):
    if not shm_available():
        pytest.skip("no POSIX shm")
    return fit(nsf_matrix, ProcessBackend(2, shm=True))


def fit_bytes(result):
    return (
        result.centroids.tobytes(),
        np.asarray(result.assignments, dtype=np.int64).tobytes(),
        np.asarray(result.inertia_history, dtype=np.float64).tobytes(),
    )


class TestRaceGuard:
    """Concurrent blocks must not share kernel state: a module-level
    scratch buffer reused across calls would interleave under threads."""

    def test_threads_match_sequential(self, nsf_matrix, sequential_fit):
        # More threads than cores, switching often, so blocks interleave.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result, _ = fit(nsf_matrix, ThreadBackend(4))
        finally:
            sys.setswitchinterval(interval)
        assert fit_bytes(result) == fit_bytes(sequential_fit)

    def test_processes_shm_match_sequential(self, shm_fit, sequential_fit):
        result, _ = shm_fit
        assert fit_bytes(result) == fit_bytes(sequential_fit)

    def test_processes_pickled_match_sequential(self, nsf_matrix, sequential_fit):
        result, _ = fit(nsf_matrix, ProcessBackend(2, shm=False))
        assert fit_bytes(result) == fit_bytes(sequential_fit)


class TestResultBytesScaleWithNnz:
    def test_kmeans_result_pickles_far_below_dense_partials(self, nsf_matrix, shm_fit):
        result, ipc = shm_fit
        grain = max(32, -(-N_DOCS // 64))  # KMeansOperator's block grain
        n_blocks = -(-N_DOCS // grain)
        dense_bytes = n_blocks * K * nsf_matrix.n_cols * 8 * result.n_iters
        assert 0 < ipc.result_pickle_bytes < 0.05 * dense_bytes

    def test_probe_prices_kmeans_results_within_3x(self, nsf_corpus, shm_fit):
        # What the planner charges a processes-2+shm k-means phase for
        # result bytes, against what the run actually pickled.
        result, ipc = shm_fit
        store = CalibrationStore.probe(nsf_corpus)
        estimate = RealCostModel(store, cpu_count=2).predict(
            PhaseWorkload("kmeans", n_docs=N_DOCS, iterations=result.n_iters),
            PhasePlan("kmeans", "processes", workers=2, shm=True),
        )
        # With shm, k-means tasks are block tokens the probe prices at 0
        # bytes, so the pickle term is the result bytes alone.
        assert store.phases["kmeans"].shm_task_bytes_per_doc == 0.0
        ns_per_byte = store.pickle_ns_per_byte + store.unpickle_ns_per_byte
        predicted = estimate.breakdown["pickle"] / (ns_per_byte * 1e-9)
        ratio = predicted / ipc.result_pickle_bytes
        assert 1 / 3 <= ratio <= 3, f"predicted/measured = {ratio:.2f}"
