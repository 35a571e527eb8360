"""Tests of the independent output checker.

Run with ``python3 -m pytest perfbench``. The checker must accept a
correct output and reject a perturbed one; these tests build correct
outputs without the program, so a fault in the program cannot hide a
fault in the checker.
"""

from __future__ import annotations

import numpy as np
import pytest

from checker import check_kmeans, check_tfidf, tfidf_reference, tokens

TEXTS = [
    "The cat sat on the mat. Don't panic!",
    "A dog and a cat; the dog barked at 3 cats.",
    "Data-intensive analytics, data structures and DATA.",
    "Parallel k-means clusters the documents quickly.",
    "the the the cat",
    "Mat, mat, MAT: a mat is a mat.",
]


def _csr(texts):
    """A correct CSR matrix for ``texts``, built from the reference rows."""
    vocabulary, rows = tfidf_reference(texts)
    column = {term: i for i, term in enumerate(vocabulary)}
    indptr, indices, values = [0], [], []
    for terms, weights in rows:
        indices.extend(column[term] for term in terms)
        values.extend(weights)
        indptr.append(len(indices))
    return (
        vocabulary,
        np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int64),
        np.array(values, dtype=np.float64),
    )


def _lloyd(indptr, indices, values, n_cols, k, iters=50):
    """Plain dense Lloyd's iterations to a converged clustering."""
    n = len(indptr) - 1
    dense = np.zeros((n, n_cols))
    for row in range(n):
        lo, hi = indptr[row], indptr[row + 1]
        dense[row, indices[lo:hi]] = values[lo:hi]
    centroids = dense[:k].copy()
    assign = np.full(n, -1)
    history = []
    for _ in range(iters):
        dist = ((dense[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new = dist.argmin(axis=1)
        history.append(float(dist[np.arange(n), new].sum()))
        for c in range(k):
            if np.any(new == c):
                centroids[c] = dense[new == c].mean(axis=0)
        if np.array_equal(new, assign):
            break
        assign = new
    dist = ((dense[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return list(assign), centroids, float(dist[np.arange(n), assign].sum()), history


def test_tokens_follow_the_tokenizer_rules():
    assert tokens("Don't STOP-me now, 42x!") == ["dont", "stop", "me", "now", "42x"]
    assert tokens("a" * 65 + " ok") == ["ok"]
    assert tokens("café naïve") == ["caf", "na", "ve"]


def test_reference_matrix_passes():
    vocabulary, indptr, indices, values = _csr(TEXTS)
    assert check_tfidf(TEXTS, vocabulary, indptr, indices, values) == []


def test_perturbed_matrix_value_is_rejected():
    vocabulary, indptr, indices, values = _csr(TEXTS)
    values = values.copy()
    values[5] *= 1.0 + 1e-6
    problems = check_tfidf(TEXTS, vocabulary, indptr, indices, values)
    assert problems and "row" in problems[0]


def test_dropped_term_and_wrong_vocabulary_are_rejected():
    vocabulary, indptr, indices, values = _csr(TEXTS)
    assert check_tfidf(TEXTS, vocabulary[:-1], indptr, indices, values)
    short = indptr.copy()
    short[1:] -= 1
    short[0] = 0
    assert check_tfidf(TEXTS, vocabulary, short, indices[1:], values[1:])


@pytest.fixture
def clustering():
    vocabulary, indptr, indices, values = _csr(TEXTS)
    assign, centroids, inertia, history = _lloyd(
        indptr, indices, values, len(vocabulary), k=2
    )
    return indptr, indices, values, assign, centroids, inertia, history


def test_converged_clustering_passes(clustering):
    indptr, indices, values, assign, centroids, inertia, history = clustering
    assert check_kmeans(
        indptr, indices, values, assign, centroids, inertia, history, True
    ) == []


def test_swapped_assignment_is_rejected(clustering):
    indptr, indices, values, assign, centroids, inertia, history = clustering
    first = assign.index(0)
    second = assign.index(1)
    swapped = list(assign)
    swapped[first], swapped[second] = 1, 0
    problems = check_kmeans(
        indptr, indices, values, swapped, centroids, inertia, history, True
    )
    assert any("not the mean" in p for p in problems)
    assert any("nearest" in p for p in problems)


def test_wrong_inertia_and_rising_history_are_rejected(clustering):
    indptr, indices, values, assign, centroids, inertia, history = clustering
    problems = check_kmeans(
        indptr, indices, values, assign, centroids, inertia * 1.01,
        [inertia, inertia * 1.5], True,
    )
    assert any("recomputed" in p for p in problems)
    assert any("rose" in p for p in problems)
