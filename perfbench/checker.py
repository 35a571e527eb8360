"""Independent checker for the pipeline's outputs.

Shares no code with ``repro``: it imports nothing from the package and
re-derives every expected value from the raw document texts and from
the definitions in the tokenizer and operator documentation.

* TF-IDF: tokens are the runs of ASCII letters and digits, lower-cased,
  after apostrophes are deleted (``don't`` -> ``dont``); anything else
  separates words, and tokens longer than 64 characters are dropped.
  A document's weight for a term is ``count * ln(N / df)``, and each row
  is scaled to unit L2 norm (an all-zero row stays zero). Every term of
  a document is stored, zero weights included, and the vocabulary is the
  sorted set of all terms.
* K-means: each non-empty cluster's centroid is the mean of its member
  rows; when the run reports convergence, every document sits in a
  nearest cluster and the reported inertia equals the recomputed sum of
  squared distances; the per-iteration inertia never increases.

Each check returns a list of problems (empty when the output is right),
so a caller can report every fault rather than the first.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np

__all__ = [
    "MAX_TOKEN_LENGTH",
    "tokens",
    "tfidf_reference",
    "check_tfidf",
    "check_kmeans",
]

MAX_TOKEN_LENGTH = 64
_WORD = re.compile(r"[A-Za-z0-9]+")
#: Relative tolerance for recomputed floating-point values: the program
#: and the checker sum in different orders, so the last bits may differ.
_RTOL = 1e-9
_ATOL = 1e-12


def tokens(text: str) -> list[str]:
    """The token list of one document."""
    text = text.replace("'", "")
    if text.isascii():
        words = _WORD.findall(text.lower())
    else:
        words = [word.lower() for word in _WORD.findall(text)]
    if max(map(len, words), default=0) > MAX_TOKEN_LENGTH:
        words = [word for word in words if len(word) <= MAX_TOKEN_LENGTH]
    return words


def tfidf_reference(texts: list[str]):
    """Recompute the TF-IDF matrix of ``texts`` from scratch.

    Returns ``(vocabulary, rows)``: the sorted vocabulary, and per
    document its ``(terms, weights)`` with terms in sorted order and
    weights already normalized.
    """
    counts = [Counter(tokens(text)) for text in texts]
    df: Counter = Counter()
    for tf in counts:
        df.update(tf.keys())
    n_docs = len(texts)
    idf = {term: math.log(n_docs / n) for term, n in df.items()}
    rows = []
    for tf in counts:
        terms = sorted(tf)
        weights = np.fromiter(map(tf.__getitem__, terms), float, len(terms))
        weights *= np.fromiter(map(idf.__getitem__, terms), float, len(terms))
        norm = math.sqrt(float(weights @ weights))
        if norm > 0.0:
            weights /= norm
        rows.append((terms, weights))
    return sorted(df), rows


def check_tfidf(texts, vocabulary, indptr, indices, values) -> list[str]:
    """Problems in a CSR TF-IDF matrix (row ``i`` = document ``i``)."""
    expected_vocab, expected_rows = tfidf_reference(list(texts))
    if list(vocabulary) != expected_vocab:
        return [
            f"vocabulary differs: {len(vocabulary)} terms, "
            f"expected {len(expected_vocab)}"
        ]
    if len(indptr) != len(expected_rows) + 1:
        return [f"{len(indptr) - 1} rows, expected {len(expected_rows)}"]
    column = {term: i for i, term in enumerate(expected_vocab)}
    expected_indptr = np.cumsum([0] + [len(terms) for terms, _ in expected_rows])
    indptr = np.asarray(indptr, dtype=np.int64)
    if not np.array_equal(indptr, expected_indptr):
        doc = int(np.flatnonzero(indptr != expected_indptr)[0]) - 1
        return [f"row {doc}: term count differs from the recomputation"]
    expected_indices = np.fromiter(
        (column[term] for terms, _ in expected_rows for term in terms),
        np.int64, int(expected_indptr[-1]),
    )
    expected_values = np.concatenate(
        [weights for _, weights in expected_rows] or [np.zeros(0)]
    )
    problems: list[str] = []
    row_of_entry = np.repeat(np.arange(len(expected_rows)), np.diff(indptr))
    wrong_term = np.flatnonzero(np.asarray(indices) != expected_indices)
    if len(wrong_term):
        problems.append(f"row {row_of_entry[wrong_term[0]]}: term set differs")
    far = ~np.isclose(
        np.asarray(values, dtype=np.float64), expected_values,
        rtol=_RTOL, atol=_ATOL,
    )
    if far.any():
        problems.append(
            f"row {row_of_entry[np.flatnonzero(far)[0]]}: "
            f"{int(far.sum())} weight(s) differ from tf * ln(N/df), normalized"
        )
    return problems


def _row_distances(indptr, indices, values, centroids, first, last):
    """Squared distances of rows ``first:last`` to every centroid (K x n)."""
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    lo, hi = int(indptr[first]), int(indptr[last])
    cols = indices[lo:hi]
    vals = values[lo:hi]
    gathered = centroids[:, cols]
    # ||x - c||^2 = ||c||^2 + sum over the row's columns of
    # (x_j - c_j)^2 - c_j^2: only the columns the row touches differ
    # from the all-zero case.
    per_entry = (vals[None, :] - gathered) ** 2 - gathered**2
    out = np.repeat(c_sq[:, None], last - first, axis=1)
    row_of_entry = np.repeat(
        np.arange(last - first), np.diff(indptr[first : last + 1])
    )
    for k in range(centroids.shape[0]):
        out[k] += np.bincount(
            row_of_entry, weights=per_entry[k], minlength=last - first
        )
    return out


def check_kmeans(
    indptr,
    indices,
    values,
    assignments,
    centroids,
    inertia: float,
    inertia_history,
    converged: bool,
    block_rows: int = 256,
) -> list[str]:
    """Problems in a clustering of the CSR matrix ``(indptr, indices, values)``."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    assign = np.asarray(assignments, dtype=np.int64)
    n_docs = len(indptr) - 1
    n_clusters = centroids.shape[0]
    problems: list[str] = []
    if len(assign) != n_docs:
        return [f"{len(assign)} assignments for {n_docs} documents"]
    if n_docs and (assign.min() < 0 or assign.max() >= n_clusters):
        return ["assignment outside 0..K-1"]

    counts = np.bincount(assign, minlength=n_clusters)
    sums = np.zeros_like(centroids)
    row_of_entry = np.repeat(np.arange(n_docs), np.diff(indptr))
    np.add.at(sums, (assign[row_of_entry], indices), values)
    for k in np.flatnonzero(counts):
        mean = sums[k] / counts[k]
        if not np.allclose(centroids[k], mean, rtol=_RTOL, atol=_ATOL):
            problems.append(f"cluster {k}: centroid is not the mean of its members")

    history = [float(h) for h in inertia_history]
    for before, after in zip(history, history[1:]):
        if after > before + _ATOL + _RTOL * abs(before):
            problems.append(f"inertia rose from {before!r} to {after!r}")
            break

    if converged:
        total = 0.0
        for first in range(0, n_docs, block_rows):
            last = min(n_docs, first + block_rows)
            dist = _row_distances(indptr, indices, values, centroids, first, last)
            mine = dist[assign[first:last], np.arange(last - first)]
            best = dist.min(axis=0)
            slack = _ATOL + _RTOL * np.maximum(1.0, np.abs(best))
            far = np.flatnonzero(mine > best + slack)
            if len(far):
                problems.append(
                    f"document {first + int(far[0])} is not in its nearest cluster"
                )
            total += float(np.maximum(mine, 0.0).sum())
        if not math.isclose(total, inertia, rel_tol=1e-7, abs_tol=1e-9):
            problems.append(f"inertia {inertia!r} != recomputed {total!r}")
    return problems
