"""Reference figures quoted in perfbench/README.md, measured afresh.

Usage (from the repository root)::

    python3 perfbench/figures.py [--pairs 6]

Prints, for the batch-seq input size (1,172 Mix documents):

* the cost of the term index ``build_vocabulary`` builds and the
  transform then drops, against the whole vocabulary step and phase;
* uncached against cold-cached job time, in alternating pairs, and how
  often a cold cached job builds the vocabulary;
* k-means iterations and the share of documents in the largest cluster
  with the default init at K=8.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.cache import PipelineCache  # noqa: E402
from repro.core.pipeline import run_pipeline  # noqa: E402
from repro.dicts import make_dict  # noqa: E402
from repro.exec.inline import SequentialBackend  # noqa: E402
from repro.exec.task import TaskCost  # noqa: E402
from repro.ops.tfidf import TfIdfOperator  # noqa: E402
from repro.text.synth import MIX_PROFILE, generate_corpus  # noqa: E402


def vocabulary_index(corpus) -> None:
    op = TfIdfOperator()
    wc = op.wordcount.run(corpus, backend=SequentialBackend())
    start = time.perf_counter()
    vocabulary, _, _ = op.build_vocabulary(wc, TaskCost())
    vocab_s = time.perf_counter() - start
    start = time.perf_counter()
    index = make_dict(op.transform_dict_kind, reserve=max(op.reserve, 1))
    for term_id, term in enumerate(vocabulary):
        index.put(term, term_id)
    index_s = time.perf_counter() - start
    start = time.perf_counter()
    op.transform_wordcount(wc, backend=SequentialBackend())
    transform_s = time.perf_counter() - start
    print(
        f"vocabulary: {len(vocabulary)} terms; build_vocabulary {vocab_s:.3f} s, "
        f"of which the dropped term index {index_s:.3f} s; "
        f"whole transform {transform_s:.3f} s"
    )


def cold_cache_pairs(corpus, pairs: int, work: str) -> None:
    calls = {"n": 0}
    original = TfIdfOperator.build_vocabulary

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return original(self, *args, **kwargs)

    ratios = []
    for pair in range(pairs):
        timings = {}
        order = ("uncached", "cold") if pair % 2 == 0 else ("cold", "uncached")
        for kind in order:
            cache = None
            if kind == "cold":
                cache = PipelineCache(os.path.join(work, f"cache-{pair}"))
                TfIdfOperator.build_vocabulary = counting
            calls["n"] = 0
            start = time.perf_counter()
            try:
                run_pipeline(corpus, backend=SequentialBackend(), cache=cache)
            finally:
                TfIdfOperator.build_vocabulary = original
            timings[kind] = time.perf_counter() - start
            if kind == "cold":
                builds = calls["n"]
        ratios.append(timings["cold"] / timings["uncached"])
        print(
            f"pair {pair}: uncached {timings['uncached']:.3f} s, cold cached "
            f"{timings['cold']:.3f} s ({ratios[-1]:.2f}x), "
            f"vocabulary built {builds}x"
        )
    print(f"cold/uncached: {min(ratios):.2f}x to {max(ratios):.2f}x")


def clustering(seeds) -> None:
    for seed in seeds:
        corpus = generate_corpus(MIX_PROFILE, scale=0.05, seed=seed)
        km = run_pipeline(corpus, backend=SequentialBackend()).kmeans
        top = max(km.cluster_sizes()) / len(km.assignments)
        print(
            f"seed {seed}: k-means {km.n_iters} iterations, largest of "
            f"{km.n_clusters} clusters holds {100 * top:.1f}% of documents"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pairs", type=int, default=6)
    args = parser.parse_args()
    corpus = generate_corpus(MIX_PROFILE, scale=0.05, seed=1)
    base = os.path.join(os.path.dirname(HERE), ".perfbench")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="figures-", dir=base)
    try:
        vocabulary_index(corpus)
        cold_cache_pairs(corpus, args.pairs, work)
        clustering(range(1, 6))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
