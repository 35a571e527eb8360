"""``BENCHMARK.json`` declares exactly the metrics the benchmark reports."""

from __future__ import annotations

import json
import os

from report import END_TO_END, PER_LAYER

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCHMARK.json")


def test_declared_metrics_match_the_reported_ones():
    with open(BENCHMARK, encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]
    ] == [tuple(m) for m in END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == [tuple(m) for m in PER_LAYER]
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
