"""The traced run's per-layer counts repeat exactly.

Run from the root of a checkout with `python3 -m pytest perfbench`
(about a minute and a half: two traced passes of each workload).
"""

import json
import time

import pytest

from run import ROOT, WORKDIR, spawn
from tracing import summarize
from workloads import WORKLOADS

# Counts when the benchmark was added; a change that moves one on
# purpose updates it here and says so.
PINNED = {
    "battery-block6": {
        "contract.evaluate_calls": 325,
        "contract.mark_matrix_calls": 1477,
        "graphs.canonical_form_calls": 4327,
        "potentials.enumerate_calls": 72,
        "potentials.piece_calls": 322,
        "relations.checks": 17,
        "relations.failed": 0,
    },
    "battery-wide": {
        "contract.evaluate_calls": 22,
        "graphs.canonical_form_calls": 22,
        "poly.partial_calls": 57128,
        "relations.checks": 17,
        "relations.failed": 0,
    },
    "classes-genus2": {
        "contract.evaluate_calls": 195,
        "graphs.canonical_form_calls": 25200 + 1710,
        "potentials.classes": 83 + 112,
        "relations.checks": 0,
    },
}


def traced_counts(workload, seed):
    workdir = WORKDIR / "test"
    workdir.mkdir(parents=True, exist_ok=True)
    algebra = workload.write_inputs(ROOT, workdir, seed)
    spans = workdir / f"spans-{seed}.json"
    report = spawn(["axioms", "--algebra", algebra, "--json"],
                   workload.commands(algebra), time.monotonic() + 170, spans)
    assert report is not None
    assert workload.failed_operations(report["outputs"]) == 0
    trace = json.loads(spans.read_text())
    return {name: value
            for name, value in summarize(trace["spans"], trace["counts"]).items()
            if not name.endswith(("_s", "_s.max"))}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_and_match_pins(name):
    workload = WORKLOADS[name]
    first = traced_counts(workload, 1)
    second = traced_counts(workload, 2)
    assert first == second
    for metric, value in PINNED[name].items():
        assert first[metric] == value, metric
