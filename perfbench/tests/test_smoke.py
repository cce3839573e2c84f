"""A small run of every workload: each passes its correctness gate and
emits every metric BENCHMARK.json names."""

import json

import pytest

import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_metrics_the_benchmark_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    per_layer = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert per_layer == [(n, tracing.metric_unit(n)) for n in tracing.per_layer_names()]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(name):
    out = run.run_workload(name, seed=5, seconds=0.0, trace=True, smoke=True)
    assert out["problems"] == []
    assert out["repetitions"] == 2 and out["failed"] == 0 and out["cases"] > 0
    assert list(out["layers"]) == tracing.per_layer_names()
    e2e = run.end_to_end(out, [(0.25, 0.2), (0.5, 0.4), (0.75, 0.6)])
    assert e2e["setup_s"]["value"] == 0.4
    for metric in BENCHMARK["end_to_end"]:
        assert e2e[metric["name"]]["unit"] == metric["unit"]
        assert e2e[metric["name"]]["value"] > 0
    if name == "exhaustive-exact":
        assert out["layers"]["harness.exhaustive.hom_hit_ratio"] > 0
        assert out["layers"]["harness.exhaustive.triples"] >= out["cases"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_compares_two_verdicts(name):
    out = run.run_workload(name, seed=5, seconds=0.0, trace=False, smoke=True)
    assert out["problems"] == [] and out["deterministic"]
    assert out["repetitions"] == 2 and out["layers"] is None


def test_gate_rejects_failures_and_empty_reports():
    result = {"ok": False, "reports": [
        {"instance": "sets", "law": "kleisli-laws", "seed": 1, "cases": 3,
         "failures": 2, "max_residual": 1.0,
         "witnesses": [{"case": 0, "detail": "exception: ValueError()"},
                       {"case": 1, "detail": "law violated"}]},
        {"instance": "sets", "law": "coincidence", "seed": 1, "cases": 0,
         "failures": 0, "max_residual": 0.0, "witnesses": []}]}
    verdict = run.gate(result, [("sets", "quotient-adjunction", 0, 5)])
    assert verdict["exceptions"] == 1 and verdict["violations"] == 1
    assert len(verdict["problems"]) == 4


def test_census_finds_the_nondet_triple_over_the_cap():
    sweeps = [("nondet", which, {"max_size": 4}, 0) for which in workloads.DIRECTIONS]
    census = workloads.exhaustive_census(sweeps)
    assert census["triples"] == 420
    assert census["skipped_over_cap"] == 2
    assert census["expected"] == [("nondet", "quotient-adjunction", 0, 209),
                                  ("nondet", "comprehension-adjunction", 0, 209)]
