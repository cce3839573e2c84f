"""bench/record.py reads its counts from the law reports, and
perfbench/tracing.py wraps effectus functions by name, so a renamed
harness field or function fails here rather than at the next recording."""

import importlib.util
import statistics
import sys
from pathlib import Path

import pytest

import effectus.cli  # noqa: F401  (the tracer wraps cli.main)
from effectus.harness import default_suite
from effectus.registry import INSTANCES

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def record(monkeypatch):
    # record.py puts the checkout's src/ and perfbench/ on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("record", ROOT / "bench" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_reuse_sums_every_check_report(record):
    out = record.kernel_reuse()
    assert set(out) == {"reports", "largest_report_distinct", *record.REUSED_KERNELS}
    assert out["reports"] == len(default_suite(1))
    total = 0
    for name in record.REUSED_KERNELS:
        kernel = out[name]
        assert set(kernel) == {"calls", "distinct", "repeated_share"}
        assert kernel["calls"] >= kernel["distinct"] > 0
        assert 0 <= kernel["repeated_share"] < 1
        total += kernel["distinct"]
    assert 0 < out["largest_report_distinct"] <= total


@pytest.fixture
def smoke_sweeps(record, monkeypatch):
    # the small sweeps of the workload's smoke run keep this test fast
    record.import_checkout()
    import workloads
    monkeypatch.setattr(workloads, "EXHAUSTIVE_BOUNDS", workloads.SMOKE_EXHAUSTIVE_BOUNDS)
    return workloads.exhaustive_sweeps("exhaustive-exact", record.SEED)


def test_sweep_coverage_times_each_sweep_three_times(record, smoke_sweeps):
    out = record.sweep_coverage()
    assert [(r["instance"], r["law"]) for r in out] == [
        (name, f"{which}-adjunction") for name, which, _, _ in smoke_sweeps]
    for row in out:
        assert set(row) == {"instance", "law", "cases", "skipped", "errors", "homs",
                            "wall_s", "min_s", "us_per_hom", "runs"}
        assert len(row["runs"]) == record.SWEEP_RUNS == 3
        assert row["wall_s"] == statistics.median(row["runs"])
        assert row["min_s"] == min(row["runs"]) <= row["wall_s"]
        assert row["us_per_hom"] == round(row["min_s"] / row["homs"] * 1e6, 3)
        assert row["cases"] > 0 and row["homs"] > 0
        assert row["skipped"] == row["errors"] == 0


def test_sweep_coverage_refuses_counts_that_differ_between_runs(
        record, smoke_sweeps, monkeypatch):
    from effectus import harness
    honest, calls = harness.run_exhaustive_adjunction, []

    def drifting(*args):
        report = honest(*args)
        calls.append(None)
        report.counters["homs"] += len(calls) > len(smoke_sweeps)
        return report

    monkeypatch.setattr(harness, "run_exhaustive_adjunction", drifting)
    with pytest.raises(SystemExit, match="differ between runs"):
        record.sweep_coverage()


def test_startup_times_fresh_interpreters_that_load_no_numpy(record, monkeypatch):
    monkeypatch.setattr(record, "STARTUP_RUNS", 2)
    out = record.startup()
    assert set(out) == {"import_s", "check_sets_s"}
    for row in out.values():
        assert set(row) == {"runs", "median", "q1", "q3", "numpy_linalg_loaded"}
        assert len(row["runs"]) == 2 and all(t > 0 for t in row["runs"])
        assert row["q1"] <= row["median"] <= row["q3"]
        assert row["numpy_linalg_loaded"] is False
    assert out["import_s"]["median"] < out["check_sets_s"]["median"]


def test_src_lines_counts_every_module(record):
    out = record.src_lines()
    assert set(out) == {"modules", "total"}
    assert set(out["modules"]) == {p.name for p in (ROOT / "src" / "effectus").glob("*.py")}
    assert out["total"] == sum(out["modules"].values()) > 0


def test_tracer_installs_over_effectus_and_restores_it():
    # The tracer is loaded as it is; install raises AttributeError for a
    # name it wraps that effectus no longer has.
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [m for name, m in sys.modules.items()
               if name == "effectus" or name.startswith("effectus.")]
    targets += INSTANCES.values()
    before = [dict(vars(t)) for t in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = len(tracer._restore)
    finally:
        tracer.uninstall()
    assert patched
    for target, old in zip(targets, before):
        now = vars(target)
        assert now.keys() == old.keys(), target
        assert all(now[k] is v for k, v in old.items()), target
