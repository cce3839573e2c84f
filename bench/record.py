"""Record the benchmark and the Tier-1 run into BENCH_<label>.json.

    python3 bench/record.py --label 1

Run from anywhere; the checkout is the directory above this file.  For
each workload that BENCHMARK.json declares, `perfbench/run.py` runs on
seed 1 three times untraced (`--trace 0`), for the end-to-end metrics,
then once traced (`--trace 1`), for the per-layer metrics.  Then the
Tier-1 test command runs three times.  The file written at the root of
the checkout holds:

* `commit`: `git describe --always --dirty` of the checkout, if any;
* `machine`: what `perfbench/run.py` reports (nproc, Python, numpy, BLAS);
* per workload, the verdict `digest`, each end-to-end metric's `runs`
  with their `median` and quartiles, and the traced `layers`;
* `tier1`: the command, the wall time of each run with their `median`
  and quartiles, and each run's pass and fail counts, exit code and
  closing summary line, in run order;
* `src_lines`: the line count (as `wc -l` counts) of each module under
  `src/effectus/` and their `total`, so that two files compare code
  size as well as speed;
* `sweep_coverage`: for each exhaustive sweep of the exhaustive-exact
  workload, at the bounds `perfbench/workloads.py` runs it with, the
  triples it ran (`cases`), the triples over the enumeration cap
  (`skipped`), those run without the hom scan (`scan_skipped`) and the
  cases that raised (`errors`): what the JSON reports leave out.

Nothing under `perfbench/` is changed.  The exit code is 0 only when
every run passed its correctness gate, every run of a workload gave the
same digest, and Tier-1 failed nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
UNTRACED_RUNS = 3
TIER1_RUNS = 3
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def run_perfbench(workload: str, trace: int) -> dict:
    """One `perfbench/run.py` run: its `record` line and its closing JSON
    line (correctness and metrics)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.splitlines()
    records = [l for l in lines if l.startswith("record ")]
    if done.returncode not in (0, 1) or not records:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"record: perfbench {workload} --trace {trace} "
                         f"exited {done.returncode}")
    return {**json.loads(records[-1][len("record "):]), **json.loads(lines[-1])}


def summary(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": median, "q1": q1, "q3": q3}


def record_workload(workload: str) -> tuple[dict, dict, bool]:
    untraced = [run_perfbench(workload, 0) for _ in range(UNTRACED_RUNS)]
    traced = run_perfbench(workload, 1)
    runs = untraced + [traced]
    digests = sorted({r["digest"] for r in runs})
    ok = all(r["correct"] for r in runs) and len(digests) == 1
    units = {k: m["unit"] for k, m in untraced[0]["metrics"].items()}
    entry = {
        "digest": digests[0] if len(digests) == 1 else digests,
        "correct": [r["correct"] for r in runs],
        "metrics": {k: {"unit": unit,
                        **summary([r["metrics"][k]["value"] for r in untraced])}
                    for k, unit in units.items()},
        "layers": {k: m["value"] for k, m in traced["metrics"].items()},
    }
    return entry, untraced[0]["machine"], ok


def record_tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    out = {"command": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:]),
           "passed": [], "failed": [], "exit_code": [], "summary": []}
    walls = []
    for _ in range(TIER1_RUNS):
        t0 = perf_counter()
        done = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True,
                              text=True, check=False)
        walls.append(perf_counter() - t0)
        tail = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
        counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", tail)}
        out["passed"].append(counts.get("passed", 0))
        out["failed"].append(counts.get("failed", 0) + counts.get("error", 0)
                             + counts.get("errors", 0))
        out["exit_code"].append(done.returncode)
        out["summary"].append(tail)
    out["wall_s"] = summary(walls)
    return out


def src_lines() -> dict:
    modules = {p.name: p.read_bytes().count(b"\n")
               for p in sorted((ROOT / "src" / "effectus").glob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def sweep_coverage() -> list:
    """What each exhaustive-exact sweep left out, run in this process on
    the checkout's `src/` with the workload's own bounds."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from effectus import harness
    from effectus.registry import INSTANCES
    out = []
    for name, which, bounds, seed in workloads.exhaustive_sweeps("exhaustive-exact", SEED):
        report = harness.run_exhaustive_adjunction(INSTANCES[name], which, bounds, seed)
        out.append({"instance": name, "law": report.law, "cases": report.cases,
                    "skipped": len(report.skipped), "scan_skipped": report.scan_skipped,
                    "errors": report.errors})
    return out


def commit() -> str | None:
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="names the output file, BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.label):
        parser.error(f"label {args.label!r} must be letters, digits, '_', '.' or '-'")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"label": args.label, "commit": commit(), "seed": SEED,
           "machine": None, "src_lines": src_lines(), "workloads": {}}
    ok = True
    for workload in (w["name"] for w in declared["workloads"]):
        print(f"record: {workload}", file=sys.stderr, flush=True)
        entry, machine, fine = record_workload(workload)
        out["workloads"][workload] = entry
        out["machine"] = machine
        ok &= fine
    print("record: sweep coverage", file=sys.stderr, flush=True)
    out["sweep_coverage"] = sweep_coverage()
    print("record: tier-1", file=sys.stderr, flush=True)
    out["tier1"] = record_tier1()
    ok &= not any(out["tier1"]["exit_code"]) and not any(out["tier1"]["failed"])
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"record: wrote {path.name}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
