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
  (`skipped`), the cases that raised (`errors`), the homs the sweep
  walked (`homs`), and the times of its three runs in this process
  (`runs`) with their median (`wall_s`) and least (`min_s`), which a
  stall spanning two passes does not move, and `min_s` per hom in
  microseconds (`us_per_hom`, null for a sweep with no hom).  The sweep
  list runs three times over, in list order, so only the first run of
  each instance's first sweep starts with that instance's process-wide
  caches empty, and one stall moves one run, not the median; the counts
  must agree across the runs.  This is what the JSON reports leave out, and which
  sweep dominates the workload;
* `kernel_reuse`: for each of the three memoised `vnlinalg` kernels
  (`hermitian_eig`, `hermitian_eigvals`, `gram_schmidt_columns`), over
  the law reports of `effectus check --seed 1` run in this process, its
  `calls` and the `distinct` inputs summed over the reports, the share
  of calls that repeat an input their report already decomposed, and
  the largest number of distinct inputs one report holds: the repeated
  work a per-report memo saves;
* `startup`: two start-ups, each in STARTUP_RUNS fresh interpreters on
  the checkout's `src/`, after one unmeasured start: `import_s`, the
  time of `import effectus` plus its registry, timed inside the
  interpreter, and `check_sets_s`, the wall time of the whole process
  `effectus check --instance sets --format json`, timed from outside;
  each with its `runs`, their `median` and quartiles, and
  `numpy_linalg_loaded`, whether the run left `numpy.linalg` imported
  (the same in every run, or the recording exits).

`sweep_coverage` and `kernel_reuse` read the `counters` that each
`LawReport` keeps of its own work and leaves out of its JSON; nothing in
`src/` is wrapped or patched.

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
SWEEP_RUNS = 3
TIER1_RUNS = 3
STARTUP_RUNS = 7
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


def import_checkout() -> None:
    """Put the checkout's `src/` and `perfbench/` first on sys.path."""
    for path in (str(ROOT / "perfbench"), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def sweep_coverage() -> list:
    """What each exhaustive-exact sweep covered and left out, and the
    median and runs of its time over SWEEP_RUNS passes of the sweep list,
    in this process on the checkout's `src/` with the workload's own
    bounds.  Exits unless every pass gives a sweep the same counts."""
    import_checkout()
    import workloads
    from effectus import harness
    from effectus.registry import INSTANCES
    sweeps = workloads.exhaustive_sweeps("exhaustive-exact", SEED)
    passes = []
    for _ in range(SWEEP_RUNS):
        runs = []
        for name, which, bounds, seed in sweeps:
            t0 = perf_counter()
            report = harness.run_exhaustive_adjunction(INSTANCES[name], which, bounds, seed)
            runs.append(({"instance": name, "law": report.law, "cases": report.cases,
                          "skipped": len(report.skipped), "errors": report.errors,
                          "homs": report.counters["homs"]},
                         round(perf_counter() - t0, 3)))
        passes.append(runs)
    out = []
    for runs in zip(*passes):
        counts, walls = [c for c, _ in runs], [w for _, w in runs]
        if any(c != counts[0] for c in counts):
            raise SystemExit(f"record: a sweep's counts differ between runs: {counts}")
        out.append({**counts[0], "wall_s": statistics.median(walls), "min_s": min(walls),
                    "us_per_hom": round(min(walls) / counts[0]["homs"] * 1e6, 3)
                    if counts[0]["homs"] else None, "runs": walls})
    return out


# Each prints its last line as `<seconds or -> <numpy.linalg imported>`:
# the import times itself, the check is timed from outside its process.
STARTUP_CODE = {
    "import_s": (
        "import sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "t = time.perf_counter()\n"
        "import effectus\n"
        "from effectus.registry import INSTANCES\n"
        "t = time.perf_counter() - t\n"
        "print(t, 'numpy.linalg' in sys.modules)\n"),
    "check_sets_s": (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from effectus.cli import main\n"
        "code = main(['check', '--instance', 'sets', '--format', 'json'])\n"
        "print('-', 'numpy.linalg' in sys.modules)\n"
        "sys.exit(code)\n"),
}


def startup() -> dict:
    """Fresh-interpreter times of importing effectus and of a `sets`
    check, with whether each left numpy.linalg imported."""
    out = {}
    for key, code in STARTUP_CODE.items():
        walls, loaded = [], set()
        for i in range(STARTUP_RUNS + 1):
            t0 = perf_counter()
            done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                                  cwd=ROOT, capture_output=True, text=True, check=False)
            wall = perf_counter() - t0
            if done.returncode:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"record: startup {key} exited {done.returncode}")
            inside, flag = done.stdout.splitlines()[-1].split()
            if i:  # the first start warms the file and bytecode caches
                walls.append(round(wall if inside == "-" else float(inside), 4))
                loaded.add(flag == "True")
        if len(loaded) != 1:
            raise SystemExit(f"record: startup {key} loaded numpy.linalg in some runs only")
        out[key] = {**summary(walls), "numpy_linalg_loaded": loaded.pop()}
    return out


REUSED_KERNELS = ("hermitian_eig", "hermitian_eigvals", "gram_schmidt_columns")


def kernel_reuse() -> dict:
    """Calls and distinct inputs of the memoised kernels, summed over the
    law reports of `effectus check --seed 1`, from each report's
    `counters`."""
    import_checkout()
    from effectus import harness
    from effectus.registry import INSTANCES
    reports = [harness.run_law(INSTANCES[spec.instance], spec).counters
               for spec in harness.default_suite(SEED)]
    out = {"reports": len(reports), "largest_report_distinct": max(
        (sum(c[f"{n}.distinct"] for n in REUSED_KERNELS) for c in reports), default=0)}
    for name in REUSED_KERNELS:
        calls = sum(c[f"{name}.calls"] for c in reports)
        distinct = sum(c[f"{name}.distinct"] for c in reports)
        out[name] = {"calls": calls, "distinct": distinct,
                     "repeated_share": round(1 - distinct / calls, 4) if calls else 0.0}
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
    print("record: kernel reuse", file=sys.stderr, flush=True)
    out["kernel_reuse"] = kernel_reuse()
    print("record: startup", file=sys.stderr, flush=True)
    out["startup"] = startup()
    print("record: tier-1", file=sys.stderr, flush=True)
    out["tier1"] = record_tier1()
    ok &= not any(out["tier1"]["exit_code"]) and not any(out["tier1"]["failed"])
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"record: wrote {path.name}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
