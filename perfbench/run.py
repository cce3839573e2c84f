"""effectus benchmark: time to a law-checking verdict, per workload.

    python3 perfbench/run.py --workload check-default --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; effectus is imported from
``src/``.  With ``--trace 0`` the workload repeats, untraced, while
another repetition fits in ``--seconds`` (at least twice), and the
end-to-end metrics are reported: ``wall_s`` (median wall time to the
full verdict), ``cases_per_s``, ``setup_s`` (median over fresh processes
of importing effectus and building its registry) and ``peak_rss_mb``.
The times are stated at a reference machine speed, measured while they
run (see ``speed.py``); the raw wall times are printed as well.
With ``--trace 1`` the untraced repetitions (at least one) give the
baseline, then one traced repetition gives the per-layer metrics and the
tracing overhead.  Without ``--workload`` every workload runs in turn,
each in a process of its own.

Every repetition must pass the correctness gate: ``ok`` is true, every
report has cases, no case fails or raises, each exhaustive sweep ran
every triple the census expects, and the digest of the sorted-key JSON
verdict is the same in every repetition.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when ``correct``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Set-up is sampled before and after the repetitions, so its median spans
# the run rather than the few seconds at its start.
SETUP_SAMPLES = (6, 5)
# Times the import, then the reference task right after it (its first two
# runs warm it up and are dropped).  effectus imports numpy, so importing
# the reference costs nothing more.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "t = time.perf_counter()\n"
    "import effectus\n"
    "from effectus.registry import INSTANCES\n"
    "t = time.perf_counter() - t\n"
    "import speed\n"
    "samples = []\n"
    "for _ in range(22):\n"
    "    t0 = time.perf_counter()\n"
    "    speed.reference()\n"
    "    samples.append(time.perf_counter() - t0)\n"
    "print(t, speed.rescale(t, samples[2:]))\n"
)
CENSUS_CODE = (
    "import json, sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import workloads\n"
    "name, seed, smoke = sys.argv[3], int(sys.argv[4]), bool(int(sys.argv[5]))\n"
    "sweeps = workloads.exhaustive_sweeps(name, seed, smoke)\n"
    "print(json.dumps(workloads.exhaustive_census(sweeps)))\n"
)


def measure_setup(count: int) -> list:
    """(raw, rescaled) seconds to import effectus and build its registry,
    each in a fresh interpreter.  One unmeasured start first writes the
    bytecode cache."""
    samples = []
    for i in range(count + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            raw, rescaled = done.stdout.strip().splitlines()[-1].split()
            samples.append((float(raw), float(rescaled)))
    return samples


def machine_info() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")},
        "lapack": {k: deps["lapack"].get(k) for k in ("name", "version")},
        "blas_threads": blas_threads(np),
    }


def blas_threads(np):
    """Thread count of the OpenBLAS that numpy loaded, or None when it
    cannot be asked."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def digest(result: dict) -> str:
    text = json.dumps(result, sort_keys=True)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def gate(result: dict, expected_sweeps) -> dict:
    """Correctness of one verdict.  Exceptions are told apart from law
    violations by their witness detail; reports keep at most three
    witnesses, so exceptions beyond those count as violations."""
    reports = result["reports"]
    cases = sum(r["cases"] for r in reports)
    failures = sum(r["failures"] for r in reports)
    exceptions = sum(1 for r in reports for w in r["witnesses"]
                     if str(w.get("detail", "")).startswith("exception:"))
    empty = [f"{r['instance']} {r['law']}" for r in reports if r["cases"] <= 0]
    found = Counter((r["instance"], r["law"], r["seed"], r["cases"]) for r in reports)
    missing = sorted((Counter(expected_sweeps) - found).elements())
    problems = []
    if not result["ok"]:
        problems.append("suite reports ok=false")
    if failures:
        problems.append(f"{failures - exceptions} law violations, {exceptions} exceptions")
    if empty:
        problems.append("zero-case reports: " + ", ".join(empty))
    if missing:
        problems.append(f"exhaustive sweeps off the census: {missing}")
    return {"cases": cases, "failures": failures, "exceptions": exceptions,
            "violations": failures - exceptions, "problems": problems,
            "digest": digest(result)}


def outside_census(name: str, seed: int, smoke: bool) -> dict:
    """The exhaustive-sweep census, taken in a child process so that its
    memory does not count toward the benchmark's peak."""
    done = subprocess.run([sys.executable, "-c", CENSUS_CODE, str(BENCH), str(SRC),
                           name, str(seed), str(int(smoke))],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    census = json.loads(done.stdout)
    census["expected"] = [tuple(e) for e in census["expected"]]
    return census


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    import speed
    import tracing
    import workloads

    run = workloads.WORKLOADS[name]
    census = outside_census(name, seed, smoke)
    expected = census["expected"]

    # Repeat while one more repetition of median length still ends within
    # `seconds`, so a run takes max(seconds, least verdicts), not up to
    # twice that.  Untraced runs make at least two repetitions, so every
    # run compares the digests of two verdicts; a traced run compares its
    # one untraced verdict with the traced one.
    # Each untraced repetition runs under the speed probe; `walls` are its
    # raw wall times less the probe's ticks, `scaled` the same at the
    # reference speed.
    least = 1 if trace else 2
    walls, scaled, verdicts = [], [], []
    started = perf_counter()
    while (len(walls) < least
           or perf_counter() - started + statistics.median(walls) <= seconds):
        with speed.SpeedProbe() as probe:
            t0 = perf_counter()
            result = run(seed, smoke)
            t1 = perf_counter()
        walls.append(t1 - t0 - probe.spent)
        scaled.append(probe.rescaled(t1 - t0))
        verdicts.append(gate(result, expected))
        del result
    wall = statistics.median(walls)
    layers = None
    if trace:
        tracer = tracing.Tracer()
        with tracer:
            t0, v0 = perf_counter(), tracer.now()
            result = run(seed, smoke)
            traced_wall, v1 = perf_counter() - t0, tracer.now()
        verdicts.append(gate(result, expected))
        layers = tracer.layer_metrics(census)
        layers["trace.overhead_s"] = traced_wall - wall
        layers["trace.uncovered_share"] = 1.0 - tracer.covered(v0, v1) / (v1 - v0)

    first = verdicts[0]
    problems = sorted({p for v in verdicts for p in v["problems"]})
    deterministic = len({v["digest"] for v in verdicts}) == 1
    if not deterministic:
        problems.append("verdict digests differ between repetitions")
    return {
        "workload": name, "seed": seed, "walls": walls, "scaled": scaled,
        "wall_s": statistics.median(scaled),
        "cases": first["cases"], "digest": first["digest"],
        "deterministic": deterministic,
        "repetitions": len(verdicts),
        "attempted": sum(v["cases"] for v in verdicts),
        "failed": sum(v["failures"] for v in verdicts),
        "violations": sum(v["violations"] for v in verdicts),
        "exceptions": sum(v["exceptions"] for v in verdicts),
        "problems": problems, "layers": layers,
    }


def end_to_end(out: dict, setup: list) -> dict:
    """The bounded metrics; `setup` holds (raw, rescaled) samples."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": {"value": out["wall_s"], "unit": "s"},
        "cases_per_s": {"value": out["cases"] / out["wall_s"], "unit": "1/s"},
        "setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }


def report(out: dict, metrics: dict, machine: dict, setup=None) -> None:
    print(f"workload {out['workload']} seed {out['seed']}: "
          f"{out['repetitions']} repetitions of {out['cases']} cases, "
          f"untraced walls {', '.join(f'{w:.3f}' for w in out['walls'])} s raw, "
          f"{', '.join(f'{w:.3f}' for w in out['scaled'])} s at reference speed")
    if setup:
        print(f"  setup median {statistics.median(r for r, _ in setup):.4f} s raw, "
              f"{statistics.median(s for _, s in setup):.4f} s at reference speed")
    width = max(len(k) for k in metrics)
    for key, m in metrics.items():
        print(f"  {key:<{width}}  {m['value']:.6g} {m['unit']}")
    rate = out["failed"] / out["attempted"] if out["attempted"] else 0.0
    print(f"  {'error_rate':<{width}}  {rate:.6g} ratio "
          f"({out['violations']} law violations, {out['exceptions']} exceptions "
          f"in {out['attempted']} cases)")
    print(f"  digest {out['digest']} (same in every repetition: "
          f"{out['deterministic']})")
    for p in out["problems"]:
        print(f"  GATE FAILED: {p}")
    print("record " + json.dumps({
        "workload": out["workload"], "seed": out["seed"],
        "digest": out["digest"], "walls": out["walls"], "scaled": out["scaled"],
        "machine": machine},
        sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload to run (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "effectus" / "__init__.py").is_file():
        print(f"perfbench: no effectus sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import effectus
    import tracing
    import workloads

    if Path(effectus.__file__).resolve().parent != SRC / "effectus":
        print(f"perfbench: imported effectus from {effectus.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    name = args.workload
    if name is not None and name not in workloads.WORKLOADS:
        parser.error(f"unknown workload {name!r}; one of {list(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if name is None:
        # Each workload in a fresh process, so peak memory is its own.
        codes = [subprocess.run([sys.executable, __file__, "--workload", n,
                                 "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for n in workloads.WORKLOADS]
        return max(codes)
    machine = machine_info()
    setup = None
    if args.trace:
        out = run_workload(name, args.seed, args.seconds, True)
        metrics = {k: {"value": v, "unit": tracing.metric_unit(k)}
                   for k, v in out["layers"].items()}
    else:
        setup = measure_setup(SETUP_SAMPLES[0])
        out = run_workload(name, args.seed, args.seconds, False)
        setup += measure_setup(SETUP_SAMPLES[1])
        metrics = end_to_end(out, setup)
    report(out, metrics, machine, setup)
    correct = not out["problems"]
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
