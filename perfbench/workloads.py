"""The benchmark workloads.  Each drives the public effectus API with
inputs made from the workload seed and returns the full verdict: the
suite result ``{"ok": ..., "reports": [...]}`` as the program produced it.

* ``check-default`` is exactly ``effectus check --format json``: the
  command users run, and the only workload that touches every layer,
  the CLI included.
* ``exhaustive-exact`` is the acceptance exhaustive adjunction sweep in
  both directions.  It exercises arrow hashing, enumeration and the exact
  Kleisli layers, and uses no floating point, so it is the control for
  changes to the numerics.

Two more were tried and left out; see README.md.
"""

from __future__ import annotations

import contextlib
import io
import json

# Calls go through the module attributes, so a tracer installed over the
# modules sees them.
from effectus import cli, harness
from effectus.registry import INSTANCES

# The acceptance bounds of the exhaustive sweep (tests/test_acceptance.py).
EXHAUSTIVE_BOUNDS = {
    "sets": {"max_size": 4},
    "nondet": {"max_size": 4},
    "ring": {"max_order": 12},
    "fp": {"fields": (2, 3), "max_dim": 3},
}
SMOKE_EXHAUSTIVE_BOUNDS = {
    "sets": {"max_size": 2},
    "nondet": {"max_size": 2},
    "ring": {"max_order": 6},
    "fp": {"fields": (2,), "max_dim": 2},
}
DIRECTIONS = ("quotient", "comprehension")


def check_default(seed: int, smoke: bool = False) -> dict:
    argv = ["check", "--format", "json", "--seed", str(seed)]
    if smoke:
        argv += ["--cases", "2"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    result = json.loads(out.getvalue())
    if code != (0 if result["ok"] else 1):
        raise RuntimeError(f"effectus check exited {code} with ok={result['ok']}")
    return result


def exhaustive_exact(seed: int, smoke: bool = False) -> dict:
    bounds = SMOKE_EXHAUSTIVE_BOUNDS if smoke else EXHAUSTIVE_BOUNDS
    reports = [harness.run_exhaustive_adjunction(INSTANCES[name], which, b, seed)
               for name, b in bounds.items() for which in DIRECTIONS]
    reports.sort(key=lambda r: (r.instance, r.law, r.seed))
    return {"ok": all(r.failures == 0 for r in reports),
            "reports": [r.to_jsonable() for r in reports]}


WORKLOADS = {
    "check-default": check_default,
    "exhaustive-exact": exhaustive_exact,
}


def exhaustive_sweeps(name: str, seed: int, smoke: bool = False) -> list:
    """(instance, direction, bounds, seed) of every exhaustive sweep the
    workload runs, so the sweeps can be counted from outside."""
    if name == "exhaustive-exact":
        bounds = SMOKE_EXHAUSTIVE_BOUNDS if smoke else EXHAUSTIVE_BOUNDS
        return [(inst, which, b, seed) for inst, b in bounds.items()
                for which in DIRECTIONS]
    if name == "check-default":
        return [(s.instance, s.law.split("-")[0], s.bounds, s.seed)
                for s in harness.default_suite(seed=seed, cases=2 if smoke else None)
                if s.bounds.get("exhaustive")]
    return []


def exhaustive_census(sweeps) -> dict:
    """Triples each sweep visits, candidate maps it checks, and triples it
    skips because the candidate space exceeds the enumeration cap,
    counted by enumerating the triples through the instance hooks.
    `expected` lists the (instance, law, seed, cases) report of each sweep."""
    triples = candidates = skipped = 0
    expected = []
    for name, which, bounds, seed in sweeps:
        inst = INSTANCES[name]
        cap = bounds.get("enumeration_cap", harness.ENUMERATION_CAP)
        run = 0
        objs = list(inst.iter_objects(bounds))
        for X in objs:
            for p in inst.iter_preds(X):
                for Y in objs:
                    if not inst.comparable_objects(X, Y):
                        continue
                    triples += 1
                    if which == "quotient":
                        n = inst.count_arrows(inst.quotient(X, p).obj, Y)
                    else:
                        n = inst.count_arrows(Y, inst.comprehension(X, p).obj)
                    if n > cap:
                        skipped += 1
                    else:
                        candidates += n
                        run += 1
        expected.append((name, f"{which}-adjunction", seed, run))
    return {"triples": triples, "candidates": candidates,
            "skipped_over_cap": skipped, "expected": expected}
