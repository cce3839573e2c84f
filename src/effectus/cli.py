"""Command-line front end: law checking, instance listing, law
explanations, and a worked demo of the canonical constructions.

Exit codes: 0 success, 1 law failures detected, 2 usage or write errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext

from .kleisli import FiniteSet, fuzzy
from .harness import (
    DEFAULT_SEED,
    LAWS,
    applicable_laws,
    default_suite,
    run_suite,
)
from .registry import INSTANCES
from .ring import ZProductRing, canonical_moduli, IdealRing
from .vn import MatrixAlgebra
from .core import side_effect, derive_instrument
from .vnlinalg import np


def _seed(text) -> int:
    """A base seed, an int of at least 0: random.Random(-s) draws as
    random.Random(s), so a negative seed would run another seed's cases."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer of at least 0, got {text!r}")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("EFFECTUS_SEED")
    try:
        return DEFAULT_SEED if env is None else _seed(env)
    except argparse.ArgumentTypeError as exc:
        raise SystemExit(f"effectus: EFFECTUS_SEED {exc}")


def _cmd_list_instances(args) -> int:
    rows = []
    for name, inst in INSTANCES.items():
        rows.append({
            "name": name,
            "description": inst.description,
            "exact": inst.exact,
            "laws": applicable_laws(inst),
        })
    if args.format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        width = max(len(r["name"]) for r in rows)
        for r in rows:
            print(f"{r['name']:<{width}}  {r['description']}")
            print(f"{'':<{width}}  laws: {', '.join(r['laws'])}")
    return 0


def _cmd_explain(args) -> int:
    laws = [args.law] if args.law else list(LAWS)
    for law in laws:
        if law not in LAWS:
            raise SystemExit(f"effectus: unknown law {law!r}")
    for law in laws:
        print(f"{law}:")
        print(f"  {LAWS[law].statement}")
    return 0


def _cmd_check(args) -> int:
    if args.instance is not None and args.instance not in INSTANCES:
        raise SystemExit(f"effectus: unknown instance {args.instance!r}; one of: "
                         f"{', '.join(INSTANCES)}")
    if args.law is not None and args.law not in LAWS:
        raise SystemExit(f"effectus: unknown law {args.law!r}; one of: "
                         f"{', '.join(LAWS)}")
    if args.instance is not None and args.law is not None:
        laws = applicable_laws(INSTANCES[args.instance])
        if args.law not in laws:
            raise SystemExit(f"effectus: law {args.law!r} does not apply to instance "
                             f"{args.instance!r}; one of: {', '.join(laws)}")
    if args.cases is not None and args.cases < 1:
        raise SystemExit(f"effectus: --cases must be at least 1, got {args.cases}")
    if args.tolerance is not None and not 0.0 <= args.tolerance < math.inf:
        raise SystemExit("effectus: --tolerance must be finite and non-negative,"
                         f" got {args.tolerance}")
    seed = _resolve_seed(args)
    bounds = {}
    if args.tolerance is not None:
        bounds["tolerance"] = args.tolerance
    specs = default_suite(seed=seed, cases=args.cases,
                          instance=args.instance, law=args.law,
                          bounds=bounds)
    try:  # -o opens first, so a bad path fails before the suite runs
        with open(args.output, "w") if args.output else nullcontext(sys.stdout) as fh:
            result = run_suite(specs)
            fh.write(_render(result, args.format) + "\n")
    except OSError as exc:
        if not args.output:
            raise
        raise SystemExit(f"effectus: cannot write {args.output}: {exc.strerror}")
    return 0 if result["ok"] else 1


def _render(result, fmt) -> str:
    if fmt == "json":
        return json.dumps(result, indent=2, sort_keys=True)
    lines = []
    for r in result["reports"]:
        status = "ok  " if r["failures"] == 0 else "FAIL"
        lines.append(
            f"{status} {r['instance']:<7} {r['law']:<25} "
            f"cases={r['cases']:<5} failures={r['failures']:<3} "
            f"max_residual={r['max_residual']:.3g} seed={r['seed']}")
    lines.append("suite: " + ("all laws hold" if result["ok"]
                              else "LAW FAILURES DETECTED"))
    return "\n".join(lines)


def _demo_sets(out) -> None:
    inst = INSTANCES["sets"]
    X = FiniteSet((1, 2, 3))
    p = inst.pred(X, (1, 2))
    out.append("sets: X = {1, 2, 3}, predicate P = {1, 2}")
    q = inst.quotient(X, p)
    c = inst.comprehension(X, p)
    out.append(f"  quotient carrier X/P = {q.obj}   (P collapses to *)")
    out.append(f"  comprehension carrier {{X|P}} = {c.obj}")
    asrt = inst.table(inst.assert_closed_form(X, p))
    out.append("  assert_P: " + ", ".join(f"{x} -> {asrt[x]}" for x in X))
    instr = derive_instrument(inst, X, p)
    table = inst.table(instr)
    out.append("  instrument: " + ", ".join(f"{x} -> {table[x]}" for x in X))
    _, free = side_effect(inst, instr)
    out.append(f"  side-effect free: {free}")


def _demo_dist(out) -> None:
    inst = INSTANCES["dist"]
    from fractions import Fraction
    X = FiniteSet(("x", "y"))
    p = fuzzy(X, {"x": Fraction(1, 2), "y": Fraction(1)})
    out.append("dist: X = {x, y}, fuzzy predicate p(x) = 1/2, p(y) = 1")
    out.append(f"  comprehension carrier (p = 1): {inst.comprehension(X, p).obj}")
    out.append(f"  quotient carrier (p < 1): {inst.quotient(X, p).obj}")
    asrt = inst.table(inst.assert_closed_form(X, p))
    out.append("  assert_p: " + ", ".join(f"{x} -> {asrt[x]}" for x in X))
    _, free = side_effect(inst, derive_instrument(inst, X, p))
    out.append(f"  side-effect free: {free}")


def _demo_ring(out) -> None:
    inst = INSTANCES["ring"]
    X = ZProductRing((6,))
    e = (3,)
    out.append("ring: R = Z6, idempotent e = 3")
    corner_e = IdealRing(X, e)
    corner_c = IdealRing(X, inst.ortho(X, e))
    out.append(f"  eR = {[x[0] for x in corner_e.elements()]}, "
               f"canonical moduli {canonical_moduli(corner_e)}")
    out.append(f"  (1-e)R = {[x[0] for x in corner_c.elements()]}, "
               f"canonical moduli {canonical_moduli(corner_c)}")
    out.append("  so e splits Z6 into Z2 x Z3")
    dec = inst.decompose(X, e)
    out.append(f"  decompose(5) = {inst.table(dec.split)[(5,)]}  (in eR x (1-e)R)")
    instr = inst.instrument_closed_form(X, e)
    out.append(f"  instrument(1, 5) = {inst.table(instr)[((1,), (5,))]}")


def _demo_vn(out) -> None:
    inst = INSTANCES["vn"]
    X = MatrixAlgebra((2,))
    p = (np.diag([1.0, 0.5]).astype(complex),)
    out.append("vn: A = M2, effect p = diag(1, 1/2)")
    q = inst.quotient(X, p)
    c = inst.comprehension(X, p)
    out.append(f"  quotient carrier of 1-p: {q.obj}")
    out.append(f"  comprehension carrier (eigenvalue-1 part): {c.obj}")
    asrt = inst.assert_closed_form(X, p)
    a = (np.array([[1, 1], [1, 1]], dtype=complex),)
    res = inst.apply(asrt, a)[0]
    out.append("  assert_p on [[1,1],[1,1]]: "
               f"[[{res[0, 0].real:.4f}, {res[0, 1].real:.4f}], "
               f"[{res[1, 0].real:.4f}, {res[1, 1].real:.4f}]]")
    _, free = side_effect(inst, derive_instrument(inst, X, p))
    out.append(f"  side-effect free for diag(1, 1/2): {free}")
    theta = 0.7
    u = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]], dtype=complex)
    rotated = (u @ np.diag([0.8, 0.3]).astype(complex) @ u.conj().T,)
    _, free_rot = side_effect(inst, derive_instrument(inst, X, rotated))
    out.append(f"  side-effect free for a rotated unsharp effect: {free_rot}")
    scalar = (0.3 * np.eye(2, dtype=complex),)
    _, free_scalar = side_effect(inst, derive_instrument(inst, X, scalar))
    out.append(f"  side-effect free for the scalar effect 0.3*I: {free_scalar}")


_DEMOS = {
    "sets": _demo_sets,
    "dist": _demo_dist,
    "ring": _demo_ring,
    "vn": _demo_vn,
}


def _cmd_demo(args) -> int:
    if args.scenario is not None and args.scenario not in _DEMOS:
        raise SystemExit(f"effectus: unknown demo scenario {args.scenario!r}; one of: "
                         f"{', '.join(_DEMOS)}")
    sections = ([_DEMOS[args.scenario]] if args.scenario
                else list(_DEMOS.values()))
    out = []
    for section in sections:
        section(out)
        out.append("")
    print("\n".join(out).rstrip())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effectus",
        description="Quotient and comprehension constructions across "
                    "deterministic, probabilistic, algebraic, and operator "
                    "instances, with a law-checking harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the law suite")
    check.add_argument("--instance", help="restrict to one instance")
    check.add_argument("--law", help="restrict to one law")
    check.add_argument("--cases", type=int, default=None,
                       help="cases per law (default: per-instance preset)")
    check.add_argument("--seed", type=_seed, default=None,
                       help=f"base seed (default: EFFECTUS_SEED or {DEFAULT_SEED})")
    check.add_argument("--tolerance", type=float, default=None,
                       help="override the instance's one tolerance, for "
                       "equality, order and vn's hom conditions")
    check.add_argument("--format", choices=("human", "json"), default="human")
    check.add_argument("-o", "--output", help="write the report to a file")

    sub.add_parser("list-instances", help="list instances and their laws") \
        .add_argument("--format", choices=("human", "json"), default="human")

    explain = sub.add_parser("explain", help="print law statements")
    explain.add_argument("law", nargs="?", default=None)

    demo = sub.add_parser("demo", help="worked examples across four instances")
    demo.add_argument("scenario", nargs="?", default=None,
                      help="one of: sets, dist, ring, vn (default: all)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "list-instances":
            return _cmd_list_instances(args)
        if args.command == "explain":
            return _cmd_explain(args)
        return _cmd_demo(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
