"""Law-checking engine: seeded random cases and exhaustive sweeps for the
chain laws, with structured, replayable reports.

Reports are deterministic: identical specs produce byte-identical JSON.
Instances are passed as objects, so a test can inject a deliberately
corrupted subclass and watch the corresponding law fail.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, NamedTuple

from .core import (
    ChainError,
    derive_assert,
    derive_instrument,
    falsum,
    hom_check,
    PredObject,
    side_effect,
    truth,
)
from .registry import INSTANCES
from .vn import spectral_norm

DEFAULT_SEED = 20205
ENUMERATION_CAP = 10 ** 5
SCAN_CAP = 4000
CASE_ENUM_BUDGET = 2000
UNIQUE_SAMPLES = 12
MAX_WITNESSES = 3


@dataclass(frozen=True)
class CaseSpec:
    """One report's worth of work: a law, an instance, a seed, a case
    count, and size bounds.  Identical specs generate identical cases."""

    instance: str
    law: str
    seed: int = DEFAULT_SEED
    cases: int = 50
    bounds: dict = field(default_factory=dict)


@dataclass
class LawReport:
    instance: str
    law: str
    seed: int
    cases: int = 0
    failures: int = 0
    max_residual: float = 0.0
    witnesses: list = field(default_factory=list)

    def record(self, residual: float, ok: bool, witness=None):
        self.cases += 1
        self.max_residual = max(self.max_residual, float(residual))
        if not ok:
            self.failures += 1
            if witness is not None and len(self.witnesses) < MAX_WITNESSES:
                self.witnesses.append(witness)

    def to_jsonable(self) -> dict:
        return {
            "instance": self.instance,
            "law": self.law,
            "cases": self.cases,
            "failures": self.failures,
            "witnesses": self.witnesses,
            "max_residual": self.max_residual,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# Shared case plumbing.
# ---------------------------------------------------------------------------


def _wit(case, detail, **parts) -> dict:
    return {"case": case, "detail": detail, **parts}


def _arrow_key(inst, f):
    # The one call site of the instance hook, so keys made can be counted.
    return inst.arrow_key(f)


# ---------------------------------------------------------------------------
# Law case functions.  Each runs ONE random case and returns
# (residual, ok, witness detail or None).
# ---------------------------------------------------------------------------


def _case_kleisli(inst, rng, bounds, tol):
    X = inst.rand_object(rng, bounds)
    Y = inst.rand_object(rng, bounds, like=X)
    Z = inst.rand_object(rng, bounds, like=X)
    W = inst.rand_object(rng, bounds, like=X)
    f = inst.rand_arrow(rng, X, Y, bounds)
    g = inst.rand_arrow(rng, Y, Z, bounds)
    h = inst.rand_arrow(rng, Z, W, bounds)
    r1 = inst.map_residual(inst.compose(h, inst.compose(g, f)),
                           inst.compose(inst.compose(h, g), f))
    r2 = inst.map_residual(inst.compose(f, inst.identity(X)), f)
    r3 = inst.map_residual(inst.compose(inst.identity(Y), f), f)
    res = max(r1, r2, r3)
    if res <= tol:
        return res, True, None
    return res, False, {"assoc": r1, "id_right": r2, "id_left": r3,
                        "f": inst.arrow_to_json(f)}


def _case_subst(inst, rng, bounds, tol):
    X = inst.rand_object(rng, bounds)
    Y = inst.rand_object(rng, bounds, like=X)
    Z = inst.rand_object(rng, bounds, like=X)
    f = inst.rand_arrow(rng, X, Y, bounds)
    g = inst.rand_arrow(rng, Y, Z, bounds)
    r = inst.rand_pred(rng, Z, bounds)
    lhs = inst.subst(f, inst.subst(g, r))
    rhs = inst.subst(inst.compose(g, f), r)
    r1 = inst.pred_residual(X, lhs, rhs)
    q = inst.rand_pred(rng, Y, bounds)
    r2 = inst.pred_residual(Y, inst.subst(inst.identity(Y), q), q)
    r3 = inst.pred_residual(X, inst.subst(f, inst.top(Y)), inst.top(X))
    res = max(r1, r2, r3)
    if res <= tol:
        return res, True, None
    return res, False, {"functoriality": r1, "identity": r2, "unit": r3,
                        "f": inst.arrow_to_json(f), "g": inst.arrow_to_json(g)}


def _case_truth_falsum(inst, rng, bounds, tol):
    X = inst.rand_object(rng, bounds)
    Y = inst.rand_object(rng, bounds, like=X)
    f = inst.rand_arrow(rng, X, Y, bounds)
    ok1 = hom_check(inst, f, truth(inst, X), truth(inst, Y))
    ok2 = hom_check(inst, f, falsum(inst, X), falsum(inst, Y))
    ok3 = hom_check(inst, f, falsum(inst, X), truth(inst, Y))
    # The substitution-based hom check and the transpose preconditions
    # must agree on whether f collapses p, and dually on whether a map
    # into X lands inside p.
    p = inst.rand_pred(rng, X, bounds)
    says_q = hom_check(inst, f, PredObject(X, p), falsum(inst, Y))
    try:
        inst.transpose_quotient(X, p, f)
        accepts_q = True
    except ChainError:
        accepts_q = False
    g = inst.rand_arrow(rng, Y, X, bounds)
    says_c = hom_check(inst, g, truth(inst, Y), PredObject(X, p))
    try:
        inst.transpose_comprehension(X, p, g)
        accepts_c = True
    except ChainError:
        accepts_c = False
    ok = ok1 and ok2 and ok3 and says_q == accepts_q and says_c == accepts_c
    if ok:
        return 0.0, True, None
    return 1.0, False, {"truth_hom": ok1, "falsum_hom": ok2, "mixed_hom": ok3,
                        "quotient_hom_check": says_q,
                        "quotient_transpose_accepts": accepts_q,
                        "comprehension_hom_check": says_c,
                        "comprehension_transpose_accepts": accepts_c,
                        "f": inst.arrow_to_json(f), "g": inst.arrow_to_json(g),
                        "p": inst.pred_to_json(X, p)}


class _Side(NamedTuple):
    """One direction of the adjunction at a fixed (X, p), its construction
    built once.  The quotient is left adjoint to falsum: a hom
    (X, p) -> falsum Y factors through the unit X -> X/p.  The
    comprehension is right adjoint to truth: a hom truth Y -> (X, p)
    factors through the counit {X|p} -> X.  `ends(A, Y)` orders the
    endpoints of an arrow between A, the carrier for mediating maps or X
    for homs, and the other object Y."""

    carrier: Any
    ends: Callable
    hom_objects: Callable  # Y -> the predicated objects a hom joins
    rand_hom: Callable
    transpose: Callable
    untranspose: Callable


def _side(inst, which, X, p) -> _Side:
    match which:
        case "quotient":
            q = inst.quotient(X, p)
            return _Side(
                q.obj, lambda A, Y: (A, Y),
                lambda Y: (PredObject(X, p), falsum(inst, Y)),
                lambda rng, Y, b: inst.rand_quotient_hom(rng, X, p, Y, b),
                lambda f: inst.transpose_quotient(X, p, f),
                lambda g: inst.compose(g, q.unit))
        case "comprehension":
            c = inst.comprehension(X, p)
            return _Side(
                c.obj, lambda A, Y: (Y, A),
                lambda Y: (truth(inst, Y), PredObject(X, p)),
                lambda rng, Y, b: inst.rand_comprehension_hom(rng, X, p, Y, b),
                lambda f: inst.transpose_comprehension(X, p, f),
                lambda g: inst.compose(c.counit, g))
    raise ValueError(f"unknown adjunction {which!r}")


def _unique(inst, rng, bounds, tol, ends, untranspose, g, f):
    """Distinct mediating maps must reach distinct composites: checked on
    every candidate when they are few, else on perturbations of g."""
    count = inst.count_arrows(*ends)
    if count is not None and count <= bounds.get("case_enum_budget", CASE_ENUM_BUDGET):
        seen = set()
        for cand in inst.iter_arrows(*ends):
            key = _arrow_key(inst, untranspose(cand))
            if key in seen:
                return False
            seen.add(key)
        return True
    for _ in range(bounds.get("unique_samples", UNIQUE_SAMPLES)):
        other = inst.perturb_arrow(rng, g, bounds)
        if (inst.map_residual(other, g) > max(tol, 1e-3)
                and inst.map_residual(untranspose(other), f) <= tol):
            return False
    return True


def _case_adjunction(which, inst, rng, bounds, tol):
    X = inst.rand_object(rng, bounds)
    p = inst.rand_pred(rng, X, bounds)
    Y = inst.rand_object(rng, bounds, like=X)
    side = _side(inst, which, X, p)
    f = side.rand_hom(rng, Y, bounds)
    g = side.transpose(f)
    r1 = inst.map_residual(side.untranspose(g), f)
    ends = side.ends(side.carrier, Y)
    g0 = inst.rand_arrow(rng, *ends, bounds)
    r2 = inst.map_residual(side.transpose(side.untranspose(g0)), g0)
    unique = _unique(inst, rng, bounds, tol, ends, side.untranspose, g, f)
    res = max(r1, r2)
    if res <= tol and unique:
        return res, True, None
    return res, False, {"round_trip_from_hom": r1, "round_trip_from_map": r2,
                        "unique": unique, "X": inst.object_to_json(X),
                        "p": inst.pred_to_json(X, p), "f": inst.arrow_to_json(f)}


def _case_factorization(inst, rng, bounds, tol):
    X = inst.rand_object(rng, bounds)
    p = inst.rand_pred(rng, X, bounds)
    composite = derive_assert(inst, X, p)
    closed = inst.assert_closed_form(X, p)
    res = inst.map_residual(composite, closed)
    if res <= tol:
        return res, True, None
    return res, False, {"X": inst.object_to_json(X), "p": inst.pred_to_json(X, p),
                        "composite": inst.arrow_to_json(composite),
                        "closed_form": inst.arrow_to_json(closed)}


def _case_coincidence(inst, rng, bounds, tol):
    X = inst.rand_object(rng, bounds)
    p = inst.rand_pred(rng, X, bounds)
    q = inst.quotient(X, inst.ortho(X, p))
    c = inst.comprehension(X, inst.ceil(X, p))
    same = inst.objects_equal(q.obj, c.obj)
    extra = inst.coincidence_residual(X, p, q, c)
    ok = same and extra <= tol
    if ok:
        return extra, True, None
    return max(extra, 0.0 if same else 1.0), False, {
        "objects_equal": same, "carrier_residual": extra,
        "X": inst.object_to_json(X), "p": inst.pred_to_json(X, p)}


def _case_sharpness(inst, rng, bounds, tol):
    X = inst.rand_object(rng, bounds)
    p = inst.rand_pred(rng, X, bounds)
    demorgan = inst.pred_residual(
        X, inst.floor(X, inst.ortho(X, p)),
        inst.ortho(X, inst.ceil(X, p)))
    sharp = inst.is_sharp(X, p)
    asrt = inst.assert_closed_form(X, p)
    idem = inst.map_residual(inst.compose(asrt, asrt), asrt)
    q = inst.quotient(X, inst.ortho(X, p))
    c = inst.comprehension(X, inst.ceil(X, p))
    left = inst.compose(q.unit, c.counit)
    left_res = inst.map_residual(left, inst.identity(c.obj))
    ok = (demorgan <= tol
          and (idem <= tol) == sharp
          and (left_res <= tol) == sharp)
    res = demorgan if ok else max(demorgan, 1.0)
    if ok:
        return demorgan, True, None
    return res, False, {"demorgan": demorgan, "sharp": sharp,
                        "assert_idempotency_residual": idem,
                        "left_composite_residual": left_res,
                        "X": inst.object_to_json(X), "p": inst.pred_to_json(X, p)}


def _case_instrument(inst, rng, bounds, tol):
    X = inst.rand_object(rng, bounds)
    p = inst.rand_pred(rng, X, bounds)
    derived = derive_instrument(inst, X, p)
    closed = inst.instrument_closed_form(X, p)
    r1 = inst.map_residual(derived, closed)
    merged, free = side_effect(inst, X, p)
    predicted = inst.predicts_side_effect_free(X, p, tol)
    unit_res = inst.subunital_defect(closed)
    ok = r1 <= tol and free == predicted and unit_res <= tol
    res = max(r1, unit_res)
    if ok:
        return res, True, None
    return max(res, 1.0 if free != predicted else res), False, {
        "derived_vs_closed": r1, "side_effect_free": free,
        "predicted_free": predicted, "X": inst.object_to_json(X),
        "p": inst.pred_to_json(X, p)}


def _case_cp_sanity(inst, rng, bounds, tol):
    X = inst.rand_object(rng, bounds)
    p = inst.rand_pred(rng, X, bounds)
    Y = inst.rand_object(rng, bounds, like=X)
    q = inst.quotient(X, p)
    c = inst.comprehension(X, p)
    fq = inst.rand_quotient_hom(rng, X, p, Y, bounds)
    gq = inst.transpose_quotient(X, p, fq)
    fc = inst.rand_comprehension_hom(rng, X, p, Y, bounds)
    gc = inst.transpose_comprehension(X, p, fc)
    canonical = {
        "quotient_unit": q.unit,
        "comprehension_counit": c.counit,
        "assert": inst.assert_closed_form(X, p),
        "instrument": inst.instrument_closed_form(X, p),
        "quotient_transpose": gq,
        "comprehension_transpose": gc,
    }
    bad = {}
    worst = 0.0
    for label, arrow in canonical.items():
        ok_cp, report = inst.cp_check(arrow, tol)
        sub = inst.subunital_defect(arrow)
        min_eig = report.get("min_eig")
        if min_eig is not None:
            worst = max(worst, -min_eig)
        worst = max(worst, sub)
        if not ok_cp or sub > tol:
            bad[label] = {"cp": report, "subunital_defect": sub}
    cpred = inst.rand_pred(rng, Y, bounds)
    dpred = inst.rand_pred(rng, Y, bounds)
    # Cauchy-Schwarz for cP maps, c* d = cd since effects are self-adjoint;
    # cd is generally non-Hermitian, hence the singular-value norm
    cd = tuple(cb @ db for cb, db in zip(cpred, dpred))
    cc = tuple(cb @ cb for cb in cpred)
    dd = tuple(db @ db for db in dpred)
    lhs = spectral_norm(inst.apply(fq, cd)) ** 2
    rhs = (spectral_norm(inst.apply(fq, cc))
           * spectral_norm(inst.apply(fq, dd)))
    cs_residual = max(0.0, lhs - rhs)
    ok = not bad and cs_residual <= tol
    if ok:
        return max(worst, cs_residual), True, None
    return max(worst, cs_residual, 1.0 if bad else 0.0), False, {
        "non_cp_maps": {k: {kk: vv for kk, vv in v.items()} for k, v in bad.items()},
        "cauchy_schwarz_residual": cs_residual,
        "X": inst.object_to_json(X), "p": inst.pred_to_json(X, p)}


def _case_ring_decompose(inst, rng, bounds, tol):
    X = inst.rand_object(rng, bounds)
    e = inst.rand_pred(rng, X, bounds)
    dec = inst.decompose(X, e)
    r1 = inst.map_residual(inst.compose(dec.split, dec.merge), inst.identity(X))
    r2 = inst.map_residual(inst.compose(dec.merge, dec.split),
                           inst.identity(dec.pair))
    res = max(r1, r2)
    if res <= tol:
        return res, True, None
    return res, False, {"split_then_merge": r1, "merge_then_split": r2,
                        "X": inst.object_to_json(X), "e": inst.pred_to_json(X, e)}


LAW_CASES = {
    "kleisli-laws": _case_kleisli,
    "subst-functor": _case_subst,
    "truth-falsum": _case_truth_falsum,
    "quotient-adjunction": partial(_case_adjunction, "quotient"),
    "comprehension-adjunction": partial(_case_adjunction, "comprehension"),
    "factorization": _case_factorization,
    "coincidence": _case_coincidence,
    "sharpness": _case_sharpness,
    "instrument": _case_instrument,
    "cp-sanity": _case_cp_sanity,
    "ring-decompose": _case_ring_decompose,
}

LAW_ORDER = list(LAW_CASES)

LAW_STATEMENTS = {
    "kleisli-laws": (
        "Composition of chain arrows is associative and the identity arrow "
        "is a two-sided unit."),
    "subst-functor": (
        "Substitution along a composite equals iterated substitution, "
        "substitution along the identity changes nothing, and substituting "
        "into truth yields truth."),
    "truth-falsum": (
        "Every arrow is a hom from truth to truth and from falsum to any "
        "predicate, and the substitution-based hom check agrees with the "
        "transpose preconditions."),
    "quotient-adjunction": (
        "Maps out of X that collapse p correspond one-to-one with maps out "
        "of the quotient carrier: transposing and composing back with the "
        "quotient unit are mutually inverse, and the mediating map is "
        "unique."),
    "comprehension-adjunction": (
        "Maps into X that land inside p correspond one-to-one with maps "
        "into the comprehension carrier: transposing and composing with "
        "the inclusion are mutually inverse, and the mediating map is "
        "unique."),
    "factorization": (
        "The assert map built as comprehension-inclusion after "
        "quotient-unit equals the instance's closed-form assert."),
    "coincidence": (
        "The quotient carrier of the complement of p is the same object as "
        "the comprehension carrier of the support of p."),
    "sharpness": (
        "floor(p-complement) equals ceil(p)-complement; the assert map is "
        "idempotent exactly for sharp p; the reverse composite "
        "(quotient-unit after comprehension-inclusion) is the identity on "
        "the carrier exactly for sharp p."),
    "instrument": (
        "The two-branch measurement combining assert-p and "
        "assert-p-complement equals its closed form; merging the branches "
        "recovers the identity exactly when measurement is side-effect "
        "free, which holds always classically and probabilistically but "
        "only for blockwise-scalar effects in the operator case."),
    "cp-sanity": (
        "All canonical operator-algebra maps are completely positive "
        "(blockwise Choi matrices positive semidefinite) and subunital, "
        "and they obey the Cauchy-Schwarz bound "
        "|f(c d)|^2 <= |f(c c)| * |f(d d)| for effects c, d."),
    "ring-decompose": (
        "An idempotent e splits a commutative ring into the product of its "
        "two corner ideals, with x -> (ex, (1-e)x) and addition as mutually "
        "inverse ring maps."),
}


def applicable_laws(inst) -> list:
    laws = {"kleisli-laws", "subst-functor", "truth-falsum",
            "quotient-adjunction", "comprehension-adjunction"}
    if inst.has_ortho:
        laws |= {"factorization", "coincidence", "sharpness"}
    if inst.has_instrument:
        laws.add("instrument")
    laws.update(inst.extra_laws)
    return [l for l in LAW_ORDER if l in laws]


# ---------------------------------------------------------------------------
# Exhaustive adjunction sweeps for the enumerable instances.
# ---------------------------------------------------------------------------


def _exhaustive_triple(inst, which, report, X, p, Y, cap, scan_cap):
    side = _side(inst, which, X, p)
    ends = side.ends(side.carrier, Y)
    if inst.count_arrows(*ends) > cap:
        return
    detail = None
    composites = set()
    for g in inst.iter_arrows(*ends):
        f = side.untranspose(g)
        key = _arrow_key(inst, f)
        if key in composites:
            detail = {"second_solution": inst.arrow_to_json(g)}
            break
        composites.add(key)
        if inst.map_residual(side.transpose(f), g) > 0.0:
            detail = {"round_trip": inst.arrow_to_json(g)}
            break
    homs = side.ends(X, Y)
    if detail is None and inst.count_arrows(*homs) <= scan_cap:
        src_obj, dst_obj = side.hom_objects(Y)
        n_homs = 0
        for f in inst.iter_arrows(*homs):
            if hom_check(inst, f, src_obj, dst_obj):
                n_homs += 1
                if _arrow_key(inst, f) not in composites:
                    detail = {"unreached_hom": inst.arrow_to_json(f)}
                    break
        if detail is None and n_homs != len(composites):
            detail = {"hom_count": n_homs, "candidate_count": len(composites)}
    if detail is not None:
        detail.update({"X": inst.object_to_json(X), "p": inst.pred_to_json(X, p),
                       "Y": inst.object_to_json(Y), "which": which})
    report.record(0.0 if detail is None else 1.0, detail is None, detail)


def run_exhaustive_adjunction(inst, which: str, bounds: dict,
                              seed: int = 0) -> LawReport:
    """Sweep every (object, predicate, object) triple the instance can
    enumerate within bounds, checking the full bijection of the chosen
    adjunction wherever the enumeration cap allows.

    Two budgets apply per triple.  The candidate sweep (round-trips plus
    injectivity over every mediating-map candidate) runs while the
    candidate space is at most `enumeration_cap`.  The surjectivity
    cross-check additionally re-derives the hom set through the generic
    substitution route, which costs a hom_check per arrow, so it gets
    the tighter `scan_cap`."""
    law = f"{which}-adjunction"
    report = LawReport(inst.name, law, seed)
    cap = bounds.get("enumeration_cap", ENUMERATION_CAP)
    scan_cap = min(cap, bounds.get("scan_cap", SCAN_CAP))
    objs = list(inst.iter_objects(bounds))
    for X in objs:
        for p in inst.iter_preds(X):
            for Y in objs:
                if inst.comparable_objects(X, Y):
                    _exhaustive_triple(inst, which, report, X, p, Y, cap, scan_cap)
    return report


# ---------------------------------------------------------------------------
# Runner.
# ---------------------------------------------------------------------------


def _with_tolerance(inst, tol):
    if tol is None:
        return inst
    tuned = copy.copy(inst)
    tuned.eq_tol = float(tol)
    return tuned


def run_law(inst, spec: CaseSpec) -> LawReport:
    """Run one law for `spec.cases` seeded cases (or exhaustively when
    spec.bounds['exhaustive'] is set on an enumerable adjunction law)."""
    inst = _with_tolerance(inst, spec.bounds.get("tolerance"))
    if spec.bounds.get("exhaustive") and spec.law.endswith("-adjunction"):
        which = spec.law.split("-")[0]
        return run_exhaustive_adjunction(inst, which, spec.bounds, spec.seed)
    case_fn = LAW_CASES[spec.law]
    report = LawReport(inst.name, spec.law, spec.seed)
    rng = random.Random(spec.seed)
    tol = float(inst.eq_tol)
    for i in range(spec.cases):
        try:
            residual, ok, detail = case_fn(inst, rng, spec.bounds, tol)
        except Exception as exc:  # laws must report, not crash
            report.record(1.0, False, _wit(i, f"exception: {exc!r}"))
            continue
        report.record(residual, ok,
                      None if ok else _wit(i, "law violated", **(detail or {})))
    return report


def gen_case(spec: CaseSpec) -> dict:
    """Deterministic sample of (object, predicate, hom) for a spec; the
    same spec always produces the same serialized case."""
    inst = INSTANCES[spec.instance]
    rng = random.Random(spec.seed)
    X = inst.rand_object(rng, spec.bounds)
    p = inst.rand_pred(rng, X, spec.bounds)
    Y = inst.rand_object(rng, spec.bounds, like=X)
    f = inst.rand_quotient_hom(rng, X, p, Y, spec.bounds)
    return {"instance": spec.instance, "seed": spec.seed,
            "object": inst.object_to_json(X), "pred": inst.pred_to_json(X, p),
            "target": inst.object_to_json(Y), "hom": inst.arrow_to_json(f)}


def run_suite(specs, instances=None) -> dict:
    """Run every spec and aggregate: deterministic ordering by (instance,
    law, seed); ok is the all-pass flag.  `instances` may override the
    registry (used to inject corrupted instances in mutation tests)."""
    registry = dict(INSTANCES)
    if instances:
        registry.update(instances)
    reports = []
    for spec in specs:
        inst = registry[spec.instance]
        reports.append(run_law(inst, spec))
    reports.sort(key=lambda r: (r.instance, r.law, r.seed))
    return {"ok": all(r.failures == 0 and r.cases > 0 for r in reports),
            "reports": [r.to_jsonable() for r in reports]}


# Default per-instance sampled case counts, sized so the whole default
# suite stays well under two minutes.
_DEFAULT_CASES = {
    "sets": 60, "nondet": 40, "dist": 80, "fp": 50,
    "hilb": 50, "ring": 40, "vn": 40,
}

# Small exhaustive sweeps included in the default suite; the acceptance
# tests run the full-size versions.
_DEFAULT_EXHAUSTIVE = {
    "sets": {"max_size": 3},
    "nondet": {"max_size": 2},
    "fp": {"fields": (2, 3), "max_dim": 2},
    "ring": {"max_order": 8},
}


def default_suite(seed: int = DEFAULT_SEED, cases: int = None,
                  instance: str = None, law: str = None, bounds=None) -> list:
    """The CLI's `check` workload: every applicable law on every instance,
    plus small exhaustive adjunction sweeps on the enumerable instances."""
    specs = []
    names = [instance] if instance else list(INSTANCES)
    for name in names:
        inst = INSTANCES[name]
        laws = applicable_laws(inst)
        if law:
            laws = [l for l in laws if l == law]
        n = _DEFAULT_CASES[name] if cases is None else cases
        for i, law_name in enumerate(laws):
            specs.append(CaseSpec(name, law_name, seed + i, n,
                                  dict(bounds or {})))
        for which in ("quotient", "comprehension"):
            law_name = f"{which}-adjunction"
            if name in _DEFAULT_EXHAUSTIVE and law in (None, law_name):
                b = dict(bounds or {}, **_DEFAULT_EXHAUSTIVE[name], exhaustive=True)
                specs.append(CaseSpec(name, law_name, 0, 0, b))
    return specs
