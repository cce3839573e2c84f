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

from .core import (
    ChainError,
    derive_assert,
    derive_instrument,
    falsum,
    hom_check,
    Law,
    side_effect,
    truth,
)
from .registry import INSTANCES
from .vnlinalg import reuse

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
    # What an exhaustive sweep left out, kept out of the JSON report: the
    # {"X", "p", "Y"} triples over the enumeration cap, and the number of
    # triples run without the hom-set scan, being over the scan cap.
    skipped: list = field(default_factory=list)
    scan_skipped: int = 0
    errors: int = 0  # cases that raised, also among the failures; not in JSON

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


def _raised(report, exc, **where) -> None:
    # An exception counts in `errors` and as a failure; cases must report,
    # not crash.
    report.errors += 1
    report.record(1.0, False, {"detail": f"exception: {exc!r}", **where})


def _returns(inst, a, there, back, tol) -> bool:
    # Whether back(there(a)) is a within tol; a ChainError there is a no.
    try:
        return inst.map_residual(back(there(a)), a) <= tol
    except ChainError:
        return False


def _arrow_key(inst, f):
    # The arrow data of an enumerable instance is a hashable canonical
    # value; one call site, so keys made can be counted.
    return f.data


# ---------------------------------------------------------------------------
# The shared laws, each a `Law`: its statement and its case function.
# An instance states and checks the laws only it carries in `own_laws`.
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
    return res, None if res <= tol else {
        "assoc": r1, "id_right": r2, "id_left": r3, "f": inst.arrow_to_json(f)}


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
    return res, None if res <= tol else {
        "functoriality": r1, "identity": r2, "unit": r3,
        "f": inst.arrow_to_json(f), "g": inst.arrow_to_json(g)}


def _case_truth_falsum(inst, rng, bounds, tol):
    X = inst.rand_object(rng, bounds)
    Y = inst.rand_object(rng, bounds, like=X)
    f = inst.rand_arrow(rng, X, Y, bounds)
    detail = {"truth_hom": hom_check(inst, f, truth(inst, X), truth(inst, Y)),
              "falsum_hom": hom_check(inst, f, falsum(inst, X), falsum(inst, Y)),
              "mixed_hom": hom_check(inst, f, falsum(inst, X), truth(inst, Y))}
    ok = all(detail.values())
    p = inst.rand_pred(rng, X, bounds)
    g = inst.rand_arrow(rng, Y, X, bounds)
    # The substitution-based hom check and the transpose precondition must
    # agree on whether f collapses p, and dually on whether g, a map into
    # X, lands inside p.  A construction that raises rejects the map and
    # leaves the hom check unasked (None), which disagrees.
    for which, h in (("quotient", f), ("comprehension", g)):
        built = None
        try:
            built = getattr(inst, which)(X, p)
            built.transpose(h)
            accepts = True
        except ChainError:
            accepts = False
        says = None if built is None else hom_check(inst, h, *built.hom_objects(inst, X, p, Y))
        detail[f"{which}_hom_check"] = says
        detail[f"{which}_transpose_accepts"] = accepts
        ok = ok and says == accepts
    return float(not ok), None if ok else {
        **detail, "f": inst.arrow_to_json(f), "g": inst.arrow_to_json(g),
        "p": inst.pred_to_json(X, p)}


def _unique(inst, rng, bounds, tol, built, ends) -> bool:
    """Composing with the unit or counit is injective on mediating maps:
    the candidates, when few, have distinct composites; else each of
    UNIQUE_SAMPLES random maps comes back from its own composite."""
    untranspose = partial(built.untranspose, inst)
    count = inst.count_arrows(*ends)
    if count is not None and count <= CASE_ENUM_BUDGET:
        keys = [_arrow_key(inst, untranspose(g)) for g in inst.iter_arrows(*ends)]
        return len(set(keys)) == len(keys)
    return all(_returns(inst, inst.rand_arrow(rng, *ends, bounds),
                        untranspose, built.transpose, tol)
               for _ in range(UNIQUE_SAMPLES))


def _case_adjunction(which, inst, rng, bounds, tol):
    X = inst.rand_object(rng, bounds)
    p = inst.rand_pred(rng, X, bounds)
    Y = inst.rand_object(rng, bounds, like=X)
    built = getattr(inst, which)(X, p)
    f = inst.rand_hom(rng, X, p, built, Y, bounds)
    r1 = inst.map_residual(built.untranspose(inst, built.transpose(f)), f)
    ends = built.ends(built.obj, Y)
    g0 = inst.rand_arrow(rng, *ends, bounds)
    r2 = inst.map_residual(built.transpose(built.untranspose(inst, g0)), g0)
    unique = _unique(inst, rng, bounds, tol, built, ends)
    res = max(r1, r2)
    return res, None if res <= tol and unique else {
        "round_trip_from_hom": r1, "round_trip_from_map": r2, "unique": unique,
        "X": inst.object_to_json(X), "p": inst.pred_to_json(X, p),
        "f": inst.arrow_to_json(f)}


def _case_factorization(inst, rng, bounds, tol):
    X = inst.rand_object(rng, bounds)
    p = inst.rand_pred(rng, X, bounds)
    composite = derive_assert(inst, X, p)
    closed = inst.assert_closed_form(X, p)
    res = inst.map_residual(composite, closed)
    return res, None if res <= tol else {
        "X": inst.object_to_json(X), "p": inst.pred_to_json(X, p),
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
    return (extra if ok else max(extra, 0.0 if same else 1.0)), None if ok else {
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
    return (demorgan if ok else max(demorgan, 1.0)), None if ok else {
        "demorgan": demorgan, "sharp": sharp,
        "assert_idempotency_residual": idem, "left_composite_residual": left_res,
        "X": inst.object_to_json(X), "p": inst.pred_to_json(X, p)}


def _case_instrument(inst, rng, bounds, tol):
    X = inst.rand_object(rng, bounds)
    p = inst.rand_pred(rng, X, bounds)
    derived = derive_instrument(inst, X, p)
    closed = inst.instrument_closed_form(X, p)
    r1 = inst.map_residual(derived, closed)
    merged, free = side_effect(inst, derived)
    predicted = inst.predicts_side_effect_free(X, p, tol)
    unit_res = inst.subunital_defect(closed)
    ok = r1 <= tol and free == predicted and unit_res <= tol
    res = max(r1, unit_res)
    return (max(res, 1.0) if free != predicted else res), None if ok else {
        "derived_vs_closed": r1, "side_effect_free": free,
        "predicted_free": predicted, "X": inst.object_to_json(X),
        "p": inst.pred_to_json(X, p)}


LAWS = {
    "kleisli-laws": Law(
        "Composition of chain arrows is associative and the identity arrow "
        "is a two-sided unit.", _case_kleisli),
    "subst-functor": Law(
        "Substitution along a composite equals iterated substitution, "
        "substitution along the identity changes nothing, and substituting "
        "into truth yields truth.", _case_subst),
    "truth-falsum": Law(
        "Every arrow is a hom from truth to truth and from falsum to any "
        "predicate, and the substitution-based hom check agrees with the "
        "transpose preconditions.", _case_truth_falsum),
    "quotient-adjunction": Law(
        "Maps out of X that collapse p correspond one-to-one with maps out "
        "of the quotient carrier: transposing and composing back with the "
        "quotient unit are mutually inverse, and the mediating map is "
        "unique.", partial(_case_adjunction, "quotient")),
    "comprehension-adjunction": Law(
        "Maps into X that land inside p correspond one-to-one with maps "
        "into the comprehension carrier: transposing and composing with "
        "the inclusion are mutually inverse, and the mediating map is "
        "unique.", partial(_case_adjunction, "comprehension")),
    "factorization": Law(
        "The assert map built as comprehension-inclusion after "
        "quotient-unit equals the instance's closed-form assert.", _case_factorization),
    "coincidence": Law(
        "The quotient carrier of the complement of p is the same object as "
        "the comprehension carrier of the support of p.", _case_coincidence),
    "sharpness": Law(
        "floor(p-complement) equals ceil(p)-complement; the assert map is "
        "idempotent exactly for sharp p; the reverse composite "
        "(quotient-unit after comprehension-inclusion) is the identity on "
        "the carrier exactly for sharp p.", _case_sharpness),
    "instrument": Law(
        "The two-branch measurement combining assert-p and "
        "assert-p-complement equals its closed form; merging the branches "
        "recovers the identity exactly when measurement is side-effect "
        "free, which holds always classically and probabilistically but "
        "only for blockwise-scalar effects in the operator case.", _case_instrument),
}
# Then the laws that only one registered instance carries, in name order.
LAWS.update(sorted((name, law) for inst in INSTANCES.values()
                   for name, law in inst.own_laws.items()))


def applicable_laws(inst) -> list:
    return [l for l in LAWS if l in inst.laws]


# ---------------------------------------------------------------------------
# Exhaustive adjunction sweeps for the enumerable instances.
# ---------------------------------------------------------------------------


def _exhaustive_triple(inst, built, which, report, X, p, Y, triple, cap):
    ends = built.ends(built.obj, Y)
    n_maps = inst.count_arrows(*ends)
    if n_maps > cap:
        report.skipped.append(triple)
        return
    untranspose = partial(built.untranspose, inst)
    detail = None
    for g in inst.iter_arrows(*ends):
        if not _returns(inst, g, untranspose, built.transpose, 0.0):
            detail = {"round_trip": inst.arrow_to_json(g)}
            break
    homs = built.ends(X, Y)
    if detail is None and inst.count_arrows(*homs) > min(cap, SCAN_CAP):
        report.scan_skipped += 1
    elif detail is None:
        src_obj, dst_obj = built.hom_objects(inst, X, p, Y)
        n_homs = 0
        for f in inst.iter_homs(built, X, p, Y):
            if hom_check(inst, f, src_obj, dst_obj):
                n_homs += 1
                if not _returns(inst, f, built.transpose, untranspose, 0.0):
                    detail = {"unreached_hom": inst.arrow_to_json(f)}
                    break
        if detail is None and n_homs != n_maps:
            detail = {"hom_count": n_homs, "candidate_count": n_maps}
    if detail is not None:
        detail.update(triple, which=which)
    report.record(0.0 if detail is None else 1.0, detail is None, detail)


def run_exhaustive_adjunction(inst, which: str, bounds: dict,
                              seed: int = 0) -> LawReport:
    """Sweep every (object, predicate, object) triple the instance can
    enumerate within bounds, proving the hom-set bijection of the chosen
    adjunction by two round trips and a count.  Every mediating-map
    candidate g has transpose(untranspose(g)) == g, so untranspose is
    injective; every hom f has untranspose(transpose(f)) == f, so it is
    reached; and the homs are as many as the candidates.  The homs are
    the arrows `inst.iter_homs` yields that hom_check accepts: the hook
    yields, in `iter_arrows` order, arrows among which lie all the homs,
    by default every arrow between X and Y; `nondet`, `sets` and `fp`
    build them from factors (the images allowed at each source atom;
    allowed rows or columns), each asked of hom_check.  A ChainError
    on the way fails the round trip.  Any other exception counts in
    `errors`, with a witness naming the triple, or only the direction
    when the instance cannot enumerate its objects and predicates at
    all.  Each (X, p) builds its
    construction once, at its first triple, for every Y; a build that
    raises is tried again, and fails, at each of its triples.

    The candidate loop runs while the candidates number at most
    `enumeration_cap`, and the hom scan, a hom_check per arrow the hook
    yields, while the arrows X -> Y (or Y -> X) number at most
    SCAN_CAP and `enumeration_cap`.  `skipped` names the triples over
    the first budget and `scan_skipped` counts those over the second."""
    report = LawReport(inst.name, f"{which}-adjunction", seed)
    cap = bounds.get("enumeration_cap", ENUMERATION_CAP)
    try:
        objs = list(inst.iter_objects(bounds))
        fibres = [(X, p) for X in objs for p in inst.iter_preds(X)]
    except Exception as exc:
        _raised(report, exc, which=which)
        return report
    for X, p in fibres:
        built = None
        for Y in filter(partial(inst.comparable_objects, X), objs):
            triple = {"X": inst.object_to_json(X), "p": inst.pred_to_json(X, p),
                      "Y": inst.object_to_json(Y)}
            try:
                if built is None:
                    built = getattr(inst, which)(X, p)
                _exhaustive_triple(inst, built, which, report, X, p, Y, triple, cap)
            except Exception as exc:
                _raised(report, exc, **triple, which=which)
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
    spec.bounds['exhaustive'] is set on an enumerable adjunction law).
    The report's matrix kernels share one `vnlinalg.reuse()` scope."""
    inst = _with_tolerance(inst, spec.bounds.get("tolerance"))
    with reuse():
        if spec.bounds.get("exhaustive") and spec.law.endswith("-adjunction"):
            which = spec.law.split("-")[0]
            return run_exhaustive_adjunction(inst, which, spec.bounds, spec.seed)
        case_fn = LAWS[spec.law].case
        report = LawReport(inst.name, spec.law, spec.seed)
        rng = random.Random(spec.seed)
        tol = float(inst.eq_tol)
        for i in range(spec.cases):
            try:
                residual, detail = case_fn(inst, rng, spec.bounds, tol)
            except Exception as exc:
                _raised(report, exc, case=i)
                continue
            report.record(residual, detail is None, None if detail is None
                          else {"case": i, "detail": "law violated", **detail})
        return report


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


def default_suite(seed: int = DEFAULT_SEED, cases: int = None,
                  instance: str = None, law: str = None, bounds=None) -> list:
    """The CLI's `check` workload: every applicable law on every instance,
    `inst.default_cases` cases each, plus the exhaustive adjunction sweeps
    within `inst.default_sweep` on the instances that declare one."""
    specs = []
    names = [instance] if instance else list(INSTANCES)
    for name in names:
        inst = INSTANCES[name]
        laws = applicable_laws(inst)
        if law:
            laws = [l for l in laws if l == law]
        n = inst.default_cases if cases is None else cases
        for i, law_name in enumerate(laws):
            specs.append(CaseSpec(name, law_name, seed + i, n,
                                  dict(bounds or {})))
        for which in ("quotient", "comprehension"):
            law_name = f"{which}-adjunction"
            if inst.default_sweep is not None and law_name in laws:
                b = dict(bounds or {}, **inst.default_sweep, exhaustive=True)
                specs.append(CaseSpec(name, law_name, 0, 0, b))
    return specs
