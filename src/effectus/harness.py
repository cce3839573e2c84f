"""Law-checking engine: seeded random cases and exhaustive sweeps for the
chain laws, with structured, replayable reports.

Reports are deterministic: identical specs produce byte-identical JSON.
Instances are passed as objects, so a test can inject a deliberately
corrupted subclass and watch the corresponding law fail.
"""

from __future__ import annotations

import copy
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, partial

from .core import (
    ChainError,
    derive_assert,
    derive_instrument,
    falsum,
    hom_check,
    Law,
    make_arrow,
    side_effect,
    truth,
)
from .registry import INSTANCES
from .vnlinalg import kernel_counts, reuse

DEFAULT_SEED = 20205
ENUMERATION_CAP = 10 ** 5
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
    # {"X", "p", "Y"} triples over the enumeration cap.
    skipped: list = field(default_factory=list)
    errors: int = 0  # cases that raised, also among the failures; not in JSON
    # Work done, not in JSON: "homs" walked, "<kernel>.calls", ".distinct".
    counters: Counter = field(default_factory=Counter)

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


def _fold(report, cases) -> LawReport:
    # The one case loop.  A case is (where, run); run() gives (residual,
    # detail), detail None exactly when the case held, or None for a triple
    # over the cap.  A raise counts in `errors`; a witness is where + detail.
    for where, run in cases:
        try:
            outcome = run()
        except Exception as exc:
            report.errors += 1
            outcome = 1.0, {"detail": f"exception: {exc!r}"}
        if outcome is not None:
            residual, detail = outcome
            report.record(residual, detail is None, detail and {**where, **detail})
    return report


def _arrow_key(inst, f):
    # No caller: perfbench/tracing.py counts this function's calls by
    # name, and cannot install over effectus without it.
    return f.data


# ---------------------------------------------------------------------------
# The shared laws, each a `Law`: its statement and its case function, or
# for a law of one fibre its check of a drawn (X, p).  An instance states
# and checks the laws only it carries in `own_laws`.
# ---------------------------------------------------------------------------


def _case_kleisli(inst, rng, bounds):
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
    return res, None if res <= inst.eq_tol else {
        "assoc": r1, "id_right": r2, "id_left": r3, "f": inst.arrow_to_json(f)}


def _case_subst(inst, rng, bounds):
    X = inst.rand_object(rng, bounds)
    Y = inst.rand_object(rng, bounds, like=X)
    Z = inst.rand_object(rng, bounds, like=X)
    f = inst.rand_arrow(rng, X, Y, bounds)
    g = inst.rand_arrow(rng, Y, Z, bounds)
    r = inst.rand_pred(rng, Z, bounds)
    q = inst.rand_pred(rng, Y, bounds)
    lhs = inst.subst(f, inst.subst(g, r))
    rhs = inst.subst(inst.compose(g, f), r)
    r1 = inst.pred_residual(X, lhs, rhs)
    r2 = inst.pred_residual(Y, inst.subst(inst.identity(Y), q), q)
    r3 = inst.pred_residual(X, inst.subst(f, inst.top(Y)), inst.top(X))
    res = max(r1, r2, r3)
    return res, None if res <= inst.eq_tol else {
        "functoriality": r1, "identity": r2, "unit": r3,
        "f": inst.arrow_to_json(f), "g": inst.arrow_to_json(g)}


def _case_truth_falsum(inst, rng, bounds):
    X = inst.rand_object(rng, bounds)
    Y = inst.rand_object(rng, bounds, like=X)
    f = inst.rand_arrow(rng, X, Y, bounds)
    p = inst.rand_pred(rng, X, bounds)
    g = inst.rand_arrow(rng, Y, X, bounds)
    detail = {"truth_hom": hom_check(inst, f, truth(inst, X), truth(inst, Y)),
              "falsum_hom": hom_check(inst, f, falsum(inst, X), falsum(inst, Y)),
              "mixed_hom": hom_check(inst, f, falsum(inst, X), truth(inst, Y))}
    ok = all(detail.values())
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
        says = None if built is None else hom_check(inst, h, *built.hom_objects(X, p, Y))
        detail[f"{which}_hom_check"] = says
        detail[f"{which}_transpose_accepts"] = accepts
        ok = ok and says == accepts
    return float(not ok), None if ok else {
        **detail, "f": inst.arrow_to_json(f), "g": inst.arrow_to_json(g),
        "p": inst.pred_to_json(X, p)}


def _case_adjunction(which, inst, rng, bounds):
    X = inst.rand_object(rng, bounds)
    p = inst.rand_pred(rng, X, bounds)
    Y = inst.rand_object(rng, bounds, like=X)
    built = getattr(inst, which)(X, p)
    f = inst.rand_hom(rng, X, p, built, Y, bounds)
    try:  # how far the round trip lands from f; 1.0 when a ChainError stops it
        r1 = inst.map_residual(built.untranspose(built.transpose(f)), f)
    except ChainError:
        r1 = 1.0
    # The mediating map is unique exactly when the unit is epi (counit mono).
    unique = inst.cancels(built.arrow, built.epi)
    return r1, None if r1 <= inst.eq_tol and unique else {
        "round_trip_from_hom": r1, "unique": unique,
        "X": inst.object_to_json(X), "p": inst.pred_to_json(X, p),
        "f": inst.arrow_to_json(f)}


def _check_factorization(inst, X, p):
    composite = derive_assert(inst, X, p)
    closed = inst.assert_closed_form(X, p)
    res = inst.map_residual(composite, closed)
    return res, None if res <= inst.eq_tol else {
        "composite": inst.arrow_to_json(composite),
        "closed_form": inst.arrow_to_json(closed)}


def _check_coincidence(inst, X, p):
    q = inst.quotient(X, inst.ortho(X, p))
    c = inst.comprehension(X, inst.ceil(X, p))
    same = inst.objects_equal(q.obj, c.obj)
    extra = inst.coincidence_residual(X, p, q, c)
    ok = same and extra <= inst.eq_tol
    return (extra if ok else max(extra, 0.0 if same else 1.0)), None if ok else {
        "objects_equal": same, "carrier_residual": extra}


def _check_sharpness(inst, X, p):
    demorgan = inst.pred_residual(
        X, inst.floor(X, inst.ortho(X, p)),
        inst.ortho(X, inst.ceil(X, p)))
    sharp = inst.is_sharp(X, p)
    asrt = inst.assert_closed_form(X, p)
    idem = inst.map_residual(inst.compose(asrt, asrt), asrt)
    q = inst.quotient(X, inst.ortho(X, p))
    c = inst.comprehension(X, inst.ceil(X, p))
    left = inst.compose(q.arrow, c.arrow)
    left_res = inst.map_residual(left, inst.identity(c.obj))
    ok = (demorgan <= inst.eq_tol
          and (idem <= inst.eq_tol) == (left_res <= inst.eq_tol) == sharp)
    return (demorgan if ok else max(demorgan, 1.0)), None if ok else {
        "demorgan": demorgan, "sharp": sharp,
        "assert_idempotency_residual": idem, "left_composite_residual": left_res}


def _check_instrument(inst, X, p):
    derived = derive_instrument(inst, X, p)
    closed = inst.instrument_closed_form(X, p)
    r1 = inst.map_residual(derived, closed)
    free = side_effect(inst, derived)[1]
    predicted = inst.predicts_side_effect_free(X, p)
    unit_res = inst.subunital_defect(closed)
    ok = r1 <= inst.eq_tol and free == predicted and unit_res <= inst.eq_tol
    res = max(r1, unit_res)
    return (max(res, 1.0) if free != predicted else res), None if ok else {
        "derived_vs_closed": r1, "side_effect_free": free,
        "predicted_free": predicted}


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
    "factorization": Law.on_fibre(
        "The assert map built as comprehension-inclusion after "
        "quotient-unit equals the instance's closed-form assert.", _check_factorization),
    "coincidence": Law.on_fibre(
        "The quotient carrier of the complement of p is the same object as "
        "the comprehension carrier of the support of p.", _check_coincidence),
    "sharpness": Law.on_fibre(
        "floor(p-complement) equals ceil(p)-complement; the assert map is "
        "idempotent exactly for sharp p; the reverse composite "
        "(quotient-unit after comprehension-inclusion) is the identity on "
        "the carrier exactly for sharp p.", _check_sharpness),
    "instrument": Law.on_fibre(
        "The two-branch measurement combining assert-p and "
        "assert-p-complement equals its closed form; merging the branches "
        "recovers the identity exactly when measurement is side-effect "
        "free, which holds always classically and probabilistically but "
        "only for blockwise-scalar effects in the operator case.", _check_instrument),
}
# Then the laws that only one registered instance carries, in name order.
LAWS.update(sorted((name, law) for inst in INSTANCES.values()
                   for name, law in inst.own_laws.items()))


def applicable_laws(inst) -> list:
    return [l for l in LAWS if l in inst.laws]


# ---------------------------------------------------------------------------
# Exhaustive adjunction sweeps for the enumerable instances.
# ---------------------------------------------------------------------------


def _exhaustive_triple(inst, build, report, X, p, Y, triple, cap):
    built = build()
    n_maps = inst.count_arrows(*built.ends(built.obj, Y))
    if n_maps > cap:
        report.skipped.append(triple)
        return
    transpose, untranspose = built.transpose_data, built.untranspose_data
    n_homs = 0
    for d in inst.iter_homs(built, X, p, Y):
        n_homs += 1
        try:  # as in `_case_adjunction`; a raise from iter_homs is an error
            missed = untranspose(transpose(d, Y), Y) != d
        except ChainError:
            missed = True
        if missed:
            detail = {"unreached_hom": inst.arrow_to_json(make_arrow((*built.ends(X, Y), d)))}
            break
    else:
        detail = None if n_homs == n_maps else {"hom_count": n_homs, "candidate_count": n_maps}
    report.counters["homs"] += n_homs
    return float(detail is not None), detail


def _throw(exc):
    raise exc


def _sweep(inst, which, bounds, report):
    # One case per triple, made as it runs; `cache` keeps no build that raised.
    cap = bounds.get("enumeration_cap", ENUMERATION_CAP)
    try:
        objs = list(inst.iter_objects(bounds))
        fibres = [(X, p) for X in objs for p in inst.iter_preds(X)]
    except Exception as exc:
        yield {"which": which}, partial(_throw, exc)
        return
    for X, p in fibres:
        build = cache(partial(getattr(inst, which), X, p))
        for Y in filter(partial(inst.comparable_objects, X), objs):
            triple = {"X": inst.object_to_json(X), "p": inst.pred_to_json(X, p),
                      "Y": inst.object_to_json(Y)}
            yield {**triple, "which": which}, partial(
                _exhaustive_triple, inst, build, report, X, p, Y, triple, cap)


def run_exhaustive_adjunction(inst, which: str, bounds: dict,
                              seed: int = 0) -> LawReport:
    """Sweep every (object, predicate, object) triple the instance can
    enumerate within bounds, proving the hom-set bijection of the chosen
    adjunction from the hom side.  Every hom f that `inst.iter_homs`
    yields (exactly the homs, each once) has untranspose(transpose(f))
    == f, so transpose is injective on the homs; and the homs are as
    many as the mediating-map candidates, so transpose is a bijection
    onto them with untranspose as its inverse.  The round trip runs on
    data, the triple fixing every end: data `==` is what `data_residual`
    decides on every instance that enumerates.  A ChainError on the way
    fails the round trip.  Any other exception counts in `errors`, with
    a witness naming the triple, or only the direction when the instance
    cannot enumerate its objects and predicates at all.  A triple runs
    while its candidates number at most `enumeration_cap`; `skipped`
    names the triples over it.  Each (X, p) builds its construction once,
    at its first triple, for every Y; a build that raises is tried again,
    and fails, at each of its triples."""
    report = LawReport(inst.name, f"{which}-adjunction", seed)
    return _fold(report, _sweep(inst, which, bounds, report))


# ---------------------------------------------------------------------------
# Runner.
# ---------------------------------------------------------------------------


def run_law(inst, spec: CaseSpec) -> LawReport:
    """Run one law for `spec.cases` seeded cases (or exhaustively when
    spec.bounds['exhaustive'] is set on an enumerable adjunction law).
    The report's matrix kernels share one `vnlinalg.reuse()` scope, whose
    kernel counts the report's `counters` keep."""
    if spec.bounds.get("tolerance") is not None:
        inst = copy.copy(inst)
        inst.eq_tol = float(spec.bounds["tolerance"])
    with reuse():
        if spec.bounds.get("exhaustive") and spec.law.endswith("-adjunction"):
            which = spec.law.split("-")[0]
            report = run_exhaustive_adjunction(inst, which, spec.bounds, spec.seed)
        else:
            run = partial(LAWS[spec.law].case, inst, random.Random(spec.seed), spec.bounds)
            cases = (({"case": i, "detail": "law violated"}, run) for i in range(spec.cases))
            report = _fold(LawReport(inst.name, spec.law, spec.seed), cases)
        report.counters.update(kernel_counts())
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
