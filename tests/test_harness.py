"""Law-checking engine: report schema, determinism, law coverage,
mutation detection, and the default suite's composition."""

import contextlib
import copy
import dataclasses
import hashlib
import itertools
import json
import math
import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from effectus import INSTANCES, STAR
from effectus import harness
from effectus import vnlinalg as la
from effectus.core import (
    Arrow, ChainError, ChainInstance, CompositionError, HomConditionError, Law, PredObject,
    ComprehensionResult, QuotientResult, atom_key, falsum, hom_check, truth)
from effectus.kleisli import (
    DistChain, FiniteSet, NondetChain, SetsChain, SubDist)
from effectus.harness import (
    DEFAULT_SEED,
    LAWS,
    MAX_WITNESSES,
    CaseSpec,
    LawReport,
    applicable_laws,
    default_suite,
    run_exhaustive_adjunction,
    run_law,
    run_suite,
)
from effectus.linear import FpChain, FpSpace, HilbChain, HilbSpace
from effectus.ring import Decomposition, PairRing, RingChain, ZProductRing
from effectus.vn import MatrixAlgebra, VnChain

SETS, NONDET, DIST = SetsChain(), NondetChain(), DistChain()

REPORT_KEYS = {"instance", "law", "cases", "failures", "witnesses",
               "max_residual", "seed"}

# keep sampled objects small so this file stays fast
FAST = {"max_size": 3, "max_den": 6, "max_dim": 2, "max_order": 8,
        "max_blocks": 1, "max_block_dim": 2}


def _spec(instance, law, seed=DEFAULT_SEED, cases=8, bounds=None):
    return CaseSpec(instance, law, seed, cases, dict(FAST, **(bounds or {})))


# ---------------------------------------------------------------------------
# Report shape and bookkeeping.
# ---------------------------------------------------------------------------


def test_report_jsonable_schema():
    report = run_law(INSTANCES["sets"], _spec("sets", "kleisli-laws"))
    data = report.to_jsonable()
    assert set(data) == REPORT_KEYS
    assert data["instance"] == "sets"
    assert data["law"] == "kleisli-laws"
    assert data["cases"] == 8
    assert data["failures"] == 0
    assert data["witnesses"] == []
    assert isinstance(data["max_residual"], float)
    assert data["seed"] == DEFAULT_SEED
    json.dumps(data)  # must be plain JSON types throughout


def test_no_failures_means_no_witnesses():
    for name, inst in INSTANCES.items():
        for law in applicable_laws(inst):
            report = run_law(inst, _spec(name, law, cases=5))
            if report.failures == 0:
                assert report.witnesses == [], (name, law)


def test_witness_recording_is_capped():
    report = LawReport("sets", "kleisli-laws", 0)
    for i in range(10):
        report.record(1.0, False, {"case": i})
    assert report.failures == 10
    assert len(report.witnesses) == MAX_WITNESSES


def test_law_statements_cover_every_law():
    for law in LAWS.values():
        assert isinstance(law.statement, str) and len(law.statement) > 20
        assert callable(law.case)
    # the shared laws first, then each instance's own laws in name order
    own = {name: law for inst in INSTANCES.values()
           for name, law in inst.own_laws.items()}
    shared = list(ChainInstance.laws)
    assert list(LAWS) == shared + sorted(own) == [
        *shared, "cp-sanity", "ring-decompose"]
    assert all(LAWS[name] is law for name, law in own.items())
    assert all(set(inst.own_laws) <= set(inst.laws) for inst in INSTANCES.values())


def test_applicable_laws_per_instance():
    base = ["kleisli-laws", "subst-functor", "truth-falsum",
            "quotient-adjunction", "comprehension-adjunction"]
    ortho = ["factorization", "coincidence", "sharpness"]
    assert applicable_laws(INSTANCES["sets"]) == base + ortho + ["instrument"]
    assert applicable_laws(INSTANCES["nondet"]) == base + ortho + ["instrument"]
    assert applicable_laws(INSTANCES["dist"]) == base + ortho + ["instrument"]
    assert applicable_laws(INSTANCES["fp"]) == base
    assert applicable_laws(INSTANCES["hilb"]) == base + ortho
    assert applicable_laws(INSTANCES["ring"]) == (
        base + ortho + ["instrument", "ring-decompose"])
    assert applicable_laws(INSTANCES["vn"]) == (
        base + ortho + ["instrument", "cp-sanity"])


class _RenamedVn(VnChain):
    name = "vn-renamed"


class _RenamedRing(RingChain):
    name = "ring-renamed"


def test_instance_declares_its_laws_not_its_name():
    assert applicable_laws(_RenamedVn()) == applicable_laws(INSTANCES["vn"])
    assert applicable_laws(_RenamedRing()) == applicable_laws(INSTANCES["ring"])


class _FewerLaws(SetsChain):
    laws = ("kleisli-laws", "comprehension-adjunction", "instrument")


def test_declared_laws_are_the_laws_checked(monkeypatch):
    # a misspelt name would drop its law silently
    assert all(set(i.laws) <= set(LAWS) for i in INSTANCES.values())
    inst = _FewerLaws()
    assert applicable_laws(inst) == list(inst.laws)
    monkeypatch.setitem(INSTANCES, "sets", inst)
    specs = default_suite(instance="sets")
    assert {s.law for s in specs} == set(inst.laws)
    # the comprehension adjunction is sampled and swept, the quotient neither
    assert [s.law for s in specs if s.bounds.get("exhaustive")] == [
        "comprehension-adjunction"]


def test_exact_follows_the_equality_tolerance():
    assert {name: inst.exact for name, inst in INSTANCES.items()} == {
        "sets": True, "nondet": True, "dist": True, "fp": True,
        "ring": True, "hilb": False, "vn": False}


def test_renamed_vn_keeps_side_effect_prediction():
    inst = _RenamedVn()
    X = MatrixAlgebra((2,))
    assert inst.predicts_side_effect_free(X, (0.3 * np.eye(2),))
    assert not inst.predicts_side_effect_free(X, (np.diag([0.8, 0.3]),))
    report = run_law(inst, _spec("vn-renamed", "instrument", cases=6))
    assert report.cases == 6 and report.failures == 0


# ---------------------------------------------------------------------------
# Determinism.
# ---------------------------------------------------------------------------


def test_run_suite_is_byte_deterministic():
    specs = [_spec("dist", "quotient-adjunction", seed=5, cases=6),
             _spec("sets", "truth-falsum", seed=2, cases=6),
             _spec("vn", "cp-sanity", seed=9, cases=4)]
    first = json.dumps(run_suite(specs), sort_keys=True)
    second = json.dumps(run_suite(specs), sort_keys=True)
    assert first == second


def test_run_suite_orders_reports():
    specs = [_spec("vn", "kleisli-laws", seed=3, cases=2),
             _spec("dist", "truth-falsum", seed=1, cases=2),
             _spec("dist", "kleisli-laws", seed=4, cases=2),
             _spec("dist", "kleisli-laws", seed=2, cases=2)]
    result = run_suite(specs)
    keys = [(r["instance"], r["law"], r["seed"]) for r in result["reports"]]
    assert keys == sorted(keys)


def test_empty_spec_list_is_success():
    assert run_suite([]) == {"ok": True, "reports": []}


def test_zero_cases_are_kept_and_never_pass():
    specs = default_suite(cases=0, instance="sets", law="kleisli-laws")
    assert [s.cases for s in specs] == [0]
    result = run_suite(specs + [_spec("sets", "subst-functor", cases=2)])
    assert [r["cases"] for r in result["reports"]] == [0, 2]
    assert all(r["failures"] == 0 for r in result["reports"])
    assert not result["ok"]


GOLDEN = Path(__file__).resolve().parent / "data" / "check_exact_seed7.json"


def test_exact_instances_match_golden_report():
    """Byte identity of the seeded and exhaustive reports on the exact
    instances; the float instances are left out because their residuals
    depend on the LAPACK build."""
    result = {name: run_suite(default_suite(seed=7, cases=4, instance=name))
              for name in ("sets", "nondet", "dist", "fp", "ring")}
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    assert text == GOLDEN.read_text()



# The arrows the exact instances enumerate, and what their seeded
# quotient-adjunction cases draw, hashed together: a passing report of an
# exact instance reads the same whatever maps it tested, so this digest
# is what changes when the enumeration order or the draws change.
ENUMERATED_AND_DRAWN_DIGEST = "0bec74101cb21763"
_ENUMERATED = (
    ("sets", FiniteSet((1, 2)), FiniteSet(("a", "b", "c"))),
    ("sets", FiniteSet(()), FiniteSet((1,))),
    ("nondet", FiniteSet((1, 2)), FiniteSet(("a", "b"))),
    ("nondet", FiniteSet((1,)), FiniteSet(())),
    ("fp", FpSpace(3, 2), FpSpace(3, 1)),
    ("fp", FpSpace(2, 2), FpSpace(2, 2)),
    ("fp", FpSpace(2, 0), FpSpace(2, 2)),
    ("fp", FpSpace(3, 1), FpSpace(3, 0)),
    ("ring", ZProductRing((2, 3)), ZProductRing((6,))),
    ("ring", ZProductRing((2, 2)), ZProductRing((2, 4))),
    ("ring", ZProductRing((12,)), ZProductRing((2, 6))),
)


def _hook_label(hook, args):
    # The log was pinned while each direction had a hom sampler of its
    # own, so a rand_hom draw is labelled by its construction's direction.
    if hook != "rand_hom":
        return hook
    which = "quotient" if isinstance(args[3], QuotientResult) else "comprehension"
    return f"rand_{which}_hom"


def _recording(inst, log):
    """inst's class, with every rand_* hook logging the JSON of its draw;
    a hook called inside another (a hom sampler drawing through
    rand_arrow) is part of the outer draw and is not logged apart."""
    depth = [0]

    def logged(hook, to_json):
        def wrapper(self, *args, **kwargs):
            depth[0] += 1
            try:
                out = getattr(super(cls, self), hook)(*args, **kwargs)
            finally:
                depth[0] -= 1
            if not depth[0]:
                log.append([_hook_label(hook, args), to_json(self, args, out)])
            return out
        return wrapper

    cls = type(f"Recording{type(inst).__name__}", (type(inst),), {
        "rand_object": logged("rand_object", lambda s, a, X: s.object_to_json(X)),
        "rand_pred": logged("rand_pred", lambda s, a, p: s.pred_to_json(a[1], p)),
        **{hook: logged(hook, lambda s, a, f: s.arrow_to_json(f))
           for hook in ("rand_arrow", "rand_hom")},
    })
    return cls()


def test_enumerated_and_drawn_arrows_are_pinned():
    log = [[name, inst.arrow_to_json(f)] for name, X, Y in _ENUMERATED
           for inst in [INSTANCES[name]] for f in inst.iter_arrows(X, Y)]
    for name in ("sets", "nondet", "fp", "ring"):
        report = run_law(_recording(INSTANCES[name], log),
                         CaseSpec(name, "quotient-adjunction", 7, 4))
        assert (report.cases, report.failures) == (4, 0)
    text = json.dumps(log, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == ENUMERATED_AND_DRAWN_DIGEST


# What dist's seeded adjunction cases draw, in both directions: dist
# enumerates nothing, so its draws are pinned apart, as JSON, which reads
# the same however an image is stored.  Its `cancels` decides uniqueness,
# so the log holds no rand_arrow draw.
DIST_DRAWN_DIGEST = "a3d20e6a1c46f6d8"


def test_dist_draws_are_pinned():
    log = []
    for law in ("quotient-adjunction", "comprehension-adjunction"):
        report = run_law(_recording(DIST, log), CaseSpec("dist", law, 7, 8))
        assert (report.cases, report.failures) == (8, 0)
    text = json.dumps(log, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == DIST_DRAWN_DIGEST

def _quotient_hom_draw(inst, seed, bounds):
    """A seeded draw of X, p, Y and a hom f: (X, p) -> falsum Y."""
    rng = random.Random(seed)
    X = inst.rand_object(rng, bounds)
    p = inst.rand_pred(rng, X, bounds)
    Y = inst.rand_object(rng, bounds, like=X)
    return X, p, Y, inst.rand_hom(rng, X, p, inst.quotient(X, p), Y, bounds)


def _draw_to_json(inst, seed, bounds):
    X, p, Y, f = _quotient_hom_draw(inst, seed, bounds)
    return (inst.object_to_json(X), inst.pred_to_json(X, p),
            inst.object_to_json(Y), inst.arrow_to_json(f))


def test_quotient_hom_draw_is_deterministic():
    bounds = {"max_size": 3}
    assert _draw_to_json(SETS, 1, bounds) == _draw_to_json(SETS, 1, bounds)
    assert _draw_to_json(SETS, 1, bounds) != _draw_to_json(SETS, 2, bounds)


def test_quotient_hom_respects_denominator_bound():
    _, _, _, f = _quotient_hom_draw(DIST, 7, {"max_den": 4})
    for _, kernel in DIST.arrow_to_json(f):
        for _, frac in kernel:
            den = int(frac.split("/")[1])
            assert den <= 4


@pytest.mark.parametrize("which", ("quotient", "comprehension"))
@pytest.mark.parametrize("name", list(INSTANCES))
def test_sampled_homs_pass_the_hom_check(name, which):
    """Every instance's hom sampler, its own or the default drawing
    through the construction, draws homs of the predicated category."""
    inst, bounds = INSTANCES[name], {}  # each instance's default sizes
    for seed in range(40):
        rng = random.Random(seed)
        X = inst.rand_object(rng, bounds)
        p = inst.rand_pred(rng, X, bounds)
        Y = inst.rand_object(rng, bounds, like=X)
        if which == "quotient":
            f = inst.rand_hom(rng, X, p, inst.quotient(X, p), Y, bounds)
            ends = PredObject(X, p), falsum(inst, Y)
        else:
            f = inst.rand_hom(rng, X, p, inst.comprehension(X, p), Y, bounds)
            ends = truth(inst, Y), PredObject(X, p)
        assert hom_check(inst, f, *ends), (seed, inst.arrow_to_json(f))


@pytest.mark.parametrize("name, which", [
    ("hilb", "comprehension"), ("vn", "comprehension"), ("hilb", "quotient")])
def test_homs_not_drawn_through_the_construction_come_back(name, which):
    """The default hom samplers compose with the unit or counit, so the
    seeded round trip from a hom only sees maps the construction made;
    here a hom is built through an assert map instead, and must still
    round-trip."""
    inst, bounds = INSTANCES[name], {}  # each instance's default sizes
    for seed in range(200):
        rng = random.Random(seed)
        X = inst.rand_object(rng, bounds)
        p = inst.rand_pred(rng, X, bounds)
        Y = inst.rand_object(rng, bounds, like=X)
        built = getattr(inst, which)(X, p)
        if which == "quotient":
            f = inst.compose(inst.rand_arrow(rng, X, Y, bounds),
                             inst.assert_closed_form(X, inst.ortho(X, p)))
        else:
            f = inst.compose(inst.assert_closed_form(X, inst.floor(X, p)),
                             inst.rand_arrow(rng, Y, X, bounds))
        assert hom_check(inst, f, *built.hom_objects(inst, X, p, Y)), seed
        back = built.untranspose(built.transpose(f))
        assert inst.map_residual(back, f) <= inst.eq_tol, seed


def _composite(inst, built, g):
    """g after the unit, or the counit after g, as `compose` makes it."""
    if isinstance(built, QuotientResult):
        return inst.compose(g, built.unit)
    return inst.compose(built.counit, g)


@pytest.mark.parametrize("which", ("quotient", "comprehension"))
@pytest.mark.parametrize("name", list(INSTANCES))
def test_carried_untranspose_is_the_composite(name, which):
    """Each construction carries its untranspose, which is the composite
    with its unit or counit: on 40 seeded mediating maps g at the
    instance's default sizes, and for sets and nondet on every g of
    every triple at max_size 2."""
    inst, bounds = INSTANCES[name], {}
    for seed in range(40):
        rng = random.Random(seed)
        X = inst.rand_object(rng, bounds)
        p = inst.rand_pred(rng, X, bounds)
        Y = inst.rand_object(rng, bounds, like=X)
        built = getattr(inst, which)(X, p)
        g = inst.rand_arrow(rng, *built.ends(built.obj, Y), bounds)
        back = built.untranspose(g)
        assert inst.map_residual(back, _composite(inst, built, g)) <= inst.eq_tol, seed
    if name in ("sets", "nondet"):
        objects = list(inst.iter_objects({"max_size": 2}))
        for X in objects:
            for p in inst.iter_preds(X):
                built = getattr(inst, which)(X, p)
                for Y in objects:
                    for g in inst.iter_arrows(*built.ends(built.obj, Y)):
                        back = built.untranspose(g)
                        assert inst.map_residual(back, _composite(inst, built, g)) == 0


@pytest.mark.parametrize("which", ("quotient", "comprehension"))
@pytest.mark.parametrize("name", ["sets", "nondet", "fp"])
def test_carried_untranspose_checks_the_carrier(name, which):
    """An untranspose that reads its unit or counit once composes a g
    whose carrier is an equal copy of the construction's as `compose`
    does, and refuses a g from another object as `compose` does."""
    inst = INSTANCES[name]
    objects = list(inst.iter_objects({"max_size": 2, "fields": (2,), "max_dim": 2}))
    for X in objects:
        for p in inst.iter_preds(X):
            built = getattr(inst, which)(X, p)
            for Y in objects:
                for g in itertools.islice(inst.iter_arrows(*built.ends(built.obj, Y)), 5):
                    ends = [copy.deepcopy(end) if end is built.obj else end
                            for end in (g.src, g.dst)]
                    copied = Arrow(*ends, g.data)
                    assert inst.map_residual(built.untranspose(copied),
                                             _composite(inst, built, g)) == 0
                other = next(Z for Z in objects if Z != built.obj)
                g = next(inst.iter_arrows(*built.ends(other, Y)))
                with pytest.raises(CompositionError):
                    built.untranspose(g)
                with pytest.raises(CompositionError):
                    _composite(inst, built, g)


def _same_data(inst, a, b) -> bool:
    return np.array_equal(a, b) if not inst.exact else a == b


@pytest.mark.parametrize("which", ("quotient", "comprehension"))
@pytest.mark.parametrize("name", list(INSTANCES))
def test_carried_transposes_wrap_their_data(name, which):
    """`transpose` and `untranspose` wrap the data maps a construction
    carries into arrows with exactly the ends `ends` gives, the carrier
    or X on one side and Y on the other: on 40 seeded homs and mediating
    maps at each instance's default sizes."""
    inst, bounds = INSTANCES[name], {}
    for seed in range(40):
        rng = random.Random(seed)
        X = inst.rand_object(rng, bounds)
        p = inst.rand_pred(rng, X, bounds)
        Y = inst.rand_object(rng, bounds, like=X)
        built = getattr(inst, which)(X, p)
        f = inst.rand_hom(rng, X, p, built, Y, bounds)
        g = inst.rand_arrow(rng, *built.ends(built.obj, Y), bounds)
        for arrow, ends, data in (
                (built.transpose(f), built.ends(built.obj, Y), built.transpose_data(f.data, Y)),
                (built.untranspose(g), built.ends(X, Y), built.untranspose_data(g.data, Y))):
            assert arrow.src is ends[0] and arrow.dst is ends[1], seed
            assert _same_data(inst, arrow.data, data), seed


def test_vn_quotient_hom_is_completely_positive():
    inst = INSTANCES["vn"]
    X, _, _, f = _quotient_hom_draw(inst, 3, {"max_blocks": 1, "max_block_dim": 2})
    assert all(dim <= 2 for dim in inst.object_to_json(X))
    ok, info = inst.cp_check(f)
    assert ok, info


# ---------------------------------------------------------------------------
# All laws pass on the honest instances.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(INSTANCES))
def test_every_applicable_law_passes(name):
    inst = INSTANCES[name]
    specs = [_spec(name, law, cases=6) for law in applicable_laws(inst)]
    result = run_suite(specs)
    bad = [r for r in result["reports"] if r["failures"]]
    assert result["ok"], bad


def test_exhaustive_adjunction_specs_pass():
    specs = [CaseSpec("sets", "quotient-adjunction", 0, 0,
                      {"exhaustive": True, "max_size": 2}),
             CaseSpec("ring", "comprehension-adjunction", 0, 0,
                      {"exhaustive": True, "max_order": 6})]
    result = run_suite(specs)
    assert result["ok"]
    for r in result["reports"]:
        assert r["cases"] > 0


def _triples(inst, bounds):
    objs = list(inst.iter_objects(bounds))
    return [(X, p, Y) for X in objs for p in inst.iter_preds(X) for Y in objs
            if inst.comparable_objects(X, Y)]


@pytest.mark.parametrize("which", ("quotient", "comprehension"))
def test_exhaustive_sweep_names_what_it_skips(which):
    bounds = {"max_size": 2, "enumeration_cap": 5}
    report = run_exhaustive_adjunction(INSTANCES["sets"], which, bounds)
    assert report.cases > 0 and report.skipped
    assert report.cases + len(report.skipped) == len(_triples(INSTANCES["sets"], bounds))
    for triple in report.skipped:
        assert set(triple) == {"X", "p", "Y"}
    # skipped and counters stay out of the JSON report
    assert report.counters["homs"] > 0
    assert set(report.to_jsonable()) == REPORT_KEYS


class _CountingNondet(NondetChain):
    """Counts the quotients and the comprehensions built."""

    def __init__(self):
        self.built = {"quotient": 0, "comprehension": 0}

    def quotient(self, X, p):
        self.built["quotient"] += 1
        return super().quotient(X, p)

    def comprehension(self, X, p):
        self.built["comprehension"] += 1
        return super().comprehension(X, p)


def _constructions_built(which):
    inst = _CountingNondet()
    bounds = {"max_size": 2}
    report = run_exhaustive_adjunction(inst, which, bounds)
    assert report.failures == 0 and report.cases > 0
    pairs = {(X, p) for X, p, _ in _triples(inst, bounds)}
    assert len(pairs) < report.cases
    return inst.built[which], len(pairs)


def test_comprehension_transposes_do_not_rebuild_the_carrier():
    built, pairs = _constructions_built("comprehension")
    assert built == pairs


def test_quotient_sweep_builds_one_quotient_per_pair():
    built, pairs = _constructions_built("quotient")
    assert built == pairs


def _failing_build(which, fibre):
    """A _CountingNondet whose `which` build raises over `fibre` alone."""

    def construct(self, X, p):
        if (X, p) == fibre:
            self.built[which] += 1
            raise RuntimeError("no build")
        return getattr(_CountingNondet, which)(self, X, p)

    return type("FailingBuildNondet", (_CountingNondet,), {which: construct})()


@pytest.mark.parametrize("which", ("quotient", "comprehension"))
def test_a_build_that_raises_fails_each_triple_of_its_fibre(which):
    bounds = {"max_size": 2}
    triples = _triples(NondetChain(), bounds)
    fibre = triples[len(triples) // 2][:2]
    inst = _failing_build(which, fibre)
    report = run_exhaustive_adjunction(inst, which, bounds)
    own = [t for t in triples if t[:2] == fibre]
    pairs = {t[:2] for t in triples}
    # the build is tried again, and fails, at each triple of its fibre
    assert len(own) > 1 and inst.built[which] == len(pairs) - 1 + len(own)
    assert report.cases == len(triples)
    assert report.errors == report.failures == len(own)
    X, p = fibre
    where = {"X": inst.object_to_json(X), "p": inst.pred_to_json(X, p), "which": which}
    assert len(report.witnesses) == min(len(own), MAX_WITNESSES)
    for w, (_, _, Y) in zip(report.witnesses, own):
        assert w == {**where, "Y": inst.object_to_json(Y),
                     "detail": "exception: RuntimeError('no build')"}


# ---------------------------------------------------------------------------
# Tolerance handling.
# ---------------------------------------------------------------------------


def test_overtight_vn_tolerance_reports_failures_without_crashing():
    specs = default_suite(instance="vn", bounds={"tolerance": 1e-15})
    result = run_suite(specs)
    assert not result["ok"]
    failing = [r for r in result["reports"] if r["failures"]]
    assert failing
    for report in failing:
        assert report["witnesses"]
    # the registry instance must keep its normal tolerance
    assert INSTANCES["vn"].eq_tol == pytest.approx(1e-9)


def test_tolerance_override_leaves_exact_instances_passing():
    spec = _spec("dist", "quotient-adjunction", cases=6,
                 bounds={"tolerance": 1e-15})
    assert run_suite([spec])["ok"]


class _ScaledDistTranspose(DistChain):
    """Divides the weights of its quotient transposes by a factor given
    when the instance is made."""

    def __init__(self, factor=1):
        self.factor = factor

    def quotient(self, X, p):
        q = super().quotient(X, p)

        def transpose(d, Y):
            g = q.transpose(Arrow(X, Y, d))
            return self.arrow(g.src, g.dst,
                              {x: SubDist(tuple((a, w / self.factor) for a, w in e.weights))
                               for x, e in self.table(g).items()}).data

        return dataclasses.replace(q, transpose_data=transpose)


@pytest.mark.parametrize("bounds", [{}, {"tolerance": 0.0}],
                         ids=["instance-tolerance", "given-tolerance"])
def test_tolerance_override_keeps_instance_state(bounds):
    inst = _ScaledDistTranspose(factor=2)
    spec = _spec("dist", "quotient-adjunction", cases=10, bounds=bounds)
    assert run_law(inst, spec).failures > 0
    assert inst.eq_tol == 0.0


# ---------------------------------------------------------------------------
# Mutation detection: a corrupted transpose must flip the suite to failing
# with a replayable witness.
# ---------------------------------------------------------------------------


def _halve_weights(g):
    return DIST.arrow(g.src, g.dst,
                      {x: SubDist(tuple((a, w / 2) for a, w in d.weights))
                       for x, d in DIST.table(g).items()})


def _abort_everywhere(g):
    return SETS.arrow(g.src, g.dst, {x: STAR for x in g.src})


def _corrupt(base, which, damage):
    """An instance of `base` whose `which` construction carries a transpose
    passed through `damage`, which takes and gives an arrow; the other
    direction stays honest."""

    def construct(self, X, p):
        r = getattr(base, which)(self, X, p)
        return dataclasses.replace(r, transpose_data=lambda d, Y: damage(
            r.transpose(Arrow(*r.ends(X, Y), d))).data)

    return type(f"Corrupt{base.__name__}", (base,), {which: construct})()


DIRECTIONS = ("quotient", "comprehension")


@pytest.mark.parametrize("which", DIRECTIONS)
def test_corrupted_transpose_is_detected(which):
    spec = _spec("dist", f"{which}-adjunction", cases=20)
    corrupt = _corrupt(DistChain, which, _halve_weights)
    result = run_suite([spec], instances={"dist": corrupt})
    assert not result["ok"]
    report = result["reports"][0]
    assert report["failures"] >= 1
    assert 1 <= len(report["witnesses"]) <= MAX_WITNESSES
    witness = report["witnesses"][0]
    # replayable: the case index plus serialized object, predicate, and hom
    assert witness["detail"] == "law violated"
    assert {"case", "X", "p", "f"} <= set(witness)
    assert report["seed"] == spec.seed
    # a law violation is not an error
    law_report = run_law(corrupt, spec)
    assert law_report.failures >= 1 and law_report.errors == 0


@pytest.mark.parametrize("which", DIRECTIONS)
def test_corrupted_transpose_detected_exhaustively(which):
    spec = CaseSpec("sets", f"{which}-adjunction", 0, 0,
                    {"exhaustive": True, "max_size": 2})
    corrupt = _corrupt(SetsChain, which, _abort_everywhere)
    result = run_suite([spec], instances={"sets": corrupt})
    assert not result["ok"]
    assert result["reports"][0]["witnesses"][0]["which"] == which
    assert run_suite([spec])["ok"]


class _MovedUnitImage(NondetChain):
    """A quotient unit that sends the first atom it keeps to the second
    one's image, when it keeps two; the transpose, which takes no
    scaling, stays honest."""

    def _scale(self, d, w, n):
        return 2 if (d, w) == (1, 1) and n > 1 else super()._scale(d, w, n)


def test_untranspose_reads_the_unit_it_carries():
    # the carried untranspose picks the rows of g at the unit's images, so
    # a moved image shows in the round trip, as a law violation
    report = run_exhaustive_adjunction(_MovedUnitImage(), "quotient", {"max_size": 2})
    assert report.failures >= 1 and report.errors == 0
    assert "unreached_hom" in report.witnesses[0]
    assert run_exhaustive_adjunction(NONDET, "quotient", {"max_size": 2}).failures == 0


def _moved_first_entry(which):
    """An FpChain whose `which` construction carries a unit (counit) with
    its first entry moved by 1, and the untranspose built from it; the
    transpose stays honest."""
    quotient = which == "quotient"

    def construct(self, X, p):
        built = getattr(FpChain, which)(self, X, p)
        honest = built.unit if quotient else built.counit
        if not (honest.data and honest.data[0]):
            return built
        (first, *row), *rows = honest.data
        moved = Arrow(honest.src, honest.dst, (((first + 1) % X.p, *row), *rows))
        carry = self.precompose if quotient else self.postcompose
        return type(built)(self, built.obj, moved, built.transpose_data, carry(moved))

    return type(f"MovedFirstEntry{which.title()}", (FpChain,), {which: construct})()


@pytest.mark.parametrize("which", DIRECTIONS)
def test_fp_untranspose_reads_the_unit_it_carries(which):
    # the sweep round-trips data through the untranspose the construction
    # carries, so a unit or counit off in one entry shows as a law violation
    bounds = {"fields": (2,), "max_dim": 2}
    report = run_exhaustive_adjunction(_moved_first_entry(which), which, bounds)
    assert report.failures >= 1 and report.errors == 0
    assert "unreached_hom" in report.witnesses[0]
    assert run_exhaustive_adjunction(INSTANCES["fp"], which, bounds).failures == 0


def _refuse(g):
    raise HomConditionError("refused")


@pytest.mark.parametrize("which", DIRECTIONS)
def test_refusing_transpose_fails_its_round_trip(which):
    # a refused genuine hom is a law violation, not an error, on both paths
    corrupt = _corrupt(SetsChain, which, _refuse)
    report = run_exhaustive_adjunction(corrupt, which, {"max_size": 2})
    assert report.cases == report.failures == 44 and report.errors == 0
    assert {"unreached_hom", "X", "p", "Y", "which"} == set(report.witnesses[0])
    report = run_law(corrupt, _spec("sets", f"{which}-adjunction", cases=20))
    assert report.cases == report.failures == 20 and report.errors == 0
    witness = report.witnesses[0]
    assert (witness["detail"], witness["round_trip_from_hom"]) == ("law violated", 1.0)
    assert {"case", "detail", "round_trip_from_hom", "unique", "X", "p", "f"} == set(witness)


class _EnumerationRaises(NondetChain):
    """A nondet whose `iter_homs` raises ChainError after its first hom."""

    def iter_homs(self, built, X, p, Y):
        for f in super().iter_homs(built, X, p, Y):
            yield f
            break
        raise HomConditionError("enumeration refused")


@pytest.mark.parametrize("which", DIRECTIONS)
def test_a_chain_error_from_the_enumeration_is_an_error(which):
    # the sweep catches ChainError around one hom's round trip only, so a
    # raise from iter_homs itself is no unreached hom
    report = run_exhaustive_adjunction(_EnumerationRaises(), which, {"max_size": 1})
    assert report.cases == report.failures == report.errors == 21
    assert [w["detail"] for w in report.witnesses] == [
        "exception: HomConditionError('enumeration refused')"] * MAX_WITNESSES
    assert report.counters["homs"] == 0


@pytest.mark.parametrize("name", ["dist", "hilb", "vn"])
def test_exhaustive_spec_on_a_non_enumerable_instance_reports(name):
    spec = CaseSpec(name, "quotient-adjunction", 0, 0, {"exhaustive": True})
    report = run_law(INSTANCES[name], spec)
    assert (report.cases, report.failures, report.errors) == (1, 1, 1)
    assert report.witnesses == [{
        "detail": f"exception: UnsupportedError('{name}: objects not enumerable')",
        "which": "quotient"}]
    assert not run_suite([spec])["ok"]


def _never_rejects(which):
    """A SetsChain whose `which` construction carries a transpose that
    never raises ChainError: a map the honest one rejects comes back as
    it is."""

    def construct(self, X, p):
        r = getattr(SetsChain, which)(self, X, p)

        def transpose(d, Y):
            try:
                return r.transpose_data(d, Y)
            except ChainError:
                return d

        return dataclasses.replace(r, transpose_data=transpose)

    return type(f"NeverRejects{which.title()}", (SetsChain,), {which: construct})()


@pytest.mark.parametrize("which", DIRECTIONS)
def test_truth_falsum_catches_a_transpose_that_never_rejects(which):
    spec = _spec("sets", "truth-falsum", cases=20)
    report = run_law(_never_rejects(which), spec)
    assert report.failures >= 1 and report.errors == 0
    witness = report.witnesses[0]
    assert witness[f"{which}_hom_check"] is False
    assert witness[f"{which}_transpose_accepts"] is True
    assert run_law(SETS, spec).failures == 0


@pytest.mark.parametrize("which", DIRECTIONS)
def test_corruption_in_one_direction_leaves_the_other_passing(which):
    other = next(d for d in DIRECTIONS if d != which)
    corrupt = _corrupt(SetsChain, which, _abort_everywhere)
    seeded = _spec("sets", f"{other}-adjunction", cases=10)
    exhaustive = CaseSpec("sets", f"{other}-adjunction", 0, 0,
                          {"exhaustive": True, "max_size": 2})
    assert run_suite([seeded, exhaustive], instances={"sets": corrupt})["ok"]


# The predicate layer of the Kleisli instances: one corruption of
# substitution and one of the order, each caught by its own law.

KLEISLI = {"sets": SetsChain, "nondet": NondetChain, "dist": DistChain}


class _TruthToFalsum:
    """Substitutes falsum for truth along every arrow out of a non-empty
    carrier."""

    def subst(self, f, q):
        if len(f.src) and q == self.top(f.dst):
            return self.bottom(f.src)
        return super().subst(f, q)


class _EverythingBelow:
    """Orders every predicate below every other."""

    def pred_leq(self, X, p, q):
        return True


class _NothingBelow:
    """Orders no predicate below any other."""

    def pred_leq(self, X, p, q):
        return False


def _truth_to_falsum_witnessed(w):
    return w["unit"] == 1.0 and {"f", "g"} <= set(w)


def _hom_check_disagrees(w):
    return (w["quotient_hom_check"] != w["quotient_transpose_accepts"]
            or w["comprehension_hom_check"] != w["comprehension_transpose_accepts"])


@pytest.mark.parametrize("corruption, law, witnessed", [
    (_TruthToFalsum, "subst-functor", _truth_to_falsum_witnessed),
    (_EverythingBelow, "truth-falsum", _hom_check_disagrees),
], ids=["subst-truth-to-falsum", "pred-leq-always"])
@pytest.mark.parametrize("name", sorted(KLEISLI))
def test_corrupted_predicate_layer_is_detected(name, corruption, law, witnessed):
    base = KLEISLI[name]
    corrupt = type(f"{corruption.__name__}{base.__name__}", (corruption, base), {})()
    spec = _spec(name, law, cases=20)
    report = run_law(corrupt, spec)
    assert report.failures >= 1 and report.errors == 0
    assert report.witnesses[0]["detail"] == "law violated"
    assert witnessed(report.witnesses[0])
    assert run_law(base(), spec).failures == 0


# Every law has teeth: one corruption per law that the law catches.


class _IdentityAbortsFirst:
    """The identity aborts at position 0."""

    def identity(self, X):
        data = super().identity(X).data
        return Arrow(X, X, tuple(self._abort(len(X)) if i == 0 else d
                                 for i, d in enumerate(data)))


class _AssertIsIdentity:
    def assert_closed_form(self, X, p):
        return self.identity(X)


class _CeilIsIdentity:
    def ceil(self, X, p):
        return p


class _FloorIsBottom:
    def floor(self, X, p):
        return self.bottom(X)


class _InstrumentOfComplement:
    def instrument_closed_form(self, X, p):
        return super().instrument_closed_form(X, self.ortho(X, p))


def _transpose_superop(X):
    """The superoperator of a -> a^T, blockwise: positive, not CP."""
    out = np.zeros((X.vdim, X.vdim), dtype=complex)
    pos = 0
    for n in X.block_dims:
        swap = np.eye(n * n).reshape(n, n, n * n).transpose(1, 0, 2)
        out[pos:pos + n * n, pos:pos + n * n] = swap.reshape(n * n, n * n)
        pos += n * n
    return out


class _TransposingInstrument:
    """The pass branch transposes before asserting p: still positive and
    unital, but not completely positive."""

    def instrument_closed_form(self, X, p):
        asrt = self.assert_closed_form(X, p)
        passing = Arrow(X, X, asrt.data @ _transpose_superop(X))
        return self.instrument_combine(
            X, passing, self.assert_closed_form(X, self.ortho(X, p)))


class _MergeKeepsFirst:
    """merge sends (a, b) to a, dropping the second corner."""

    def decompose(self, X, p):
        d = super().decompose(X, p)
        merge = Arrow(X, d.pair, tuple(a for a, _ in d.pair.elements()))
        return Decomposition(d.pair, d.split, merge)


def _only_cp_fails(w):
    (label, bad), = w["non_cp_maps"].items()
    return (label == "instrument" and bad["cp"]["min_eig"] < 0
            and bad["subunital_defect"] <= 1e-9)


TEETH = [
    ("kleisli-laws", SetsChain, _IdentityAbortsFirst,
     lambda w: w["assoc"] == 0 and w["id_right"] == 1.0),
    ("factorization", SetsChain, _AssertIsIdentity,
     lambda w: w["composite"] != w["closed_form"]),
    ("coincidence", DistChain, _CeilIsIdentity,
     lambda w: w["objects_equal"] is False),
    ("sharpness", SetsChain, _FloorIsBottom, lambda w: w["demorgan"] == 1.0),
    ("instrument", SetsChain, _InstrumentOfComplement,
     lambda w: w["derived_vs_closed"] == 1.0),
    ("cp-sanity", VnChain, _TransposingInstrument, _only_cp_fails),
    ("ring-decompose", RingChain, _MergeKeepsFirst,
     lambda w: w["merge_then_split"] == 1.0),
]


@pytest.mark.parametrize("law, base, corruption, witnessed", TEETH,
                         ids=[row[0] for row in TEETH])
def test_every_law_has_teeth(law, base, corruption, witnessed):
    corrupt = type(f"{corruption.__name__}{base.__name__}", (corruption, base), {})()
    spec = CaseSpec(base.name, law, 5, 40)
    report = run_law(corrupt, spec)
    assert report.failures >= 1 and report.errors == 0
    assert report.witnesses[0]["detail"] == "law violated"
    assert witnessed(report.witnesses[0])
    assert run_law(base(), spec).failures == 0


class _JunkInQuotient:
    """The quotient carrier gains an atom that the unit never reaches and
    where the transpose aborts: maps out of the carrier that differ only
    there have one composite, so composing with the unit is not
    injective."""

    def quotient(self, X, p):
        q = super().quotient(X, p)
        m = len(q.obj)
        obj = FiniteSet(q.obj.atoms + (("junk",),))
        widen = tuple(self._eta(j, m + 1) for j in range(m)) + (self._abort(m + 1),)

        def transpose(d, Y):
            return q.transpose_data(d, Y) + (self._abort(len(Y)),)

        unit = Arrow(X, obj, self._extend(q.unit.data, widen))
        return QuotientResult(self, obj, unit, transpose, self.precompose(unit))


class _JunkInComprehension:
    """The comprehension carrier gains an atom that the counit sends to
    abort and that no transpose reaches: maps into the carrier that send
    mass there or abort instead have one composite, so composing with the
    counit is not injective."""

    def comprehension(self, X, p):
        c = super().comprehension(X, p)
        m = len(c.obj)
        obj = FiniteSet(c.obj.atoms + (("junk",),))
        widen = tuple(self._eta(j, m + 1) for j in range(m)) + (self._abort(m + 1),)

        def transpose(d, Y):
            return self._extend(c.transpose_data(d, Y), widen)

        counit = Arrow(obj, X, c.counit.data + (self._abort(len(X)),))
        return ComprehensionResult(self, obj, counit, transpose, self.postcompose(counit))


def _junk_atom(base, which):
    junk = _JunkInQuotient if which == "quotient" else _JunkInComprehension
    return type(f"JunkIn{which.title()}{base.__name__}", (junk, base), {})()


def _junk_coordinate(base, which):
    """An fp `which` carrier with one more coordinate, a zero row of the
    unit or a zero column of the counit, where every transpose is 0: as
    in `_junk_dimension`, composing is not injective."""
    quotient = which == "quotient"

    def construct(self, X, p):
        built = getattr(base, which)(self, X, p)
        obj = FpSpace(X.p, built.obj.dim + 1)

        def transpose(d, Y):
            g = built.transpose_data(d, Y)
            if quotient:
                return tuple(r + (0,) for r in g)
            return g + ((0,) * Y.dim,)

        if quotient:
            unit = Arrow(X, obj, built.unit.data + ((0,) * X.dim,))
            return QuotientResult(self, obj, unit, transpose, self.precompose(unit))
        counit = Arrow(obj, X, tuple(r + (0,) for r in built.counit.data))
        return ComprehensionResult(self, obj, counit, transpose, self.postcompose(counit))

    return type(f"JunkIn{which.title()}{base.__name__}", (base,), {which: construct})()


def _pad(data, axis):
    """data with one more row (axis 0) or column (axis 1) of zeros."""
    return np.pad(data, [(0, int(axis == 0)), (0, int(axis == 1))])


def _junk_dimension(base, which):
    """A `base` (hilb or vn) whose `which` carrier gains one dimension, a
    1 x 1 block on vn, that the unit never reaches or the counit sends to
    0, and where every transpose is 0: maps out of (into) the carrier
    that differ only there have one composite, so composing with the
    unit (counit) is not injective.  hilb data index the codomain along
    axis 0 and vn data along axis 1, so `axis` indexes the carrier in the
    unit's or counit's data, and the other axis in a transpose's."""
    hilb, quotient = issubclass(base, HilbChain), which == "quotient"
    axis = int(hilb != quotient)

    def construct(self, X, p):
        built = getattr(base, which)(self, X, p)
        obj = (HilbSpace(built.obj.dim + 1) if hilb
               else MatrixAlgebra(built.obj.block_dims + (1,)))

        def transpose(d, Y):
            return _pad(built.transpose_data(d, Y), 1 - axis)

        honest = built.unit if quotient else built.counit
        canonical = Arrow(*built.ends(X, obj), _pad(honest.data, axis))
        carry = self.precompose if quotient else self.postcompose
        return type(built)(self, obj, canonical, transpose, carry(canonical))

    return type(f"JunkIn{which.title()}{base.__name__}", (base,), {which: construct})()


def _junk_factor(base, which):
    """A ring `which` carrier times Z_2, a factor that the unit forgets
    or the counit never reaches, and where every transpose is 0: maps
    out of (into) the carrier that differ only there have one composite,
    so composing with the unit (counit) is not injective."""
    quotient = which == "quotient"

    def construct(self, X, p):
        built = getattr(base, which)(self, X, p)
        obj = PairRing(built.obj, ZProductRing((2,)))

        def forget(data):  # a table over built.obj, read at the first factor
            table = dict(zip(built.obj.elements(), data))
            return tuple(table[a] for a, _ in obj.elements())

        def pad(data):  # a table into built.obj, with 0 at the second factor
            return tuple((a, (0,)) for a in data)

        if quotient:
            unit = Arrow(X, obj, forget(built.unit.data))
            return QuotientResult(self, obj, unit, lambda d, Y: pad(built.transpose_data(d, Y)),
                                  self.precompose(unit))
        counit = Arrow(obj, X, pad(built.counit.data))
        return ComprehensionResult(self, obj, counit,
                                   lambda d, Y: forget(built.transpose_data(d, Y)),
                                   self.postcompose(counit))

    return type(f"JunkIn{which.title()}{base.__name__}", (base,), {which: construct})()


def _untested(base, which):
    """A `base` with no cancellation test of its own."""
    return type(f"Untested{base.__name__}", (base,), {"cancels": ChainInstance.cancels})()


# On each junk carrier the instance's `cancels` says False: sets at
# max_size 3, an enumerable instance, and dist, which enumerates nothing,
# by the Kleisli point test; fp, hilb and vn by the rank of the unit or
# counit; ring by its table.  An instance without a test fails too.
@pytest.mark.parametrize("base, which, junk, bounds", [
    (SetsChain, "quotient", _junk_atom, {"max_size": 3}),
    (DistChain, "quotient", _junk_atom, {}),
    (FpChain, "quotient", _junk_coordinate, {}),
    *[(base, which, junk, {}) for base, junk in ((HilbChain, _junk_dimension),
                                                 (VnChain, _junk_dimension),
                                                 (RingChain, _junk_factor))
      for which in ("quotient", "comprehension")],
    (RingChain, "quotient", _untested, {}),
], ids=["sets-quotient", "dist-quotient", "fp-quotient", "hilb-quotient",
        "hilb-comprehension", "vn-quotient", "vn-comprehension",
        "ring-quotient", "ring-comprehension", "untested"])
def test_unique_clause_has_teeth(base, which, junk, bounds):
    spec = CaseSpec(base.name, f"{which}-adjunction", 5, 40, bounds)
    report = run_law(junk(base, which), spec)
    assert report.failures >= 1 and report.errors == 0
    assert all(w["unique"] is False for w in report.witnesses)
    assert run_law(base(), spec).failures == 0


def _round_trips(inst, rng, built, ends, tol):
    """Whether every candidate map between `ends` comes back from its
    composite with the unit (counit): all the maps when they number at
    most 2,000, else 12 drawn ones.  Two maps with one composite cannot
    both come back from it."""
    count = inst.count_arrows(*ends)
    if count is not None and count <= 2000:
        candidates = inst.iter_arrows(*ends)
    else:
        candidates = [inst.rand_arrow(rng, *ends, {}) for _ in range(12)]

    def residual(g):  # how far g comes back; 1.0 when a ChainError stops it
        try:
            return inst.map_residual(built.transpose(built.untranspose(g)), g)
        except ChainError:
            return 1.0

    return all(residual(g) <= tol for g in candidates)


@pytest.mark.parametrize("which", ["quotient", "comprehension"])
@pytest.mark.parametrize("base, make_junk", [
    (SetsChain, _junk_atom), (NondetChain, _junk_atom), (DistChain, _junk_atom),
    (FpChain, _junk_coordinate), (HilbChain, _junk_dimension),
    (VnChain, _junk_dimension), (RingChain, _junk_factor),
], ids=["sets", "nondet", "dist", "fp", "hilb", "vn", "ring"])
def test_cancellation_agrees_with_sampled_round_trips(base, make_junk, which):
    """Over 100 seeded (X, p, Y) at the default bounds, `cancels` finds
    the unit epi (the counit mono), and the round trips pass: the test is
    sound.  On the junk carrier `cancels` says False, and so do the round
    trips, unless the junk adds no candidate map: Y is empty or
    0-dimensional, or no nonzero ring map joins the ring Y to Z_2."""
    honest, junk = base(), make_junk(base, which)
    epi = which == "quotient"
    tol = float(honest.eq_tol)
    for seed in range(100):
        rng = random.Random(seed)
        X = honest.rand_object(rng, {})
        p = honest.rand_pred(rng, X, {})
        Y = honest.rand_object(rng, {}, like=X)
        counts = []
        for inst, verdict in ((honest, True), (junk, False)):
            built = getattr(inst, which)(X, p)
            ends = built.ends(built.obj, Y)
            counts.append(honest.count_arrows(*ends))
            assert honest.cancels(built.unit if epi else built.counit, epi) is verdict
            adds_none = counts[-1] is not None and counts[-1] == counts[0]
            assert _round_trips(honest, rng, built, ends, tol) is (verdict or adds_none)


# The `iter_homs` of sets, nondet and fp ask hom_check for their factors,
# so a corrupted order changes the homs they yield and breaks the
# bijection from the hom side: a yielded non-hom the transpose refuses,
# or fewer homs than candidates.  A map with no factor to ask is yielded
# without asking the order, so a triple with an empty hom source (X in
# the quotient, Y in the comprehension), or with Y = F_2^0, still passes.
_FP1, _FP0 = {"field": 2, "dim": 1}, {"field": 2, "dim": 0}
_NO_HOM = {"hom_count": 0, "candidate_count": 1}
CORRUPTED_ORDER = {
    "everything-below-quotient": (SetsChain, _EverythingBelow, "quotient", 44, 21,
                                  {"X": [1], "p": [1], "Y": [1], "unreached_hom": [[1, 1]]}),
    "everything-below-comprehension": (SetsChain, _EverythingBelow, "comprehension", 44, 21,
                                       {"X": [1], "p": [], "Y": [1], "unreached_hom": [[1, 1]]}),
    "nothing-below-quotient": (SetsChain, _NothingBelow, "quotient", 44, 40,
                               {"X": [1], "p": [], "Y": [], **_NO_HOM}),
    "nothing-below-comprehension": (SetsChain, _NothingBelow, "comprehension", 44, 33,
                                    {"X": [], "p": [], "Y": [1], **_NO_HOM}),
    "nondet-everything-below-quotient": (
        NondetChain, _EverythingBelow, "quotient", 44, 21,
        {"X": [1], "p": [1], "Y": [1], "unreached_hom": [[1, [1]]]}),
    "nondet-everything-below-comprehension": (
        NondetChain, _EverythingBelow, "comprehension", 44, 21,
        {"X": [1], "p": [], "Y": [1], "unreached_hom": [[1, [1]]]}),
    "nondet-nothing-below-quotient": (NondetChain, _NothingBelow, "quotient", 44, 40,
                                      {"X": [1], "p": [], "Y": [], **_NO_HOM}),
    "nondet-nothing-below-comprehension": (NondetChain, _NothingBelow, "comprehension", 44, 33,
                                           {"X": [], "p": [], "Y": [1], **_NO_HOM}),
    "fp-everything-below-quotient": (FpChain, _EverythingBelow, "quotient", 24, 10,
                                     {"X": _FP1, "p": [[1]], "Y": _FP1, "unreached_hom": [[1]]}),
    "fp-everything-below-comprehension": (FpChain, _EverythingBelow, "comprehension", 24, 10,
                                          {"X": _FP1, "p": [], "Y": _FP1, "unreached_hom": [[1]]}),
    "fp-nothing-below-quotient": (FpChain, _NothingBelow, "quotient", 24, 16,
                                  {"X": _FP0, "p": [], "Y": _FP1, **_NO_HOM}),
    "fp-nothing-below-comprehension": (FpChain, _NothingBelow, "comprehension", 24, 16,
                                       {"X": _FP0, "p": [], "Y": _FP1, **_NO_HOM}),
}
SMALL_SWEEP = {"max_size": 2, "fields": (2,), "max_dim": 2}


@pytest.mark.parametrize("base, corruption, which, cases, failures, first",
                         CORRUPTED_ORDER.values(), ids=CORRUPTED_ORDER)
def test_hom_scan_catches_a_corrupted_order(base, corruption, which, cases, failures, first):
    corrupt = type(f"{corruption.__name__}{base.__name__}", (corruption, base), {})()
    report = run_exhaustive_adjunction(corrupt, which, SMALL_SWEEP)
    assert (report.cases, report.failures, report.errors) == (cases, failures, 0)
    assert json.loads(json.dumps(report.witnesses[0])) == dict(first, which=which)


def _filtered_triples(inst, which, bounds, cap):
    """(built, X, p, Y) of each triple an exhaustive sweep within bounds
    runs whose arrows X -> Y (or Y -> X) number at most cap, few enough
    to filter them all by hom_check."""
    objs = list(inst.iter_objects(bounds))
    out = []
    for X in objs:
        for p in inst.iter_preds(X):
            built = getattr(inst, which)(X, p)
            out += [(built, X, p, Y) for Y in objs if inst.comparable_objects(X, Y)
                    and inst.count_arrows(*built.ends(built.obj, Y)) <= harness.ENUMERATION_CAP
                    and inst.count_arrows(*built.ends(X, Y)) <= cap]
    return out


# The acceptance bounds (tests/test_acceptance.py), and the triples with
# at most FILTER_CAP arrows X -> Y among them, as many in either direction.
FILTER_CAP = 4000
ACCEPTANCE_FILTERED = {"sets": ({"max_size": 4}, 210), "nondet": ({"max_size": 4}, 170),
                       "fp": ({"fields": (2, 3), "max_dim": 3}, 216)}


@pytest.mark.parametrize("which", DIRECTIONS)
@pytest.mark.parametrize("name", ACCEPTANCE_FILTERED)
def test_iter_homs_agrees_with_the_filter(name, which):
    """On every acceptance triple with few enough arrows to filter, the
    instance's `iter_homs` yields each hom once, and exactly the arrows
    X -> Y that pass hom_check."""
    inst = INSTANCES[name]
    bounds, filtered = ACCEPTANCE_FILTERED[name]
    triples = _filtered_triples(inst, which, bounds, FILTER_CAP)
    assert len(triples) == filtered
    for built, X, p, Y in triples:
        objects = built.hom_objects(inst, X, p, Y)
        yielded = list(inst.iter_homs(built, X, p, Y))
        assert len(set(yielded)) == len(yielded)
        assert sorted(yielded) == sorted(
            f.data for f in inst.iter_arrows(*built.ends(X, Y)) if hom_check(inst, f, *objects))


# Each enumerable instance's acceptance object bounds, and the triples
# among them with at most ENUMERATION_CAP homs, as many as candidates.
ACCEPTANCE_OBJECTS = {"sets": ({"max_size": 4}, 210), "nondet": ({"max_size": 4}, 209),
                      "fp": ({"fields": (2, 3), "max_dim": 3}, 244),
                      "ring": ({"max_order": 12}, 1617)}


@pytest.mark.parametrize("which", DIRECTIONS)
@pytest.mark.parametrize("name", ACCEPTANCE_OBJECTS)
def test_iter_homs_yields_each_hom_once(name, which):
    """The sweep counts the homs `iter_homs` yields against the candidates,
    trusting that none comes twice: on every acceptance triple with at most
    ENUMERATION_CAP homs, no two yielded homs have equal data."""
    inst = INSTANCES[name]
    bounds, count = ACCEPTANCE_OBJECTS[name]
    triples = _filtered_triples(inst, which, bounds, math.inf)
    assert len(triples) == count
    for built, X, p, Y in triples:
        yielded = list(inst.iter_homs(built, X, p, Y))
        assert len(set(yielded)) == len(yielded)


class _CountingHoms(FpChain):
    """Counts the calls of `iter_homs` and the homs they yield."""

    def __init__(self):
        self.calls = self.homs = 0

    def iter_homs(self, built, X, p, Y):
        self.calls += 1
        for f in super().iter_homs(built, X, p, Y):
            self.homs += 1
            yield f


@pytest.mark.parametrize("which", DIRECTIONS)
def test_hom_side_covers_every_triple_under_the_cap(which):
    """At the acceptance bounds, the fp sweep runs every triple from the
    hom side, and the homs it walks are as many as the candidates."""
    inst = _CountingHoms()
    bounds = ACCEPTANCE_FILTERED["fp"][0]
    report = run_exhaustive_adjunction(inst, which, bounds)
    assert (report.cases, report.failures, report.skipped) == (244, 0, [])
    assert inst.calls == 244
    candidates = sum(inst.count_arrows(*built.ends(built.obj, Y))
                     for built, X, p, Y in _filtered_triples(inst, which, bounds, math.inf))
    assert inst.homs == candidates == report.counters["homs"]


def test_check_and_direct_sweeps_count_the_same_homs():
    """Each exhaustive sweep of the default suite counts the same homs
    through `run_law`, the path `effectus check` takes, as through
    `run_exhaustive_adjunction`, the path the exhaustive-exact workload
    takes."""
    sweeps = [s for s in default_suite(1) if s.bounds.get("exhaustive")]
    assert sweeps
    for spec in sweeps:
        inst, which = INSTANCES[spec.instance], spec.law.split("-")[0]
        checked = run_law(inst, spec).counters
        direct = run_exhaustive_adjunction(inst, which, spec.bounds, spec.seed).counters
        assert checked == direct and direct["homs"] > 0, spec


class _DropsLastHom:
    """iter_homs leaves out its last hom."""

    def iter_homs(self, built, X, p, Y):
        return list(super().iter_homs(built, X, p, Y))[:-1]


class _NonHomForLastHom:
    """iter_homs yields the first non-hom, where there is one, in place
    of its last hom."""

    def iter_homs(self, built, X, p, Y):
        homs = list(super().iter_homs(built, X, p, Y))
        objects = built.hom_objects(self, X, p, Y)
        non_homs = [f.data for f in self.iter_arrows(*built.ends(X, Y))
                    if not hom_check(self, f, *objects)]
        return homs[:-1] + non_homs[:1] if non_homs else homs


# Every triple has a hom (the map aborting everywhere), so dropping one
# fails all 44; a non-hom in place of a hom, which the transpose refuses,
# fails the 21 triples that have a non-hom to yield, the triples an order
# putting everything below everything fails too.
@pytest.mark.parametrize("corruption, which, failures, first", [
    (_DropsLastHom, "quotient", 44, {"X": [], "p": [], "Y": [], **_NO_HOM}),
    (_DropsLastHom, "comprehension", 44, {"X": [], "p": [], "Y": [], **_NO_HOM}),
    (_NonHomForLastHom, "quotient", 21,
     {"X": [1], "p": [1], "Y": [1], "unreached_hom": [[1, [1]]]}),
    (_NonHomForLastHom, "comprehension", 21,
     {"X": [1], "p": [], "Y": [1], "unreached_hom": [[1, [1]]]}),
], ids=["drops-last-quotient", "drops-last-comprehension",
        "non-hom-quotient", "non-hom-comprehension"])
def test_hom_scan_catches_a_corrupted_iter_homs(corruption, which, failures, first):
    corrupt = type(f"{corruption.__name__}Nondet", (corruption, NondetChain), {})()
    report = run_exhaustive_adjunction(corrupt, which, {"max_size": 2})
    assert (report.cases, report.failures, report.errors) == (44, failures, 0)
    assert json.loads(json.dumps(report.witnesses[0])) == dict(first, which=which)


def _star_to_first(g):
    return SETS.arrow(g.src, g.dst, {x: g.dst.atoms[0] if y is STAR and len(g.dst) else y
                                     for x, y in SETS.table(g).items()})


def _drop_last(g):
    return NONDET.arrow(g.src, g.dst, {x: d - {max(d, key=atom_key)} if len(d) > 1 else d
                                       for x, d in NONDET.table(g).items()})


EXHAUSTIVE_GOLDEN = GOLDEN.with_name("exhaustive_corrupt_witnesses.json")


def test_exhaustive_witnesses_match_golden():
    """Byte identity of the witnesses of exhaustive sweeps over corrupted
    transposes, which fail on homs past the first: this pins the order
    `iter_homs` enumerates in and the witness serialization."""
    reports = []
    for name, base, damage in (("sets", SetsChain, _star_to_first),
                               ("nondet", NondetChain, _drop_last)):
        for which in DIRECTIONS:
            spec = CaseSpec(name, f"{which}-adjunction", 0, 0,
                            {"exhaustive": True, "max_size": 2})
            corrupt = _corrupt(base, which, damage)
            reports += run_suite([spec], instances={name: corrupt})["reports"]
    text = json.dumps(reports, indent=1, sort_keys=True) + "\n"
    assert text == EXHAUSTIVE_GOLDEN.read_text()


def test_honest_registry_is_untouched_by_override():
    spec = _spec("dist", "quotient-adjunction", cases=10)
    corrupt = _corrupt(DistChain, "quotient", _halve_weights)
    assert not run_suite([spec], instances={"dist": corrupt})["ok"]
    assert run_suite([spec])["ok"]


def _boom(g):
    raise RuntimeError("boom")


def test_crashing_law_is_reported_not_raised():
    seeded = _spec("dist", "quotient-adjunction", cases=3)
    exhaustive = CaseSpec("sets", "quotient-adjunction", 0, 0,
                          {"exhaustive": True, "max_size": 2})
    # a seeded witness names its case, an exhaustive one its triple
    for spec, base, cases, names in (
            (seeded, DistChain, 3, {"case"}),
            (exhaustive, SetsChain, 44, {"X", "p", "Y", "which"})):
        exploding = _corrupt(base, "quotient", _boom)
        result = run_suite([spec], instances={spec.instance: exploding})
        report = result["reports"][0]
        assert report["cases"] == report["failures"] == cases
        witness = report["witnesses"][0]
        assert witness["detail"] == "exception: RuntimeError('boom')"
        assert names <= set(witness)
        # crashes are counted apart from law violations, outside the JSON
        law_report = run_law(exploding, spec)
        assert law_report.errors == law_report.failures == cases
        assert set(law_report.to_jsonable()) == REPORT_KEYS


def test_each_report_gets_a_fresh_kernel_memo(monkeypatch):
    seen = []

    def probe(inst, rng, bounds):
        memo = la._MEMO.get()
        seen.append((memo, len(memo)))
        la.hermitian_eig(np.eye(2))
        return 0.0, None

    monkeypatch.setitem(harness.LAWS, "probe", Law("a probe", probe))
    for _ in range(2):
        assert run_law(INSTANCES["vn"], CaseSpec("vn", "probe", 0, 2, {})).cases == 2
        assert la._MEMO.get() is None
    (first, n0), (same, n1), (second, n2), _ = seen
    assert first is same and (n0, n1) == (0, 1)
    assert second is not first and n2 == 0


def test_kernel_memo_closes_when_a_case_or_the_report_raises():
    sizes, counts = [], []

    def boom(g):
        sizes.append(len(la._MEMO.get()))
        counts.append(la.kernel_counts())
        _boom(g)

    exploding = _corrupt(VnChain, "quotient", boom)
    report = run_law(exploding, _spec("vn", "quotient-adjunction", cases=2))
    assert report.errors == report.failures == 2
    assert report.witnesses[0]["detail"] == "exception: RuntimeError('boom')"
    # the crashed cases had decomposed matrices in the report's memo
    assert len(sizes) == 2 and min(sizes) > 0
    # and the report counts every kernel call made before the last raise
    assert report.counters == counts[-1] and counts[-1]["hermitian_eig.calls"] > 0
    assert counts[0]["hermitian_eig.calls"] < counts[-1]["hermitian_eig.calls"]
    assert la._MEMO.get() is None
    with pytest.raises(KeyError):
        run_law(exploding, _spec("vn", "no-such-law"))
    assert la._MEMO.get() is None


REUSED_KERNELS = ("hermitian_eig", "hermitian_eigvals", "gram_schmidt_columns")


def _count_kernels_outside(monkeypatch) -> Counter:
    """The reference count: each memoised kernel wrapped wherever an
    effectus module binds it, counting its calls and its distinct inputs
    as (shape, bytes) after np.asarray(a, dtype=complex)."""
    counts, seen = Counter(), set()

    def counted(name, kernel):
        def wrapper(a):
            a = np.asarray(a, dtype=complex)
            counts[f"{name}.calls"] += 1
            if (name, a.shape, a.tobytes()) not in seen:
                seen.add((name, a.shape, a.tobytes()))
                counts[f"{name}.distinct"] += 1
            return kernel(a)
        return wrapper

    kernels = {getattr(la, name): name for name in REUSED_KERNELS}
    for module in [m for k, m in sys.modules.items() if k.startswith("effectus")]:
        for key, value in list(vars(module).items()):
            if callable(value) and value in kernels:
                monkeypatch.setattr(module, key, counted(kernels[value], value))
    return counts


@pytest.mark.parametrize("law", ["quotient-adjunction", "instrument", "sharpness"])
def test_report_counts_its_kernel_calls(law, monkeypatch):
    """A vn report's kernel counters are what wrappers outside count."""
    counts = _count_kernels_outside(monkeypatch)
    report = run_law(INSTANCES["vn"], _spec("vn", law, cases=4))
    assert report.failures == 0
    assert report.counters == counts
    for name in ("hermitian_eig", "gram_schmidt_columns"):
        assert counts[f"{name}.calls"] >= counts[f"{name}.distinct"] > 0
    assert la.kernel_counts() == {}


@pytest.mark.parametrize("seed", (1, 11))
def test_kernel_reuse_leaves_vn_and_hilb_reports_unchanged(seed, monkeypatch):
    """The default vn and hilb suites give the same JSON bytes with the
    per-report memo as with none: a comparison that holds on any LAPACK
    build, unlike a float golden."""
    specs = default_suite(seed, instance="vn") + default_suite(seed, instance="hilb")
    reused = json.dumps(run_suite(specs), indent=2, sort_keys=True)
    monkeypatch.setattr(harness, "reuse", contextlib.nullcontext)
    assert json.dumps(run_suite(specs), indent=2, sort_keys=True) == reused


# ---------------------------------------------------------------------------
# Default suite composition.
# ---------------------------------------------------------------------------


def test_default_suite_covers_every_instance_and_law():
    specs = default_suite()
    by_instance = {}
    for spec in specs:
        by_instance.setdefault(spec.instance, set()).add(spec.law)
    assert set(by_instance) == set(INSTANCES)
    for name, inst in INSTANCES.items():
        assert by_instance[name] == set(applicable_laws(inst))


def test_default_suite_exhaustive_specs():
    specs = default_suite()
    exhaustive = [s for s in specs if s.bounds.get("exhaustive")]
    assert {s.instance for s in exhaustive} == {"sets", "nondet", "fp", "ring"}
    for s in exhaustive:
        assert s.law.endswith("-adjunction")
        assert s.seed == 0


def test_default_suite_filters():
    only_dist = default_suite(instance="dist")
    assert {s.instance for s in only_dist} == {"dist"}
    only_law = default_suite(law="kleisli-laws")
    assert {s.law for s in only_law} == {"kleisli-laws"}
    assert {s.instance for s in only_law} == set(INSTANCES)
    both = default_suite(instance="vn", law="cp-sanity")
    assert len(both) == 1


def test_default_suite_case_count_override():
    specs = default_suite(cases=7)
    assert all(s.cases == 7 for s in specs if not s.bounds.get("exhaustive"))


def test_default_suite_seed_threads_through():
    specs = default_suite(seed=123)
    sampled = [s for s in specs if not s.bounds.get("exhaustive")]
    assert all(s.seed >= 123 for s in sampled)
    assert any(s.seed == 123 for s in sampled)
