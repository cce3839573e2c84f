"""Shared chain machinery: partial-map composition, truth/falsum,
hom checking, and the derived assert / instrument / side-effect maps."""

import random
from fractions import Fraction

import pytest

from effectus import (
    STAR,
    CompositionError,
    PredObject,
    UnsupportedError,
    derive_assert,
    derive_instrument,
    falsum,
    get_instance,
    hom_check,
    side_effect,
    truth,
    INSTANCES,
)
from effectus.core import Arrow, ChainInstance, make_arrow
from effectus.kleisli import DistChain, FiniteSet, SetsChain, SubDist, fuzzy

SETS = SetsChain()
DIST = DistChain()

# bounds small enough that every instance samples quickly
BOUNDS = {"max_size": 4, "max_den": 8, "max_dim": 2, "max_order": 12}


def sample_case(inst, seed):
    rng = random.Random(seed)
    X = inst.rand_object(rng, BOUNDS)
    Y = inst.rand_object(rng, BOUNDS, like=X)
    p = inst.rand_pred(rng, X, BOUNDS)
    q = inst.rand_pred(rng, Y, BOUNDS)
    f = inst.rand_arrow(rng, X, Y, BOUNDS)
    return X, Y, p, q, f


# ---------------------------------------------------------------------------
# Kleisli composition.
# ---------------------------------------------------------------------------


def test_kleisli_partial_function_composite():
    X = FiniteSet((1, 2))
    Y = FiniteSet(("a",))
    Z = FiniteSet(("z",))
    f = SETS.arrow(X, Y, {1: "a", 2: STAR})
    g = SETS.arrow(Y, Z, {"a": "z"})
    gf = SETS.compose(g, f)
    assert SETS.table(gf) == {1: "z", 2: STAR}


def test_kleisli_subdistribution_composite():
    X = FiniteSet(("x",))
    Y = FiniteSet(("y",))
    Z = FiniteSet(("z",))
    f = DIST.arrow(X, Y, {"x": SubDist((("y", Fraction(1, 2)),))})
    g = DIST.arrow(Y, Z, {"y": SubDist((("z", Fraction(1, 3)),))})
    gf = DIST.compose(g, f)
    # half the mass reaches y, a third of that reaches z
    assert DIST.table(gf)["x"].weights == (("z", Fraction(1, 6)),)
    assert DIST.table(gf)["x"].mass == Fraction(1, 6)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_identity_is_a_unit(name):
    inst = INSTANCES[name]
    for seed in range(8):
        X, Y, _, _, f = sample_case(inst, seed)
        assert inst.maps_equal(inst.compose(inst.identity(Y), f), f)
        assert inst.maps_equal(inst.compose(f, inst.identity(X)), f)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_composition_associates(name):
    inst = INSTANCES[name]
    for seed in range(8):
        rng = random.Random(1000 + seed)
        X = inst.rand_object(rng, BOUNDS)
        Y = inst.rand_object(rng, BOUNDS, like=X)
        Z = inst.rand_object(rng, BOUNDS, like=X)
        f = inst.rand_arrow(rng, X, Y, BOUNDS)
        g = inst.rand_arrow(rng, Y, Z, BOUNDS)
        h = inst.rand_arrow(rng, Z, inst.rand_object(rng, BOUNDS, like=X), BOUNDS)
        lhs = inst.compose(h, inst.compose(g, f))
        rhs = inst.compose(inst.compose(h, g), f)
        assert inst.maps_equal(lhs, rhs)


def test_composing_mismatched_endpoints_raises():
    X = FiniteSet((1,))
    Y = FiniteSet(("a",))
    Z = FiniteSet(("z",))
    f = SETS.arrow(X, Y, {1: "a"})
    h = SETS.arrow(Z, Z, {"z": "z"})
    with pytest.raises(CompositionError):
        SETS.compose(h, f)


# ---------------------------------------------------------------------------
# truth / falsum / hom_check.
# ---------------------------------------------------------------------------


def test_truth_falsum_on_sets():
    X = FiniteSet((1, 2))
    assert SETS.pred_table(X, truth(SETS, X).pred) == FiniteSet((1, 2))
    assert SETS.pred_table(X, falsum(SETS, X).pred) == FiniteSet(())


def test_hom_check_partial_function():
    X = FiniteSet((1, 2))
    Y = FiniteSet(("a",))
    f = SETS.arrow(X, Y, {1: "a", 2: STAR})
    src = PredObject(X, SETS.pred(X, (1,)))
    dst = PredObject(Y, SETS.pred(Y, ("a",)))
    assert hom_check(SETS, f, src, dst)


def test_hom_check_rejects_undershooting_kernel():
    # p(x) = 1 demands all mass on q's support or the abort branch; a
    # half-weight escape to y with q(y) = 0 breaks the inequality.
    X = FiniteSet(("x",))
    Y = FiniteSet(("y",))
    f = DIST.arrow(X, Y, {"x": SubDist((("y", Fraction(1, 2)),))})
    src = PredObject(X, fuzzy(X, {"x": Fraction(1)}))
    dst = PredObject(Y, fuzzy(Y, {"y": Fraction(0)}))
    assert not hom_check(DIST, f, src, dst)


def test_hom_check_endpoint_mismatch_raises():
    X = FiniteSet((1,))
    Y = FiniteSet(("a",))
    f = SETS.arrow(X, Y, {1: "a"})
    with pytest.raises(CompositionError):
        hom_check(SETS, f, truth(SETS, Y), truth(SETS, Y))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_falsum_source_and_truth_target_always_homs(name):
    inst = INSTANCES[name]
    for seed in range(10):
        X, Y, p, q, f = sample_case(inst, 2000 + seed)
        assert hom_check(inst, f, falsum(inst, X), PredObject(Y, q))
        assert hom_check(inst, f, PredObject(X, p), truth(inst, Y))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_substitution_preserves_truth(name):
    inst = INSTANCES[name]
    for seed in range(10):
        X, Y, _, _, f = sample_case(inst, 3000 + seed)
        assert inst.preds_equal(X, inst.subst(f, inst.top(Y)), inst.top(X))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_substitution_is_functorial(name):
    inst = INSTANCES[name]
    for seed in range(10):
        rng = random.Random(4000 + seed)
        X = inst.rand_object(rng, BOUNDS)
        Y = inst.rand_object(rng, BOUNDS, like=X)
        Z = inst.rand_object(rng, BOUNDS, like=X)
        f = inst.rand_arrow(rng, X, Y, BOUNDS)
        g = inst.rand_arrow(rng, Y, Z, BOUNDS)
        r = inst.rand_pred(rng, Z, BOUNDS)
        via_composite = inst.subst(inst.compose(g, f), r)
        via_stages = inst.subst(f, inst.subst(g, r))
        assert inst.preds_equal(X, via_composite, via_stages)
        p = inst.rand_pred(rng, X, BOUNDS)
        assert inst.preds_equal(X, inst.subst(inst.identity(X), p), p)


# ---------------------------------------------------------------------------
# Derived assert, instrument, side effect.
# ---------------------------------------------------------------------------


def test_assert_on_partial_functions():
    X = FiniteSet((1, 2, 3))
    P = SETS.pred(X, (1, 2))
    asrt = derive_assert(SETS, X, P)
    assert SETS.table(asrt) == {1: 1, 2: 2, 3: STAR}


def test_assert_on_subdistributions():
    X = FiniteSet(("x",))
    p = fuzzy(X, {"x": Fraction(1, 2)})
    asrt = derive_assert(DIST, X, p)
    assert DIST.table(asrt)["x"].weights == (("x", Fraction(1, 2)),)


def test_instrument_tags_both_branches():
    X = FiniteSet((1, 2))
    P = SETS.pred(X, (1,))
    instr = derive_instrument(SETS, X, P)
    assert SETS.table(instr) == {1: (1, 1), 2: (2, 2)}


def test_instrument_on_subdistributions():
    X = FiniteSet(("x",))
    p = fuzzy(X, {"x": Fraction(1, 2)})
    instr = derive_instrument(DIST, X, p)
    assert dict(DIST.table(instr)["x"].weights) == {
        (1, "x"): Fraction(1, 2),
        (2, "x"): Fraction(1, 2),
    }
    assert DIST.table(instr)["x"].mass == 1


@pytest.mark.parametrize("name", ["sets", "nondet", "dist"])
def test_classical_measurement_is_side_effect_free(name):
    inst = INSTANCES[name]
    for seed in range(12):
        rng = random.Random(5000 + seed)
        X = inst.rand_object(rng, BOUNDS)
        p = inst.rand_pred(rng, X, BOUNDS)
        _, free = side_effect(inst, derive_instrument(inst, X, p))
        assert free


def test_quantum_measurement_leaves_a_trace():
    import numpy as np
    from effectus.vn import MatrixAlgebra

    vn = INSTANCES["vn"]
    A = MatrixAlgebra((2,))
    # unsharp and non-scalar: a quarter of identity-plus-flip
    p = (0.25 * np.array([[1, 1], [1, 1]], dtype=complex),)
    _, free = side_effect(vn, derive_instrument(vn, A, p))
    assert not free
    scalar = (0.3 * np.eye(2, dtype=complex),)
    _, free = side_effect(vn, derive_instrument(vn, A, scalar))
    assert free


@pytest.mark.parametrize("name", ["sets", "nondet", "dist", "ring", "vn"])
def test_assert_idempotent_on_sharp_predicates(name):
    inst = INSTANCES[name]
    hits = 0
    for seed in range(20):
        rng = random.Random(6000 + seed)
        X = inst.rand_object(rng, BOUNDS)
        p = inst.rand_pred(rng, X, BOUNDS)
        if not inst.is_sharp(X, p):
            continue
        hits += 1
        asrt = derive_assert(inst, X, p)
        assert inst.maps_equal(inst.compose(asrt, asrt), asrt)
    assert hits > 0


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


def test_registry_names_are_canonical():
    assert sorted(INSTANCES) == [
        "dist", "fp", "hilb", "nondet", "ring", "sets", "vn",
    ]
    for name, inst in INSTANCES.items():
        assert inst.name == name
        assert get_instance(name) is inst


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_transposes_are_carried_by_the_constructions(name):
    # an instance writes each transpose once, inside its quotient or
    # comprehension; the instance-level names are shorthands for those
    cls = type(INSTANCES[name])
    assert cls.transpose_quotient is ChainInstance.transpose_quotient
    assert cls.transpose_comprehension is ChainInstance.transpose_comprehension


def test_unknown_instance_is_reported():
    with pytest.raises(UnsupportedError, match="nosuch"):
        get_instance("nosuch")


def test_make_arrow_is_the_arrow_constructor():
    X, Y = FiniteSet((1,)), FiniteSet(())
    f = make_arrow((X, Y, (-1,)))
    assert type(f) is Arrow
    assert (f.src, f.dst, f.data) == (X, Y, (-1,))


def test_process_wide_caches_are_bounded():
    from effectus.kleisli import _unions
    from effectus.linear import _coords_matrix, _preimage
    from effectus.ring import _hom_tables

    for cache in (_coords_matrix, _preimage, _hom_tables, _unions):
        assert cache.cache_info().maxsize is not None


def test_nondet_restriction_memo_is_bounded():
    from effectus.kleisli import NondetChain

    restrict = NondetChain()._restriction([0, 2], 3)
    assert restrict.cache_info().maxsize is not None
    # bits 0 and 2 move to 0 and 1, * from bit 3 to bit 2; bit 1 is outside
    assert [restrict(s) for s in (0b0101, 0b1000, 0b0010)] == [0b011, 0b100, None]
    assert restrict.cache_info().currsize == 3
    # keyed by type too: 1.0 is refused where the memo holds 1's result
    assert restrict(1) == 0b001
    with pytest.raises(TypeError):
        restrict(1.0)
