"""Probabilistic chain: exact rational subdistribution kernels."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectus import (
    HomConditionError,
    derive_assert,
    derive_instrument,
    side_effect,
)
from effectus.kleisli import DistChain, FiniteSet, FuzzyPred, SubDist, dirac, fuzzy

DIST = DistChain()

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def fs(*atoms):
    return FiniteSet(atoms)


def rationals():
    return st.fractions(min_value=0, max_value=1, max_denominator=16)


@st.composite
def space_with_pred(draw, max_size=4):
    atoms = draw(st.lists(st.sampled_from("uvwxyz"), unique=True,
                          min_size=1, max_size=max_size))
    X = FiniteSet(tuple(atoms))
    p = fuzzy(X, {a: draw(rationals()) for a in X})
    return X, p


@st.composite
def kernels(draw, X, Y):
    table = {}
    for x in X:
        budget = Fraction(1)
        pairs = []
        for y in Y:
            w = draw(rationals())
            if w <= budget and w > 0:
                pairs.append((y, w))
                budget -= w
        table[x] = SubDist(tuple(pairs))
    return DIST.arrow(X, Y, table)


# ---------------------------------------------------------------------------
# Substitution and the fuzzy fibre.
# ---------------------------------------------------------------------------


def test_subst_weights_by_kernel_and_abort():
    X, Y = fs("x"), fs("y")
    f = DIST.arrow(X, Y, {"x": SubDist((("y", HALF),))})
    q = fuzzy(Y, {"y": THIRD})
    # half reaches y at value 1/3, the aborted half counts in full
    assert DIST.subst(f, q).value("x") == HALF * THIRD + HALF
    assert DIST.subst(f, DIST.top(Y)).value("x") == 1
    total = DIST.arrow(X, Y, {"x": dirac("y")})
    assert DIST.subst(total, DIST.bottom(Y)).value("x") == 0


@given(space_with_pred())
@settings(max_examples=50, deadline=None)
def test_orthocomplement_is_involutive(case):
    X, p = case
    assert DIST.preds_equal(X, DIST.ortho(X, DIST.ortho(X, p)), p)


@given(space_with_pred())
@settings(max_examples=50, deadline=None)
def test_floor_and_ceil_are_de_morgan_duals(case):
    X, p = case
    lhs = DIST.floor(X, DIST.ortho(X, p))
    rhs = DIST.ortho(X, DIST.ceil(X, p))
    assert DIST.preds_equal(X, lhs, rhs)


def test_sharpening_canned_values():
    X = fs("x", "y")
    p = fuzzy(X, {"x": HALF, "y": Fraction(1)})
    assert DIST.floor(X, p).value("x") == 0
    assert DIST.floor(X, p).value("y") == 1
    assert DIST.ceil(X, p).value("x") == 1
    sharp = fuzzy(X, {"x": Fraction(1), "y": Fraction(0)})
    assert DIST.preds_equal(X, DIST.floor(X, sharp), sharp)
    assert DIST.preds_equal(X, DIST.ceil(X, sharp), sharp)
    assert DIST.is_sharp(X, sharp) and not DIST.is_sharp(X, p)


@given(space_with_pred(), space_with_pred())
@settings(max_examples=40, deadline=None)
def test_pred_order_is_pointwise(case, other):
    X, p = case
    _, _ = other
    q = fuzzy(X, {a: min(Fraction(1), p.value(a) + Fraction(1, 7)) for a in X})
    assert DIST.pred_leq(X, p, q)
    if any(p.value(a) > 0 for a in X):
        assert not DIST.pred_leq(X, q, p) or DIST.preds_equal(X, p, q)


# ---------------------------------------------------------------------------
# Quotient and comprehension.
# ---------------------------------------------------------------------------


def test_comprehension_keeps_certainty():
    X = fs("x", "y")
    p = fuzzy(X, {"x": HALF, "y": Fraction(1)})
    c = DIST.comprehension(X, p)
    assert c.obj == fs("y")
    assert c.counit.data["y"].weights == (("y", Fraction(1)),)


def test_quotient_keeps_uncertainty():
    X = fs("x", "y")
    p = fuzzy(X, {"x": HALF, "y": Fraction(1)})
    q = DIST.quotient(X, p)
    assert q.obj == fs("x")
    assert q.unit.data["x"].weights == (("x", HALF),)
    assert q.unit.data["y"].weights == ()


def test_quotient_transpose_divides_out_the_abort():
    X, Y = fs("x"), fs("y")
    p = fuzzy(X, {"x": HALF})
    f = DIST.arrow(X, Y, {"x": SubDist((("y", Fraction(1, 4)),))})
    g = DIST.transpose_quotient(X, p, f)
    assert g.data["x"].weights == (("y", HALF),)
    assert DIST.maps_equal(DIST.untranspose_quotient(X, p, g), f)


def test_quotient_untranspose_scales_and_pads():
    X, Y = fs("x"), fs("y")
    p = fuzzy(X, {"x": HALF})
    carrier = DIST.quotient(X, p).obj
    g = DIST.arrow(carrier, Y, {"x": dirac("y")})
    f = DIST.untranspose_quotient(X, p, g)
    assert f.data["x"].weights == (("y", HALF),)
    assert f.data["x"].mass == HALF


def test_transpose_requires_enough_abort_probability():
    X, Y = fs("x"), fs("y")
    p = fuzzy(X, {"x": HALF})
    f = DIST.arrow(X, Y, {"x": dirac("y")})
    with pytest.raises(HomConditionError):
        DIST.transpose_quotient(X, p, f)


def test_transpose_checks_atoms_outside_the_carrier():
    # p = 1 drops the atom from the carrier, yet maps keeping any mass
    # there still violate the hom condition and must be rejected.
    X, Y = fs("x", "y"), fs("z")
    p = fuzzy(X, {"x": Fraction(0), "y": Fraction(1)})
    f = DIST.arrow(X, Y, {"x": SubDist(()), "y": dirac("z")})
    with pytest.raises(HomConditionError):
        DIST.transpose_quotient(X, p, f)


def test_certain_predicate_quotients_to_the_empty_carrier():
    X = fs("x")
    p = fuzzy(X, {"x": Fraction(1)})
    q = DIST.quotient(X, p)
    assert q.obj == FiniteSet(())
    assert q.unit.data["x"].weights == ()


@given(space_with_pred(), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_round_trips_on_generated_homs(case, rnd):
    X, p = case
    Y = fs("r", "s")
    bounds = {"max_den": 16}
    f = DIST.rand_quotient_hom(rnd, X, p, Y, bounds)
    g = DIST.transpose_quotient(X, p, f)
    assert DIST.maps_equal(DIST.untranspose_quotient(X, p, g), f)
    h = DIST.rand_comprehension_hom(rnd, X, p, Y, bounds)
    k = DIST.transpose_comprehension(X, p, h)
    assert DIST.maps_equal(DIST.untranspose_comprehension(X, p, k), h)


@given(space_with_pred())
@settings(max_examples=50, deadline=None)
def test_coincidence_of_carriers(case):
    X, p = case
    q = DIST.quotient(X, DIST.ortho(X, p))
    c = DIST.comprehension(X, DIST.ceil(X, p))
    assert q.obj == c.obj


# ---------------------------------------------------------------------------
# Assert, instrument, side effects.
# ---------------------------------------------------------------------------


def test_assert_closed_form_values():
    X = fs("x")
    p = fuzzy(X, {"x": HALF})
    asrt = derive_assert(DIST, X, p)
    assert asrt.data["x"].weights == (("x", HALF),)
    certain = fuzzy(X, {"x": Fraction(1)})
    assert derive_assert(DIST, X, certain).data["x"].weights == (("x", Fraction(1)),)


def test_left_composite_is_identity_exactly_for_sharp():
    X = fs("x", "y")
    sharp = fuzzy(X, {"x": Fraction(1), "y": Fraction(0)})
    c = DIST.comprehension(X, DIST.ceil(X, sharp))
    q = DIST.quotient(X, DIST.ortho(X, sharp))
    left = DIST.compose(q.unit, c.counit)
    assert DIST.maps_equal(left, DIST.identity(c.obj))
    unsharp = fuzzy(X, {"x": HALF, "y": Fraction(0)})
    c2 = DIST.comprehension(X, DIST.ceil(X, unsharp))
    q2 = DIST.quotient(X, DIST.ortho(X, unsharp))
    left2 = DIST.compose(q2.unit, c2.counit)
    assert not DIST.maps_equal(left2, DIST.identity(c2.obj))


@given(space_with_pred())
@settings(max_examples=80, deadline=None)
def test_instrument_outputs_total_distributions(case):
    X, p = case
    instr = derive_instrument(DIST, X, p)
    for x in X:
        d = instr.data[x]
        assert d.mass == 1
        assert dict(d.weights).get((1, x), Fraction(0)) == p.value(x)


@given(space_with_pred())
@settings(max_examples=80, deadline=None)
def test_measurement_is_side_effect_free(case):
    X, p = case
    merged, free = side_effect(DIST, X, p)
    assert free
    assert DIST.maps_equal(merged, DIST.identity(X))


@given(space_with_pred())
@settings(max_examples=50, deadline=None)
def test_derived_assert_equals_closed_form(case):
    X, p = case
    assert DIST.maps_equal(derive_assert(DIST, X, p),
                           DIST.assert_closed_form(X, p))


# ---------------------------------------------------------------------------
# Exactness and serialization.
# ---------------------------------------------------------------------------


def test_all_arithmetic_is_rational():
    X = fs("x", "y")
    p = fuzzy(X, {"x": Fraction(1, 3), "y": Fraction(1, 7)})
    instr = derive_instrument(DIST, X, p)
    for d in instr.data.values():
        for _, w in d.weights:
            assert isinstance(w, Fraction)
    assert isinstance(DIST.subst(instr, DIST.top(instr.dst)).value("x"), Fraction)


def test_subdist_validation():
    from effectus import ValidationError

    with pytest.raises(ValidationError):
        SubDist((("y", Fraction(3, 2)),))
    with pytest.raises(ValidationError):
        SubDist((("y", HALF), ("z", Fraction(2, 3))))
    with pytest.raises(ValidationError):
        fuzzy(fs("x"), {"x": Fraction(-1, 2)})


def test_json_uses_num_den_strings():
    X = fs("x")
    p = fuzzy(X, {"x": HALF})
    assert DIST.pred_to_json(X, p) == [["x", "1/2"]]
    # the abort weight is implicit in memory but spelled out in witnesses
    f = DIST.arrow(X, X, {"x": SubDist((("x", THIRD),))})
    assert DIST.arrow_to_json(f) == [["x", [["x", "1/3"], ["*", "2/3"]]]]
    total = DIST.arrow(X, X, {"x": dirac("x")})
    assert DIST.arrow_to_json(total) == [["x", [["x", "1/1"]]]]


def test_sampler_honors_denominator_bound():
    rng = random.Random(5)
    X = fs("u", "v", "w")
    for _ in range(40):
        f = DIST.rand_arrow(rng, X, X, {"max_den": 4})
        for d in f.data.values():
            for _, w in d.weights:
                assert w.denominator <= 4
