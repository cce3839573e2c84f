"""Finite-set chains: partial functions and non-empty-valued multimaps."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectus import (
    STAR,
    HomConditionError,
    PredObject,
    derive_instrument,
    falsum,
    hom_check,
)
from effectus.kleisli import FiniteSet, NondetChain, SetsChain

SETS = SetsChain()
NONDET = NondetChain()

ATOMS = (1, 2, 3, 4, "a", "b")


def finite_sets(max_size=4):
    return st.lists(st.sampled_from(ATOMS), unique=True, max_size=max_size).map(
        lambda xs: FiniteSet(tuple(xs))
    )


@st.composite
def set_with_pred(draw, max_size=4):
    X = draw(finite_sets(max_size))
    chosen = draw(st.lists(st.sampled_from(tuple(X) or (1,)), unique=True))
    P = SETS.pred(X, [a for a in chosen if a in X])
    return X, P


@st.composite
def partial_fn(draw, X, Y):
    table = {x: draw(st.sampled_from(tuple(Y) + (STAR,))) for x in X}
    return SETS.arrow(X, Y, table)


# ---------------------------------------------------------------------------
# Substitution.
# ---------------------------------------------------------------------------


def test_subst_is_preimage_with_abort():
    X = FiniteSet((1, 2, 3))
    Y = FiniteSet(("a", "b"))
    f = SETS.arrow(X, Y, {1: "a", 2: STAR, 3: "b"})
    assert SETS.pred_table(X, SETS.subst(f, SETS.pred(Y, ("a",)))) == FiniteSet((1, 2))
    assert SETS.pred_table(X, SETS.subst(f, SETS.pred(Y, Y))) == X
    total = SETS.arrow(X, Y, {1: "a", 2: "b", 3: "a"})
    assert SETS.pred_table(X, SETS.subst(total, SETS.pred(Y, ()))) == FiniteSet(())


@given(set_with_pred(), finite_sets(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_subst_matches_pointwise_oracle(case, Y, rnd):
    X, _ = case
    table = {x: rnd.choice(tuple(Y) + (STAR,)) for x in X}
    f = SETS.arrow(X, Y, table)
    Q = FiniteSet(tuple(a for a in Y if rnd.random() < 0.5))
    expected = FiniteSet(
        tuple(x for x in X if table[x] is STAR or table[x] in Q)
    )
    assert SETS.pred_table(X, SETS.subst(f, SETS.pred(Y, Q))) == expected


def test_nondet_subst_quantifies_over_proper_values():
    X = FiniteSet((1, 2))
    Y = FiniteSet(("a", "b"))
    f = NONDET.arrow(X, Y, {
        1: frozenset({"a", STAR}),
        2: frozenset({"b"}),
    })
    # star never obstructs: only proper values must satisfy Q
    assert NONDET.pred_table(X, NONDET.subst(f, NONDET.pred(Y, ("a",)))) == FiniteSet((1,))
    assert NONDET.pred_table(X, NONDET.subst(f, NONDET.pred(Y, Y))) == X
    all_star = NONDET.arrow(X, Y, {1: frozenset({STAR}), 2: frozenset({STAR})})
    assert NONDET.pred_table(X, NONDET.subst(all_star, NONDET.pred(Y, ()))) == X


# ---------------------------------------------------------------------------
# Quotient and comprehension carriers.
# ---------------------------------------------------------------------------


def test_quotient_drops_the_predicate():
    X = FiniteSet((1, 2, 3))
    q = SETS.quotient(X, SETS.pred(X, (1,)))
    assert q.obj == FiniteSet((2, 3))
    assert SETS.table(q.unit) == {1: STAR, 2: 2, 3: 3}


def test_quotient_edges():
    X = FiniteSet((1, 2))
    assert SETS.table(SETS.quotient(X, SETS.pred(X, ())).unit) == {1: 1, 2: 2}
    full = SETS.quotient(X, SETS.pred(X, X))
    assert full.obj == FiniteSet(())
    assert SETS.table(full.unit) == {1: STAR, 2: STAR}


def test_comprehension_is_inclusion():
    X = FiniteSet((1, 2))
    c = SETS.comprehension(X, SETS.pred(X, (1,)))
    assert c.obj == FiniteSet((1,))
    assert SETS.table(c.counit) == {1: 1}


def test_comprehension_factorization_is_restriction():
    X = FiniteSet((1, 2))
    Z = FiniteSet(("z",))
    f = SETS.arrow(Z, X, {"z": 1})
    g = SETS.transpose_comprehension(X, SETS.pred(X, (1,)), f)
    assert SETS.table(g) == {"z": 1}
    c = SETS.comprehension(X, SETS.pred(X, (1,)))
    assert SETS.maps_equal(SETS.compose(c.counit, g), f)


@given(set_with_pred())
@settings(max_examples=60, deadline=None)
def test_quotient_of_pred_is_comprehension_of_complement(case):
    X, P = case
    complement = SETS.pred(X, [a for a in X if a not in SETS.pred_table(X, P)])
    assert SETS.quotient(X, P).obj == SETS.comprehension(X, complement).obj
    assert NONDET.quotient(X, P).obj == NONDET.comprehension(X, complement).obj


# ---------------------------------------------------------------------------
# Transposes.
# ---------------------------------------------------------------------------


def test_nondet_quotient_transpose_restricts():
    X = FiniteSet((1, 2))
    Y = FiniteSet(("a",))
    P = NONDET.pred(X, (1,))
    f = NONDET.arrow(X, Y, {1: frozenset({STAR}), 2: frozenset({"a"})})
    g = NONDET.transpose_quotient(X, P, f)
    assert NONDET.table(g) == {2: frozenset({"a"})}
    back = NONDET.compose(g, NONDET.quotient(X, P).unit)
    assert NONDET.maps_equal(back, f)


def test_nondet_untranspose_extends_by_star():
    X = FiniteSet((1, 2))
    Y = FiniteSet(("a", "b"))
    P = NONDET.pred(X, (1,))
    carrier = NONDET.quotient(X, P).obj
    g = NONDET.arrow(carrier, Y, {2: frozenset({"a", "b"})})
    f = NONDET.compose(g, NONDET.quotient(X, P).unit)
    assert NONDET.table(f) == {1: frozenset({STAR}), 2: frozenset({"a", "b"})}


def test_nondet_transpose_demands_pure_abort_on_the_predicate():
    # {a, *} at a collapsed point is not the same as certain abort
    X = FiniteSet((1, 2))
    Y = FiniteSet(("a",))
    f = NONDET.arrow(X, Y, {1: frozenset({"a", STAR}), 2: frozenset({"a"})})
    with pytest.raises(HomConditionError):
        NONDET.transpose_quotient(X, NONDET.pred(X, (1,)), f)


def test_sets_transpose_rejects_non_homs():
    X = FiniteSet((1, 2))
    Y = FiniteSet(("a",))
    f = SETS.arrow(X, Y, {1: "a", 2: "a"})
    with pytest.raises(HomConditionError):
        SETS.transpose_quotient(X, SETS.pred(X, (1,)), f)


@pytest.mark.parametrize("inst", [SETS, NONDET], ids=["sets", "nondet"])
def test_transpose_round_trips_on_sampled_homs(inst):
    bounds = {"max_size": 4}
    for seed in range(40):
        rng = random.Random(seed)
        X = inst.rand_object(rng, bounds)
        Y = inst.rand_object(rng, bounds)
        p = inst.rand_pred(rng, X, bounds)
        f = inst.rand_hom(rng, X, p, inst.quotient(X, p), Y, bounds)
        g = inst.transpose_quotient(X, p, f)
        assert inst.maps_equal(inst.compose(g, inst.quotient(X, p).unit), f)
        h = inst.rand_hom(rng, X, p, inst.comprehension(X, p), Y, bounds)
        k = inst.transpose_comprehension(X, p, h)
        counit = inst.comprehension(X, p).counit
        assert inst.maps_equal(inst.compose(counit, k), h)


# ---------------------------------------------------------------------------
# Instrument.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("inst", [SETS, NONDET], ids=["sets", "nondet"])
def test_derived_instrument_matches_closed_form(inst):
    bounds = {"max_size": 4}
    for seed in range(30):
        rng = random.Random(100 + seed)
        X = inst.rand_object(rng, bounds)
        p = inst.rand_pred(rng, X, bounds)
        derived = derive_instrument(inst, X, p)
        assert inst.maps_equal(derived, inst.instrument_closed_form(X, p))


def test_instrument_is_total():
    X = FiniteSet((1, 2, 3))
    P = SETS.pred(X, (2,))
    instr = derive_instrument(SETS, X, P)
    assert STAR not in SETS.table(instr).values()
    ninstr = derive_instrument(NONDET, X, P)
    for image in NONDET.table(ninstr).values():
        assert STAR not in image


# ---------------------------------------------------------------------------
# Validation and serialization.
# ---------------------------------------------------------------------------


def test_finite_set_rejects_duplicates():
    from effectus import ValidationError

    with pytest.raises(ValidationError):
        FiniteSet((1, 1))


def test_arrow_tables_are_validated():
    from effectus import ValidationError

    X = FiniteSet((1,))
    Y = FiniteSet(("a",))
    with pytest.raises(ValidationError):
        SETS.arrow(X, Y, {1: "zzz"})
    with pytest.raises(ValidationError):
        SETS.arrow(X, Y, {})
    with pytest.raises(ValidationError):
        NONDET.arrow(X, Y, {1: frozenset()})


def test_json_forms_are_sorted_and_star_tagged():
    X = FiniteSet((2, 1))
    assert SETS.object_to_json(X) == [1, 2]
    f = SETS.arrow(X, X, {1: STAR, 2: 1})
    assert SETS.arrow_to_json(f) == [[1, "*"], [2, 1]]
    g = NONDET.arrow(X, X, {1: frozenset({STAR, 1}), 2: frozenset({2})})
    assert NONDET.arrow_to_json(g) == [[1, [1, "*"]], [2, [2]]]


def test_hom_check_agrees_with_transpose_acceptance():
    bounds = {"max_size": 3}
    for inst in (SETS, NONDET):
        for seed in range(60):
            rng = random.Random(seed)
            X = inst.rand_object(rng, bounds)
            Y = inst.rand_object(rng, bounds)
            p = inst.rand_pred(rng, X, bounds)
            f = inst.rand_arrow(rng, X, Y, bounds)
            is_hom = hom_check(inst, f, PredObject(X, p), falsum(inst, Y))
            try:
                inst.transpose_quotient(X, p, f)
                accepted = True
            except HomConditionError:
                accepted = False
            assert is_hom == accepted
