"""Probabilistic chain: exact rational subdistribution kernels."""

import random
from fractions import Fraction
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectus import (
    HomConditionError,
    ValidationError,
    derive_assert,
    derive_instrument,
    side_effect,
)
from effectus.core import atom_to_json
from effectus.kleisli import DistChain, FiniteSet, SubDist, dirac, frac_to_json, fuzzy

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
    assert DIST.pred_table(X, DIST.subst(f, q))["x"] == HALF * THIRD + HALF
    assert DIST.pred_table(X, DIST.subst(f, DIST.top(Y)))["x"] == 1
    total = DIST.arrow(X, Y, {"x": dirac("y")})
    assert DIST.pred_table(X, DIST.subst(total, DIST.bottom(Y)))["x"] == 0


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
    assert DIST.pred_table(X, DIST.floor(X, p))["x"] == 0
    assert DIST.pred_table(X, DIST.floor(X, p))["y"] == 1
    assert DIST.pred_table(X, DIST.ceil(X, p))["x"] == 1
    sharp = fuzzy(X, {"x": Fraction(1), "y": Fraction(0)})
    assert DIST.preds_equal(X, DIST.floor(X, sharp), sharp)
    assert DIST.preds_equal(X, DIST.ceil(X, sharp), sharp)
    assert DIST.is_sharp(X, sharp) and not DIST.is_sharp(X, p)


@given(space_with_pred(), space_with_pred())
@settings(max_examples=40, deadline=None)
def test_pred_order_is_pointwise(case, other):
    X, p = case
    _, _ = other
    values = DIST.pred_table(X, p)
    q = fuzzy(X, {a: min(Fraction(1), values[a] + Fraction(1, 7)) for a in X})
    assert DIST.pred_leq(X, p, q)
    if any(values[a] > 0 for a in X):
        assert not DIST.pred_leq(X, q, p) or DIST.preds_equal(X, p, q)


# ---------------------------------------------------------------------------
# Quotient and comprehension.
# ---------------------------------------------------------------------------


def test_comprehension_keeps_certainty():
    X = fs("x", "y")
    p = fuzzy(X, {"x": HALF, "y": Fraction(1)})
    c = DIST.comprehension(X, p)
    assert c.obj == fs("y")
    assert DIST.table(c.counit)["y"].weights == (("y", Fraction(1)),)


def test_quotient_keeps_uncertainty():
    X = fs("x", "y")
    p = fuzzy(X, {"x": HALF, "y": Fraction(1)})
    q = DIST.quotient(X, p)
    assert q.obj == fs("x")
    assert DIST.table(q.unit)["x"].weights == (("x", HALF),)
    assert DIST.table(q.unit)["y"].weights == ()


def test_quotient_transpose_divides_out_the_abort():
    X, Y = fs("x"), fs("y")
    p = fuzzy(X, {"x": HALF})
    f = DIST.arrow(X, Y, {"x": SubDist((("y", Fraction(1, 4)),))})
    g = DIST.transpose_quotient(X, p, f)
    assert DIST.table(g)["x"].weights == (("y", HALF),)
    assert DIST.maps_equal(DIST.compose(g, DIST.quotient(X, p).unit), f)


def test_quotient_untranspose_scales_and_pads():
    X, Y = fs("x"), fs("y")
    p = fuzzy(X, {"x": HALF})
    carrier = DIST.quotient(X, p).obj
    g = DIST.arrow(carrier, Y, {"x": dirac("y")})
    f = DIST.compose(g, DIST.quotient(X, p).unit)
    assert DIST.table(f)["x"].weights == (("y", HALF),)
    assert DIST.table(f)["x"].mass == HALF


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
    assert DIST.table(q.unit)["x"].weights == ()


@given(space_with_pred(), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_round_trips_on_generated_homs(case, rnd):
    X, p = case
    Y = fs("r", "s")
    bounds = {"max_den": 16}
    f = DIST.rand_hom(rnd, X, p, DIST.quotient(X, p), Y, bounds)
    g = DIST.transpose_quotient(X, p, f)
    assert DIST.maps_equal(DIST.compose(g, DIST.quotient(X, p).unit), f)
    h = DIST.rand_hom(rnd, X, p, DIST.comprehension(X, p), Y, bounds)
    k = DIST.transpose_comprehension(X, p, h)
    counit = DIST.comprehension(X, p).counit
    assert DIST.maps_equal(DIST.compose(counit, k), h)


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
    assert DIST.table(asrt)["x"].weights == (("x", HALF),)
    certain = fuzzy(X, {"x": Fraction(1)})
    assert DIST.table(derive_assert(DIST, X, certain))["x"].weights == (("x", Fraction(1)),)


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
        d = DIST.table(instr)[x]
        assert d.mass == 1
        assert dict(d.weights).get((1, x), Fraction(0)) == DIST.pred_table(X, p)[x]


@given(space_with_pred())
@settings(max_examples=80, deadline=None)
def test_measurement_is_side_effect_free(case):
    X, p = case
    merged, free = side_effect(DIST, derive_instrument(DIST, X, p))
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
    for d in DIST.table(instr).values():
        for _, w in d.weights:
            assert isinstance(w, Fraction)
    assert isinstance(DIST.pred_table(X, DIST.subst(instr, DIST.top(instr.dst)))["x"], Fraction)


def test_subdist_validation():
    from effectus import ValidationError

    with pytest.raises(ValidationError):
        SubDist((("y", Fraction(3, 2)),))
    with pytest.raises(ValidationError):
        SubDist((("y", HALF), ("z", Fraction(2, 3))))
    with pytest.raises(ValidationError):
        fuzzy(fs("x"), {"x": Fraction(-1, 2)})


@pytest.mark.parametrize("mapping", [
    {},  # no value at all
    {"x": 1, "y": 0, "z": 1},  # z is not an atom of X
    {"x": 0.1, "y": 1},  # a float converts inexactly
    {"x": True, "y": 0},  # a bool is ambiguous
    {"x": "1/2", "y": 0},  # so is a string
], ids=["empty", "extra-atom", "float", "bool", "string"])
def test_fuzzy_rejects_what_is_not_a_rational_per_atom(mapping):
    from effectus import ValidationError

    with pytest.raises(ValidationError):
        fuzzy(fs("x", "y"), mapping)


@pytest.mark.parametrize("weights", [
    (("y", HALF), ("y", HALF)),  # would keep half the mass
    (("y", HALF), ("y", Fraction(0))),
    (("y", 0.5),),
], ids=["repeated-atom", "repeated-atom-zero-weight", "float-weight"])
def test_subdist_rejects_repeated_atoms_and_inexact_weights(weights):
    from effectus import ValidationError

    with pytest.raises(ValidationError):
        SubDist(weights)


def test_predicates_of_the_wrong_length_are_rejected():
    from effectus import ValidationError

    X = fs("x", "y")
    short = fuzzy(fs("x"), {"x": HALF})
    for use in (lambda: DIST.pred_leq(X, short, DIST.top(X)),
                lambda: DIST.ortho(X, short),
                lambda: DIST.quotient(X, short),
                lambda: DIST.comprehension(X, short),
                lambda: DIST.subst(DIST.identity(X), short),
                lambda: DIST.pred_to_json(X, short)):
        with pytest.raises(ValidationError):
            use()


def test_predicates_decode_to_what_they_encode():
    X = fs("x", "y")
    mapping = {"x": HALF, "y": Fraction(0)}
    p = DIST.pred(X, mapping)
    assert p == fuzzy(X, mapping) == (HALF, Fraction(0))
    assert DIST.pred_table(X, p) == mapping


def test_json_uses_num_den_strings():
    X = fs("x")
    p = fuzzy(X, {"x": HALF})
    assert DIST.pred_to_json(X, p) == [["x", "1/2"]]
    # witnesses spell out the abort weight
    f = DIST.arrow(X, X, {"x": SubDist((("x", THIRD),))})
    assert DIST.arrow_to_json(f) == [["x", [["x", "1/3"], ["*", "2/3"]]]]
    total = DIST.arrow(X, X, {"x": dirac("x")})
    assert DIST.arrow_to_json(total) == [["x", [["x", "1/1"]]]]


def test_sampler_honors_denominator_bound():
    rng = random.Random(5)
    X = fs("u", "v", "w")
    for _ in range(40):
        f = DIST.rand_arrow(rng, X, X, {"max_den": 4})
        for d in DIST.table(f).values():
            for _, w in d.weights:
                assert w.denominator <= 4


# ---------------------------------------------------------------------------
# The integer encoding against a Fraction reference.  An image is stored as
# integer weights over Y + 1; the reference below is the encoding it
# replaced, |Y| Fractions with the mass on * left implicit, and its
# formulas.
# ---------------------------------------------------------------------------

ZERO, ONE = Fraction(0), Fraction(1)


def _ref_eta(j, n):
    return (ZERO,) * j + (ONE,) + (ZERO,) * (n - j - 1)


def _ref_extend(data, k):
    out = []
    for d in data:
        e = k[-1]
        for w, row in zip(d, k):
            if w:
                e = tuple(a + w * v if v else a for a, v in zip(e, row))
        out.append(e)
    return tuple(out)


def _ref_scale(d, w):
    return tuple(v * w for v in d)


def _ref_plus(d, e):
    out = tuple(map(add, d, e))
    if sum(out) > 1:
        raise ValidationError(f"dist: combined mass {sum(out)} exceeds 1")
    return out


def _ref_expectation(q):
    miss = [1 - v for v in q]
    return lambda d: ONE - sum((w * m for w, m in zip(d, miss) if w), ZERO)


def _ref_map_residual(f_rows, g_rows):
    return float(max((abs(a - b) for d, e in zip(f_rows, g_rows) if d != e
                      for a, b in zip(d, e)), default=ZERO))


def _ref_json(X, Y, rows):
    out = []
    for x, d in zip(X, rows):
        image = [[atom_to_json(y), frac_to_json(w)] for y, w in zip(Y, d) if w]
        star = ONE - sum(d, ZERO)
        if star:
            image.append(["*", frac_to_json(star)])
        out.append([atom_to_json(x), image])
    return out


def _rows(f):
    """f's images in the reference encoding, read off its decoded table."""
    return tuple(tuple(dict(d.weights).get(y, ZERO) for y in f.dst)
                 for d in DIST.table(f).values())


def _assert_matches(f, rows):
    """f is stored canonically (non-negative ints, gcd 1, * last) and
    decodes, through `table` and `arrow_to_json`, to the reference rows."""
    for d, image in zip(f.data, DIST.table(f).values()):
        assert len(d) == len(f.dst) + 1
        assert all(type(v) is int and v >= 0 for v in d) and gcd(*d) == 1
        assert Fraction(d[-1], sum(d)) == image.star_weight
    assert _rows(f) == tuple(map(tuple, rows))
    assert DIST.arrow_to_json(f) == _ref_json(f.src, f.dst, rows)


def _space(min_size):
    return st.lists(st.sampled_from("uvwxyz"), unique=True, min_size=min_size,
                    max_size=3).map(lambda xs: FiniteSet(tuple(xs)))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_integer_images_match_the_fraction_reference(data):
    X, Y, Z = data.draw(_space(1)), data.draw(_space(0)), data.draw(_space(0))
    p = fuzzy(X, {a: data.draw(st.one_of(st.just(ONE), rationals())) for a in X})
    q = fuzzy(Y, {a: data.draw(rationals()) for a in Y})
    f, f2, g = data.draw(kernels(X, Y)), data.draw(kernels(X, Y)), data.draw(kernels(Y, Z))
    f_rows = _rows(f)

    _assert_matches(DIST.compose(g, f), _ref_extend(f_rows, _rows(g) + ((ZERO,) * len(Z),)))
    assert DIST.subst(f, q) == tuple(map(_ref_expectation(q), f_rows))
    first = X.atoms[0]
    for h in (f, f2, DIST.arrow(X, Y, {**DIST.table(f2), first: DIST.table(f)[first]})):
        assert DIST.map_residual(f, h) == _ref_map_residual(f_rows, _rows(h))

    # the quotient: its unit, and its transpose on f (a hom or refused)
    # and on f with each image scaled into its cap 1 - p
    built, keep = DIST.quotient(X, p), [1 - v for v in p]
    kept = [i for i, w in enumerate(keep) if w]
    unit = [(ZERO,) * len(kept)] * len(X)
    for j, i in enumerate(kept):
        unit[i] = _ref_scale(_ref_eta(j, len(kept)), keep[i])
    _assert_matches(built.unit, unit)
    capped = DIST.arrow(X, Y, {x: SubDist(tuple((y, w * k) for y, w in d.weights))
                               for (x, d), k in zip(DIST.table(f).items(), keep)})
    for h in (capped, f):
        rows = _rows(h)
        if any(sum(d) > k for d, k in zip(rows, keep)):
            with pytest.raises(HomConditionError):
                built.transpose(h)
        else:
            _assert_matches(built.transpose(h), [_ref_scale(rows[i], 1 / keep[i]) for i in kept])

    # the comprehension: its counit, and its transpose on maps into X with
    # support inside the carrier (homs) or anywhere
    built = DIST.comprehension(X, p)
    inside = [i for i, v in enumerate(p) if v == 1]
    _assert_matches(built.counit, [_ref_eta(i, len(X)) for i in inside])
    homs = DIST.arrow(Z, X, DIST.table(data.draw(kernels(Z, built.obj))))
    for h in (homs, data.draw(kernels(Z, X))):
        rows = _rows(h)
        if any(w for d in rows for i, w in enumerate(d) if i not in inside):
            with pytest.raises(HomConditionError):
                built.transpose(h)
        else:
            _assert_matches(built.transpose(h), [[d[i] for i in inside] for d in rows])

    # instrument_combine, refused with the reference's text when the two
    # branches carry more than mass 1 at an atom
    passing, failing = data.draw(kernels(X, X)), data.draw(kernels(X, X))
    n = len(X)
    tags = [tuple(_ref_eta(t + i, 2 * n) for i in range(n)) + ((ZERO,) * 2 * n,)
            for t in (0, n)]
    try:
        rows = [_ref_plus(d, e) for d, e in zip(_ref_extend(_rows(passing), tags[0]),
                                                _ref_extend(_rows(failing), tags[1]))]
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            DIST.instrument_combine(X, passing, failing)
        assert str(info.value) == str(exc)
    else:
        _assert_matches(DIST.instrument_combine(X, passing, failing), rows)


@given(X=_space(1), Y=_space(0), seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_drawn_images_are_canonical(X, Y, seed):
    rng = random.Random(seed)
    p = DIST.rand_pred(rng, X, {})
    for f in (DIST.rand_arrow(rng, X, Y, {}),
              DIST.rand_hom(rng, X, p, DIST.quotient(X, p), Y, {}),
              DIST.rand_hom(rng, X, p, DIST.comprehension(X, p), Y, {})):
        _assert_matches(f, _rows(f))


def test_equal_subdists_encode_to_equal_data():
    X, Y, Z = fs("x"), fs("a", "b"), fs("c")
    halves = [DIST.arrow(X, Z, {"x": SubDist((("c", w),))})
              for w in (Fraction(2, 4), HALF, Fraction(8, 16))]
    # the same half reached through a composite and through a scaling
    split = DIST.arrow(X, Y, {"x": SubDist((("a", HALF), ("b", HALF)))})
    merge = DIST.arrow(Y, Z, {"a": SubDist((("c", HALF),)), "b": SubDist((("c", HALF),))})
    halves.append(DIST.compose(merge, split))
    halves.append(DIST.compose(DIST.arrow(X, Z, {"x": dirac("c")}),
                               DIST.assert_closed_form(X, fuzzy(X, {"x": HALF}))))
    assert {f.data for f in halves} == {((1, 1),)}


def test_combining_branches_over_mass_one_names_the_mass():
    X = fs("x")
    passing = DIST.arrow(X, X, {"x": SubDist((("x", Fraction(3, 4)),))})
    failing = DIST.arrow(X, X, {"x": SubDist((("x", HALF),))})
    with pytest.raises(ValidationError) as info:
        DIST.instrument_combine(X, passing, failing)
    assert str(info.value) == "dist: combined mass 5/4 exceeds 1"
