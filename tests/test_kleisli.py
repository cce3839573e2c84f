"""One Kleisli construction over three monads: a partial function is also
a non-deterministic map and a Dirac kernel, and the three instances must
agree on it.  Also what the construction refuses, the encoding boundary
`arrow`/`table`, and the arrow keys of the enumerable instances."""

import random
from fractions import Fraction
from functools import partial, reduce
from itertools import product
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectus import STAR, HomConditionError, UnsupportedError, ValidationError
from effectus.core import Arrow, make_arrow
from effectus import kleisli
from effectus.kleisli import (
    DistChain,
    FiniteSet,
    NondetChain,
    SetsChain,
    SubDist,
    dirac,
    fuzzy,
    tagged_double,
)

SETS = SetsChain()
NONDET = NondetChain()
DIST = DistChain()

BOUNDS = {"max_size": 3}

# instance, image of an atom or *, predicate of a subset P of X
EMBEDDINGS = {
    "nondet": (NONDET, lambda y: frozenset({y}),
               lambda X, P: NONDET.pred(X, SETS.pred_table(X, P))),
    "dist": (DIST, lambda y: SubDist(()) if y is STAR else dirac(y),
             lambda X, P: fuzzy(X, {a: Fraction(a in SETS.pred_table(X, P)) for a in X})),
}


def _embed(inst, image, f: Arrow) -> Arrow:
    return inst.arrow(f.src, f.dst, {x: image(y) for x, y in SETS.table(f).items()})


def _sample(seed):
    rng = random.Random(seed)
    X, Y, Z = (SETS.rand_object(rng, BOUNDS) for _ in range(3))
    f = SETS.rand_arrow(rng, X, Y, BOUNDS)
    g = SETS.rand_arrow(rng, Y, Z, BOUNDS)
    P = SETS.rand_pred(rng, X, BOUNDS)
    Q = SETS.rand_pred(rng, Y, BOUNDS)
    fq = SETS.rand_hom(rng, X, P, SETS.quotient(X, P), Y, BOUNDS)
    fc = SETS.rand_hom(rng, X, P, SETS.comprehension(X, P), Y, BOUNDS)
    return X, Y, f, g, P, Q, fq, fc


@pytest.mark.parametrize("name", sorted(EMBEDDINGS))
def test_partial_functions_agree_across_monads(name):
    inst, image, pred = EMBEDDINGS[name]
    e = partial(_embed, inst, image)

    def same(sets_arrow, other):
        return inst.maps_equal(e(sets_arrow), other)

    for seed in range(60):
        X, Y, f, g, P, Q, fq, fc = _sample(seed)
        assert same(SETS.compose(g, f), inst.compose(e(g), e(f)))
        assert inst.preds_equal(X, pred(X, SETS.subst(f, Q)),
                                inst.subst(e(f), pred(Y, Q)))
        p = pred(X, P)
        q, c = SETS.quotient(X, P), SETS.comprehension(X, P)
        assert inst.quotient(X, p).obj == q.obj
        assert same(q.arrow, inst.quotient(X, p).arrow)
        assert inst.comprehension(X, p).obj == c.obj
        assert same(c.arrow, inst.comprehension(X, p).arrow)
        assert same(SETS.transpose_quotient(X, P, fq),
                    inst.transpose_quotient(X, p, e(fq)))
        assert same(SETS.transpose_comprehension(X, P, fc),
                    inst.transpose_comprehension(X, p, e(fc)))
        assert same(SETS.instrument_closed_form(X, P),
                    inst.instrument_closed_form(X, p))


def test_dist_is_not_enumerable():
    X = FiniteSet((1,))
    for enumerate_ in (lambda: DIST.iter_objects({}), lambda: DIST.iter_preds(X),
                       lambda: DIST.iter_arrows(X, X)):
        with pytest.raises(UnsupportedError):
            enumerate_()
    assert DIST.count_arrows(X, X) is None


@pytest.mark.parametrize("inst", [SETS, NONDET], ids=["sets", "nondet"])
def test_subset_predicate_outside_the_carrier_is_rejected(inst):
    X = FiniteSet((1, 2))
    f = inst.arrow(FiniteSet(("y",)), X, {"y": inst.table(inst.identity(X))[1]})
    with pytest.raises(ValidationError):
        inst.pred(X, (1, 3))
    P = inst.pred(FiniteSet((1, 2, 3)), (1, 3))  # over a wider carrier
    with pytest.raises(ValidationError):
        inst.comprehension(X, P)
    with pytest.raises(ValidationError):
        inst.transpose_comprehension(X, P, f)


def test_negative_nondet_mask_is_refused():
    """A mask below 0 has infinitely many set bits: reading its atoms,
    support or unions refuses it rather than counting them."""
    X, Y = FiniteSet(("x",)), FiniteSet((1, 2))
    f = make_arrow((X, Y, (-3,)))
    with pytest.raises(ValidationError, match="negative"):
        NONDET.arrow_to_json(f)
    with pytest.raises(ValidationError, match="negative"):
        NONDET.cancels(f, epi=True)
    with pytest.raises(ValidationError, match="negative"):
        NONDET.compose(NONDET.identity(Y), f)


def test_wide_nondet_carriers():
    """Masks over a nine-atom carrier re-index and bind like small ones."""
    X = FiniteSet(tuple(range(9)))
    P = NONDET.pred(X, (0, 2, 3, 8))
    rng = random.Random(3)
    Y = FiniteSet(("y", "z"))
    c = NONDET.comprehension(X, P)
    for _ in range(20):
        f = NONDET.rand_hom(rng, X, P, c, Y, BOUNDS)
        g = c.transpose(f)
        assert all(image <= frozenset(NONDET.pred_table(X, P)) | {STAR}
                   for image in NONDET.table(f).values())
        assert NONDET.table(g) == NONDET.table(f)
        assert NONDET.maps_equal(NONDET.compose(c.arrow, g), f)
        assert NONDET.maps_equal(NONDET.compose(NONDET.identity(X), f), f)
    outside = NONDET.arrow(Y, X, {"y": frozenset({0, 1}), "z": frozenset({STAR})})
    with pytest.raises(HomConditionError):
        c.transpose(outside)


@pytest.mark.parametrize("inst, image", [
    (SETS, 3),
    (NONDET, frozenset({1, 2, 3, STAR})),
    (DIST, SubDist(((1, Fraction(1, 4)), (2, Fraction(1, 4)), (3, Fraction(1, 4))))),
], ids=["sets", "nondet", "dist"])
def test_comprehension_transpose_names_the_atom_outside_the_carrier(inst, image):
    X = FiniteSet((1, 2, 3))
    p = inst.pred(X, (1,)) if inst is not DIST else fuzzy(X, {1: 1, 2: Fraction(1, 2), 3: 0})
    f = inst.arrow(FiniteSet(("x", "y")), X, {"x": inst.table(inst.identity(X))[1], "y": image})
    outside = 3 if inst is SETS else 2
    with pytest.raises(HomConditionError, match=f"image of 'y' reaches {outside}, outside"):
        inst.comprehension(X, p).transpose(f)


@pytest.mark.parametrize("inst, image, message", [
    (SETS, "a", "sets: mass 1 at 1 exceeds 1 - p = 0"),
    (NONDET, frozenset({"a", STAR}), "nondet: mass 1 at 1 exceeds 1 - p = 0"),
    (DIST, SubDist((("a", Fraction(3, 4)),)), "dist: mass 3/4 at 1 exceeds 1 - p = 1/2"),
], ids=["sets", "nondet", "dist"])
def test_quotient_transpose_names_the_mass_over_the_cap(inst, image, message):
    # the quotient transpose re-indexes the kept atoms, but first checks
    # every atom where p > 0 against its cap 1 - p
    X, Y = FiniteSet((1, 2)), FiniteSet(("a",))
    p = inst.pred(X, (1,)) if inst is not DIST else fuzzy(X, {1: Fraction(1, 2), 2: 0})
    q = inst.quotient(X, p)
    bad = inst.arrow(X, Y, {1: image, 2: inst.table(inst.identity(Y))["a"]})
    with pytest.raises(HomConditionError) as info:
        q.transpose(bad)
    assert str(info.value) == message
    # at the cap itself the map is a hom, and its transpose composes back
    ok = inst.compose(inst.arrow(q.obj, Y, {a: inst.table(bad)[2] for a in q.obj}), q.arrow)
    assert inst.maps_equal(inst.compose(q.transpose(ok), q.arrow), ok)


# Arrows the cancellation test must not call epi (mono), each short of
# its sufficient condition in one way; honest units and counits meet it
# (tests/test_harness.py).  Each maps the atoms 1, 2, ... of its source to
# the images given, over the target atoms given.
@pytest.mark.parametrize("inst, atoms, images, epi", [
    (NONDET, (1,), [frozenset({1, STAR})], True),
    (DIST, (1,), [SubDist(())], True),
    (DIST, ("a", "b"),
     [SubDist((("a", Fraction(1, 2)), ("b", Fraction(1, 2)))), dirac("b")], True),
    (SETS, ("a", "b"), ["a"], True),
    (SETS, ("a",), ["a", "a"], False),
    (SETS, ("a",), [STAR], False),
], ids=["image-with-abort", "zero-mass", "two-atom-image", "unreached-atom",
        "equal-images", "abort-image"])
def test_cancels_false_short_of_its_condition(inst, atoms, images, epi):
    X = FiniteSet(tuple(range(1, len(images) + 1)))
    f = inst.arrow(X, FiniteSet(atoms), dict(zip(X, images)))
    assert inst.cancels(f, epi) is False
    assert inst.cancels(inst.identity(X), epi) is True


@pytest.mark.parametrize("inst", [SETS, NONDET, DIST], ids=["sets", "nondet", "dist"])
def test_instrument_combine_builds_only_what_it_can_read(inst):
    # Both branches defined everywhere: a partial function cannot take
    # both, and a kernel would carry mass 2, so sets and dist refuse; a
    # non-deterministic map takes the union, which its boundary reads.
    X = FiniteSet((1, 2))
    if inst is NONDET:
        both = inst.instrument_combine(X, inst.identity(X), inst.identity(X))
        assert inst.table(both) == {x: frozenset({(1, x), (2, x)}) for x in X}
        assert inst.arrow_to_json(both) == [[x, [[1, x], [2, x]]] for x in X]
    else:
        with pytest.raises(ValidationError):
            inst.instrument_combine(X, inst.identity(X), inst.identity(X))
    # disjoint branches, as derive_instrument builds them, still combine
    p = inst.pred(X, (1,)) if inst is not DIST else fuzzy(X, {1: Fraction(1, 3), 2: 1})
    closed = inst.instrument_closed_form(X, p)
    combined = inst.instrument_combine(X, inst.assert_closed_form(X, p),
                                       inst.assert_closed_form(X, inst.ortho(X, p)))
    assert inst.maps_equal(combined, closed)
    assert inst.arrow_to_json(combined) == inst.arrow_to_json(closed)


# ---------------------------------------------------------------------------
# The encoding boundary: `arrow` encodes atom tables, `table` decodes them.
# ---------------------------------------------------------------------------

MONADS = {"sets": SETS, "nondet": NONDET, "dist": DIST}
ATOMS = (1, 2, 3, "a", "b", (1, "a"))
OUTSIDE = "zz"  # never an atom of a sampled carrier


def _carriers(min_size=0, max_size=4, atoms=ATOMS):
    return st.lists(st.sampled_from(atoms), unique=True, min_size=min_size,
                    max_size=max_size).map(lambda xs: FiniteSet(tuple(xs)))


@st.composite
def _subdist(draw, Y):
    units = draw(st.lists(st.integers(0, 3), min_size=len(Y), max_size=len(Y)))
    den = sum(units) + draw(st.integers(0, 3)) or 1
    return SubDist(tuple((y, Fraction(k, den)) for y, k in zip(Y, units)))


def _images(name, Y):
    opts = list(Y.atoms) + [STAR]
    if name == "sets":
        return st.sampled_from(opts)
    if name == "nondet":
        return st.frozensets(st.sampled_from(opts), min_size=1)
    return _subdist(Y)


@st.composite
def _atom_tables(draw, name, min_size=0):
    X, Y = draw(_carriers(min_size)), draw(_carriers())
    return X, Y, {x: draw(_images(name, Y)) for x in X}


@pytest.mark.parametrize("name", sorted(MONADS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_table_decodes_what_arrow_encodes(name, data):
    inst = MONADS[name]
    X, Y, table = data.draw(_atom_tables(name))
    assert inst.table(inst.arrow(X, Y, table)) == table


# Enough atoms for a middle carrier wider than eight atoms, whose masks
# span more than a byte.
WIDE_ATOMS = ATOMS + tuple(range(4, 12))


def _composite_image(name, d, g_table):
    """The image of an atom under g after f, read off the decoded tables:
    the union of g's images over d (nondet), or their sum weighted by d
    (dist); * stays *."""
    if name == "nondet":
        return frozenset().union(*({STAR} if y is STAR else g_table[y] for y in d))
    weights = {}
    for y, w in d.weights:
        for z, v in g_table[y].weights:
            weights[z] = weights.get(z, 0) + w * v
    return SubDist(tuple(weights.items()))


@pytest.mark.parametrize("name", ["nondet", "dist"])
@pytest.mark.parametrize("middle", [(0, 4), (9, 11)], ids=["narrow", "wide"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_compose_agrees_with_the_decoded_images(name, middle, data):
    inst = MONADS[name]
    X, Z = data.draw(_carriers(min_size=1)), data.draw(_carriers())
    Y = data.draw(_carriers(*middle, atoms=WIDE_ATOMS))
    f_table = {x: data.draw(_images(name, Y)) for x in X}
    g_table = {y: data.draw(_images(name, Z)) for y in Y}
    f = inst.arrow(X, Y, f_table)
    gf = inst.compose(inst.arrow(Y, Z, g_table), f)
    assert inst.table(gf) == {x: _composite_image(name, d, g_table)
                              for x, d in f_table.items()}
    assert inst.table(inst.compose(inst.identity(Y), f)) == f_table


OUTSIDE_IMAGE = {"sets": OUTSIDE, "nondet": frozenset({OUTSIDE, STAR}),
                 "dist": SubDist(((OUTSIDE, Fraction(1, 2)),))}
# images of the wrong shape, beyond those naming an atom outside the target
MALFORMED = [("nondet", frozenset()), ("dist", (Fraction(1),)),
             ("dist", {1: Fraction(1)}), ("dist", STAR)]


@pytest.mark.parametrize("inst", [SETS, NONDET], ids=["sets", "nondet"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_pred_table_decodes_what_pred_encodes(inst, data):
    X = data.draw(_carriers())
    P = FiniteSet(tuple(data.draw(st.sets(st.sampled_from(X.atoms or (1,)))) & set(X.atoms)))
    p = inst.pred(X, P)
    assert p == tuple(a in P for a in X)
    assert inst.pred_table(X, p) == P
    assert inst.pred_to_json(X, p) == inst.object_to_json(P)


@pytest.mark.parametrize("name", sorted(MONADS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_arrow_rejects_tables_it_cannot_encode(name, data):
    inst = MONADS[name]
    X, Y, table = data.draw(_atom_tables(name, min_size=1))
    x = data.draw(st.sampled_from(X.atoms))
    bad = [{a: d for a, d in table.items() if a != x},  # a missing key
           {**table, OUTSIDE: table[x]},  # an extra key
           {**table, x: OUTSIDE_IMAGE[name]}]  # an image outside Y
    bad += [{**table, x: image} for n, image in MALFORMED if n == name]
    for t in bad:
        with pytest.raises(ValidationError):
            inst.arrow(X, Y, t)


# An image of the wrong shape is refused by name of its source atom: a
# nondet image is a set, never a string or an atom (a tuple atom of the
# target included), and an unhashable image is no atom at all.
SHAPE = {"sets": "is not an atom of the target", "nondet": "must be a non-empty frozenset",
         "dist": "must be a SubDist"}


@pytest.mark.parametrize("name, Y, image", [
    ("nondet", FiniteSet(("a", "b")), "ab"),
    ("nondet", tagged_double(FiniteSet((1, 2))), (1, 2)),
    ("nondet", FiniteSet(("a",)), ["a"]),
    ("sets", FiniteSet(("a",)), ["a"]),
    ("sets", FiniteSet(("a",)), {"a"}),
    ("sets", tagged_double(FiniteSet((1, 2))), (1, ["a"])),
    ("dist", FiniteSet(("a",)), ["a"]),
], ids=["nondet-str", "nondet-tuple-atom", "nondet-list", "sets-list", "sets-set",
        "sets-unhashable-tuple", "dist-list"])
def test_arrow_names_the_atom_of_a_malformed_image(name, Y, image):
    with pytest.raises(ValidationError, match=f"'x'.*{SHAPE[name]}"):
        MONADS[name].arrow(FiniteSet(("x",)), Y, {"x": image})


# A bool or a float hashes equal to an int atom, and would be looked up as
# it; the boundary refuses it, as atom_key does.
HASH_EQUAL = {
    "sets-key": lambda: SETS.arrow(FiniteSet((1,)), FiniteSet((1, 2)), {True: 1}),
    "sets-image": lambda: SETS.arrow(FiniteSet((1,)), FiniteSet((1, 2)), {1: 1.0}),
    "nondet-image": lambda: NONDET.arrow(FiniteSet((1,)), FiniteSet((1, 2)),
                                         {1: frozenset({True, 2.0})}),
    "nondet-tuple-image": lambda: NONDET.arrow(
        FiniteSet((1,)), tagged_double(FiniteSet((1,))), {1: frozenset({(1, 1.0)})}),
    "dist-key": lambda: DIST.arrow(FiniteSet((1,)), FiniteSet((1,)), {1.0: dirac(1)}),
    "sets-pred": lambda: SETS.pred(FiniteSet((1, 2)), [True]),
    "nondet-pred": lambda: NONDET.pred(FiniteSet((1, 2)), [1, 2.0]),
    "fuzzy": lambda: fuzzy(FiniteSet((1, 2)), {True: Fraction(1, 2), 2.0: 1}),
}


@pytest.mark.parametrize("build", HASH_EQUAL.values(), ids=HASH_EQUAL)
def test_boundary_refuses_what_only_hashes_as_an_atom(build):
    with pytest.raises(ValidationError):
        build()


# ---------------------------------------------------------------------------
# Arrow keys.
# ---------------------------------------------------------------------------

SMALL = [FiniteSet(()), FiniteSet((1,)), FiniteSet((1, 2)), FiniteSet((1, "b", "c"))]


@pytest.mark.parametrize("inst", [SETS, NONDET], ids=["sets", "nondet"])
def test_arrow_keys_tell_arrows_apart(inst):
    for X in SMALL[:3]:
        for Y in SMALL:
            arrows = list(inst.iter_arrows(X, Y))
            keys = [f.data for f in arrows]
            assert all(k == f.data for k, f in zip(keys, arrows))
            assert len(set(keys)) == len(keys) == inst.count_arrows(X, Y)


@pytest.mark.parametrize("inst", [SETS, NONDET], ids=["sets", "nondet"])
def test_equal_arrows_share_a_key(inst):
    rng = random.Random(5)
    for _ in range(40):
        X = inst.rand_object(rng, BOUNDS)
        Y = inst.rand_object(rng, BOUNDS)
        f = inst.rand_arrow(rng, X, Y, BOUNDS)
        key = f.data
        assert inst.compose(inst.identity(Y), f).data == key
        assert inst.compose(f, inst.identity(X)).data == key
        shuffled = list(inst.table(f).items())
        rng.shuffle(shuffled)
        assert inst.arrow(X, Y, dict(shuffled)).data == key


def test_nondet_extension_matches_the_bit_loop():
    # every image mask over n positions and *, through every k whose rows
    # are masks over one atom and *: cold, then from the memo of wide masks
    def bit_loop(s, k):
        return reduce(or_, (row for i, row in enumerate(k) if s >> i & 1), 0)

    kleisli._unions.cache_clear()
    for n in range(5):
        masks = tuple(range(1 << n + 1))
        for k in product(range(4), repeat=n + 1):
            expected = tuple(bit_loop(s, k) for s in masks)
            assert NONDET._extend(masks, k) == expected
            assert NONDET._extend(masks[::-1], k) == expected[::-1]
    # one-bit images never reach the memo, and it keeps at most its maxsize
    wide = [s for s in masks if s & s - 1 or not s]
    assert kleisli._unions(k).cache_info().currsize == len(wide) == 32 - 5
    assert kleisli._unions.cache_info().currsize == kleisli._unions.cache_info().maxsize
