"""One Kleisli construction over three monads: a partial function is also
a non-deterministic map and a Dirac kernel, and the three instances must
agree on it.  Also what the construction refuses, and the packed arrow
keys of the enumerable instances."""

import random
from fractions import Fraction
from functools import partial

import pytest

from effectus import STAR, UnsupportedError, ValidationError
from effectus.core import Arrow
from effectus.kleisli import (
    DistChain,
    FiniteSet,
    NondetChain,
    SetsChain,
    SubDist,
    dirac,
    fuzzy,
)

SETS = SetsChain()
NONDET = NondetChain()
DIST = DistChain()

BOUNDS = {"max_size": 3}

# instance, image of an atom or *, predicate of a subset P of X
EMBEDDINGS = {
    "nondet": (NONDET, lambda y: frozenset({y}), lambda X, P: P),
    "dist": (DIST, lambda y: SubDist(()) if y is STAR else dirac(y),
             lambda X, P: fuzzy(X, lambda a: Fraction(a in P))),
}


def _embed(image, f: Arrow) -> Arrow:
    return Arrow(f.src, f.dst, {x: image(y) for x, y in f.data.items()})


def _sample(seed):
    rng = random.Random(seed)
    X, Y, Z = (SETS.rand_object(rng, BOUNDS) for _ in range(3))
    f = SETS.rand_arrow(rng, X, Y, BOUNDS)
    g = SETS.rand_arrow(rng, Y, Z, BOUNDS)
    P = SETS.rand_pred(rng, X, BOUNDS)
    Q = SETS.rand_pred(rng, Y, BOUNDS)
    fq = SETS.rand_quotient_hom(rng, X, P, Y, BOUNDS)
    fc = SETS.rand_comprehension_hom(rng, X, P, Y, BOUNDS)
    return X, Y, f, g, P, Q, fq, fc


@pytest.mark.parametrize("name", sorted(EMBEDDINGS))
def test_partial_functions_agree_across_monads(name):
    inst, image, pred = EMBEDDINGS[name]
    e = partial(_embed, image)

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
        assert same(q.unit, inst.quotient(X, p).unit)
        assert inst.comprehension(X, p).obj == c.obj
        assert same(c.counit, inst.comprehension(X, p).counit)
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
    X, P = FiniteSet((1, 2)), FiniteSet((1, 3))
    f = inst.arrow(FiniteSet(("y",)), X, {"y": inst.identity(X).data[1]})
    with pytest.raises(ValidationError):
        inst.comprehension(X, P)
    with pytest.raises(ValidationError):
        inst.transpose_comprehension(X, P, f)


# ---------------------------------------------------------------------------
# Arrow keys.
# ---------------------------------------------------------------------------

SMALL = [FiniteSet(()), FiniteSet((1,)), FiniteSet((1, 2)), FiniteSet((1, "b", "c"))]


@pytest.mark.parametrize("inst", [SETS, NONDET], ids=["sets", "nondet"])
def test_arrow_keys_tell_arrows_apart(inst):
    for X in SMALL[:3]:
        for Y in SMALL:
            keys = [inst.arrow_key(f) for f in inst.iter_arrows(X, Y)]
            assert all(isinstance(k, int) for k in keys)
            assert len(set(keys)) == len(keys) == inst.count_arrows(X, Y)


@pytest.mark.parametrize("inst", [SETS, NONDET], ids=["sets", "nondet"])
def test_equal_arrows_share_a_key(inst):
    rng = random.Random(5)
    for _ in range(40):
        X = inst.rand_object(rng, BOUNDS)
        Y = inst.rand_object(rng, BOUNDS)
        f = inst.rand_arrow(rng, X, Y, BOUNDS)
        key = inst.arrow_key(f)
        assert inst.arrow_key(inst.compose(inst.identity(Y), f)) == key
        assert inst.arrow_key(inst.compose(f, inst.identity(X))) == key
        shuffled = list(f.data.items())
        rng.shuffle(shuffled)
        assert inst.arrow_key(inst.arrow(X, Y, dict(shuffled))) == key
