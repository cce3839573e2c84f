"""Commutative-ring chain: idempotents, corners, CRT decomposition."""

import gc
import itertools

import pytest

from effectus import (
    HomConditionError,
    PredObject,
    ValidationError,
    derive_instrument,
    falsum,
    hom_check,
    side_effect,
    truth,
)
from effectus.core import atom_key
from effectus.ring import (
    IdealRing,
    PairRing,
    RingChain,
    ZProductRing,
    canonical_iso,
    canonical_moduli,
    enumerate_hom_tables,
    idempotents,
    rings_up_to,
)

RING = RingChain()

Z2 = ZProductRing((2,))
Z4 = ZProductRing((4,))
Z5 = ZProductRing((5,))
Z6 = ZProductRing((6,))
Z12 = ZProductRing((12,))
Z2xZ2 = ZProductRing((2, 2))
Z2xZ3 = ZProductRing((2, 3))
R0 = ZProductRing(())


def brute_subunital_tables(Y, X):
    """Dumb oracle: scan every function Y -> X for additivity and
    multiplicativity.  Exponential, so callers keep |X|^|Y| small."""
    ys = Y.elements()
    found = []
    for vals in itertools.product(X.elements(), repeat=len(ys)):
        table = dict(zip(ys, vals))
        if table[Y.zero] != X.zero:
            continue
        ok = all(
            table[Y.add(a, b)] == X.add(table[a], table[b])
            and table[Y.mul(a, b)] == X.mul(table[a], table[b])
            for a in ys for b in ys
        )
        if ok:
            found.append(table)
    return found


def table_set(tables):
    return {frozenset(t.items()) for t in tables}


# ---------------------------------------------------------------------------
# Idempotents and their Boolean algebra.
# ---------------------------------------------------------------------------


def test_idempotents_canned():
    assert set(idempotents(Z6)) == {(0,), (1,), (3,), (4,)}
    assert set(idempotents(Z5)) == {(0,), (1,)}
    assert set(idempotents(Z2xZ3)) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert idempotents(R0) == ((),)


@pytest.mark.parametrize("R", rings_up_to(24), ids=repr)
def test_idempotents_form_a_boolean_algebra(R):
    E = idempotents(R)
    one, zero = R.one, R.zero
    for e in E:
        c = RING.ortho(R, e)
        assert c in E
        assert RING.ortho(R, c) == e
        assert R.mul(e, c) == zero
        assert R.add(e, R.sub(c, R.mul(e, c))) == one
    for e, d in itertools.product(E, repeat=2):
        meet = R.mul(e, d)
        join = R.sub(R.add(e, d), meet)
        assert meet in E and join in E
        # glb / lub against the order e <= d iff ed = e
        assert RING.pred_leq(R, meet, e) and RING.pred_leq(R, meet, d)
        assert RING.pred_leq(R, e, join) and RING.pred_leq(R, d, join)
        for c in E:
            if RING.pred_leq(R, c, e) and RING.pred_leq(R, c, d):
                assert RING.pred_leq(R, c, meet)
            if RING.pred_leq(R, e, c) and RING.pred_leq(R, d, c):
                assert RING.pred_leq(R, join, c)
    for e, d, c in itertools.product(E, repeat=3):
        dj = R.sub(R.add(d, c), R.mul(d, c))
        lhs = R.mul(e, dj)
        m1, m2 = R.mul(e, d), R.mul(e, c)
        rhs = R.sub(R.add(m1, m2), R.mul(m1, m2))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Substitution along reversed subunital maps.
# ---------------------------------------------------------------------------


def test_subst_canned():
    triple = {y: Z6.mul((3,), y) for y in Z6.elements()}
    f = RING.arrow(Z6, Z6, triple)
    assert RING.subst(f, Z6.one) == Z6.one
    assert RING.subst(RING.identity(Z6), (3,)) == (3,)


def test_subst_preserves_truth_on_all_homs():
    for table in enumerate_hom_tables(Z6, Z12):
        f = RING.arrow(Z12, Z6, dict(zip(Z6.elements(), table)))
        assert RING.subst(f, Z6.one) == Z12.one
        for e in idempotents(Z6):
            r = RING.subst(f, e)
            assert Z12.mul(r, r) == r


def test_arrow_validation_rejects_non_homs():
    with pytest.raises(ValidationError):
        RING.arrow(Z6, Z6, {y: Z6.mul((2,), y) for y in Z6.elements()})
    with pytest.raises(ValidationError):
        RING.arrow(Z6, Z2, {(0,): (0,)})
    with pytest.raises(ValidationError):
        RING.arrow(Z2, Z2, {(0,): (0,), (1,): (7,)})


@pytest.mark.parametrize("e", [(1,), (5, 7)], ids=["short", "unreduced"])
@pytest.mark.parametrize("op", [
    lambda X, e: RING.quotient(X, e),
    lambda X, e: RING.comprehension(X, e),
    lambda X, e: RING.decompose(X, e),
    lambda X, e: RING.assert_closed_form(X, e),
    lambda X, e: RING.instrument_closed_form(X, e),
    lambda X, e: RING.ortho(X, e),
    lambda X, e: RING.pred_leq(X, e, X.one),
    lambda X, e: RING.pred_leq(X, X.zero, e),
    lambda X, e: RING.pred_residual(X, e, X.one),
    lambda X, e: RING.pred_residual(X, X.one, e),
    lambda X, e: RING.subst(RING.identity(X), e),
    lambda X, e: IdealRing(X, e),
], ids=["quotient", "comprehension", "decompose", "assert", "instrument", "ortho",
        "pred-leq-left", "pred-leq-right", "pred-residual-left", "pred-residual-right",
        "subst", "ideal"])
def test_operations_reject_a_predicate_outside_the_ring(op, e):
    """(1,) and (5, 7) are no elements of Z2 x Z3, though its arithmetic
    would run on them, truncating or reducing."""
    with pytest.raises(ValidationError):
        op(Z2xZ3, e)


# ---------------------------------------------------------------------------
# Corners: comprehension and quotient.
# ---------------------------------------------------------------------------


def test_comprehension_corner_canned():
    c = RING.comprehension(Z6, (3,))
    assert set(c.obj.elements()) == {(0,), (3,)}
    assert c.obj.one == (3,)
    assert canonical_moduli(c.obj) == (2,)
    # the counit multiplies by the idempotent
    assert RING.table(c.counit)[(5,)] == (3,)
    assert RING.table(c.counit)[(2,)] == (0,)


def test_quotient_corner_canned():
    q = RING.quotient(Z6, (3,))
    assert set(q.obj.elements()) == {(0,), (2,), (4,)}
    assert q.obj.one == (4,)
    assert canonical_moduli(q.obj) == (3,)
    # the unit includes the complement ideal back into the ring
    assert all(RING.table(q.unit)[x] == x for x in q.obj.elements())


def test_trivial_corners():
    c = RING.comprehension(Z6, Z6.one)
    assert set(c.obj.elements()) == set(Z6.elements())
    assert all(RING.table(c.counit)[x] == x for x in Z6.elements())
    q = RING.quotient(Z6, Z6.one)
    assert q.obj.elements() == (Z6.zero,)


@pytest.mark.parametrize("R", rings_up_to(12), ids=repr)
def test_transposes_are_bijections_of_hom_sets(R):
    """Both universal properties, exhaustively: each hom factors through
    the corner in exactly one way."""
    for S in (Z4, Z6):
        for p in idempotents(R):
            q = RING.quotient(R, p)
            for f in RING.iter_arrows(R, S):
                if hom_check(RING, f, PredObject(R, p), falsum(RING, S)):
                    g = RING.transpose_quotient(R, p, f)
                    mediating = [
                        h for h in RING.iter_arrows(q.obj, S)
                        if RING.compose(h, q.unit).data == f.data
                    ]
                    assert len(mediating) == 1
                    assert mediating[0].data == g.data
                else:
                    with pytest.raises(HomConditionError):
                        RING.transpose_quotient(R, p, f)
            c = RING.comprehension(R, p)
            for f in RING.iter_arrows(S, R):
                if hom_check(RING, f, truth(RING, S), PredObject(R, p)):
                    g = RING.transpose_comprehension(R, p, f)
                    mediating = [
                        h for h in RING.iter_arrows(S, c.obj)
                        if RING.compose(c.counit, h).data == f.data
                    ]
                    assert len(mediating) == 1
                    assert mediating[0].data == g.data
                else:
                    with pytest.raises(HomConditionError):
                        RING.transpose_comprehension(R, p, f)


# ---------------------------------------------------------------------------
# CRT decomposition.
# ---------------------------------------------------------------------------


def test_decompose_canned():
    d = RING.decompose(Z6, (3,))
    assert RING.table(d.split)[(5,)] == ((3,), (2,))
    assert RING.table(d.merge)[((3,), (2,))] == (5,)
    assert canonical_moduli(d.pair) == (2, 3)


@pytest.mark.parametrize("R", rings_up_to(16), ids=repr)
def test_decompose_is_an_isomorphism(R):
    for e in idempotents(R):
        d = RING.decompose(R, e)
        back = RING.compose(d.merge, d.split)
        forth = RING.compose(d.split, d.merge)
        assert back.data == RING.identity(d.pair).data
        assert forth.data == RING.identity(R).data


def test_decompose_edges():
    d1 = RING.decompose(Z6, Z6.one)
    assert set(d1.pair.left.elements()) == set(Z6.elements())
    assert d1.pair.right.elements() == (Z6.zero,)
    d0 = RING.decompose(Z6, Z6.zero)
    assert d0.pair.left.elements() == (Z6.zero,)


# ---------------------------------------------------------------------------
# Assert, instrument, side effects.
# ---------------------------------------------------------------------------


def test_instrument_canned():
    instr = RING.instrument_closed_form(Z6, (3,))
    assert RING.table(instr)[((1,), (5,))] == (5,)
    for x in Z6.elements():
        assert RING.table(instr)[(x, x)] == x
    top_instr = RING.instrument_closed_form(Z6, Z6.one)
    assert all(RING.table(top_instr)[(a, b)] == a
               for a, b in top_instr.dst.elements())


def test_derived_instrument_matches_closed_form():
    for R in (Z6, Z2xZ3, Z12):
        for e in idempotents(R):
            derived = derive_instrument(RING, R, e)
            closed = RING.instrument_closed_form(R, e)
            assert derived.data == closed.data


def test_measurement_is_side_effect_free():
    for e in idempotents(Z12):
        merged, free = side_effect(RING, derive_instrument(RING, Z12, e))
        assert free
        assert merged.data == RING.identity(Z12).data


def test_assert_is_multiplication_by_the_idempotent():
    asrt = RING.assert_closed_form(Z6, (4,))
    assert RING.table(asrt)[(5,)] == (2,)
    assert RING.table(asrt)[(4,)] == (4,)


# ---------------------------------------------------------------------------
# Enumeration against the dumb oracle.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("Y,X", [
    (Z4, Z6), (Z6, Z4), (Z2xZ2, Z4), (Z12, Z2), (Z6, Z2xZ2),
    (Z6, R0), (R0, Z6),
], ids=lambda r: repr(r))
def test_hom_enumeration_matches_brute_force(Y, X):
    clever = table_set(dict(zip(Y.elements(), t)) for t in enumerate_hom_tables(Y, X))
    dumb = table_set(brute_subunital_tables(Y, X))
    assert clever == dumb


def test_every_enumerated_table_validates():
    for table in enumerate_hom_tables(Z2xZ3, Z12):
        RING.arrow(Z12, Z2xZ3, dict(zip(Z2xZ3.elements(), table)))


# ---------------------------------------------------------------------------
# Arrow keys.
# ---------------------------------------------------------------------------

KEY_RINGS = rings_up_to(6) + [IdealRing(Z6, (3,)), PairRing(Z2, Z2xZ3)]


def test_arrow_keys_tell_arrows_apart():
    pairs = 0
    for X, Y in itertools.product(KEY_RINGS, repeat=2):
        arrows = list(RING.iter_arrows(X, Y))
        keys = [f.data for f in arrows]
        assert all(k == tuple(RING.table(f)[y] for y in Y.elements())
                   for k, f in zip(keys, arrows))
        assert len(set(keys)) == len(keys) == RING.count_arrows(X, Y)
        pairs += bool(arrows)
    assert pairs > 50


def test_equal_arrows_share_a_key():
    for X, Y in itertools.product(KEY_RINGS, repeat=2):
        for f in RING.iter_arrows(X, Y):
            key = f.data
            assert RING.compose(RING.identity(Y), f).data == key
            assert RING.compose(f, RING.identity(X)).data == key
            reordered = dict(reversed(list(RING.table(f).items())))
            assert RING.arrow(X, Y, reordered).data == key


# ---------------------------------------------------------------------------
# Canonical form and serialization.
# ---------------------------------------------------------------------------


def test_canonical_iso_is_a_ring_isomorphism():
    e = (9,)
    corner = IdealRing(Z12, e)
    nf, to_nf = canonical_iso(corner)
    assert nf.moduli == (4,)
    # a bijection: the images are nf's elements, each hit once
    assert sorted(to_nf[a] for a in corner.elements()) == sorted(nf.elements())
    for a in corner.elements():
        for b in corner.elements():
            assert to_nf[corner.add(a, b)] == nf.add(to_nf[a], to_nf[b])
            assert to_nf[corner.mul(a, b)] == nf.mul(to_nf[a], to_nf[b])
    assert to_nf[corner.one] == nf.one


def test_canonical_moduli_canned():
    assert canonical_moduli(Z6) == (6,)
    assert canonical_moduli(PairRing(Z2, ZProductRing((3,)))) == (2, 3)
    assert canonical_moduli(IdealRing(Z12, (4,))) == (3,)
    assert canonical_moduli(R0) == ()


def test_rings_up_to_bounds_and_order():
    rings = rings_up_to(12)
    assert all(len(R) <= 12 for R in rings)
    moduli = {R.moduli for R in rings}
    assert (2, 2, 3) in moduli and (12,) in moduli and () in moduli
    assert all(t == tuple(sorted(t)) for t in moduli)


@pytest.mark.parametrize("build", [
    lambda: list(enumerate_hom_tables(Z2xZ3, Z2xZ2)),
    lambda: rings_up_to(12),
], ids=["enumerate_hom_tables", "rings_up_to"])
def test_enumerations_leave_no_reference_cycles(build):
    """Nothing the enumerations allocate waits for the cycle collector."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert build()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_elements_are_listed_in_atom_key_order():
    # the FiniteRing protocol: products list their elements sorted without
    # a sort of their own, because their factors already are
    checked = 0
    for R in rings_up_to(16):
        rings = [R, PairRing(R, R)]
        for e in idempotents(R):
            corner, rest = IdealRing(R, e), IdealRing(R, R.sub(R.one, e))
            rings += [corner, PairRing(corner, rest)]
        for S in rings:
            assert list(S.elements()) == sorted(S.elements(), key=atom_key)
            checked += 1
    assert checked > 200


def test_json_shapes():
    assert RING.object_to_json(Z6) == [6]
    f = RING.arrow(Z2, Z2, {x: x for x in Z2.elements()})
    assert RING.arrow_to_json(f) == [[[0], [0]], [[1], [1]]]


def test_ring_arithmetic_is_residue_arithmetic():
    """Every operation of every ring up to order 12 is the componentwise
    residue arithmetic it stands for, on every pair of elements."""
    for R in rings_up_to(12):
        assert R.zero == tuple(0 for _ in R.moduli)
        assert R.one == tuple(1 for _ in R.moduli)
        for a, b in itertools.product(R.elements(), repeat=2):
            assert R.add(a, b) == tuple((x + y) % m for x, y, m in zip(a, b, R.moduli))
            assert R.mul(a, b) == tuple((x * y) % m for x, y, m in zip(a, b, R.moduli))
            assert R.sub(a, b) == tuple((x - y) % m for x, y, m in zip(a, b, R.moduli))
        for a in R.elements():
            assert R.neg(a) == tuple(-x % m for x, m in zip(a, R.moduli))


def test_corners_and_pairs_store_their_zero_and_one():
    checked = 0
    for R in rings_up_to(12):
        for e in idempotents(R):
            corner, rest = IdealRing(R, e), IdealRing(R, R.sub(R.one, e))
            assert (corner.zero, corner.one) == (R.zero, e)
            pair = PairRing(corner, rest)
            assert pair.zero == (R.zero, R.zero)
            assert pair.one == (e, R.sub(R.one, e))
            assert pair.zero in pair.position and pair.one in pair.position
            checked += 1
    assert checked > 50
