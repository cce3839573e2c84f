"""Linear chains: prime-field spaces and complex inner-product spaces."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effectus import linear
from effectus import vnlinalg as la
from effectus import (
    Arrow,
    HomConditionError,
    PredObject,
    ValidationError,
    falsum,
    hom_check,
    truth,
)
from effectus.linear import (
    FpChain,
    FpSpace,
    FpSubspace,
    HilbChain,
    HilbSpace,
    Subspace,
    _coords_matrix,
    echelon_pivots,
    fp_kernel,
    fp_span,
    mat_mul,
    mat_vec,
    rref,
)
from effectus.vn import MatrixAlgebra, VnChain

FP = FpChain()
HILB = HilbChain()

F2_2 = FpSpace(2, 2)
F3_2 = FpSpace(3, 2)


def all_vectors(X: FpSpace):
    return itertools.product(range(X.p), repeat=X.dim)

def in_span(P: FpSubspace, v) -> bool:
    return rref(P.rows + (tuple(v),), P.space.dim, P.space.p)[0] == P.rows


# ---------------------------------------------------------------------------
# F_p linear algebra kernels against brute force.
# ---------------------------------------------------------------------------


def test_rref_canned():
    rows, pivots = rref(((2, 1), (1, 2)), 2, 3)
    assert rows == ((1, 2),) and pivots == (0,)
    rows, pivots = rref(((1, 0), (0, 1)), 2, 2)
    assert rows == ((1, 0), (0, 1)) and pivots == (0, 1)
    assert rref((), 3, 5) == ((), ())


def test_rref_preserves_the_row_space():
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        d = rng.randint(1, 3)
        raw = tuple(tuple(rng.randrange(p) for _ in range(d))
                    for _ in range(rng.randint(0, 3)))
        red, pivots = rref(raw, d, p)
        X = FpSpace(p, d)
        P = FpSubspace(X, red)
        # every original row lies in the reduced span and vice versa
        for r in raw:
            assert in_span(P, r)
        span = {v for v in all_vectors(X) if in_span(P, v)}
        assert len(span) == p ** len(red)
        assert pivots == tuple(sorted(pivots))


def test_kernel_matches_exhaustive_solution_set():
    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice((2, 3))
        d = rng.randint(1, 3)
        rows = rng.randint(0, 3)
        mat = tuple(tuple(rng.randrange(p) for _ in range(d))
                    for _ in range(rows))
        X = FpSpace(p, d)
        K = FpSubspace(X, fp_kernel(mat, d, p))
        solutions = {v for v in all_vectors(X)
                     if not any(mat_vec(mat, v, p))}
        spanned = {v for v in all_vectors(X) if in_span(K, v)}
        assert spanned == solutions


def test_mat_mul_through_zero_dimensional_spaces():
    # a zero-row factor loses its column count; the width argument
    # restores it, keeping composites through the 0 space well shaped
    assert mat_mul((), (), 2) == ()
    assert mat_mul(((),), (), 3, width=2) == ((0, 0),)
    zero_to = FP.arrow(F2_2, FpSpace(2, 0), ())
    back = FP.arrow(FpSpace(2, 0), FpSpace(2, 3), ((), (), ()))
    comp = FP.compose(back, zero_to)
    assert comp.data == ((0, 0), (0, 0), (0, 0))
    assert FP.map_residual(comp, FP.arrow(F2_2, FpSpace(2, 3),
                                          comp.data)) == 0.0


# ---------------------------------------------------------------------------
# The F_p routines that avoid eliminating, against elimination-based
# references, for p in {2, 3, 5, 7} and dimensions 0-5.
# ---------------------------------------------------------------------------

PRIMES = (2, 3, 5, 7)


def residue_rows(p, d):
    return st.lists(st.tuples(*[st.integers(0, p - 1)] * d), max_size=6).map(tuple)


@st.composite
def fp_matrices(draw):
    """(p, width, rows): up to six rows of residues."""
    p = draw(st.sampled_from(PRIMES))
    d = draw(st.integers(0, 5))
    return p, d, draw(residue_rows(p, d))


def identity_rows(d):
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def reference_kernel(mat, d, p):
    """The free-column null basis of an elimination, reduced again."""
    red, pivots = rref(mat, d, p)
    basis = []
    for c in range(d):
        if c not in pivots:
            v = [0] * d
            v[c] = 1
            for r, pc in enumerate(pivots):
                v[pc] = (-red[r][c]) % p
            basis.append(tuple(v))
    return rref(basis, d, p)[0]


@given(fp_matrices())
@example((3, 4, ()))                     # rank 0: the kernel is everything
@example((5, 4, ((0,) * 4,) * 3))        # rank 0 with zero rows
@example((7, 5, identity_rows(5)))       # full rank: the kernel is 0
@example((2, 0, ((),)))
@settings(max_examples=200, deadline=None)
def test_kernel_matches_the_reduced_free_column_basis(m):
    p, d, mat = m
    assert fp_kernel(mat, d, p) == reference_kernel(mat, d, p)


@st.composite
def fp_subspace_pairs(draw):
    p, d, a = draw(fp_matrices())
    b = draw(residue_rows(p, d))
    return p, d, rref(a, d, p)[0], rref(b, d, p)[0]


@given(fp_subspace_pairs())
@example((2, 3, (), identity_rows(3)))
@example((5, 3, identity_rows(3), ()))
@example((3, 2, identity_rows(2), identity_rows(2)))
@example((7, 0, (), ()))
@settings(max_examples=200, deadline=None)
def test_pred_leq_matches_eliminating_the_join(pair):
    p, d, prows, qrows = pair
    X = FpSpace(p, d)
    P, Q = FpSubspace(X, prows), FpSubspace(X, qrows)
    assert FP.pred_leq(X, P, Q) == (rref(qrows + prows, d, p)[0] == qrows)


@st.composite
def echelon_candidates(draw):
    """Residue rows of the right width: raw matrices, which are rarely
    reduced, echelon forms, and echelon forms with one entry redrawn."""
    p, d, rows = draw(fp_matrices())
    if draw(st.booleans()):
        rows = rref(rows, d, p)[0]
        if rows and d and draw(st.booleans()):
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, d - 1))
            bumped = list(rows[i])
            bumped[j] = draw(st.integers(0, p - 1))
            rows = rows[:i] + (tuple(bumped),) + rows[i + 1:]
    return p, d, rows


@given(echelon_candidates())
@example((2, 3, ()))
@example((3, 4, identity_rows(4)))
@example((5, 3, ((0, 0, 0),)))
@example((7, 0, ((),)))
@settings(max_examples=300, deadline=None)
def test_echelon_check_matches_elimination(m):
    p, d, rows = m
    red, pivots = rref(rows, d, p)
    try:
        accepted = echelon_pivots(rows, d, p)
    except ValidationError:
        accepted = None
    assert (accepted is not None) == (red == rows)
    if accepted is not None:
        assert accepted == pivots


def test_subspace_validation_requires_reduced_echelon():
    with pytest.raises(ValidationError):
        FpSubspace(F3_2, ((2, 0),))
    with pytest.raises(ValidationError):
        FpSubspace(F2_2, ((1, 0), (1, 1)))
    with pytest.raises(ValidationError):
        FpSpace(4, 1)


# Sizes and moduli are ints and never bools, as atoms are (core.atom_key).
@pytest.mark.parametrize("build, args", [
    (FpSpace, (2, 2.0)),
    (FpSpace, (2, True)),
    (FpSpace, (2.0, 1)),
    (HilbSpace, (1.5,)),
    (HilbSpace, (True,)),
    (MatrixAlgebra, ((True,),)),
], ids=["fp-float-dim", "fp-bool-dim", "fp-float-modulus", "hilb-float-dim",
        "hilb-bool-dim", "vn-bool-block"])
def test_carrier_sizes_must_be_ints(build, args):
    with pytest.raises(ValidationError):
        build(*args)


@pytest.mark.parametrize("rows", [
    ((1, 0, 0),),    # too wide
    ((1,),),         # too narrow
    ((True, 0),),    # bools are not residues
    ((1, False),),
    ((1.0, 0),),     # nor are floats
], ids=["wide", "narrow", "bool", "bool-zero", "float"])
def test_subspace_rows_must_be_int_residues_of_the_right_width(rows):
    with pytest.raises(ValidationError):
        FpSubspace(F2_2, rows)


@pytest.mark.parametrize("mat", [((True, 0), (0, 1)), ((1, 0), (0, 1.0))],
                         ids=["bool", "float"])
def test_arrow_entries_must_be_int_residues(mat):
    with pytest.raises(ValidationError):
        FP.arrow(F2_2, F2_2, mat)


def test_fp_modulus_primality_matches_trial_division():
    for p in range(-2, 500):
        if p >= 2 and all(p % k for k in range(2, p)):
            assert FpSpace(p, 1).p == p
        else:
            with pytest.raises(ValidationError):
                FpSpace(p, 1)


def test_fp_space_accepts_a_large_prime():
    assert FpSpace(2_147_483_647, 1).p == 2_147_483_647
    with pytest.raises(ValidationError):
        FpSpace(2_147_483_649, 1)  # 3 * 715827883


# ---------------------------------------------------------------------------
# F_p chain structure.
# ---------------------------------------------------------------------------


def test_quotient_drops_the_pivot_coordinate():
    P = fp_span(F2_2, ((1, 0),))
    q = FP.quotient(F2_2, P)
    assert q.obj == FpSpace(2, 1)
    assert q.unit.data == ((0, 1),)
    for a, b in all_vectors(F2_2):
        assert mat_vec(q.unit.data, (a, b), 2) == (b,)


def test_comprehension_includes_the_basis():
    P = fp_span(F3_2, ((1, 1),))
    c = FP.comprehension(F3_2, P)
    assert c.obj == FpSpace(3, 1)
    assert c.counit.data == ((1,), (1,))
    for t in range(3):
        assert mat_vec(c.counit.data, (t,), 3) == (t, t)


def test_trivial_subspaces():
    top = FP.top(F3_2)
    assert FP.quotient(F3_2, top).obj == FpSpace(3, 0)
    assert FP.comprehension(F3_2, top).obj == F3_2
    bot = FP.bottom(F3_2)
    assert FP.quotient(F3_2, bot).obj == F3_2
    assert FP.comprehension(F3_2, bot).obj == FpSpace(3, 0)


# A predicate over another space than the one an operation is given:
# another dimension, or the same dimension over another field.
FOREIGN = {"fp-wider": (FP, F2_2, fp_span(FpSpace(2, 3), ((1, 1, 1),))),
           "fp-field": (FP, F3_2, fp_span(F2_2, ((1, 0),))),
           "hilb-wider": (HILB, HilbSpace(2), HILB.top(HilbSpace(3))),
           "hilb-narrower": (HILB, HilbSpace(2), HILB.top(HilbSpace(1)))}
PRED_OPS = {
    "quotient": lambda inst, X, p: inst.quotient(X, p),
    "comprehension": lambda inst, X, p: inst.comprehension(X, p),
    "pred-leq-left": lambda inst, X, p: inst.pred_leq(X, p, inst.top(X)),
    "pred-leq-right": lambda inst, X, p: inst.pred_leq(X, inst.bottom(X), p),
    "pred-residual-left": lambda inst, X, p: inst.pred_residual(X, p, inst.top(X)),
    "pred-residual-right": lambda inst, X, p: inst.pred_residual(X, inst.top(X), p),
    "subst": lambda inst, X, p: inst.subst(inst.identity(X), p),
}
ORTHO_OPS = {"ortho": lambda inst, X, p: inst.ortho(X, p),
             "assert": lambda inst, X, p: inst.assert_closed_form(X, p)}


@pytest.mark.parametrize("inst, X, p, op", [
    pytest.param(inst, X, p, op, id=f"{case}-{name}")
    for case, (inst, X, p) in FOREIGN.items()
    for name, op in {**PRED_OPS, **(ORTHO_OPS if inst is HILB else {})}.items()])
def test_operations_reject_a_predicate_over_another_space(inst, X, p, op):
    with pytest.raises(ValidationError):
        op(inst, X, p)


def test_subst_is_the_preimage():
    rng = random.Random(31)
    for _ in range(80):
        p = rng.choice((2, 3))
        X = FpSpace(p, rng.randint(0, 3))
        Y = FpSpace(p, rng.randint(0, 3))
        f = FP.rand_arrow(rng, X, Y, {})
        q = FP.rand_pred(rng, Y, {})
        pre = FP.subst(f, q)
        for v in all_vectors(X):
            assert in_span(pre, v) == in_span(q, mat_vec(f.data, v, p))


def test_transposes_factor_uniquely_small_exhaustive():
    X = F2_2
    P = fp_span(X, ((1, 0),))
    Y = FpSpace(2, 1)
    q = FP.quotient(X, P)
    hits = 0
    for f in FP.iter_arrows(X, Y):
        if hom_check(FP, f, PredObject(X, P), falsum(FP, Y)):
            g = FP.transpose_quotient(X, P, f)
            mediating = [h for h in FP.iter_arrows(q.obj, Y)
                         if FP.compose(h, q.unit).data == f.data]
            assert mediating == [g] or [m.data for m in mediating] == [g.data]
            hits += 1
        else:
            with pytest.raises(HomConditionError):
                FP.transpose_quotient(X, P, f)
    assert hits == 2
    c = FP.comprehension(X, P)
    for f in FP.iter_arrows(Y, X):
        if hom_check(FP, f, truth(FP, Y), PredObject(X, P)):
            g = FP.transpose_comprehension(X, P, f)
            mediating = [h.data for h in FP.iter_arrows(Y, c.obj)
                         if FP.compose(c.counit, h).data == f.data]
            assert mediating == [g.data]
        else:
            with pytest.raises(HomConditionError):
                FP.transpose_comprehension(X, P, f)


@pytest.mark.parametrize("dim", [1, 2])
def test_transposes_factor_uniquely_f3_rank_one(dim):
    """Over F_3^3 with a rank-1 predicate pivoting in the middle column,
    each hom's transpose is the one mediating map a brute-force search
    finds, and every other map is refused."""
    X, Y = FpSpace(3, 3), FpSpace(3, dim)
    P = fp_span(X, ((0, 1, 1),))
    assert P.pivots == (1,)
    q, c = FP.quotient(X, P), FP.comprehension(X, P)
    for transpose, homs, hom_objs, ends, back in (
            (q.transpose, (X, Y), (PredObject(X, P), falsum(FP, Y)), (q.obj, Y),
             lambda h: FP.compose(h, q.unit)),
            (c.transpose, (Y, X), (truth(FP, Y), PredObject(X, P)), (Y, c.obj),
             lambda h: FP.compose(c.counit, h))):
        hits = 0
        for f in FP.iter_arrows(*homs):
            if hom_check(FP, f, *hom_objs):
                found = [h.data for h in FP.iter_arrows(*ends) if back(h).data == f.data]
                assert found == [transpose(f).data]
                hits += 1
            else:
                with pytest.raises(HomConditionError):
                    transpose(f)
        assert hits == FP.count_arrows(*ends)


# The transposes and the comprehension homs as an earlier FpChain built
# them: the quotient transpose reduced its entries again, the
# comprehension transpose multiplied out P f, and the comprehension homs
# were transposed index by index.

def reference_transpose_quotient(X, P, f):
    free = [c for c in range(X.dim) if c not in P.pivots]
    for row in P.rows:
        if any(mat_vec(f.data, row, X.p)):
            raise HomConditionError(f"fp: {row!r} is not in the kernel")
    return tuple([tuple([r[c] % X.p for c in free]) for r in f.data])


def reference_transpose_comprehension(X, P, f):
    if any(any(row) for row in mat_mul(_coords_matrix(P), f.data, X.p)):
        raise HomConditionError("fp: image is not inside the subspace")
    return tuple(f.data[c] for c in P.pivots)


def reference_comprehension_homs(X, P, Y):
    line = FpSpace(X.p, 1)
    cols = [c for c in all_vectors(X)
            if hom_check(FP, FP.arrow(line, X, tuple(zip(c))), truth(FP, line),
                         PredObject(X, P))]
    return [tuple(tuple(c[i] for c in m) for i in range(X.dim))
            for m in itertools.product(cols, repeat=Y.dim)]


def _transposes_as_the_reference(transpose, reference, ends, X, P, f) -> bool:
    """Whether f has a transpose, after checking that `transpose` refuses
    f exactly when `reference` does and otherwise builds its matrix."""
    try:
        expected = reference(X, P, f)
    except HomConditionError:
        with pytest.raises(HomConditionError):
            transpose(f)
        return False
    g = transpose(f)
    assert ((g.src, g.dst), g.data) == (ends, expected)
    return True


def test_transposes_and_homs_match_the_reference():
    """At fields (2, 3) and max_dim 2, on every (X, P, Y) and every arrow
    either way, hom or not, each transpose refuses exactly the arrows the
    reference refuses and otherwise builds the reference's matrix; the
    comprehension homs come in the reference's order, 0-dimensional X and
    Y included."""
    objs = list(FP.iter_objects({"fields": (2, 3), "max_dim": 2}))
    outcomes, homs = [], 0
    for X, Y in itertools.product(objs, repeat=2):
        if X.p != Y.p:
            continue
        for P in FP.iter_preds(X):
            q, c = FP.quotient(X, P), FP.comprehension(X, P)
            outcomes += [_transposes_as_the_reference(
                q.transpose, reference_transpose_quotient, (q.obj, Y), X, P, f)
                for f in FP.iter_arrows(X, Y)]
            outcomes += [_transposes_as_the_reference(
                c.transpose, reference_transpose_comprehension, (Y, c.obj), X, P, f)
                for f in FP.iter_arrows(Y, X)]
            yielded = list(FP.iter_homs(c, X, P, Y))
            assert yielded == reference_comprehension_homs(X, P, Y)
            homs += len(yielded)
    assert (outcomes.count(False), outcomes.count(True), homs) == (948, 446, 223)


def test_round_trip_through_full_rank_predicate():
    # regression: a predicate of full rank used to produce 0-width rows
    # in the sampled hom, crashing the substitution sweep
    rng = random.Random(3)
    X = F2_2
    P = FP.top(X)
    Y = FpSpace(2, 2)
    f = FP.rand_hom(rng, X, P, FP.quotient(X, P), Y, {})
    assert f.data == ((0, 0), (0, 0))
    g = FP.transpose_quotient(X, P, f)
    assert FP.map_residual(FP.compose(g, FP.quotient(X, P).unit), f) == 0.0
    assert hom_check(FP, f, PredObject(X, P), falsum(FP, Y))


def test_fp_json_shapes():
    assert FP.object_to_json(F3_2) == {"field": 3, "dim": 2}
    P = fp_span(F3_2, ((1, 1),))
    assert FP.pred_to_json(F3_2, P) == [[1, 1]]
    f = FP.identity(F2_2)
    assert FP.arrow_to_json(f) == [[1, 0], [0, 1]]


def _every_subspace(p, d):
    """Each subspace of F_p^d once, as its reduced echelon rows: a pivot
    set, then every choice of the entries right of a pivot and off the
    pivot columns."""
    X = FpSpace(p, d)
    for r in range(d + 1):
        for pivots in itertools.combinations(range(d), r):
            free = [(i, c) for i, pc in enumerate(pivots)
                    for c in range(pc + 1, d) if c not in pivots]
            for values in itertools.product(range(p), repeat=len(free)):
                rows = [[int(c == pc) for c in range(d)] for pc in pivots]
                for (i, c), v in zip(free, values):
                    rows[i][c] = v
                yield FpSubspace(X, tuple(map(tuple, rows)))


def _coords_by_inversion(P):
    """The quotient coordinates the long way: invert the change of basis
    whose columns are P's rows and the unit vectors at the free columns,
    and keep the rows of the free coordinates."""
    p, d = P.space.p, P.space.dim
    basis = list(P.rows) + [tuple(int(i == c) for i in range(d))
                            for c in range(d) if c not in P.pivots]
    aug = [[basis[j][i] for j in range(d)] + [int(j == i) for j in range(d)]
           for i in range(d)]
    red, pivots = rref(aug, 2 * d, p)
    assert pivots[:d] == tuple(range(d))
    return tuple(tuple(row[d:]) for row in red[P.rank:])


def test_coords_matrix_matches_the_basis_inversion():
    subspaces = [P for p, top in ((2, 4), (3, 4), (5, 3))
                 for d in range(top + 1) for P in _every_subspace(p, d)]
    assert len(subspaces) == 415
    for P in subspaces:
        assert _coords_matrix(P) == _coords_by_inversion(P), P


def test_count_and_iter_arrows_agree():
    X, Y = F2_2, FpSpace(2, 1)
    arrows = list(FP.iter_arrows(X, Y))
    assert len(arrows) == FP.count_arrows(X, Y) == 4
    assert len({a.data for a in arrows}) == 4


def test_arrow_keys_tell_arrows_apart():
    for p in (2, 3):
        for dx, dy in itertools.product(range(3), repeat=2):
            X, Y = FpSpace(p, dx), FpSpace(p, dy)
            keys = [f.data for f in FP.iter_arrows(X, Y)]
            # strictly increasing: distinct, and in iter_arrows order
            assert keys == sorted(set(keys))
            assert len(keys) == FP.count_arrows(X, Y)


def test_equal_arrows_share_a_key():
    rng = random.Random(5)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        X, Y = FpSpace(p, rng.randint(0, 3)), FpSpace(p, rng.randint(0, 3))
        f = FP.rand_arrow(rng, X, Y, {})
        key = f.data
        assert FP.compose(FP.identity(Y), f).data == key
        assert FP.compose(f, FP.identity(X)).data == key
        assert FP.arrow(X, Y, [list(r) for r in f.data]).data == key


@st.composite
def fp_constructions(draw):
    """(X, P, Y, f, g, seed): spaces F_p^0 to F_p^3 for p in {2, 3, 5}, a
    subspace P of X, arrows f: X -> Y and g: Y -> X, and a sampling seed."""
    p = draw(st.sampled_from((2, 3, 5)))
    X, Y = FpSpace(p, draw(st.integers(0, 3))), FpSpace(p, draw(st.integers(0, 3)))

    def matrix(A, B):
        return draw(st.tuples(*[st.tuples(*[st.integers(0, p - 1)] * A.dim)] * B.dim))

    return (X, fp_span(X, draw(residue_rows(p, X.dim))), Y, FP.arrow(X, Y, matrix(X, Y)),
            FP.arrow(Y, X, matrix(Y, X)), draw(st.integers(0, 2**32)))


@given(fp_constructions())
@settings(max_examples=150, deadline=None)
def test_every_fp_arrow_holds_reduced_residues(case):
    """The quotient transpose copies f's entries without reducing them, so
    every arrow FpChain builds must hold reduced residues: `arrow`, which
    refuses anything else, accepts each one again."""
    X, P, Y, f, g, seed = case
    rng = random.Random(seed)
    q, c = FP.quotient(X, P), FP.comprehension(X, P)
    built = [FP.identity(X), FP.compose(g, f), FP.compose(f, g), q.unit, c.counit,
             FP.rand_arrow(rng, X, Y, {}),
             q.transpose(FP.rand_hom(rng, X, P, q, Y, {})),
             c.transpose(FP.rand_hom(rng, X, P, c, Y, {}))]
    built += itertools.islice(FP.iter_arrows(X, Y), 30)
    for construction in (q, c):
        homs = [Arrow(*construction.ends(X, Y), d)
                for d in itertools.islice(FP.iter_homs(construction, X, P, Y), 30)]
        built += homs + [construction.transpose(h) for h in homs]
    for h in built:
        assert FP.arrow(h.src, h.dst, h.data).data == h.data


@st.composite
def fp_substitutions(draw):
    """(f, q): an arrow F_p^m -> F_p^n and a subspace q of its target,
    for p in {2, 3, 5, 7} and m, n in 0-4."""
    p = draw(st.sampled_from(PRIMES))
    X, Y = FpSpace(p, draw(st.integers(0, 4))), FpSpace(p, draw(st.integers(0, 4)))
    mat = draw(st.tuples(*[st.tuples(*[st.integers(0, p - 1)] * X.dim)] * Y.dim))
    return FP.arrow(X, Y, mat), fp_span(Y, draw(residue_rows(p, Y.dim)))


@given(fp_substitutions())
@settings(max_examples=200, deadline=None)
def test_cached_preimage_matches_a_fresh_kernel(case):
    f, q = case
    X = f.src
    comp = mat_mul(_coords_matrix(q), f.data, X.p)
    fresh = FpSubspace(X, fp_kernel(comp, X.dim, X.p))
    pre = FP.subst(f, q)
    assert (pre.rows, pre.pivots) == (fresh.rows, fresh.pivots)
    assert FP.subst(f, q) is pre
    assert linear._preimage.cache_info().maxsize is not None


def test_one_elimination_per_substitution(monkeypatch):
    rng = random.Random(41)
    calls = []
    real = linear.rref
    monkeypatch.setattr(linear, "rref", lambda *a: calls.append(a) or real(*a))

    def count(thunk):
        # a fresh composite, not one a cached preimage already answers
        linear._preimage.cache_clear()
        calls.clear()
        result = thunk()
        return len(calls), result

    for _ in range(30):
        p = rng.choice((2, 3, 5))
        X, Y = FpSpace(p, rng.randint(0, 4)), FpSpace(p, rng.randint(0, 4))
        f = FP.rand_arrow(rng, X, Y, {})
        q = FP.rand_pred(rng, Y, {})
        P = FP.rand_pred(rng, X, {})
        _coords_matrix(q)  # cached per subspace, built once for many arrows
        n, pre = count(lambda: FP.subst(f, q))
        assert n == 1
        calls.clear()
        assert FP.subst(f, q) is pre and not calls
        assert count(lambda: FP.pred_leq(X, P, pre))[0] == 0
        assert count(lambda: FpSubspace(X, pre.rows))[0] == 0
        src, dst = PredObject(X, P), PredObject(Y, q)
        assert count(lambda: hom_check(FP, f, src, dst))[0] == 1


def test_iter_preds_counts_subspaces():
    # F_2^2 has 5 subspaces; F_3^2 has 6 (0, four lines, the plane)
    assert sum(1 for _ in FP.iter_preds(F2_2)) == 5
    assert sum(1 for _ in FP.iter_preds(F3_2)) == 6


def _first_spans(p, d):
    """The reduced echelon rows of each subspace of F_p^d in the order
    in which row-reducing every set of nonzero vectors, smaller sets
    first and each size in `combinations` order, first meets them: the
    enumeration `iter_preds` made before it built the forms directly.
    It stops once it has met as many subspaces as `_every_subspace`
    counts, after which it could meet no new one."""
    total = sum(1 for _ in _every_subspace(p, d))
    vectors = [v for v in itertools.product(range(p), repeat=d) if any(v)]
    seen = {}
    for k in range(d + 1):
        for chosen in itertools.combinations(vectors, k):
            seen.setdefault(rref(chosen, d, p)[0], None)
            if len(seen) == total:
                return list(seen)
    return list(seen)


@pytest.mark.parametrize("p, d", list(itertools.product((2, 3, 5), range(4))))
def test_iter_preds_keeps_the_order_of_the_span_enumeration(p, d):
    assert [P.rows for P in FP.iter_preds(FpSpace(p, d))] == _first_spans(p, d)


# ---------------------------------------------------------------------------
# Hilbert chain.
# ---------------------------------------------------------------------------


def test_orthocomplement_canned_axis():
    X = HilbSpace(2)
    P = Subspace(X, np.array([[1.0], [0.0]]))
    C = HILB.ortho(X, P)
    assert C.rank == 1
    assert abs(abs(C.basis[1, 0]) - 1) < 1e-12 and abs(C.basis[0, 0]) < 1e-12
    v = np.array((3, 4), dtype=complex)
    v1, v2 = P.projector() @ v, C.projector() @ v
    assert np.allclose(v1, (3, 0)) and np.allclose(v2, (0, 4))


def test_orthocomplement_canned_diagonal():
    X = HilbSpace(2)
    P = Subspace(X, np.array([[1.0], [1.0]]) / np.sqrt(2))
    C = HILB.ortho(X, P)
    v = np.array((1, 0), dtype=complex)
    v1, v2 = P.projector() @ v, C.projector() @ v
    assert np.allclose(v1, (0.5, 0.5), atol=1e-12)
    assert np.allclose(v2, (0.5, -0.5), atol=1e-12)
    assert abs(np.vdot(v1, v2)) < 1e-12
    assert np.allclose(C.projector() @ v2, v2, atol=1e-12)


def test_reconstruction_on_random_vectors():
    rng = random.Random(47)
    worst = 0.0
    for _ in range(200):
        X = HilbSpace(rng.randint(1, 5))
        p = HILB.rand_pred(rng, X, {})
        v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                      for _ in range(X.dim)])
        v1, v2 = p.projector() @ v, HILB.ortho(X, p).projector() @ v
        worst = max(worst,
                    float(np.max(np.abs(v1 + v2 - v))) if X.dim else 0.0,
                    float(np.max(np.abs(p.projector() @ v2))) if X.dim else 0.0)
    assert worst <= 1e-9


def test_projectors_idempotent_and_self_adjoint():
    rng = random.Random(53)
    for _ in range(50):
        X = HilbSpace(rng.randint(1, 5))
        p = HILB.rand_pred(rng, X, {})
        pr = p.projector()
        assert np.max(np.abs(pr @ pr - pr)) <= 1e-9
        assert np.max(np.abs(pr - pr.conj().T)) <= 1e-9
        assert p.rank + HILB.ortho(X, p).rank == X.dim


def test_subspace_canonical_basis_is_description_independent():
    X = HilbSpace(3)
    a = Subspace(X, np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))
    b = Subspace(X, np.array([[-3.0], [-3.0], [0.0]]))
    assert a.rank == b.rank == 1
    assert np.max(np.abs(a.basis - b.basis)) < 1e-9
    mixed = Subspace(X, np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))
    axes = Subspace(X, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert np.max(np.abs(mixed.basis - axes.basis)) < 1e-9


def test_subst_kernel_dimension_matches_numpy_rank():
    rng = random.Random(61)
    for _ in range(60):
        X = HilbSpace(rng.randint(1, 4))
        Y = HilbSpace(rng.randint(1, 4))
        f = HILB.rand_arrow(rng, X, Y, {})
        q = HILB.rand_pred(rng, Y, {})
        pre = HILB.subst(f, q)
        off = (np.eye(Y.dim) - q.projector()) @ f.data
        assert pre.rank == X.dim - np.linalg.matrix_rank(off, tol=1e-9)
        if pre.rank:
            assert np.max(np.abs(off @ pre.basis)) <= 1e-9


def test_complement_spans_the_rest():
    rng = random.Random(113)
    for _ in range(60):
        dim = rng.randint(1, 5)
        k = rng.randint(0, dim)
        u = la.gram_schmidt_columns(np.array(
            [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(k)]
             for _ in range(dim)]))
        X = HilbSpace(dim)
        c = HILB.ortho(X, Subspace(X, u)).basis
        assert u.shape[1] + c.shape[1] == dim
        if u.size and c.size:
            assert la.max_abs(la.dagger(u) @ c) <= 1e-9
        full = np.column_stack([u, c]) if u.size or c.size else np.zeros((dim, 0))
        assert la.max_abs(full @ la.dagger(full) - np.eye(dim)) <= 1e-9


def test_kernel_matches_numpy_rank():
    """The preimage of 0 is the kernel, and its orthocomplement the span
    of the conjugated rows."""
    rng = random.Random(127)
    for _ in range(80):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                       for _ in range(cols)] for _ in range(rows)])
        if rng.random() < 0.3:  # force rank deficiency
            m[:, -1] = m[:, 0] * complex(rng.gauss(0, 1), rng.gauss(0, 1))
        X, Y = HilbSpace(cols), HilbSpace(rows)
        kernel = HILB.subst(HILB.arrow(X, Y, m), HILB.bottom(Y))
        k = kernel.basis
        assert k.shape[1] == cols - np.linalg.matrix_rank(m, tol=1e-6)
        if k.size:
            assert la.max_abs(m @ k) <= 1e-6
        r = HILB.ortho(X, kernel).basis
        assert r.shape[1] + k.shape[1] == cols
        stacked = np.column_stack([la.dagger(m), r])
        assert np.linalg.matrix_rank(stacked, tol=1e-6) == r.shape[1]


def _hilb_ops():
    rng = random.Random(7)
    X, Y = HilbSpace(3), HilbSpace(2)
    p, q = HILB.rand_pred(rng, X, {}), HILB.rand_pred(rng, Y, {})
    f = HILB.rand_arrow(rng, X, Y, {})
    return {"top": (1, lambda: HILB.top(X)), "bottom": (1, lambda: HILB.bottom(X)),
            "ortho": (1, lambda: HILB.ortho(X, p)), "subst": (2, lambda: HILB.subst(f, q)),
            "quotient": (1, lambda: HILB.quotient(X, p)),
            "rand_pred": (2, lambda: HILB.rand_pred(rng, X, {}))}


@pytest.mark.parametrize("name", list(_hilb_ops()))
def test_hilb_subspaces_are_one_sweep_of_their_projector(name):
    """top, bottom and ortho sweep the projector they hold; subst first
    sweeps its map's rows; a span of columns (rand_pred) sweeps them, then
    their projector."""
    sweeps, op = _hilb_ops()[name]
    with la.reuse():
        op()
        assert la.kernel_counts()["gram_schmidt_columns.calls"] == sweeps


@pytest.mark.parametrize("build", [
    lambda: HILB.arrow(HilbSpace(4), HilbSpace(1), np.eye(2)),
    lambda: HILB.arrow(HilbSpace(2), HilbSpace(2), np.ones((1, 4))),
    lambda: HILB.arrow(HilbSpace(2), HilbSpace(2), np.ones(3)),
    lambda: HILB.arrow(HilbSpace(2), HilbSpace(1), np.ones(2)),
    lambda: Subspace(HilbSpace(2), np.ones((4, 1))),
    lambda: Subspace(HilbSpace(2), np.ones(2)),
    lambda: Subspace(HilbSpace(2), np.ones((2, 1, 1))),
], ids=["square-as-row", "row-as-square", "entry-count", "flat-row",
        "tall-column", "flat-column", "three-axes"])
def test_hilb_refuses_wrongly_shaped_matrices(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize("entries", [[[1, 2], [3]], [[1], [2, 3]], [["a"]], [[object()]]],
                         ids=["short-row", "long-row", "string", "object"])
@pytest.mark.parametrize("build", [
    lambda m: HILB.arrow(HilbSpace(2), HilbSpace(2), m),
    lambda m: Subspace(HilbSpace(2), m),
    lambda m: VnChain().arrow(MatrixAlgebra((1,)), MatrixAlgebra((1,)), m),
], ids=["hilb-arrow", "subspace", "vn-arrow"])
def test_ragged_or_non_numeric_matrices_are_refused(build, entries):
    # numpy refuses these with its own ValueError or TypeError
    with pytest.raises(ValidationError, match="not a complex array"):
        build(entries)


@pytest.mark.parametrize("entry", [None, float("inf"), float("nan"), "1"],
                         ids=["none", "inf", "nan", "string"])
@pytest.mark.parametrize("build", [
    lambda e: HILB.arrow(HilbSpace(1), HilbSpace(1), [[e]]),
    lambda e: Subspace(HilbSpace(2), [[e], [1]]),
    lambda e: VnChain().arrow(MatrixAlgebra((1,)), MatrixAlgebra((1,)), [[e]]),
], ids=["hilb-arrow", "subspace", "vn-arrow"])
def test_entries_that_are_not_finite_numbers_are_refused(build, entry):
    # numpy would read None as nan, keep inf and nan, and parse "1"
    with pytest.raises(ValidationError, match="finite numbers"):
        build(entry)


def test_hilb_size_zero_arrays_span_zero():
    X = HilbSpace(2)
    for empty in ([], np.zeros((0,)), np.zeros((2, 0)), np.zeros((0, 3))):
        assert Subspace(X, empty).rank == 0
    assert HILB.arrow(HilbSpace(0), X, np.zeros((2, 0))).data.shape == (2, 0)


def test_hilb_transposes_round_trip():
    rng = random.Random(71)
    worst = 0.0
    for _ in range(40):
        X = HilbSpace(rng.randint(1, 4))
        Y = HilbSpace(rng.randint(1, 4))
        p = HILB.rand_pred(rng, X, {})
        f = HILB.rand_hom(rng, X, p, HILB.quotient(X, p), Y, {})
        g = HILB.transpose_quotient(X, p, f)
        worst = max(worst, HILB.map_residual(
            HILB.compose(g, HILB.quotient(X, p).unit), f))
        h = HILB.rand_hom(rng, X, p, HILB.comprehension(X, p), Y, {})
        k = HILB.transpose_comprehension(X, p, h)
        worst = max(worst, HILB.map_residual(
            HILB.compose(HILB.comprehension(X, p).counit, k), h))
    assert worst <= 1e-9


def test_hilb_hom_conditions_reject():
    X = HilbSpace(2)
    P = Subspace(X, np.array([[1.0], [0.0]]))
    f = HILB.identity(X)
    with pytest.raises(HomConditionError):
        HILB.transpose_quotient(X, P, f)
    g = HILB.arrow(X, X, np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(HomConditionError):
        HILB.transpose_comprehension(X, P, g)


def test_assert_is_the_projector():
    X = HilbSpace(2)
    P = Subspace(X, np.array([[1.0], [1.0]]) / np.sqrt(2))
    asrt = HILB.assert_closed_form(X, P)
    assert np.allclose(asrt.data, np.full((2, 2), 0.5), atol=1e-12)
    assert np.max(np.abs(asrt.data @ asrt.data - asrt.data)) <= 1e-12


def test_coincidence_of_quotient_and_comprehension_carriers():
    rng = random.Random(83)
    for _ in range(30):
        X = HilbSpace(rng.randint(1, 4))
        p = HILB.rand_pred(rng, X, {})
        q = HILB.quotient(X, HILB.ortho(X, p))
        c = HILB.comprehension(X, p)
        assert q.obj == c.obj
        assert HILB.coincidence_residual(X, p, q, c) <= 1e-9


def test_fixed_matrix_products_match_the_plain_product():
    # the quotient unit and the comprehension counit of every subspace at
    # the acceptance bounds, after a map made of every row vector at once
    # and before one made of every column vector, and after and before a
    # map through a 0-dimensional space, against `mat_mul`
    for p, d in itertools.product((2, 3), range(4)):
        X = FpSpace(p, d)
        for P in FP.iter_preds(X):
            for f in (FP.quotient(X, P).unit, FP.comprehension(X, P).counit):
                m, n = f.dst.dim, f.src.dim
                rows = tuple(itertools.product(range(p), repeat=m))
                for g in (Arrow(f.dst, FpSpace(p, len(rows)), rows),
                          Arrow(f.dst, FpSpace(p, 0), ())):
                    after = FP.precompose(f)(g.data, g.dst)
                    assert after == mat_mul(g.data, f.data, p, width=n)
                columns = tuple(itertools.product(range(p), repeat=n))
                for h in (Arrow(FpSpace(p, len(columns)), f.src, tuple(zip(*columns))),
                          Arrow(FpSpace(p, 0), f.src, ((),) * n)):
                    before = FP.postcompose(f)(h.data, h.src)
                    assert before == mat_mul(f.data, h.data, p, width=h.src.dim)
