"""Operator-algebra chain: effects, corners, the congruence instrument.

numpy.linalg appears only as an oracle; the package's own spectral
routines are what is under test.
"""

import copy
import math
import random

import numpy as np
import pytest

from effectus import (
    HomConditionError,
    ValidationError,
    derive_assert,
    derive_instrument,
    hom_check,
    side_effect,
)
from effectus.vn import (
    MatrixAlgebra,
    VnChain,
    _Corner,
    basis_elements,
    check_blocks,
    elt_residual,
    kraus_superop,
    op_norm,
    superop_from_fn,
    unvec,
    vec,
)
from effectus import vnlinalg as la

VN = VnChain()

M1 = MatrixAlgebra((1,))
M2 = MatrixAlgebra((2,))
M3 = MatrixAlgebra((3,))
M2_M1 = MatrixAlgebra((2, 1))

SQ2 = 1 / math.sqrt(2)


def elt(*blocks):
    return tuple(np.asarray(b, dtype=complex) for b in blocks)


def numpy_sqrt(b):
    # same contract as the package's op_sqrt (eigenvalues inside the rank
    # cutoff are flushed to zero), on numpy's independent eigensolver
    w, v = np.linalg.eigh(np.asarray(b, dtype=complex))
    vals = np.where(w > 1e-9, np.sqrt(np.clip(w, 0, None)), 0.0)
    return v @ np.diag(vals) @ v.conj().T


def spectral_norm(blocks):
    return max((float(np.linalg.norm(b, 2)) for b in blocks if b.size),
               default=0.0)


# ---------------------------------------------------------------------------
# Elements, vectorization, arrows.
# ---------------------------------------------------------------------------


def test_vec_unvec_round_trip():
    a = elt([[1, 2j], [3, 4]], [[5]])
    v = vec(M2_M1, a)
    assert v.shape == (5,)
    assert elt_residual(unvec(M2_M1, v), a) == 0.0
    assert sum(1 for _ in basis_elements(M2_M1)) == M2_M1.vdim == 5


def test_the_unit_is_one_read_only_tuple():
    for X in (M1, M2_M1, MatrixAlgebra(())):
        one = X.one()
        assert X.one() is one and len(one) == len(X.block_dims)
        for b, n in zip(one, X.block_dims):
            assert np.array_equal(b, np.eye(n))
            with pytest.raises(ValueError):
                b[0, 0] = 2.0
    # ortho builds a new element, so the unit stays 1
    VN.ortho(M2, VN.ortho(M2, M2.one()))[0][0, 0] = 5.0
    assert np.array_equal(M2.one()[0], np.eye(2))


def test_apply_to_the_unit_is_apply_to_fresh_identities():
    rng = random.Random(17)
    for _ in range(30):
        X = VN.rand_object(rng, {"max_blocks": 3, "max_block_dim": 3})
        Y = VN.rand_object(rng, {"max_blocks": 3, "max_block_dim": 3})
        f = VN.rand_arrow(rng, X, Y)
        got = VN.apply(f, Y.one())
        ref = VN.apply(f, tuple(np.eye(n, dtype=complex) for n in Y.block_dims))
        assert len(got) == len(ref)
        assert all(g.tobytes() == r.tobytes() for g, r in zip(got, ref))


def test_from_fn_is_the_linear_extension():
    rng = random.Random(3)
    u = np.array([[SQ2, SQ2], [SQ2, -SQ2]], dtype=complex)
    f = VN.arrow(M2, M2, superop_from_fn(
        M2, M2, lambda a: (u @ a[0] @ u.conj().T,)))
    for _ in range(20):
        a = elt([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
                 for _ in range(2)])
        assert elt_residual(VN.apply(f, a), (u @ a[0] @ u.conj().T,)) <= 1e-12


def test_compose_runs_element_maps_in_reverse():
    f = VN.arrow(M2, M2, superop_from_fn(M2, M2, lambda a: (a[0] * 0.5,)))
    g = VN.arrow(M2, M2, superop_from_fn(M2, M2, lambda a: (a[0].T,)))
    h = VN.compose(g, f)
    a = elt([[1, 2], [3, 4]])
    assert elt_residual(VN.apply(h, a), VN.apply(f, VN.apply(g, a))) <= 1e-12
    assert elt_residual(VN.apply(h, a), (a[0].T * 0.5,)) <= 1e-12


def test_effect_validation():
    check_blocks(M2, elt([[0.5, 0], [0, 1.0]]))
    with pytest.raises(ValidationError):
        check_blocks(M2, elt([[1.0]]))  # wrong shape
    with pytest.raises(ValidationError):
        check_blocks(M2_M1, (np.eye(2),))  # missing block
    with pytest.raises(ValidationError):
        VN.arrow(M2, M2, np.eye(3))


# A predicate with an eigenvalue outside [0, 1] is not an effect; each
# construction reads the spectrum it already decomposes and refuses it.
@pytest.mark.parametrize("build", ["quotient", "comprehension", "assert_closed_form"])
@pytest.mark.parametrize("value", [-0.5, 1.5, 2.0])
@pytest.mark.parametrize("X, block", [
    (M1, lambda v: [[v]]), (M2, lambda v: [[0.5, 0], [0, v]]),
], ids=["M1", "M2"])
def test_constructions_refuse_a_non_effect(build, value, X, block):
    with pytest.raises(ValidationError):
        getattr(VN, build)(X, elt(block(value)))


@pytest.mark.parametrize("build", ["quotient", "comprehension", "assert_closed_form"])
def test_constructions_accept_a_boundary_effect(build):
    getattr(VN, build)(M2, elt([[0.0, 0], [0, 1.0]]))


@pytest.mark.parametrize("p", [
    elt(np.eye(2) * 0.5),
    elt(np.eye(2) * 0.5, [[0.5]], [[0.5]]),
    elt(np.eye(2) * 0.5, np.eye(2) * 0.5),
], ids=["missing-block", "extra-block", "wrong-shape"])
@pytest.mark.parametrize("op", [
    lambda X, p: VN.quotient(X, p),
    lambda X, p: VN.comprehension(X, p),
    lambda X, p: VN.assert_closed_form(X, p),
    lambda X, p: VN.pred_leq(X, p, VN.top(X)),
    lambda X, p: VN.pred_leq(X, VN.bottom(X), p),
    lambda X, p: VN.pred_residual(X, p, VN.top(X)),
    lambda X, p: VN.pred_residual(X, VN.top(X), p),
    lambda X, p: VN.ortho(X, p),
    lambda X, p: VN.ceil(X, p),
    lambda X, p: VN.floor(X, p),
    lambda X, p: VN.subst(VN.identity(X), p),
], ids=["quotient", "comprehension", "assert", "pred-leq-left", "pred-leq-right",
        "pred-residual-left", "pred-residual-right", "ortho", "ceil", "floor",
        "subst"])
def test_operations_reject_a_predicate_of_the_wrong_blocks(op, p):
    with pytest.raises(ValidationError):
        op(M2_M1, p)


# ---------------------------------------------------------------------------
# Fibres: effects, orthocomplement, sharpening.
# ---------------------------------------------------------------------------


def test_sharpen_canned():
    p = elt(np.diag([1.0, 0.5, 0.0]))
    assert elt_residual(VN.floor(M3, p), elt(np.diag([1.0, 0, 0]))) <= 1e-12
    assert elt_residual(VN.ceil(M3, p), elt(np.diag([1.0, 1.0, 0]))) <= 1e-12
    proj = elt(np.diag([1.0, 0.0, 1.0]))
    assert elt_residual(VN.floor(M3, proj), proj) <= 1e-12
    assert elt_residual(VN.ceil(M3, proj), proj) <= 1e-12


def test_floor_ortho_de_morgan():
    rng = random.Random(7)
    for _ in range(40):
        X = VN.rand_object(rng, {"max_blocks": 2, "max_block_dim": 3})
        p = VN.rand_pred(rng, X)
        lhs = VN.floor(X, VN.ortho(X, p))
        rhs = VN.ortho(X, VN.ceil(X, p))
        assert elt_residual(lhs, rhs) <= 1e-9


def test_subst_canned():
    u = np.array([[SQ2, SQ2], [SQ2, -SQ2]], dtype=complex)
    conj = VN.arrow(M2, M2, superop_from_fn(
        M2, M2, lambda a: (u @ a[0] @ u.conj().T,)))
    got = VN.subst(conj, elt(np.diag([1.0, 0.0])))
    assert elt_residual(got, elt(np.full((2, 2), 0.5))) <= 1e-12
    depol = VN.arrow(M2, M2, superop_from_fn(
        M2, M2, lambda a: (np.trace(a[0]) / 2 * np.eye(2),)))
    got = VN.subst(depol, elt(np.diag([1.0, 0.0])))
    assert elt_residual(got, elt(np.eye(2) * 0.5)) <= 1e-12
    assert elt_residual(VN.subst(depol, M2.one()), M2.one()) <= 1e-12


# ---------------------------------------------------------------------------
# Corners: comprehension and quotient.
# ---------------------------------------------------------------------------


def test_comprehension_corner_canned():
    p = elt(np.diag([1.0, 0.5]))
    c = VN.comprehension(M2, p)
    assert c.obj.block_dims == (1,)
    a = elt([[1.0, 2.0], [3.0, 4.0]])
    assert elt_residual(VN.apply(c.arrow, a), elt([[1.0]])) <= 1e-12


def test_quotient_corner_canned():
    p = elt(np.diag([1.0, 0.5]))
    q = VN.quotient(M2, p)
    assert q.obj.block_dims == (1,)
    got = VN.apply(q.arrow, elt([[1.0]]))
    assert elt_residual(got, elt(np.diag([0.0, 0.5]))) <= 1e-12


def test_corner_edges_are_empty_algebras():
    zero = VN.bottom(M2)
    assert VN.comprehension(M2, zero).obj.block_dims == ()
    assert VN.quotient(M2, M2.one()).obj.block_dims == ()
    full = VN.comprehension(M2, M2.one())
    assert full.obj is M2  # dims match, so the corner is the algebra itself


def test_corner_rank_must_match_its_spectrum():
    """_Corner counts the ones of the spectrum it is given; a spectrum
    whose vectors do not span that many dimensions is refused."""
    twice = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)  # one vector, twice
    with pytest.raises(ValidationError, match="corner rank disagreement"):
        _Corner(M2, [(np.array([1.0, 1.0]), twice)])
    zero_column = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValidationError, match="corner rank disagreement"):
        _Corner(M2_M1, [(np.array([1.0, 1.0]), zero_column),
                        (np.array([1.0]), np.eye(1, dtype=complex))])
    corner = _Corner(M2_M1, [(np.array([1.0, 0.0]), np.eye(2, dtype=complex)),
                             (np.array([1.0]), np.eye(1, dtype=complex))])
    assert corner.algebra.block_dims == (1, 1)


def test_multi_block_corner():
    p = (np.diag([1.0, 0.0]), np.array([[1.0]]))
    c = VN.comprehension(M2_M1, p)
    assert c.obj.block_dims == (1, 1)
    a = elt([[1.0, 2.0], [3.0, 4.0]], [[7.0]])
    assert elt_residual(VN.apply(c.arrow, a), elt([[1.0]], [[7.0]])) <= 1e-12


def test_objects_equal_tracks_the_isometry():
    p1 = elt(np.diag([1.0, 0.0]))
    p2 = elt(np.diag([0.0, 1.0]))
    c1 = VN.comprehension(M2, p1)
    c2 = VN.comprehension(M2, p2)
    assert c1.obj.block_dims == c2.obj.block_dims == (1,)
    assert not VN.objects_equal(c1.obj, c2.obj)
    again = VN.comprehension(M2, p1)
    assert VN.objects_equal(c1.obj, again.obj)


def test_coincidence_of_corners():
    rng = random.Random(13)
    for _ in range(30):
        X = VN.rand_object(rng, {"max_blocks": 2, "max_block_dim": 3})
        p = VN.rand_pred(rng, X)
        q = VN.quotient(X, VN.ortho(X, p))
        c = VN.comprehension(X, VN.ceil(X, p))
        assert VN.objects_equal(q.obj, c.obj)


def test_left_composite_identity_iff_projection():
    sharp = elt(np.diag([1.0, 0.0]))
    c = VN.comprehension(M2, VN.ceil(M2, sharp))
    q = VN.quotient(M2, VN.ortho(M2, sharp))
    left = VN.compose(q.arrow, c.arrow)
    assert VN.map_residual(left, VN.identity(c.obj)) <= 1e-9
    fuzzy = elt(np.diag([1.0, 0.5]))
    c2 = VN.comprehension(M2, VN.ceil(M2, fuzzy))
    q2 = VN.quotient(M2, VN.ortho(M2, fuzzy))
    left2 = VN.compose(q2.arrow, c2.arrow)
    assert VN.map_residual(left2, VN.identity(c2.obj)) > 1e-3


def test_transpose_hom_conditions_reject():
    p = elt(np.diag([1.0, 0.0]))
    with pytest.raises(HomConditionError):
        VN.transpose_quotient(M2, p, VN.identity(M2))
    with pytest.raises(HomConditionError):
        VN.transpose_comprehension(M2, p, VN.identity(M2))


def _maps_with_hom_defect(delta):
    """(which, X, p, Y, f) whose hom condition fails by delta: f(1)
    exceeds 1 - p by delta (quotient), f(p) and f(1) lie delta apart
    (comprehension)."""
    yield "quotient", M1, elt([[0.5]]), M1, VN.arrow(M1, M1, [[0.5 + delta]])
    yield ("comprehension", M2, elt(np.diag([1.0, 0.0])), M1,
           VN.arrow(M1, M2, [[1, 0, 0, delta]]))


@pytest.mark.parametrize("delta", [1e-10, 1e-8, 1e-7, 1e-5])
def test_transposes_accept_exactly_the_homs(delta):
    # the copy is what `--tolerance 1e-6` runs the laws on
    loose = copy.copy(VN)
    loose.eq_tol = 1e-6
    for inst in (VN, loose):
        for which, X, p, Y, f in _maps_with_hom_defect(delta):
            built = getattr(inst, which)(X, p)
            says = hom_check(inst, f, *built.hom_objects(X, p, Y))
            try:
                built.transpose(f)
                accepts = True
            except HomConditionError:
                accepts = False
            assert says == accepts == (delta <= inst.eq_tol), (which, inst.eq_tol)


def test_transpose_round_trips():
    rng = random.Random(17)
    worst = 0.0
    for _ in range(40):
        X = VN.rand_object(rng, {"max_blocks": 2, "max_block_dim": 3})
        Y = VN.rand_object(rng, {"max_blocks": 2, "max_block_dim": 3})
        p = VN.rand_pred(rng, X)
        f = VN.rand_hom(rng, X, p, VN.quotient(X, p), Y, None)
        g = VN.transpose_quotient(X, p, f)
        worst = max(worst, VN.map_residual(
            VN.compose(g, VN.quotient(X, p).arrow), f))
        h = VN.rand_hom(rng, X, p, VN.comprehension(X, p), Y, None)
        k = VN.transpose_comprehension(X, p, h)
        worst = max(worst, VN.map_residual(
            VN.compose(VN.comprehension(X, p).arrow, k), h))
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# Assert and instrument.
# ---------------------------------------------------------------------------


def test_assert_canned():
    p = elt(np.diag([1.0, 0.5]))
    asrt = VN.assert_closed_form(M2, p)
    got = VN.apply(asrt, elt([[1.0, 1.0], [1.0, 1.0]]))
    want = elt([[1.0, SQ2], [SQ2, 0.5]])
    assert elt_residual(got, want) <= 1e-9


def rand_hermitian_elt(rng, X):
    blocks = []
    for n in X.block_dims:
        m = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                       for _ in range(n)] for _ in range(n)])
        blocks.append((m + m.conj().T) / 2)
    return tuple(blocks)


def test_assert_matches_kraus_oracle():
    rng = random.Random(19)
    for _ in range(60):
        X = VN.rand_object(rng, {"max_blocks": 2, "max_block_dim": 3})
        p = VN.rand_pred(rng, X)
        asrt = derive_assert(VN, X, p)
        roots = [numpy_sqrt(b) for b in p]
        a = rand_hermitian_elt(rng, X)
        want = tuple(r @ blk @ r for r, blk in zip(roots, a))
        assert elt_residual(VN.apply(asrt, a), want) <= 1e-9


def test_derived_assert_equals_closed_form():
    rng = random.Random(23)
    for _ in range(30):
        X = VN.rand_object(rng, {"max_blocks": 2, "max_block_dim": 3})
        p = VN.rand_pred(rng, X)
        assert VN.map_residual(derive_assert(VN, X, p),
                               VN.assert_closed_form(X, p)) <= 1e-9


def test_assert_idempotent_iff_projection():
    proj = elt(np.diag([1.0, 0.0]))
    a1 = VN.assert_closed_form(M2, proj)
    assert VN.map_residual(VN.compose(a1, a1), a1) <= 1e-9
    fuzzy = elt(np.diag([1.0, 0.5]))
    a2 = VN.assert_closed_form(M2, fuzzy)
    assert VN.map_residual(VN.compose(a2, a2), a2) > 1e-3


def test_instrument_unital_and_cp():
    rng = random.Random(29)
    for _ in range(25):
        X = VN.rand_object(rng, {"max_blocks": 2, "max_block_dim": 3})
        p = VN.rand_pred(rng, X)
        instr = derive_instrument(VN, X, p)
        assert elt_residual(VN.apply(instr, instr.dst.one()), X.one()) <= 1e-9
        ok, report = VN.cp_check(instr)
        assert ok, report
        assert VN.subunital_defect(instr) <= 1e-9


@pytest.mark.parametrize("X", [M3, M2_M1], ids=["M3", "M2+M1"])
def test_instrument_combine_refuses_overlapping_branches(X):
    # identity twice maps the unit to 2, a defect of 1; the disjoint
    # asserts that derive_instrument combines miss by float noise only
    with pytest.raises(ValidationError, match="subunital"):
        VN.instrument_combine(X, VN.identity(X), VN.identity(X))
    p = VN.rand_pred(random.Random(31), X)
    combined = VN.instrument_combine(X, VN.assert_closed_form(X, p),
                                     VN.assert_closed_form(X, VN.ortho(X, p)))
    assert VN.map_residual(combined, derive_instrument(VN, X, p)) <= 1e-9


def test_side_effect_freeness_is_block_scalarity():
    scalar = elt(np.eye(2) * 0.3)
    merged, free = side_effect(VN, derive_instrument(VN, M2, scalar))
    assert free
    assert VN.map_residual(merged, VN.identity(M2)) <= 1e-9
    assert VN.block_scalar_defect(M2, scalar) <= 1e-12
    skew = elt(np.diag([1.0, 0.0]))
    merged2, free2 = side_effect(VN, derive_instrument(VN, M2, skew))
    assert not free2
    assert VN.block_scalar_defect(M2, skew) == pytest.approx(0.5)


def test_seq_product_canned():
    # the sequential product a & b = sqrt(a) b sqrt(a) is assert_a acting on b
    def seq_product(X, a, b):
        return VN.apply(VN.assert_closed_form(X, a), b)

    rng = random.Random(31)
    half = elt(np.eye(2) * 0.5)
    b = VN.rand_pred(rng, M2)
    got = seq_product(M2, half, b)
    assert elt_residual(got, tuple(0.5 * blk for blk in b)) <= 1e-12
    # sequential products of effects stay effects
    for _ in range(25):
        X = VN.rand_object(rng, {"max_blocks": 2, "max_block_dim": 3})
        a, c = VN.rand_pred(rng, X), VN.rand_pred(rng, X)
        for b in seq_product(X, a, c):
            assert np.allclose(b, b.conj().T, rtol=0, atol=1e-9)
            w = np.linalg.eigvalsh(b)
            assert np.all(w >= -1e-9) and np.all(w <= 1 + 1e-9)


# ---------------------------------------------------------------------------
# Complete positivity and Cauchy-Schwarz.
# ---------------------------------------------------------------------------


def test_cp_check_rejects_the_transpose_map():
    t = VN.arrow(M2, M2, superop_from_fn(M2, M2, lambda a: (a[0].T,)))
    ok, report = VN.cp_check(t)
    assert not ok
    assert report["min_eig"] == pytest.approx(-1.0, abs=1e-9)
    ok2, report2 = VN.cp_check(VN.identity(M2))
    assert ok2 and report2["min_eig"] >= -1e-9
    # the Choi blocks sit where the transpose is, across blocks of two sizes
    half = VN.arrow(M2_M1, M2_M1, superop_from_fn(
        M2_M1, M2_M1, lambda a: (a[0].T, a[1])))
    ok3, report3 = VN.cp_check(half)
    assert not ok3
    assert (report3["src_block"], report3["dst_block"]) == (0, 0)
    assert report3["min_eig"] == pytest.approx(-1.0, abs=1e-9)


def test_random_kraus_maps_are_cp_and_subunital():
    rng = random.Random(37)
    for _ in range(40):
        X = VN.rand_object(rng, {"max_blocks": 2, "max_block_dim": 3})
        Y = VN.rand_object(rng, {"max_blocks": 2, "max_block_dim": 3})
        f = VN.rand_arrow(rng, X, Y)
        ok, report = VN.cp_check(f)
        assert ok, report
        assert VN.subunital_defect(f) <= 1e-9


def test_cauchy_schwarz_for_cp_maps():
    rng = random.Random(41)
    for _ in range(60):
        X = VN.rand_object(rng, {"max_blocks": 2, "max_block_dim": 3})
        Y = VN.rand_object(rng, {"max_blocks": 2, "max_block_dim": 3})
        f = VN.rand_arrow(rng, Y, X)
        c = VN.rand_pred(rng, X)
        d = VN.rand_pred(rng, X)
        cd = tuple(cb @ db for cb, db in zip(c, d))
        cc = tuple(cb @ cb for cb in c)
        dd = tuple(db @ db for db in d)
        lhs = spectral_norm([np.asarray(b) for b in VN.apply(f, cd)]) ** 2
        rhs = (spectral_norm([np.asarray(b) for b in VN.apply(f, cc)])
               * spectral_norm([np.asarray(b) for b in VN.apply(f, dd)]))
        assert lhs <= rhs + 1e-9


def test_op_norm_is_the_spectral_radius():
    a = elt(np.diag([0.25, 0.75]), [[0.5]])
    assert op_norm(a) == pytest.approx(0.75, abs=1e-12)


def test_json_shapes():
    assert VN.object_to_json(M2_M1) == [2, 1]
    p = elt(np.diag([1.0, 0.0]))
    assert VN.pred_to_json(M2, p) == [[[[1.0, 0.0], [0.0, 0.0]],
                                       [[0.0, 0.0], [0.0, 0.0]]]]


# ---------------------------------------------------------------------------
# Superoperators from Kronecker products, and eigendecompositions per
# construction.
# ---------------------------------------------------------------------------


def rand_matrix(rng, rows, cols):
    return np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                      for _ in range(cols)] for _ in range(rows)])


def rotated_effect(rng, eigenvalues):
    u, _ = np.linalg.qr(rand_matrix(rng, len(eigenvalues), len(eigenvalues)))
    e = u @ np.diag(eigenvalues) @ u.conj().T
    return (e + e.conj().T) / 2


def corner_effects(rng):
    """Non-scalar effects on M2 (+) M3 and M1 (+) M2 whose quotient and
    comprehension corners are proper and, on M1 (+) M2, drop a block."""
    return [
        (MatrixAlgebra((2, 3)), (rotated_effect(rng, [1.0, 0.0]),
                                 rotated_effect(rng, [1.0, 0.4, 0.0]))),
        (MatrixAlgebra((1, 2)), (np.eye(1, dtype=complex),
                                 rotated_effect(rng, [0.3, 0.0]))),
    ]


def kraus_fn(src, terms):
    def fn(b):
        out = [np.zeros((n, n), dtype=complex) for n in src.block_dims]
        for i, j, K in terms:
            out[i] = out[i] + K @ b[j] @ K.conj().T
        return tuple(out)
    return fn


def embed(X, corner, b):
    out = list(X.zero_elt())
    for (i, V), blk in zip(corner.corner[1], b):
        out[i] = V @ blk @ V.conj().T
    return tuple(out)


def compress(corner, a):
    return tuple(V.conj().T @ a[i] @ V for i, V in corner.corner[1])


def conjugate(roots, a):
    return tuple(r @ b @ r for r, b in zip(roots, a))


def test_kronecker_superoperators_equal_the_generic_path():
    rng = random.Random(43)
    for X, p in corner_effects(rng):
        Y = MatrixAlgebra((2,))
        # a random Kraus map, with zero, one and two terms per block pair
        terms = [(i, j, rand_matrix(rng, m, n))
                 for i, m in enumerate(X.block_dims)
                 for j, n in enumerate(Y.block_dims)
                 for _ in range(rng.randint(0, 2))]
        assert la.max_abs(kraus_superop(X, Y, terms)
                          - superop_from_fn(X, Y, kraus_fn(X, terms))) <= 1e-12

        roots = [la.op_sqrt(b) for b in p]
        closed = superop_from_fn(X, X, lambda a: conjugate(roots, a))
        assert la.max_abs(VN.assert_closed_form(X, p).data - closed) <= 1e-12

        q = VN.quotient(X, p)
        roots = [la.op_sqrt(b) for b in VN.ortho(X, p)]
        unit = superop_from_fn(
            X, q.obj, lambda b: conjugate(roots, embed(X, q.obj, b)))
        assert la.max_abs(q.arrow.data - unit) <= 1e-12
        f = VN.rand_hom(rng, X, p, q, Y, None)
        pinv_roots = [la.op_pinv(r) for r in roots]
        transpose = superop_from_fn(q.obj, Y, lambda b: compress(
            q.obj, conjugate(pinv_roots, VN.apply(f, b))))
        assert la.max_abs(q.transpose(f).data - transpose) <= 1e-12

        c = VN.comprehension(X, p)
        counit = superop_from_fn(c.obj, X, lambda a: compress(c.obj, a))
        assert la.max_abs(c.arrow.data - counit) <= 1e-12
        h = VN.rand_hom(rng, X, p, c, Y, None)
        transpose = superop_from_fn(
            Y, c.obj, lambda b: VN.apply(h, embed(X, c.obj, b)))
        assert la.max_abs(c.transpose(h).data - transpose) <= 1e-12


def test_one_eigendecomposition_per_block(monkeypatch):
    rng = random.Random(47)
    X, p = corner_effects(rng)[0]
    Y = MatrixAlgebra((2,))
    f = VN.rand_hom(rng, X, p, VN.quotient(X, p), Y, None)
    calls = []
    eig = la.hermitian_eig
    monkeypatch.setattr(la, "hermitian_eig", lambda a: calls.append(a) or eig(a))

    def count(thunk):
        calls.clear()
        result = thunk()
        return len(calls), result

    n, q = count(lambda: VN.quotient(X, p))
    assert n == 2  # one per block of 1 - p
    assert count(lambda: q.transpose(f))[0] == 0
    assert count(lambda: VN.comprehension(X, p))[0] == 2


def test_quotient_builds_its_compression_once(monkeypatch):
    """The quotient transpose compresses through the pseudoinverse roots
    of 1 - p: one build per construction, at its first transpose, none
    for a construction that is never transposed."""
    rng = random.Random(47)
    X, p = corner_effects(rng)[0]
    Y = MatrixAlgebra((2,))
    fs = [VN.rand_hom(rng, X, p, VN.quotient(X, p), Y, None) for _ in range(5)]
    calls = []
    pinv = la.pinv_spectrum
    monkeypatch.setattr(la, "pinv_spectrum", lambda spec: calls.append(spec) or pinv(spec))
    q = VN.quotient(X, p)
    assert calls == []
    for f in fs:
        q.transpose(f)
    assert len(calls) == len(q.obj.block_dims) > 0  # one per block of the corner
