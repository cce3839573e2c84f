"""Hermitian linear algebra kernels, cross-checked against numpy.linalg.

The package's eigensolver wraps numpy's eigh with fixed phases and a
fixed column order; these tests check that contract, and the spectral
functions built on it, against numpy.linalg.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectus import ValidationError
from effectus import vnlinalg as la
from effectus.vnlinalg import (
    dagger,
    _vec_key,
    gram_schmidt_columns,
    hermitian_eig,
    hermitian_eigvals,
    is_hermitian,
    kernel_basis,
    max_abs,
    op_pinv,
    op_sqrt,
    orthonormal_complement,
    reuse,
    row_space_basis,
    support_proj,
    unit_proj,
)


def rand_hermitian(rng, n, scale=1.0):
    m = np.array([[complex(rng.gauss(0, scale), rng.gauss(0, scale))
                   for _ in range(n)] for _ in range(n)])
    return (m + dagger(m)) / 2


def rand_psd(rng, n):
    m = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                   for _ in range(n)] for _ in range(n)])
    return dagger(m) @ m


# ---------------------------------------------------------------------------
# Eigendecomposition.
# ---------------------------------------------------------------------------


def test_eig_canned_half_ones():
    w, U = hermitian_eig(np.full((2, 2), 0.5))
    assert np.allclose(w, (1.0, 0.0), atol=1e-12)
    r = 1 / math.sqrt(2)
    assert np.allclose(U[:, 0], (r, r), atol=1e-12)
    assert np.allclose(U[:, 1], (r, -r), atol=1e-12)


def test_eig_canned_diagonal_and_empty():
    w, U = hermitian_eig(np.diag([3.0, 1.0]))
    assert np.allclose(w, (3.0, 1.0)) and np.allclose(U, np.eye(2))
    w, U = hermitian_eig(np.zeros((0, 0)))
    assert w.size == 0 and U.shape == (0, 0)
    w, U = hermitian_eig(np.array([[2.0]]))
    assert np.allclose(w, (2.0,)) and np.allclose(U, [[1.0]])


def test_eig_matches_numpy_on_random_matrices():
    rng = random.Random(97)
    for _ in range(200):
        n = rng.randint(1, 6)
        a = rand_hermitian(rng, n, scale=rng.choice((0.1, 1.0, 100.0)))
        w, U = hermitian_eig(a)
        oracle = np.sort(np.linalg.eigvalsh(a))[::-1]
        scale = max(1.0, float(np.abs(a).max()))
        assert np.max(np.abs(w - oracle)) <= 1e-9 * scale
        assert max_abs(dagger(U) @ U - np.eye(n)) <= 1e-9
        assert max_abs(U @ np.diag(w) @ dagger(U) - a) <= 1e-9 * scale
        assert all(w[i] >= w[i + 1] - 1e-12 for i in range(n - 1))


def test_eig_does_not_lose_small_off_diagonals():
    # summing large diagonal mass and subtracting cancels the 1e-8
    # off-diagonal signal entirely; the solver must still rotate it away
    a = np.array([[1.0, 1e-8], [1e-8, 1.0 + 2e-8]])
    w, U = hermitian_eig(a)
    oracle = np.sort(np.linalg.eigvalsh(a))[::-1]
    assert np.max(np.abs(w - oracle)) <= 1e-12
    assert max_abs(U @ np.diag(w) @ dagger(U) - a) <= 1e-12
    assert abs(w[0] - w[1]) > 1e-8  # the splitting was actually resolved


def test_eig_is_deterministic():
    rng = random.Random(5)
    a = rand_hermitian(rng, 4)
    w1, U1 = hermitian_eig(a)
    w2, U2 = hermitian_eig(a.copy())
    assert np.array_equal(w1, w2) and np.array_equal(U1, U2)


def test_eig_input_validation():
    with pytest.raises(ValidationError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        hermitian_eig(np.zeros((2, 3)))
    assert is_hermitian(np.eye(3))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def loop_eig(a):
    """hermitian_eig's post-processing written column by column: each
    eigenvector's largest entry made real positive, then the columns sorted
    by (-eigenvalue rounded to 9 places, rounded entries)."""
    a = np.asarray(a, dtype=complex)
    vals, V = np.linalg.eigh((a + dagger(a)) / 2)
    cols = []
    for i in range(len(vals)):
        v = V[:, i]
        mags = abs(v)
        top = mags.max()
        idx = int(np.nonzero(mags >= top - 1e-12 * max(top, 1.0))[0][0])
        v = v * (v[idx].conjugate() / abs(v[idx]))
        cols.append(((-round(float(vals[i]), 9), _vec_key(v)), vals[i], v))
    cols.sort(key=lambda t: t[0])
    return (np.array([t[1] for t in cols]),
            np.column_stack([t[2] for t in cols]))


def test_eig_tie_order_follows_the_vector_key():
    rng = random.Random(7)
    u, _ = np.linalg.qr(np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                                   for _ in range(3)] for _ in range(3)]))
    rank2 = u[:, :2] @ dagger(u[:, :2])
    for a in (np.eye(3), rank2, rand_hermitian(rng, 4)):
        w, U = hermitian_eig(a)
        ref_w, ref_U = loop_eig(a)
        assert np.array_equal(w, ref_w) and np.array_equal(U, ref_U)
    w, U = hermitian_eig(np.eye(3))
    assert np.array_equal(U, np.eye(3)[:, ::-1])  # e2 < e1 < e0 by key
    w, U = hermitian_eig(rank2)
    assert np.allclose(w, (1.0, 1.0, 0.0), atol=1e-12)
    assert _vec_key(U[:, 0]) < _vec_key(U[:, 1])


def test_eigvals_match_numpy():
    rng = random.Random(139)
    for _ in range(200):
        n = rng.randint(0, 6)
        scale = rng.choice((0.1, 1.0, 10.0, 100.0))
        a = rand_hermitian(rng, n, scale=scale).reshape(n, n)
        w = hermitian_eigvals(a)
        oracle = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert w.shape == (n,)
        assert np.max(np.abs(w - oracle), initial=0.0) <= 1e-12 * max(1.0, scale)
    with pytest.raises(ValidationError):
        hermitian_eigvals(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        hermitian_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# Spectral functions.
# ---------------------------------------------------------------------------


def test_sqrt_canned():
    assert np.allclose(op_sqrt(np.diag([1.0, 0.25])), np.diag([1.0, 0.5]),
                       atol=1e-12)
    proj = np.full((2, 2), 0.5)
    assert np.allclose(op_sqrt(proj), proj, atol=1e-12)
    assert np.allclose(op_sqrt(np.zeros((2, 2))), np.zeros((2, 2)))


def test_sqrt_squares_back():
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randint(1, 5)
        a = rand_psd(rng, n)
        r = op_sqrt(a)
        scale = max(1.0, float(np.abs(a).max()))
        assert max_abs(r @ r - a) <= 1e-9 * scale
        assert is_hermitian(r)
        assert max_abs(r @ a - a @ r) <= 1e-9 * scale


def test_sqrt_rejects_negative_spectrum():
    with pytest.raises(ValidationError):
        op_sqrt(np.diag([1.0, -1.0]))


def test_sqrt_flushes_noise_eigenvalues():
    # sqrt(1e-12) = 1e-6 would poison downstream 1e-9 comparisons; the
    # rank cutoff flushes such eigenvalues to exactly zero instead
    r = op_sqrt(np.diag([1.0, 1e-12]))
    assert r[1, 1] == 0.0
    assert np.allclose(r, np.diag([1.0, 0.0]))


def test_pinv_canned_and_moore_penrose():
    assert np.allclose(op_pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]),
                       atol=1e-12)
    rng = random.Random(103)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = rand_psd(rng, n)
        pinv = op_pinv(a)
        scale = max(1.0, float(np.abs(a).max()))
        assert max_abs(a @ pinv @ a - a) <= 1e-8 * scale
        assert max_abs(pinv @ a @ pinv - pinv) <= 1e-8 * max(1.0, max_abs(pinv))
        assert max_abs(a @ pinv - support_proj(a)) <= 1e-8 * scale


def test_support_and_unit_projections():
    assert np.allclose(support_proj(np.diag([0.5, 0.0, 0.3])),
                       np.diag([1.0, 0.0, 1.0]), atol=1e-12)
    assert np.allclose(unit_proj(np.diag([1.0, 0.5, 1.0])),
                       np.diag([1.0, 0.0, 1.0]), atol=1e-12)
    rng = random.Random(107)
    for _ in range(40):
        n = rng.randint(1, 4)
        u = gram_schmidt_columns(np.array(
            [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
             for _ in range(n)]))
        k = rng.randint(0, u.shape[1])
        proj = u[:, :k] @ dagger(u[:, :k])
        assert max_abs(unit_proj(proj) - proj) <= 1e-9
        assert max_abs(support_proj(proj) - proj) <= 1e-9
        # unit eigenspace sits inside the support
        s, un = support_proj(proj), unit_proj(proj)
        assert max_abs(s @ un - un) <= 1e-9


# ---------------------------------------------------------------------------
# Orthonormalization and spans.
# ---------------------------------------------------------------------------


def test_gram_schmidt_orthonormal_and_order_stable():
    v = np.array([[3.0], [4.0]])
    b = gram_schmidt_columns(np.column_stack([v, 2 * v]))
    assert b.shape == (2, 1)
    assert np.allclose(b[:, 0], (0.6, 0.8), atol=1e-12)
    rng = random.Random(109)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(0, 5)
        m = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                       for _ in range(cols)] for _ in range(rows)])
        b = gram_schmidt_columns(m)
        assert max_abs(dagger(b) @ b - np.eye(b.shape[1])) <= 1e-12
        assert b.shape[1] == np.linalg.matrix_rank(m, tol=1e-6)


def test_complement_spans_the_rest():
    rng = random.Random(113)
    for _ in range(60):
        dim = rng.randint(1, 5)
        k = rng.randint(0, dim)
        u = gram_schmidt_columns(np.array(
            [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(k)]
             for _ in range(dim)]))
        c = orthonormal_complement(u, dim)
        assert u.shape[1] + c.shape[1] == dim
        if u.size and c.size:
            assert max_abs(dagger(u) @ c) <= 1e-9
        full = np.column_stack([u, c]) if u.size or c.size else np.zeros((dim, 0))
        assert max_abs(full @ dagger(full) - np.eye(dim)) <= 1e-9


def test_kernel_matches_numpy_rank():
    rng = random.Random(127)
    for _ in range(80):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                       for _ in range(cols)] for _ in range(rows)])
        if rng.random() < 0.3:  # force rank deficiency
            m[:, -1] = m[:, 0] * complex(rng.gauss(0, 1), rng.gauss(0, 1))
        k = kernel_basis(m)
        assert k.shape[1] == cols - np.linalg.matrix_rank(m, tol=1e-6)
        if k.size:
            assert max_abs(m @ k) <= 1e-6
        r = row_space_basis(m)
        assert r.shape[1] + k.shape[1] == cols
        stacked = np.column_stack([dagger(m), r])
        assert np.linalg.matrix_rank(stacked, tol=1e-6) == r.shape[1]


def test_spectral_norm_matches_numpy_two_norm():
    from effectus.vn import spectral_norm

    rng = random.Random(131)
    for _ in range(80):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        b = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                       for _ in range(m)] for _ in range(n)])
        assert spectral_norm((b,)) == pytest.approx(
            np.linalg.norm(b, 2), abs=1e-9)
    assert spectral_norm((np.zeros((0, 0), dtype=complex),)) == 0.0
    two = (np.diag([3.0, 1.0]).astype(complex),
           np.array([[0.0, 5.0], [0.0, 0.0]], dtype=complex))
    assert spectral_norm(two) == pytest.approx(5.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Reuse within a scope.
# ---------------------------------------------------------------------------

KERNELS = (hermitian_eig, hermitian_eigvals, gram_schmidt_columns)
MATRIX_KINDS = ("random", "identity", "zeros", "signed_zeros", "repeated",
                "int", "dagger_view")


def _matrix(kind, n, seed):
    """A Hermitian n x n input of the given kind; "int" is an integer
    array and "dagger_view" a non-contiguous view."""
    rng = random.Random(seed)
    h = rand_hermitian(rng, n).reshape(n, n)
    if kind == "identity":
        return np.eye(n, dtype=complex)
    if kind == "zeros":
        return np.zeros((n, n), dtype=complex)
    if kind == "signed_zeros":
        return np.full((n, n), complex(-0.0, -0.0))
    if kind == "repeated":
        q = np.linalg.qr(h + 0.1j * np.eye(n))[0]
        w = [rng.choice((0.0, 0.5, 1.0)) for _ in range(n)]
        return (q * w) @ dagger(q)
    if kind == "int":
        m = np.array([rng.randint(-3, 3) for _ in range(n * n)]).reshape(n, n)
        return m + m.T
    if kind == "dagger_view":
        return dagger(h)
    return h


def _arrays(out):
    return out if isinstance(out, tuple) else (out,)


def _fingerprint(out):
    return [(x.dtype, x.shape, x.tobytes()) for x in _arrays(out)]


def _inputs(a):
    """Each kernel with its inputs: the eigensolvers take a, Gram-Schmidt
    also every other column of a (a rectangular, strided input)."""
    return [(hermitian_eig, a), (hermitian_eigvals, a),
            (gram_schmidt_columns, a), (gram_schmidt_columns, a[:, ::2])]


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(MATRIX_KINDS), n=st.integers(0, 6),
       seed=st.integers(0, 2 ** 16))
def test_reused_results_are_bit_identical(kind, n, seed):
    a = _matrix(kind, n, seed)
    fresh = [_fingerprint(kernel(x)) for kernel, x in _inputs(a)]
    # one scope for all kernels, so a key that forgot its kernel would collide
    with reuse():
        first = [_fingerprint(kernel(x)) for kernel, x in _inputs(a)]
        repeat = [_fingerprint(kernel(x)) for kernel, x in _inputs(a)]
    # a hit stored from the C-contiguous complex copy of the same values
    with reuse():
        for kernel, x in _inputs(a):
            kernel(np.array(x, dtype=complex, order="C"))
        hits = [_fingerprint(kernel(x)) for kernel, x in _inputs(a)]
    assert first == repeat == hits == fresh


def test_kernels_store_nothing_outside_a_reuse_scope():
    a = np.eye(3)
    for kernel in KERNELS:
        one, two = _arrays(kernel(a)), _arrays(kernel(a))
        assert all(x.flags.writeable for x in one + two)
        assert all(x is not y for x, y in zip(one, two))
    assert la._MEMO.get() is None


def test_results_in_a_reuse_scope_are_read_only_and_reused():
    a = np.eye(3)
    with reuse():
        for kernel in KERNELS:
            first = _arrays(kernel(a))
            for x in first:
                with pytest.raises(ValueError, match="read-only"):
                    x[...] = 7
            again = _arrays(kernel(a.copy()))
            assert all(x is y for x, y in zip(first, again))
            assert _fingerprint(again) == _fingerprint(kernel(np.eye(3)))
        assert len(la._MEMO.get()) == len(KERNELS)
    assert la._MEMO.get() is None


def test_reuse_keys_by_shape_as_well_as_bytes():
    shapes = ((0, 3), (3, 0), (2, 2), (1, 4), (4, 1))
    fresh = [_fingerprint(gram_schmidt_columns(np.ones(s))) for s in shapes]
    with reuse():
        assert [_fingerprint(gram_schmidt_columns(np.ones(s)))
                for s in shapes] == fresh


def test_reuse_scope_closes_on_exception_and_nests():
    with pytest.raises(RuntimeError):
        with reuse():
            hermitian_eig(np.eye(2))
            raise RuntimeError("inside")
    assert la._MEMO.get() is None
    with reuse():
        outer = la._MEMO.get()
        hermitian_eig(np.eye(2))
        with reuse():
            assert la._MEMO.get() == {}
        assert la._MEMO.get() is outer and len(outer) == 1
