"""Hermitian linear algebra kernels, cross-checked against numpy.linalg.

The package's eigensolver wraps numpy's eigh with fixed phases and a
fixed column order; these tests check that contract, and the spectral
functions built on it, against numpy.linalg.
"""

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effectus import ValidationError
from effectus import vnlinalg as la
from effectus.vnlinalg import (
    GS_THRESHOLD,
    _phases,
    dagger,
    _vec_key,
    gram_schmidt_columns,
    hermitian_eig,
    hermitian_eigvals,
    max_abs,
    op_pinv,
    op_sqrt,
    reuse,
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
    assert np.array_equal(la._hermitian_part(np.eye(3)), np.eye(3))
    with pytest.raises(ValidationError, match="not Hermitian"):
        la._hermitian_part(np.array([[0.0, 1.0], [0.0, 0.0]]))


# Inside HERM_TOL of Hermitian: |a - a^dagger| = 2 |im| <= 1e-9.
@settings(max_examples=300, deadline=None)
@given(re=st.floats(allow_nan=False, allow_infinity=False),
       im=st.floats(-5e-10, 5e-10))
@example(re=-0.0, im=0.0)
@example(re=-0.0, im=-0.0)
@example(re=5e-324, im=-5e-324)
@example(re=-2.2250738585072014e-308, im=0.0)
@example(re=1e300, im=1e-10)
@example(re=1.7976931348623157e308, im=0.0)  # the Hermitian part overflows
def test_order_one_closed_form_is_what_lapack_returns(re, im):
    """A 1 x 1 input skips numpy: the kernels must give the bytes that
    eigvalsh and eigh give on the Hermitian part."""
    a = np.array([[complex(re, im)]])
    with np.errstate(over="ignore", invalid="ignore"):
        h = (a + dagger(a)) / 2
        ref_w, ref_U = np.linalg.eigh(h)
        got = hermitian_eigvals(a), *hermitian_eig(a)
    for x, ref in zip(got, (np.linalg.eigvalsh(h), ref_w, ref_U)):
        assert x.dtype == ref.dtype and x.shape == ref.shape
        assert x.tobytes() == ref.tobytes()


NON_FINITE = [
    [[math.nan]],
    [[math.inf]],
    [[-math.inf]],
    [[complex(1.0, math.nan)]],
    [[1.0, math.nan], [math.nan, 1.0]],
    [[1.0, complex(0.5, math.nan)], [0.5, 1.0]],
    [[math.inf, 0.0], [0.0, 1.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, math.nan]],
]


@pytest.mark.parametrize("kernel", [hermitian_eigvals, hermitian_eig])
@pytest.mark.parametrize("a", NON_FINITE)
def test_non_finite_input_is_not_hermitian(kernel, a):
    """NaN compares false with the tolerance, and inf - inf is NaN, so
    neither reaches a solver or the order-1 closed form."""
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValidationError, match="not Hermitian"):
            kernel(np.array(a, dtype=complex))
        with reuse(), pytest.raises(ValidationError, match="not Hermitian"):
            kernel(np.array(a, dtype=complex))


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
        assert max_abs(r - dagger(r)) <= la.HERM_TOL
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


def gram_schmidt_reference(m):
    """gram_schmidt_columns with each column's phase taken through the
    2-D path of _phases, as one column of a matrix."""
    m = np.asarray(m, dtype=complex)
    basis = []
    for j in range(m.shape[1]):
        v = m[:, j].copy()
        for _ in range(2):
            for b in basis:
                v = v - b * (b.conj() @ v)
        norm = float(np.sqrt((abs(v) ** 2).sum()))
        if norm > GS_THRESHOLD:
            v = v / norm
            basis.append(v * _phases(v[:, None])[0])
    if not basis:
        return np.zeros((m.shape[0], 0), dtype=complex)
    return np.column_stack(basis)


def _gs_inputs(rng):
    """Random complex matrices: full rank, rank-deficient (a product
    through fewer columns, repeated columns), with zero columns, with
    columns near GS_THRESHOLD, and with no rows or no columns."""
    def gauss(rows, cols):
        return np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                          for _ in range(cols)] for _ in range(rows)])
    for _ in range(150):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        yield gauss(rows, cols)
        k = rng.randint(1, max(1, min(rows, cols) - 1))
        yield gauss(rows, k) @ gauss(k, cols)
        m = gauss(rows, cols)
        m[:, rng.randrange(cols)] = 0.0
        m[:, rng.randrange(cols)] = m[:, rng.randrange(cols)]
        yield m
        m = gauss(rows, cols)
        m[:, rng.randrange(cols)] *= GS_THRESHOLD * rng.choice((0.5, 1.0, 2.0))
        yield m
    yield np.zeros((3, 0), dtype=complex)
    yield np.zeros((0, 3), dtype=complex)
    yield np.zeros((4, 4), dtype=complex)


def test_gram_schmidt_matches_the_reference_bit_for_bit():
    for m in _gs_inputs(random.Random(113)):
        got, ref = gram_schmidt_columns(m), gram_schmidt_reference(m)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_full_rank_cuts_singular_values_relative_to_the_largest():
    assert la.full_rank(np.zeros((0, 3)), rows=True)
    assert not la.full_rank(np.zeros((0, 3)), rows=False)
    assert la.full_rank(np.zeros((3, 0)), rows=False)
    assert not la.full_rank(np.zeros((2, 2)), rows=True)
    wide = np.ones((1, 3), dtype=complex)
    assert la.full_rank(wide, rows=True) and not la.full_rank(wide, rows=False)
    for scale in (1.0, 1e-12, 1e6):
        above = np.diag([1.0, 2 * la.RANK_CUTOFF]) * scale
        at = np.diag([1.0, la.RANK_CUTOFF]) * scale
        assert la.full_rank(above, rows=True) and la.full_rank(above, rows=False)
        assert not la.full_rank(at, rows=True) and not la.full_rank(at, rows=False)
    rng = random.Random(131)
    for _ in range(80):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                       for _ in range(cols)] for _ in range(rows)])
        if rng.random() < 0.3:  # force rank deficiency
            m[:, -1] = m[:, 0] * complex(rng.gauss(0, 1), rng.gauss(0, 1))
        rank = np.linalg.matrix_rank(m)
        assert la.full_rank(m, rows=True) == (rank == rows)
        assert la.full_rank(m, rows=False) == (rank == cols)


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


# ---------------------------------------------------------------------------
# numpy is imported on first use.
# ---------------------------------------------------------------------------


def test_lazy_refuses_a_missing_module_at_the_call():
    name = "effectus_no_such_module"
    with pytest.raises(ModuleNotFoundError, match=name) as exc:
        la._lazy(name)
    assert exc.value.name == name and name not in sys.modules


def test_lazy_returns_an_imported_module_itself():
    # so a process that imports numpy first shares one numpy with effectus
    assert la._lazy("numpy") is np is la.np
    assert la._lazy("json") is json


def test_lazy_imports_on_first_attribute_read(tmp_path, monkeypatch):
    (tmp_path / "lazy_probe.py").write_text("import sys\nsys.lazy_probe_ran = True\nVALUE = 3\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        probe = la._lazy("lazy_probe")
        assert sys.modules["lazy_probe"] is probe
        assert not hasattr(sys, "lazy_probe_ran")
        assert probe.VALUE == 3 and sys.lazy_probe_ran
        assert sys.modules["lazy_probe"] is probe
    finally:
        sys.modules.pop("lazy_probe", None)
        monkeypatch.delattr(sys, "lazy_probe_ran", raising=False)


# Exact work first (mode "exact"), then one vn report; mode "numpy-first"
# imports numpy before effectus and runs the vn report alone.
_FRESH_RUN = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "numpy-first":
    import numpy
import effectus, effectus.registry
from effectus import cli, harness
from effectus.registry import INSTANCES
exact_loaded = None
if sys.argv[2] == "exact":
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["list-instances"]) == 0
        assert cli.main(["check", "--instance", "sets", "--cases", "2",
                         "--format", "json"]) == 0
    bounds = {"nondet": {"max_size": 2}, "fp": {"fields": (2,), "max_dim": 2},
              "ring": {"max_order": 6}}
    for name, b in bounds.items():
        for which in ("quotient", "comprehension"):
            report = harness.run_exhaustive_adjunction(INSTANCES[name], which, b, 1)
            assert report.cases and not report.failures
    exact_loaded = "numpy.linalg" in sys.modules
spec = next(s for s in harness.default_suite(1, cases=2) if s.instance == "vn")
report = harness.run_law(INSTANCES["vn"], spec).to_jsonable()
print(json.dumps({"exact_loaded": exact_loaded,
                  "vn_loaded": "numpy.linalg" in sys.modules, "report": report}))
"""


def _fresh_run(mode):
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", _FRESH_RUN, str(src), mode],
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_exact_work_loads_no_numpy_and_vn_loads_it():
    lazy, eager = _fresh_run("exact"), _fresh_run("numpy-first")
    assert lazy["exact_loaded"] is False
    assert lazy["vn_loaded"] is True and eager["vn_loaded"] is True
    assert lazy["report"] == eager["report"]
    assert lazy["report"]["instance"] == "vn" and lazy["report"]["cases"] == 2
