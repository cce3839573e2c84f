"""Dense Hermitian linear algebra used by the Hilbert and operator-algebra
chains: eigendecomposition, spectral functions, and deterministic
orthonormalization.

Eigenvectors come from numpy.linalg.eigh and are given fixed phases and a
fixed order, and nothing pivots on floating-point noise, so results are
reproducible for a given LAPACK build.  The *_spectrum functions map one
spectrum (w, U) to another, and from_spectrum assembles the matrix, so a
block decomposed once yields its root, pseudoinverse and support.

The three kernels hermitian_eig, hermitian_eigvals and gram_schmidt_columns
reuse their results inside a `reuse()` scope, which the harness opens once
per law report.  Each keys its result by the (shape, bytes) of its input
after np.asarray(a, dtype=complex); a repeated input gets the stored
arrays, marked read-only (inside a scope a fresh result is read-only
too), so a caller that writes to one raises instead of corrupting a later
hit.  The kernels are deterministic functions of those bytes, so a hit is
bit-identical to a recomputation.  Outside a scope nothing is stored.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from functools import wraps

import numpy as np

from .core import ValidationError

HERM_TOL = 1e-9
RANK_CUTOFF = 1e-9
GS_THRESHOLD = 1e-6


# The memo of the open reuse() scope: None outside every scope.
_MEMO: ContextVar = ContextVar("vnlinalg_memo", default=None)


@contextmanager
def reuse():
    """A scope in which the three kernels each compute a distinct input
    once; the memo starts empty and is dropped when the scope exits."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _memoised(kernel):
    """`kernel` on np.asarray(a, dtype=complex), stored per input inside a
    reuse() scope and returned read-only."""
    @wraps(kernel)
    def reused(a):
        a = np.asarray(a, dtype=complex)
        memo = _MEMO.get()
        if memo is None:
            return kernel(a)
        key = (kernel, a.shape, a.tobytes())
        out = memo.get(key)
        if out is None:
            out = memo[key] = kernel(a)
            for x in out if isinstance(out, tuple) else (out,):
                x.flags.writeable = False
        return out
    return reused


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def max_abs(a: np.ndarray) -> float:
    return float(abs(a).max()) if a.size else 0.0


def is_hermitian(a: np.ndarray, tol: float = HERM_TOL) -> bool:
    return max_abs(a - dagger(a)) <= tol


def _phases(V: np.ndarray) -> np.ndarray:
    """Per column of V, the unit factor that makes the column's
    largest-magnitude entry real positive; ties go to the lowest index."""
    if not V.size:
        return np.ones(V.shape[1], dtype=complex)
    mags = abs(V)
    top = mags.max(axis=0)
    idx = (mags >= top - 1e-12 * np.maximum(top, 1.0)).argmax(axis=0)
    pivot = V[idx, np.arange(V.shape[1])]
    # a complex divided by its hypot rounds as the scalar x.conj() / abs(x)
    return pivot.conj() / np.hypot(pivot.real, pivot.imag).astype(complex)


def _vec_key(v: np.ndarray):
    return tuple((round(float(x.real), 9), round(float(x.imag), 9)) for x in v)


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"square matrix required, got shape {a.shape}")
    if not is_hermitian(a):
        raise ValidationError("matrix is not Hermitian within tolerance")
    return (a + dagger(a)) / 2


@_memoised
def hermitian_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, descending, of a Hermitian matrix: numpy.linalg.eigvalsh
    on its Hermitian part, for checks that need no eigenvectors."""
    return np.linalg.eigvalsh(_hermitian_part(a))[::-1]


@_memoised
def hermitian_eig(a: np.ndarray):
    """Eigendecomposition of a Hermitian matrix: numpy.linalg.eigh on its
    Hermitian part.

    Returns (eigenvalues descending, unitary of eigenvector columns); the
    column phases are fixed and ties in the eigenvalues are broken by a
    lexicographic key on the vectors, so the output is deterministic."""
    vals, V = np.linalg.eigh(_hermitian_part(a))
    V = V * _phases(V)
    keys = [(-round(float(x), 9), _vec_key(V[:, i])) for i, x in enumerate(vals)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return vals[order], V[:, order]


def from_spectrum(spec) -> np.ndarray:
    """The Hermitian matrix U diag(w) U^dagger of a spectrum (w, U)."""
    w, U = spec
    m = (U * w) @ dagger(U)
    return (m + dagger(m)) / 2


def sqrt_spectrum(spec):
    """Spectrum of the positive square root, from the spectrum of a
    positive-semidefinite matrix; eigenvalues below 0 must stay above -1e-9
    and are clamped.

    Eigenvalues inside the rank cutoff are flushed to exactly zero rather
    than square-rooted: sqrt would amplify 1e-15 noise to 3e-8, pushing
    composite constructions past the working tolerance, while flushing
    keeps the square within 1e-9 of the input and keeps supports aligned
    with support_proj and op_pinv."""
    w, U = spec
    if w.size and float(w.min()) < -HERM_TOL:
        raise ValidationError(f"negative spectrum {float(w.min())} beyond tolerance")
    return np.where(w > RANK_CUTOFF, np.sqrt(np.maximum(w, 0.0)), 0.0), U


def pinv_spectrum(spec):
    """Spectrum of the pseudoinverse: eigenvalues inside the rank cutoff
    become 0, the others their reciprocals."""
    w, U = spec
    big = abs(w) > RANK_CUTOFF
    return np.where(big, 1.0 / np.where(big, w, 1.0), 0.0), U


def support_spectrum(spec):
    """Spectrum of the projection onto eigenvalues above the rank cutoff."""
    w, U = spec
    return (w > RANK_CUTOFF).astype(float), U


def op_sqrt(p: np.ndarray) -> np.ndarray:
    """Positive square root of a positive-semidefinite matrix."""
    return from_spectrum(sqrt_spectrum(hermitian_eig(p)))


def op_pinv(a: np.ndarray) -> np.ndarray:
    """Spectral pseudoinverse: eigenvalues below the rank cutoff become 0."""
    return from_spectrum(pinv_spectrum(hermitian_eig(a)))


def support_proj(a: np.ndarray) -> np.ndarray:
    """Projection onto the span of eigenvectors with eigenvalue > cutoff."""
    return from_spectrum(support_spectrum(hermitian_eig(a)))


def unit_proj(a: np.ndarray) -> np.ndarray:
    """Projection onto the eigenspaces with eigenvalue within 1e-9 of 1."""
    w, U = hermitian_eig(a)
    return from_spectrum(((abs(w - 1.0) <= HERM_TOL).astype(float), U))


@_memoised
def gram_schmidt_columns(m: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt over the columns in index order, two
    orthogonalization passes, dropping columns whose residual norm is at
    or below GS_THRESHOLD.  Accepted columns get a fixed phase.

    Index order (rather than norm pivoting) keeps the result stable under
    perturbations far smaller than the threshold, which is what makes
    independently computed carriers of the same subspace coincide."""
    basis: list = []
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


def orthonormal_complement(u: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column span."""
    proj = u @ dagger(u) if u.size else np.zeros((dim, dim), dtype=complex)
    return gram_schmidt_columns(np.eye(dim, dtype=complex) - proj)


def rand_complex(rng, rows: int, cols: int) -> np.ndarray:
    """A rows x cols matrix of standard complex Gaussians from rng, drawn
    row by row, the real part of each entry before its imaginary part."""
    vals = [complex(rng.gauss(0, 1), rng.gauss(0, 1))
            for _ in range(rows * cols)]
    return np.array(vals, dtype=complex).reshape(rows, cols)


def row_space_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the span of the conjugated rows."""
    return gram_schmidt_columns(dagger(m))


def kernel_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of m."""
    rows = row_space_basis(m)
    return orthonormal_complement(rows, m.shape[1])


def complex_to_json(rows) -> list:
    """A complex matrix as rows of [re, im] pairs, each part rounded to 12
    places.  Each entry rounds by its own type: numpy scalars (rows of an
    array) through numpy's round, Python complex numbers (rows of
    `.tolist()`) through Python's, which can differ in the last digit."""
    return [[[round(z.real, 12), round(z.imag, 12)] for z in row] for row in rows]
