"""Dense Hermitian linear algebra used by the Hilbert and operator-algebra
chains: eigendecomposition, spectral functions, and deterministic
orthonormalization.

Eigenvectors come from numpy.linalg.eigh and are given fixed phases and a
fixed order, and nothing pivots on floating-point noise, so results are
reproducible for a given LAPACK build.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ValidationError

HERM_TOL = 1e-9
RANK_CUTOFF = 1e-9
GS_THRESHOLD = 1e-6


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def max_abs(a: np.ndarray) -> float:
    return float(abs(a).max()) if a.size else 0.0


def is_hermitian(a: np.ndarray, tol: float = HERM_TOL) -> bool:
    return max_abs(a - dagger(a)) <= tol


def _phase_fix(v: np.ndarray) -> np.ndarray:
    """Rotate a vector so its largest-magnitude entry is real positive;
    ties go to the lowest index."""
    mags = abs(v)
    top = mags.max() if v.size else 0.0
    if top < 1e-300:
        return v
    idx = int(np.nonzero(mags >= top - 1e-12 * max(top, 1.0))[0][0])
    return v * (v[idx].conjugate() / abs(v[idx]))


def _vec_key(v: np.ndarray):
    return tuple((round(float(x.real), 9), round(float(x.imag), 9)) for x in v)


def hermitian_eig(a: np.ndarray):
    """Eigendecomposition of a Hermitian matrix: numpy.linalg.eigh on its
    Hermitian part.

    Returns (eigenvalues descending, unitary of eigenvector columns); the
    column phases are fixed and ties in the eigenvalues are broken by a
    lexicographic key on the vectors, so the output is deterministic."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"square matrix required, got shape {a.shape}")
    if not is_hermitian(a):
        raise ValidationError("matrix is not Hermitian within tolerance")
    n = a.shape[0]
    vals, V = np.linalg.eigh((a + dagger(a)) / 2)
    cols = []
    for i in range(n):
        v = _phase_fix(V[:, i])
        cols.append(((-round(float(vals[i]), 9),) + (_vec_key(v),), vals[i], v))
    cols.sort(key=lambda t: t[0])
    w = np.array([t[1] for t in cols])
    U = (np.column_stack([t[2] for t in cols]) if cols
         else np.zeros((n, 0), dtype=complex))
    return w, U


def _spectral_map(a: np.ndarray, fn) -> np.ndarray:
    w, U = hermitian_eig(a)
    return U @ np.diag([fn(float(x)) for x in w]).astype(complex) @ dagger(U)


def op_sqrt(p: np.ndarray) -> np.ndarray:
    """Positive square root of a positive-semidefinite matrix; eigenvalues
    below 0 must stay above -1e-9 and are clamped.

    Eigenvalues inside the rank cutoff are flushed to exactly zero rather
    than square-rooted: sqrt would amplify 1e-15 noise to 3e-8, pushing
    composite constructions past the working tolerance, while flushing
    keeps the square within 1e-9 of the input and keeps supports aligned
    with support_proj and op_pinv."""
    w, U = hermitian_eig(p)
    if w.size and float(w.min()) < -HERM_TOL:
        raise ValidationError(f"negative spectrum {float(w.min())} beyond tolerance")
    vals = [math.sqrt(float(x)) if float(x) > RANK_CUTOFF else 0.0 for x in w]
    root = U @ np.diag(vals).astype(complex) @ dagger(U)
    return (root + dagger(root)) / 2


def op_pinv(a: np.ndarray) -> np.ndarray:
    """Spectral pseudoinverse: eigenvalues below the rank cutoff become 0."""
    return _spectral_map(a, lambda x: 1.0 / x if abs(x) > RANK_CUTOFF else 0.0)


def support_proj(a: np.ndarray) -> np.ndarray:
    """Projection onto the span of eigenvectors with eigenvalue > cutoff."""
    pr = _spectral_map(a, lambda x: 1.0 if x > RANK_CUTOFF else 0.0)
    return (pr + dagger(pr)) / 2


def unit_proj(a: np.ndarray) -> np.ndarray:
    """Projection onto the eigenspaces with eigenvalue within 1e-9 of 1."""
    pr = _spectral_map(a, lambda x: 1.0 if abs(x - 1.0) <= HERM_TOL else 0.0)
    return (pr + dagger(pr)) / 2


def gram_schmidt_columns(m: np.ndarray, threshold: float = GS_THRESHOLD) -> np.ndarray:
    """Modified Gram-Schmidt over the columns in index order, two
    orthogonalization passes, dropping columns whose residual norm is at
    or below the threshold.  Accepted columns get a fixed phase.

    Index order (rather than norm pivoting) keeps the result stable under
    perturbations far smaller than the threshold, which is what makes
    independently computed carriers of the same subspace coincide."""
    m = np.asarray(m, dtype=complex)
    basis: list = []
    for j in range(m.shape[1]):
        v = m[:, j].copy()
        for _ in range(2):
            for b in basis:
                v = v - b * (b.conj() @ v)
        norm = float(np.sqrt((abs(v) ** 2).sum()))
        if norm > threshold:
            basis.append(_phase_fix(v / norm))
    if not basis:
        return np.zeros((m.shape[0], 0), dtype=complex)
    return np.column_stack(basis)


def orthonormal_complement(u: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column span."""
    proj = u @ dagger(u) if u.size else np.zeros((dim, dim), dtype=complex)
    return gram_schmidt_columns(np.eye(dim, dtype=complex) - proj)


def row_space_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the span of the conjugated rows."""
    return gram_schmidt_columns(dagger(m))


def kernel_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of m."""
    rows = row_space_basis(m)
    return orthonormal_complement(rows, m.shape[1])
