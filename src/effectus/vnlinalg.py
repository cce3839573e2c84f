"""Dense Hermitian linear algebra used by the Hilbert and operator-algebra
chains: eigendecomposition, spectral functions, and deterministic
orthonormalization.

Eigenvectors come from numpy.linalg.eigh and are given fixed phases and a
fixed order, and nothing pivots on floating-point noise, so results are
reproducible for a given LAPACK build; a 1 x 1 input skips numpy for what
?heevd returns at n = 1, its real part and the vector 1.  The *_spectrum
functions map one spectrum (w, U) to another, and from_spectrum assembles
the matrix, so a block decomposed once yields its root, pseudoinverse,
support and unit projection, and callers pass spectra, not projectors.

The three kernels hermitian_eig, hermitian_eigvals and gram_schmidt_columns
reuse their results inside a `reuse()` scope, which the harness opens once
per law report.  Each keys its result by the (shape, bytes) of its input
after np.asarray(a, dtype=complex); a repeated input gets the stored
arrays, marked read-only (inside a scope a fresh result is read-only
too), so a caller that writes to one raises instead of corrupting a later
hit.  The kernels are deterministic functions of those bytes, so a hit is
bit-identical to a recomputation.  Outside a scope nothing is stored.
The memo also counts each input's calls, for kernel_counts().
numpy is bound by _lazy, so importing effectus loads none; the first hilb
or vn computation does.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from functools import wraps

from .core import ValidationError


def _lazy(name: str):
    """The module `name`, imported on its first attribute read: the module
    itself when it is already imported, and ModuleNotFoundError now, as
    `import` raises it, when there is no such module."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")

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
        entry = memo.setdefault((kernel, a.shape, a.tobytes()), [0, None])
        entry[0] += 1  # calls with this input, a call that raises included
        if entry[1] is None:
            out = entry[1] = kernel(a)
            for x in out if isinstance(out, tuple) else (out,):
                x.flags.writeable = False
        return entry[1]
    return reused


def kernel_counts() -> Counter:
    """`<kernel>.calls` and `<kernel>.distinct` (inputs) of each memoised
    kernel called in the open reuse() scope; empty outside a scope."""
    counts = Counter()
    for (kernel, *_), (calls, _) in (_MEMO.get() or {}).items():
        counts[f"{kernel.__name__}.calls"] += calls
        counts[f"{kernel.__name__}.distinct"] += 1
    return counts


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def max_abs(a: np.ndarray) -> float:
    return float(abs(a).max()) if a.size else 0.0


def as_complex(a) -> np.ndarray:
    """a as a complex array, refused unless its entries are finite numbers."""
    try:  # numpy refuses ragged input with either error
        raw = np.asarray(a)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"not a complex array: {exc}") from None
    if raw.dtype.kind not in "biufc" or not np.isfinite(raw).all():
        raise ValidationError(f"not a complex array of finite numbers: {raw.dtype} entries")
    return raw.astype(complex, copy=False)


def _phases(V: np.ndarray) -> np.ndarray:
    """Per column of V (or of V, a vector), the unit factor that makes its
    largest-magnitude entry real positive; ties go to the lowest index."""
    if not V.size:
        return np.ones(V.shape[1], dtype=complex)
    mags = abs(V)
    top = mags.max(axis=0)
    idx = (mags >= top - 1e-12 * np.maximum(top, 1.0)).argmax(axis=0)
    pivot = V[idx, np.arange(V.shape[1])] if V.ndim == 2 else V[idx]
    # a complex divided by its hypot rounds as the scalar x.conj() / abs(x)
    return pivot.conj() / np.hypot(pivot.real, pivot.imag).astype(complex)


def _vec_key(v: np.ndarray):
    return tuple((round(float(x.real), 9), round(float(x.imag), 9)) for x in v)


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"square matrix required, got shape {a.shape}")
    d = dagger(a)
    if not max_abs(a - d) <= HERM_TOL:  # NaN entries fail too
        raise ValidationError("matrix is not Hermitian within tolerance")
    return (a + d) / 2


@_memoised
def hermitian_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, descending, of a Hermitian matrix: numpy.linalg.eigvalsh
    on its Hermitian part, for checks that need no eigenvectors."""
    h = _hermitian_part(a)
    return h.real[0] if len(h) == 1 else np.linalg.eigvalsh(h)[::-1]


@_memoised
def hermitian_eig(a: np.ndarray):
    """Eigendecomposition of a Hermitian matrix: numpy.linalg.eigh on its
    Hermitian part.

    Returns (eigenvalues descending, unitary of eigenvector columns); the
    column phases are fixed and ties in the eigenvalues are broken by a
    lexicographic key on the vectors, so the output is deterministic."""
    h = _hermitian_part(a)
    if len(h) == 1:
        return h.real[0], np.ones((1, 1), dtype=complex)
    vals, V = np.linalg.eigh(h)
    V = V * _phases(V)
    keys = [-round(float(x), 9) for x in vals]
    if len(set(keys)) < len(keys):  # a tie: break it by the vectors
        keys = [(k, _vec_key(V[:, i])) for i, k in enumerate(keys)]
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


def unit_spectrum(spec):
    """Spectrum of the projection onto eigenvalues within 1e-9 of 1."""
    w, U = spec
    return (abs(w - 1.0) <= HERM_TOL).astype(float), U


def unit_proj(a: np.ndarray) -> np.ndarray:
    """Projection onto the eigenspaces with eigenvalue within 1e-9 of 1."""
    return from_spectrum(unit_spectrum(hermitian_eig(a)))


@_memoised
def gram_schmidt_columns(m: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt over the columns in index order, two
    orthogonalization passes, dropping columns whose residual norm is at
    or below GS_THRESHOLD.  Accepted columns get a fixed phase.

    Index order (rather than norm pivoting) keeps the result stable under
    perturbations far smaller than the threshold, which is what makes
    independently computed carriers of the same subspace coincide."""
    basis: list = []  # (vector, its conjugate) pairs
    for j in range(m.shape[1]):
        v = m[:, j].copy()
        for _ in range(2):
            for b, c in basis:
                v = v - b * (c @ v)
        norm = math.sqrt((abs(v) ** 2).sum())
        if norm > GS_THRESHOLD:
            v = v / norm
            v = v * _phases(v)
            basis.append((v, v.conj()))
    if not basis:
        return np.zeros((m.shape[0], 0), dtype=complex)
    return np.column_stack([b for b, _ in basis])


def rand_complex(rng, rows: int, cols: int) -> np.ndarray:
    """A rows x cols matrix of standard complex Gaussians from rng, drawn
    row by row, the real part of each entry before its imaginary part."""
    vals = [complex(rng.gauss(0, 1), rng.gauss(0, 1))
            for _ in range(rows * cols)]
    return np.array(vals, dtype=complex).reshape(rows, cols)


def full_rank(m: np.ndarray, rows: bool) -> bool:
    """Whether m has full row (`rows`) or column rank, a singular value at
    or below RANK_CUTOFF times the largest counting as 0 (no entries: rank 0)."""
    s = np.linalg.svd(m, compute_uv=False) if m.size else np.zeros(0)
    return int((s > RANK_CUTOFF * s.max(initial=0.0)).sum()) == m.shape[0 if rows else 1]


def complex_to_json(rows) -> list:
    """A complex matrix as rows of [re, im] pairs, each part rounded to 12
    places.  Each entry rounds by its own type: numpy scalars (rows of an
    array) through numpy's round, Python complex numbers (rows of
    `.tolist()`) through Python's, which can differ in the last digit."""
    return [[[round(z.real, 12), round(z.imag, 12)] for z in row] for row in rows]
