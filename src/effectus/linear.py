"""Linear chains: vector spaces over a prime field with total linear maps,
and finite-dimensional complex inner-product spaces.

Predicates are subspaces and substitution is preimage.  The quotient
carrier is concrete: coordinates with respect to a complement basis (a
deterministic echelon complement over F_p, the orthogonal complement over
the complex numbers), so carrier equality is a real object-level question.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from operator import mul

import numpy as np

from .core import (
    CHAIN_LAWS,
    ORTHO_LAWS,
    Arrow,
    ChainInstance,
    ComprehensionResult,
    HomConditionError,
    QuotientResult,
    ValidationError,
    hom_check,
    make_arrow,
)
from . import vnlinalg as la

# ---------------------------------------------------------------------------
# F_p machinery: vectors are int tuples, matrices are tuples of row tuples.
# ---------------------------------------------------------------------------


def _inv_mod(a: int, p: int) -> int:
    return pow(a, p - 2, p)


def _check_residues(row, p: int) -> None:
    # bools are ints to Python but ambiguous as field elements, as in
    # core.atom_key
    for x in row:
        if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < p:
            raise ValidationError(f"entry {x!r} not a reduced residue")


def rref(rows, width: int, p: int):
    """Reduced row echelon form over F_p: returns (rows, pivot columns)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] % p), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = _inv_mod(mat[r][c] % p, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p:
                f = mat[i][c] % p
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def echelon_pivots(rows, width: int, p: int) -> tuple:
    """Pivot columns of rows that are already a reduced row echelon form
    over F_p, checked without eliminating: every row has the given width
    and reduced-residue entries, leads with a 1 strictly right of the row
    above, and its pivot column is zero in every other row."""
    pivots = []
    for row in rows:
        if len(row) != width:
            raise ValidationError(f"basis row {row!r} must have width {width}")
        _check_residues(row, p)
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None or row[lead] != 1 or (pivots and lead <= pivots[-1]):
            raise ValidationError("basis rows must be a reduced echelon form")
        pivots.append(lead)
    # rows below a pivot lead further right, so only the rows above can
    # be nonzero in its column
    for i, c in enumerate(pivots):
        if any(rows[j][c] for j in range(i)):
            raise ValidationError("basis rows must be a reduced echelon form")
    return tuple(pivots)


def mat_mul(a, b, p: int, width: int | None = None):
    """Product of F_p matrices given as row tuples.

    A zero-row ``b`` carries no column count, so a caller composing
    through a 0-dimensional space must pass the result ``width``.
    """
    if a and b:
        assert len(a[0]) == len(b)
    if not b:
        return tuple((0,) * (width or 0) for _ in a)
    cols = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) % p for col in cols]) for row in a])


def mat_vec(a, v, p: int):
    return tuple(sum(map(mul, row, v)) % p for row in a)


def fp_kernel(mat, width: int, p: int):
    """RREF basis of the null space of an F_p matrix.

    Eliminating on the reversed columns makes each null vector lead with
    a 1 at its own free column, with its other entries at pivot columns
    further right: the basis comes out already reduced."""
    red, pivots = rref([row[::-1] for row in mat], width, p)
    last = width - 1
    basis = []
    for c in range(width):
        free = last - c
        if free in pivots:
            continue
        v = [0] * width
        v[c] = 1
        for r, pc in enumerate(pivots):
            if pc > free:
                break
            v[last - pc] = (-red[r][free]) % p
        basis.append(tuple(v))
    return tuple(basis)


@dataclass(frozen=True)
class FpSpace:
    """F_p^dim for a prime modulus p."""

    p: int
    dim: int

    def __post_init__(self):
        p = self.p
        if p < 2 or any(p % k == 0 for k in range(2, math.isqrt(p) + 1)):
            raise ValidationError(f"modulus {self.p} is not prime")
        if self.dim < 0:
            raise ValidationError("dimension must be a natural number")

    def __repr__(self):
        return f"F{self.p}^{self.dim}"


@dataclass(frozen=True)
class FpSubspace:
    """Subspace given by its reduced-echelon basis rows."""

    space: FpSpace
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "pivots", echelon_pivots(
            self.rows, self.space.dim, self.space.p))

    @property
    def rank(self) -> int:
        return len(self.rows)


def fp_span(space: FpSpace, vectors) -> FpSubspace:
    return FpSubspace(space, rref(vectors, space.dim, space.p)[0])


@lru_cache(maxsize=256)
def _coords_matrix(P: FpSubspace):
    """Matrix of the quotient map: coordinates with respect to the
    complement basis, the unit vectors at the free (non-pivot) columns,
    modulo P.  Shape (dim - rank) x dim.  P's rows being reduced echelon,
    the coordinate of v at a free c is v[c] - sum of row[c] * v[pivot].

    Cached: `subst` asks for it on every substitution along a reused
    predicate, and subspaces are immutable.  The bound sits above the 61
    subspaces the acceptance sweeps visit."""
    p, d = P.space.p, P.space.dim
    row_at = dict(zip(P.pivots, P.rows))  # each echelon row by its pivot
    return tuple(tuple(-row_at[i][c] % p if i in row_at else int(i == c)
                       for i in range(d))
                 for c in range(d) if c not in row_at)


@lru_cache(maxsize=4096)
def _preimage(space: FpSpace, comp) -> FpSubspace:
    """The kernel of `comp`, a matrix with `space` as its source.

    Cached: substitution eliminates on the composite of the predicate's
    quotient map with the arrow, and the exhaustive sweeps meet the same
    composites again and again (2,310 distinct ones in 72,038
    substitutions at the acceptance bounds).  The bound sits above that
    count."""
    return FpSubspace(space, fp_kernel(comp, space.dim, space.p))


class FpChain(ChainInstance):
    """Vector spaces over a prime field with total linear maps; arrows
    store the matrix (rows x columns = target dim x source dim)."""

    name = "fp"
    description = "prime-field vector spaces and linear maps"
    laws = CHAIN_LAWS
    default_sweep = {"fields": (2, 3), "max_dim": 2}

    def _check_matrix(self, X: FpSpace, Y: FpSpace, mat) -> None:
        if X.p != Y.p:
            raise ValidationError("field moduli differ")
        if len(mat) != Y.dim or any(len(r) != X.dim for r in mat):
            raise ValidationError(f"matrix shape must be {Y.dim} x {X.dim}")
        for row in mat:
            _check_residues(row, X.p)

    def arrow(self, X, Y, mat) -> Arrow:
        mat = tuple(tuple(r) for r in mat)
        self._check_matrix(X, Y, mat)
        return Arrow(X, Y, mat)

    def identity(self, X) -> Arrow:
        mat = tuple(tuple(1 if i == j else 0 for j in range(X.dim))
                    for i in range(X.dim))
        return Arrow(X, X, mat)

    def compose(self, g: Arrow, f: Arrow) -> Arrow:
        if f.dst is not g.src:
            self.check_composable(g, f)
        return make_arrow((f.src, g.dst,
                           mat_mul(g.data, f.data, f.src.p, width=f.src.dim)))

    # ---- fibre ----

    def top(self, X: FpSpace) -> FpSubspace:
        rows = tuple(tuple(1 if i == j else 0 for j in range(X.dim))
                     for i in range(X.dim))
        return FpSubspace(X, rows)

    def bottom(self, X: FpSpace) -> FpSubspace:
        return FpSubspace(X, ())

    def pred_leq(self, X, p: FpSubspace, q: FpSubspace) -> bool:
        """Each row of p reduced against q's echelon rows must vanish; q's
        rows are zero at each other's pivots, so the multiples are read
        off p's row at q's pivot columns."""
        echelon = tuple(zip(q.pivots, q.rows))
        for v in p.rows:
            rest = v
            for c, row in echelon:
                if v[c]:
                    rest = tuple(x - v[c] * y for x, y in zip(rest, row))
            if any(x % X.p for x in rest):
                return False
        return True

    def pred_residual(self, X, p, q) -> float:
        return 0.0 if p.rows == q.rows else 1.0

    def subst(self, f: Arrow, q: FpSubspace) -> FpSubspace:
        return _preimage(f.src, mat_mul(_coords_matrix(q), f.data, f.src.p))

    # ---- quotient / comprehension ----

    def quotient(self, X, p: FpSubspace) -> QuotientResult:
        """Coordinates along the complement basis; a map killing p is
        determined by its values on that basis."""
        obj = FpSpace(X.p, X.dim - p.rank)
        # the complement basis is the unit vectors at these coordinates, so
        # f's values on it are f's columns there
        free = [c for c in range(X.dim) if c not in p.pivots]

        def transpose(f: Arrow) -> Arrow:
            for row in p.rows:
                if any(mat_vec(f.data, row, X.p)):
                    raise HomConditionError(f"fp: {row!r} is not in the kernel")
            return make_arrow((obj, f.dst, tuple([tuple([r[c] % X.p for c in free])
                                                  for r in f.data])))

        return QuotientResult(obj, Arrow(X, obj, _coords_matrix(p)), transpose)

    def comprehension(self, X, p: FpSubspace) -> ComprehensionResult:
        obj = FpSpace(X.p, p.rank)
        mat = tuple(tuple(p.rows[j][i] for j in range(p.rank))
                    for i in range(X.dim))

        proj = _coords_matrix(p)

        def transpose(f: Arrow) -> Arrow:
            if any(any(row) for row in mat_mul(proj, f.data, X.p)):
                raise HomConditionError("fp: image is not inside the subspace")
            # Echelon basis coordinates can be read off at the pivot columns.
            return make_arrow((f.src, obj, tuple(f.data[c] for c in p.pivots)))

        return ComprehensionResult(obj, Arrow(obj, X, mat), transpose)

    # ---- sampling and enumeration ----

    def rand_object(self, rng, bounds, like=None) -> FpSpace:
        p = like.p if like is not None else rng.choice(bounds.get("fields", (2, 3)))
        return FpSpace(p, rng.randint(0, bounds.get("max_dim", 3)))

    def rand_pred(self, rng, X, bounds) -> FpSubspace:
        k = rng.randint(0, X.dim)
        vecs = [tuple(rng.randrange(X.p) for _ in range(X.dim)) for _ in range(k)]
        return fp_span(X, vecs)

    def rand_arrow(self, rng, X, Y, bounds) -> Arrow:
        mat = tuple(tuple(rng.randrange(X.p) for _ in range(X.dim))
                    for _ in range(Y.dim))
        return Arrow(X, Y, mat)

    def iter_objects(self, bounds):
        for p in bounds.get("fields", (2, 3)):
            for d in range(bounds.get("max_dim", 2) + 1):
                yield FpSpace(p, d)

    def comparable_objects(self, X, Y) -> bool:
        return X.p == Y.p

    def count_arrows(self, X, Y) -> int:
        return X.p ** (X.dim * Y.dim)

    def iter_arrows(self, X, Y):
        # rows in lexicographic order, so matrices in the order of their
        # entries read row by row
        rows = list(product(range(X.p), repeat=X.dim))
        for mat in product(rows, repeat=Y.dim):
            yield make_arrow((X, Y, mat))

    def iter_homs(self, built, X, p, Y):
        """A map kills p exactly when each of its rows does, and lands in
        p exactly when each of its columns does, so the homs are the
        matrices made of allowed rows (quotient) or columns
        (comprehension): a vector is allowed when the map between X and
        F_p^1 it makes is a hom.  Matrices in row-major lexicographic
        order are in `iter_arrows` order."""
        line = FpSpace(X.p, 1)
        ends = built.ends(X, line)
        hom_objects = built.hom_objects(self, X, p, line)
        vectors = product(range(X.p), repeat=X.dim)
        if isinstance(built, QuotientResult):
            rows = [r for r in vectors
                    if hom_check(self, make_arrow((*ends, (r,))), *hom_objects)]
            return (make_arrow((X, Y, mat)) for mat in product(rows, repeat=Y.dim))
        cols = [c for c in vectors
                if hom_check(self, make_arrow((*ends, tuple(zip(c)))), *hom_objects)]
        mats = sorted(tuple(tuple(c[i] for c in m) for i in range(X.dim))
                      for m in product(cols, repeat=Y.dim))
        return (make_arrow((Y, X, mat)) for mat in mats)

    def iter_preds(self, X):
        """All subspaces, via deduplicated spans of vector subsets."""
        vecs = [v for v in product(range(X.p), repeat=X.dim) if any(v)]
        seen = set()
        for k in range(0, X.dim + 1):
            for chosen in combinations(vecs, k):
                rows = rref(chosen, X.dim, X.p)[0]
                if rows not in seen:
                    seen.add(rows)
                    yield FpSubspace(X, rows)

    # ---- serialization ----

    def object_to_json(self, X):
        return {"field": X.p, "dim": X.dim}

    def pred_to_json(self, X, p: FpSubspace):
        return [list(r) for r in p.rows]

    def arrow_to_json(self, f: Arrow):
        return [list(r) for r in f.data]


# ---------------------------------------------------------------------------
# Complex inner-product spaces.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HilbSpace:
    dim: int

    def __post_init__(self):
        if self.dim < 0:
            raise ValidationError("dimension must be a natural number")

    def __repr__(self):
        return f"C^{self.dim}"


class Subspace:
    """Closed subspace of C^dim, held as a canonical orthonormal basis:
    the Gram-Schmidt sweep of its projection matrix's columns.  Two
    descriptions of the same span produce the same basis up to numerical
    noise far below the working tolerance."""

    __slots__ = ("space", "basis")

    def __init__(self, space: HilbSpace, columns: np.ndarray):
        columns = np.asarray(columns, dtype=complex)
        if columns.size == 0:
            columns = columns.reshape(space.dim, 0)
        else:
            columns = columns.reshape(space.dim, -1)
        first = la.gram_schmidt_columns(columns)
        proj = first @ la.dagger(first)
        self.space = space
        self.basis = la.gram_schmidt_columns(proj)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ la.dagger(self.basis)

    def __repr__(self):
        return f"Subspace(dim {self.rank} of C^{self.space.dim})"


class HilbChain(ChainInstance):
    """Finite-dimensional complex inner-product spaces with linear maps;
    quotient by a subspace is its orthocomplement."""

    name = "hilb"
    description = "complex inner-product spaces and linear maps"
    laws = CHAIN_LAWS + ORTHO_LAWS
    eq_tol = 1e-9
    hom_tol = 1e-6

    def arrow(self, X: HilbSpace, Y: HilbSpace, mat) -> Arrow:
        mat = np.asarray(mat, dtype=complex).reshape(Y.dim, X.dim)
        return Arrow(X, Y, mat)

    def identity(self, X) -> Arrow:
        return Arrow(X, X, np.eye(X.dim, dtype=complex))

    def compose(self, g: Arrow, f: Arrow) -> Arrow:
        self.check_composable(g, f)
        return Arrow(f.src, g.dst, g.data @ f.data)

    def map_residual(self, f: Arrow, g: Arrow) -> float:
        if f.src != g.src or f.dst != g.dst:
            return 1.0
        return la.max_abs(f.data - g.data)

    # ---- fibre ----

    def top(self, X) -> Subspace:
        return Subspace(X, np.eye(X.dim, dtype=complex))

    def bottom(self, X) -> Subspace:
        return Subspace(X, np.zeros((X.dim, 0), dtype=complex))

    def pred_leq(self, X, p: Subspace, q: Subspace) -> bool:
        return la.max_abs(q.projector() @ p.basis - p.basis) <= self.eq_tol

    def pred_residual(self, X, p, q) -> float:
        return la.max_abs(p.projector() - q.projector())

    def ortho(self, X, p: Subspace) -> Subspace:
        return Subspace(X, la.orthonormal_complement(p.basis, X.dim))

    def subst(self, f: Arrow, q: Subspace) -> Subspace:
        """Preimage: kernel of (project off q) after f."""
        off = np.eye(f.dst.dim, dtype=complex) - q.projector()
        return Subspace(f.src, la.kernel_basis(off @ f.data))

    # ---- quotient / comprehension ----

    def quotient(self, X, p: Subspace) -> QuotientResult:
        """Coordinates along an orthonormal basis w of the orthocomplement;
        a map killing p factors as f w."""
        w = la.orthonormal_complement(p.basis, X.dim)
        obj = HilbSpace(w.shape[1])

        def transpose(f: Arrow) -> Arrow:
            if p.rank and la.max_abs(f.data @ p.basis) > self.hom_tol:
                raise HomConditionError("hilb: subspace is not inside the kernel")
            return Arrow(obj, f.dst, f.data @ w)

        return QuotientResult(obj, Arrow(X, obj, la.dagger(w)), transpose)

    def comprehension(self, X, p: Subspace) -> ComprehensionResult:
        obj = HilbSpace(p.rank)

        def transpose(f: Arrow) -> Arrow:
            off = np.eye(X.dim, dtype=complex) - p.projector()
            if la.max_abs(off @ f.data) > self.hom_tol:
                raise HomConditionError("hilb: image is not inside the subspace")
            return Arrow(f.src, obj, la.dagger(p.basis) @ f.data)

        return ComprehensionResult(obj, Arrow(obj, X, p.basis.copy()), transpose)

    def assert_closed_form(self, X, p: Subspace) -> Arrow:
        return Arrow(X, X, p.projector())

    # ---- sampling ----

    def rand_object(self, rng, bounds, like=None) -> HilbSpace:
        return HilbSpace(rng.randint(1, bounds.get("max_dim", 4)))

    def rand_pred(self, rng, X, bounds) -> Subspace:
        k = rng.randint(0, X.dim)
        return Subspace(X, la.rand_complex(rng, X.dim, k))

    def rand_arrow(self, rng, X, Y, bounds) -> Arrow:
        return Arrow(X, Y, la.rand_complex(rng, Y.dim, X.dim))

    def coincidence_residual(self, X, p, q, c) -> float:
        # The two carriers are plain coordinate spaces; agreement means
        # the collapse basis and the inclusion basis are the same columns.
        if q.unit.data.shape != la.dagger(c.counit.data).shape:
            return 1.0
        if q.unit.data.size == 0:
            return 0.0
        return la.max_abs(q.unit.data - la.dagger(c.counit.data))

    # ---- serialization ----

    def object_to_json(self, X):
        return {"dim": X.dim}

    def pred_to_json(self, X, p: Subspace):
        return la.complex_to_json(p.basis)

    def arrow_to_json(self, f: Arrow):
        return la.complex_to_json(np.asarray(f.data, dtype=complex).tolist())
