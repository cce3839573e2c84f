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
from functools import cache, cached_property, lru_cache, partial
from itertools import combinations, product, repeat
from operator import mul

from .core import (
    CHAIN_LAWS,
    ORTHO_LAWS,
    Arrow,
    ChainInstance,
    Construction,
    HomConditionError,
    ValidationError,
    check_size,
    hom_check,
    make_arrow,
    picker,
)
from . import vnlinalg as la
from .vnlinalg import np

# ---------------------------------------------------------------------------
# F_p machinery: vectors are int tuples, matrices are tuples of row tuples.
# ---------------------------------------------------------------------------


def _check_residues(row, p: int) -> None:
    # bools are ints to Python but ambiguous as field elements, as in
    # core.atom_key
    for x in row:
        if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < p:
            raise ValidationError(f"entry {x!r} not a reduced residue")


def _over(X, p):
    """p, refused unless it is a subspace of X (an F_p or complex space)."""
    if p.space is not X and p.space != X:
        raise ValidationError(f"predicate over {p.space!r}, not {X!r}")
    return p


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
        inv = pow(mat[r][c] % p, p - 2, p)  # by Fermat
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


def mat_vec(a, v, p: int):
    return tuple(sum(map(mul, row, v)) % p for row in a)


class _Fixed(tuple):
    """Rows of a matrix M that many others multiply while it stays fixed,
    as a predicate's quotient map and a construction's counit do: its
    products with vectors fill in as they are asked for, at most p ** k."""

    def __new__(cls, rows, p: int):
        m = super().__new__(cls, rows)
        m.p = p
        return m

    @cached_property
    def times_col(self):  # v -> M v
        return cache(partial(mat_vec, tuple(self), p=self.p))

    def after(self, b, width: int):
        """M b, b's columns read through M's memo; b has `width` columns."""
        cols = zip(*b) if b else repeat((), width)
        return tuple(zip(*map(self.times_col, cols))) or ((),) * len(self)


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
        check_size(self.p, "modulus", 2)
        if any(self.p % k == 0 for k in range(2, math.isqrt(self.p) + 1)):
            raise ValidationError(f"modulus {self.p} is not prime")
        check_size(self.dim, "dimension")

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
    predicate, and `pred_leq` on every inclusion in one, through its memo
    of products; subspaces are immutable.  The bound sits above the 61
    subspaces the acceptance sweeps visit."""
    p, d = P.space.p, P.space.dim
    row_at = dict(zip(P.pivots, P.rows))  # each echelon row by its pivot
    return _Fixed((tuple(-row_at[i][c] % p if i in row_at else int(i == c)
                         for i in range(d))
                   for c in range(d) if c not in row_at), p)


@lru_cache(maxsize=4096)
def _preimage(space: FpSpace, comp) -> FpSubspace:
    """The kernel of `comp`, a matrix with `space` as its source.

    Cached: substitution eliminates on the composite of the predicate's
    quotient map with the arrow, and the law checks meet the same
    composites again and again: `effectus check --seed 1` makes 1,016
    calls on 101 distinct ones, and the acceptance sweeps run after it
    in the same process bring that to 8,776 calls on 156.  The bound
    sits above that count."""
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

    def precompose(self, f: Arrow):
        """g's rows read through f's row action, memoised."""
        times = cache(partial(mat_vec, tuple(zip(*f.data)) or ((),) * f.src.dim, p=f.src.p))
        return lambda d, Y: tuple(map(times, d))

    def postcompose(self, f: Arrow):
        """g's columns read through f's column action, memoised."""
        fixed = _Fixed(f.data, f.src.p)
        return lambda d, Y: fixed.after(d, Y.dim)

    # ---- fibre ----

    def top(self, X: FpSpace) -> FpSubspace:
        return FpSubspace(X, self.identity(X).data)

    def bottom(self, X: FpSpace) -> FpSubspace:
        return FpSubspace(X, ())

    def pred_leq(self, X, p: FpSubspace, q: FpSubspace) -> bool:
        """p lies in q exactly when q's quotient map kills each row of p."""
        kills = _coords_matrix(_over(X, q)).times_col
        return not any(map(any, map(kills, _over(X, p).rows)))

    def pred_residual(self, X, p, q) -> float:
        return 0.0 if _over(X, p).rows == _over(X, q).rows else 1.0

    def subst(self, f: Arrow, q: FpSubspace) -> FpSubspace:
        return _preimage(f.src, _coords_matrix(_over(f.dst, q)).after(f.data, f.src.dim))

    # ---- quotient / comprehension ----

    def quotient(self, X, p: FpSubspace) -> Construction:
        """Coordinates along the complement basis; a map killing p is
        determined by its values on that basis."""
        obj = FpSpace(X.p, X.dim - _over(X, p).rank)
        # f's values on the complement basis, the unit vectors at these
        # coordinates, are its columns there: reduced, as in every fp arrow
        at_free = picker([c for c in range(X.dim) if c not in p.pivots])
        kills = cache(lambda r: not any(mat_vec(p.rows, r, X.p)))  # does this row of f kill p?

        def transpose(data, Y) -> tuple:
            if not all(map(kills, data)):
                row = next(row for row in p.rows if any(mat_vec(data, row, X.p)))
                raise HomConditionError(f"fp: {row!r} is not in the kernel")
            return tuple(map(at_free, data))

        return Construction(self, obj, Arrow(X, obj, _coords_matrix(p)), transpose, epi=True)

    def comprehension(self, X, p: FpSubspace) -> Construction:
        obj = FpSpace(X.p, _over(X, p).rank)
        # the counit matrix has p's rows as columns
        counit = Arrow(obj, X, tuple(zip(*p.rows)) or ((),) * X.dim)
        inside = _coords_matrix(p).times_col  # p's quotient map, column by column
        # Echelon basis coordinates can be read off at the pivot columns.
        at_pivots = picker(p.pivots)

        def transpose(data, Y) -> tuple:
            if any(map(any, map(inside, zip(*data)))):
                raise HomConditionError("fp: image is not inside the subspace")
            return at_pivots(data)

        return Construction(self, obj, counit, transpose, epi=False)

    def cancels(self, f: Arrow, epi: bool) -> bool:
        """Exact, as all linear maps mediate: epi when onto, mono when one-to-one."""
        return len(rref(f.data, f.src.dim, f.src.p)[1]) == (f.dst.dim if epi else f.src.dim)

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
        p exactly when each of its columns does, so the homs' data are
        the matrices made of allowed rows (quotient) or columns
        (comprehension): a vector is allowed when the map between X and
        F_p^1 it makes is a hom."""
        vectors = self._allowed(built, X, p)
        if built.epi:
            return product(vectors, repeat=Y.dim)
        return (tuple(zip(*m)) or ((),) * X.dim for m in product(vectors, repeat=Y.dim))

    @lru_cache(maxsize=16)
    def _allowed(self, built, X, p) -> tuple:
        """The vectors `iter_homs` allows, once per construction: a sweep keeps it for each Y."""
        line, row = FpSpace(X.p, 1), built.epi
        ends, objects = built.ends(X, line), built.hom_objects(X, p, line)
        return tuple(v for v in product(range(X.p), repeat=X.dim) if hom_check(
            self, make_arrow((*ends, (v,) if row else tuple(zip(v)))), *objects))

    def iter_preds(self, X):
        """Every subspace once, by rank and then by its reduced echelon rows
        read last to first: the order in which spans of ever more vectors meet them."""
        forms = []
        for r in range(X.dim + 1):
            for pivots in combinations(range(X.dim), r):
                # a row is 1 at its pivot, free right of it off the pivots, else 0
                rows = [product(*[range(X.p) if c > pc and c not in pivots else (int(c == pc),)
                                  for c in range(X.dim)]) for pc in pivots]
                forms += product(*rows)
        for rows in sorted(forms, key=lambda rows: (len(rows), rows[::-1])):
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
        check_size(self.dim, "dimension")

    def __repr__(self):
        return f"C^{self.dim}"


class Subspace:
    """Closed subspace of C^dim, held as a canonical orthonormal basis:
    the Gram-Schmidt sweep of its projection matrix's columns.  Two
    descriptions of the same span produce the same basis up to numerical
    noise far below the working tolerance."""

    __slots__ = ("space", "basis")

    def __init__(self, space: HilbSpace, columns: np.ndarray):
        """The span of columns shaped (dim, k); a size-0 array spans 0."""
        columns = la.as_complex(columns)
        if columns.size == 0:
            columns = columns.reshape(space.dim, 0)
        elif columns.ndim != 2 or len(columns) != space.dim:
            raise ValidationError(f"columns shape {columns.shape} != ({space.dim}, k)")
        first = la.gram_schmidt_columns(columns)
        self.space, self.basis = space, la.gram_schmidt_columns(first @ la.dagger(first))

    @classmethod
    def of_projector(cls, space: HilbSpace, proj: np.ndarray) -> "Subspace":
        """The subspace that `proj` projects onto, canonical in one sweep."""
        sub = cls.__new__(cls)
        sub.space, sub.basis = space, la.gram_schmidt_columns(proj)
        return sub

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

    def arrow(self, X: HilbSpace, Y: HilbSpace, mat) -> Arrow:
        mat = la.as_complex(mat)
        if mat.shape != (Y.dim, X.dim):
            raise ValidationError(f"matrix shape {mat.shape} != ({Y.dim}, {X.dim})")
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
        return Subspace.of_projector(X, np.eye(X.dim, dtype=complex))

    def bottom(self, X) -> Subspace:
        return Subspace.of_projector(X, np.zeros((X.dim, X.dim), dtype=complex))

    def pred_leq(self, X, p: Subspace, q: Subspace) -> bool:
        basis = _over(X, p).basis
        return la.max_abs(_over(X, q).projector() @ basis - basis) <= self.eq_tol

    def pred_residual(self, X, p, q) -> float:
        return la.max_abs(_over(X, p).projector() - _over(X, q).projector())

    def ortho(self, X, p: Subspace) -> Subspace:
        return Subspace.of_projector(X, np.eye(X.dim, dtype=complex) - _over(X, p).projector())

    def subst(self, f: Arrow, q: Subspace) -> Subspace:
        """Preimage: ker m for m = (project off q) f, the complement of range m^dagger."""
        off = np.eye(f.dst.dim, dtype=complex) - _over(f.dst, q).projector()
        rows = la.gram_schmidt_columns(la.dagger(off @ f.data))
        return Subspace.of_projector(
            f.src, np.eye(f.src.dim, dtype=complex) - rows @ la.dagger(rows))

    # ---- quotient / comprehension ----
    # The transposes decide their hom conditions at the Gram-Schmidt
    # cutoff, below which `subst` and `Subspace` already drop a direction.

    def quotient(self, X, p: Subspace) -> Construction:
        """Coordinates along an orthonormal basis w of the orthocomplement;
        a map killing p factors as f w."""
        w = self.ortho(X, p).basis
        obj = HilbSpace(w.shape[1])

        def transpose(data, Y):
            if p.rank and la.max_abs(data @ p.basis) > la.GS_THRESHOLD:
                raise HomConditionError("hilb: subspace is not inside the kernel")
            return data @ w

        return Construction(self, obj, Arrow(X, obj, la.dagger(w)), transpose, epi=True)

    def comprehension(self, X, p: Subspace) -> Construction:
        obj = HilbSpace(_over(X, p).rank)

        def transpose(data, Y):
            coords = la.dagger(p.basis) @ data
            if la.max_abs(data - p.basis @ coords) > la.GS_THRESHOLD:
                raise HomConditionError("hilb: image is not inside the subspace")
            return coords

        return Construction(self, obj, Arrow(obj, X, p.basis.copy()), transpose, epi=False)

    def cancels(self, f: Arrow, epi: bool) -> bool:
        """Exact, as all linear maps mediate: g after f is g.data @ f.data."""
        return la.full_rank(f.data, rows=epi)

    def assert_closed_form(self, X, p: Subspace) -> Arrow:
        return Arrow(X, X, _over(X, p).projector())

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
        if q.arrow.data.shape != la.dagger(c.arrow.data).shape:
            return 1.0
        return la.max_abs(q.arrow.data - la.dagger(c.arrow.data))

    # ---- serialization ----

    def object_to_json(self, X):
        return {"dim": X.dim}

    def pred_to_json(self, X, p: Subspace):
        return la.complex_to_json(p.basis)

    def arrow_to_json(self, f: Arrow):
        return la.complex_to_json(np.asarray(f.data, dtype=complex).tolist())
