"""Operator-algebra chain: finite direct sums of full complex matrix
algebras, effects as predicates, and completely positive subunital maps
running opposite to the chain arrows.

A chain arrow X -> Y stores the superoperator of the underlying linear
map on elements, which goes Y -> X: the matrix sends the vectorization of
a Y element to the vectorization of an X element.  Corner algebras (the
quotient and comprehension carriers) remember their parent and embedding
isometries, so carrier equality is decidable and the measurement branch
maps compose with everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .core import (
    Arrow,
    ChainInstance,
    ComprehensionResult,
    HomConditionError,
    Law,
    QuotientResult,
    ValidationError,
    check_size,
)
from . import vnlinalg as la
from .vnlinalg import np


@dataclass(frozen=True, eq=False)
class MatrixAlgebra:
    """Direct sum of full matrix algebras; an element is one complex
    n_i x n_i matrix per block.  corner, when present, is a pair
    (parent algebra, tuple of (parent block index, isometry columns))."""

    block_dims: tuple
    corner: object = None

    def __post_init__(self):
        for n in self.block_dims:
            check_size(n, "block dimension", 1)

    @property
    def vdim(self) -> int:
        return sum(n * n for n in self.block_dims)

    @cached_property
    def offsets(self) -> tuple:
        """Where each block starts in the vectorization, then vdim."""
        return tuple(accumulate((n * n for n in self.block_dims), initial=0))

    @cached_property
    def _unit(self) -> tuple:
        """one() and its vectorization, read-only: the blocks view it."""
        v = vec(self, [np.eye(n, dtype=complex) for n in self.block_dims])
        v.flags.writeable = False
        return unvec(self, v), v

    def one(self) -> tuple:
        return self._unit[0]

    def zero_elt(self) -> tuple:
        return tuple(np.zeros((n, n), dtype=complex) for n in self.block_dims)

    def __repr__(self):
        if not self.block_dims:
            return "0-alg"
        return " (+) ".join(f"M{n}" for n in self.block_dims)


def vec(A: MatrixAlgebra, elt) -> np.ndarray:
    if not A.block_dims:
        return np.zeros(0, dtype=complex)
    return np.concatenate([np.asarray(b, dtype=complex).reshape(-1) for b in elt])


def unvec(A: MatrixAlgebra, v: np.ndarray) -> tuple:
    return tuple(np.asarray(v[s:e], dtype=complex).reshape(n, n)
                 for n, s, e in zip(A.block_dims, A.offsets, A.offsets[1:]))


def basis_elements(A: MatrixAlgebra):
    """Matrix-unit elements in vectorization order."""
    for bi, n in enumerate(A.block_dims):
        for k in range(n):
            for l in range(n):
                elt = A.zero_elt()
                elt[bi][k, l] = 1.0
                yield elt


def superop_from_fn(src: MatrixAlgebra, dst: MatrixAlgebra, fn) -> np.ndarray:
    """Matrix of an element map dst -> src, as a chain arrow src -> dst
    stores it."""
    cols = [vec(src, fn(e)) for e in basis_elements(dst)]
    if not cols:
        return np.zeros((src.vdim, 0), dtype=complex)
    return np.column_stack(cols)


def kraus_superop(src: MatrixAlgebra, dst: MatrixAlgebra, terms) -> np.ndarray:
    """Matrix of the element map b -> (sum of K b_j K^dagger over the terms
    (i, j, K))_i, as a chain arrow src -> dst stores it.  vec is a
    row-major reshape, so vec(K b K^dagger) = (K kron conj K) vec(b)."""
    rows, cols = src.offsets, dst.offsets
    out = np.zeros((src.vdim, dst.vdim), dtype=complex)
    for i, j, K in terms:
        m, n = K.shape
        out[rows[i]:rows[i + 1], cols[j]:cols[j + 1]] += (
            K[:, None, :, None] * K.conj()[None, :, None, :]).reshape(m * m, n * n)
    return out


def elt_residual(a, b) -> float:
    return max((la.max_abs(x - y) for x, y in zip(a, b)), default=0.0)


def check_blocks(A: MatrixAlgebra, p) -> None:
    """Raise ValidationError unless p has one block of each of A's shapes;
    every operation on a predicate runs it."""
    if len(p) != len(A.block_dims):
        raise ValidationError("block count mismatch")
    for n, b in zip(A.block_dims, p):
        if np.shape(b) != (n, n):
            raise ValidationError(f"block shape {np.shape(b)} != ({n}, {n})")


def _effect_spectrum(b):
    """The spectrum (w, U) of an effect block, refused unless w lies in [0, 1]."""
    w, U = la.hermitian_eig(b)
    if w.size and (float(w[-1]) < -la.HERM_TOL or float(w[0]) > 1 + la.HERM_TOL):
        raise ValidationError(f"spectrum {w} leaves [0, 1]")
    return w, U


def op_norm(elt) -> float:
    """Largest eigenvalue magnitude over the blocks of a Hermitian element."""
    worst = 0.0
    for b in elt:
        w = la.hermitian_eigvals(b)
        if w.size:
            worst = max(worst, float(abs(w).max()))
    return worst


def spectral_norm(elt) -> float:
    """Largest singular value over the blocks; works for non-Hermitian
    elements such as a product of two effects."""
    worst = 0.0
    for b in elt:
        m = np.asarray(b, dtype=complex)
        if not m.size:
            continue
        w = la.hermitian_eigvals(m.conj().T @ m)
        if w.size:
            worst = max(worst, float(np.sqrt(max(w[0], 0.0))))
    return worst


class _Corner:
    """A corner pAp, from the spectrum (w in {0, 1}, U) of p in each block,
    presented as its own algebra plus the embedding data."""

    __slots__ = ("algebra", "isoms")

    def __init__(self, parent: MatrixAlgebra, proj_specs):
        isoms = []
        for i, spec in enumerate(proj_specs):
            V = la.gram_schmidt_columns(la.from_spectrum(spec))
            if V.shape[1] != int((spec[0] > 0.5).sum()):
                raise ValidationError("corner rank disagreement")
            if V.shape[1]:
                isoms.append((i, V))
        self.isoms = tuple(isoms)
        dims = tuple(V.shape[1] for _, V in isoms)
        if dims == parent.block_dims:
            self.algebra = parent
        else:
            self.algebra = MatrixAlgebra(dims, (parent, self.isoms))


def _case_cp_sanity(inst, rng, bounds):
    X = inst.rand_object(rng, bounds)
    p = inst.rand_pred(rng, X, bounds)
    Y = inst.rand_object(rng, bounds, like=X)
    q = inst.quotient(X, p)
    c = inst.comprehension(X, p)
    fq = inst.rand_hom(rng, X, p, q, Y, bounds)
    fc = inst.rand_hom(rng, X, p, c, Y, bounds)
    canonical = {
        "quotient_unit": q.unit,
        "comprehension_counit": c.counit,
        "assert": inst.assert_closed_form(X, p),
        "instrument": inst.instrument_closed_form(X, p),
        "quotient_transpose": q.transpose(fq),
        "comprehension_transpose": c.transpose(fc),
    }
    bad = {}
    worst = 0.0
    for label, arrow in canonical.items():
        ok_cp, report = inst.cp_check(arrow)
        sub = inst.subunital_defect(arrow)
        min_eig = report.get("min_eig")
        if min_eig is not None:
            worst = max(worst, -min_eig)
        worst = max(worst, sub)
        if not ok_cp or sub > inst.eq_tol:
            bad[label] = {"cp": report, "subunital_defect": sub}
    cpred = inst.rand_pred(rng, Y, bounds)
    dpred = inst.rand_pred(rng, Y, bounds)
    # Cauchy-Schwarz for cP maps, c* d = cd since effects are self-adjoint;
    # cd is generally non-Hermitian, hence the singular-value norm
    cd = tuple(cb @ db for cb, db in zip(cpred, dpred))
    cc = tuple(cb @ cb for cb in cpred)
    dd = tuple(db @ db for db in dpred)
    lhs = spectral_norm(inst.apply(fq, cd)) ** 2
    rhs = (spectral_norm(inst.apply(fq, cc))
           * spectral_norm(inst.apply(fq, dd)))
    cs_residual = max(0.0, lhs - rhs)
    ok = not bad and cs_residual <= inst.eq_tol
    return max(worst, cs_residual, 1.0 if bad else 0.0), None if ok else {
        "non_cp_maps": bad, "cauchy_schwarz_residual": cs_residual,
        "X": inst.object_to_json(X), "p": inst.pred_to_json(X, p)}


class VnChain(ChainInstance):
    """Finite-dimensional operator algebras; predicates are effects, the
    sharp ones projections, and the derived assert is the p-congruence."""

    name = "vn"
    description = "matrix algebras and completely positive subunital maps"
    eq_tol = 1e-9
    own_laws = {"cp-sanity": Law(
        "All canonical operator-algebra maps are completely positive "
        "(blockwise Choi matrices positive semidefinite) and subunital, "
        "and they obey the Cauchy-Schwarz bound "
        "|f(c d)|^2 <= |f(c c)| * |f(d d)| for effects c, d.", _case_cp_sanity)}
    laws = ChainInstance.laws + tuple(own_laws)
    default_cases = 40

    # ---- category ----

    def arrow(self, X, Y, superop) -> Arrow:
        superop = la.as_complex(superop)
        if superop.shape != (X.vdim, Y.vdim):
            raise ValidationError(
                f"superoperator shape {superop.shape} != ({X.vdim}, {Y.vdim})")
        return Arrow(X, Y, superop)

    def apply(self, f: Arrow, elt) -> tuple:
        one, one_vec = f.dst._unit
        return unvec(f.src, f.data @ (one_vec if elt is one else vec(f.dst, elt)))

    def identity(self, X) -> Arrow:
        return Arrow(X, X, np.eye(X.vdim, dtype=complex))

    def compose(self, g: Arrow, f: Arrow) -> Arrow:
        self.check_composable(g, f)
        return Arrow(f.src, g.dst, f.data @ g.data)

    def map_residual(self, f: Arrow, g: Arrow) -> float:
        if not (self.objects_equal(f.src, g.src) and self.objects_equal(f.dst, g.dst)):
            return 1.0
        return la.max_abs(f.data - g.data)

    def objects_equal(self, A, B) -> bool:
        if A is B:
            return True
        if A.block_dims != B.block_dims:
            return False
        ca, cb = A.corner, B.corner
        if (ca is None) != (cb is None):
            return False
        if ca is None:
            return True
        if not self.objects_equal(ca[0], cb[0]):
            return False
        if tuple(i for i, _ in ca[1]) != tuple(i for i, _ in cb[1]):
            return False
        return all(la.max_abs(va - vb) <= self.eq_tol
                   for (_, va), (_, vb) in zip(ca[1], cb[1]))

    # ---- fibre ----

    def top(self, X):
        return X.one()

    def bottom(self, X):
        return X.zero_elt()

    def pred_leq(self, X, p, q) -> bool:
        check_blocks(X, p)
        check_blocks(X, q)
        for pb, qb in zip(p, q):
            w = la.hermitian_eigvals(((qb - pb) + la.dagger(qb - pb)) / 2)
            if w.size and float(w[-1]) < -self.eq_tol:
                return False
        return True

    def pred_residual(self, X, p, q) -> float:
        check_blocks(X, p)
        check_blocks(X, q)
        return elt_residual(p, q)

    def ortho(self, X, p):
        check_blocks(X, p)
        return tuple(x - y for x, y in zip(X.one(), p))

    def ceil(self, X, p):
        check_blocks(X, p)
        return tuple(la.support_proj(b) for b in p)

    def floor(self, X, p):
        check_blocks(X, p)
        return tuple(la.unit_proj(b) for b in p)

    def subst(self, f: Arrow, q):
        # the inner ortho checks q against f.dst
        return self.ortho(f.src, self.apply(f, self.ortho(f.dst, q)))

    # ---- quotient / comprehension ----

    def quotient(self, X, p) -> QuotientResult:
        """The corner of the support of s = 1 - p, with unit
        a -> sqrt(s) a sqrt(s).  A map f with f(1) <= s transposes by
        conjugating with the pseudoinverse roots and compressing.  All
        three come from one spectrum per block of s."""
        s = self.ortho(X, p)
        specs = [_effect_spectrum(b) for b in s]
        corner = _Corner(X, [la.support_spectrum(e) for e in specs])
        root_specs = [la.sqrt_spectrum(e) for e in specs]
        unit = Arrow(X, corner.algebra, kraus_superop(X, corner.algebra, [
            (i, c, la.from_spectrum(root_specs[i]) @ V)
            for c, (i, V) in enumerate(corner.isoms)]))

        compress = None  # built at the first transpose, once

        def transpose(data, Y):
            nonlocal compress
            img_one = self.apply(Arrow(X, Y, data), Y.one())
            for sb, ub in zip(s, img_one):
                w = la.hermitian_eigvals(((sb - ub) + la.dagger(sb - ub)) / 2)
                if w.size and float(w[-1]) < -self.eq_tol:
                    raise HomConditionError(
                        f"vn: image of 1 exceeds the complement by {-float(w[-1]):.3g}")
            if compress is None:
                compress = kraus_superop(corner.algebra, X, [
                    (c, i, la.dagger(V) @ la.from_spectrum(la.pinv_spectrum(root_specs[i])))
                    for c, (i, V) in enumerate(corner.isoms)])
            return compress @ data

        return QuotientResult(self, corner.algebra, unit, transpose, self.precompose(unit))

    def comprehension(self, X, p) -> ComprehensionResult:
        """The corner of the eigenvalue-1 projection of p; a map giving p
        and 1 the same image transposes through the embedding."""
        check_blocks(X, p)
        corner = _Corner(X, [la.unit_spectrum(_effect_spectrum(b)) for b in p])
        embed = kraus_superop(X, corner.algebra, [
            (i, c, V) for c, (i, V) in enumerate(corner.isoms)])

        def transpose(data, Y):
            f = Arrow(Y, X, data)
            gap = elt_residual(self.apply(f, p), self.apply(f, X.one()))
            if gap > self.eq_tol:
                raise HomConditionError(
                    f"vn: predicate and 1 have images {gap:.3g} apart")
            return data @ embed

        # Compression is the adjoint of the embedding, superoperators included.
        counit = Arrow(corner.algebra, X, la.dagger(embed))
        return ComprehensionResult(self, counit.src, counit, transpose, self.postcompose(counit))

    def cancels(self, f: Arrow, epi: bool) -> bool:
        """g after f is f.data @ g.data.  Exact on the subunital CP maps:
        composing with f commutes with L -> L(.^dagger)^dagger, so a nonzero
        kernel holds a Hermiticity-preserving L, and as those maps have
        interior among such L, two of them differ by L with one composite."""
        return la.full_rank(f.data, rows=not epi)

    # ---- assert / instrument ----

    def assert_closed_form(self, X, p) -> Arrow:
        check_blocks(X, p)
        return Arrow(X, X, kraus_superop(X, X, [
            (i, i, la.from_spectrum(la.sqrt_spectrum(_effect_spectrum(b))))
            for i, b in enumerate(p)]))

    def instrument_closed_form(self, X, p) -> Arrow:
        return self.instrument_combine(
            X,
            self.assert_closed_form(X, p),
            self.assert_closed_form(X, self.ortho(X, p)))

    def instrument_combine(self, X, branch_pass: Arrow, branch_fail: Arrow) -> Arrow:
        """Both branches side by side, refused unless together they map
        the unit into [0, 1]: branches that overlap do not."""
        dd = MatrixAlgebra(X.block_dims + X.block_dims)
        out = Arrow(X, dd, np.hstack([branch_pass.data, branch_fail.data]))
        defect = self.subunital_defect(out)
        if defect > self.eq_tol:
            raise ValidationError(f"vn: the branches combine {defect:.3g} beyond subunital")
        return out

    def codiagonal(self, X) -> Arrow:
        dd = MatrixAlgebra(X.block_dims + X.block_dims)
        eye = np.eye(X.vdim, dtype=complex)
        return Arrow(dd, X, np.vstack([eye, eye]))

    def block_scalar_defect(self, X, p) -> float:
        """How far an effect is from being a scalar in every block; the
        instrument is side-effect free exactly when this is ~0."""
        worst = 0.0
        for n, b in zip(X.block_dims, p):
            t = np.trace(b) / n
            worst = max(worst, la.max_abs(b - t * np.eye(n)))
        return worst

    def predicts_side_effect_free(self, X, p) -> bool:
        return self.block_scalar_defect(X, p) <= self.eq_tol

    # ---- complete positivity ----

    def cp_check(self, f: Arrow):
        """Blockwise Choi test of the underlying element map.  Returns
        (ok, report) where the report carries the most negative eigenvalue
        and the (src block, dst block) pair it came from."""
        X, Y = f.src, f.dst
        rows, cols = X.offsets, Y.offsets
        worst = None
        for j, n in enumerate(Y.block_dims):
            for i, m in enumerate(X.block_dims):
                # choi[(k, a), (l, b)] is entry (a, b) of block i of the
                # image of the matrix unit E_kl in block j
                blk = f.data[rows[i]:rows[i + 1], cols[j]:cols[j + 1]]
                choi = blk.reshape(m, m, n, n).transpose(2, 0, 3, 1).reshape(n * m, n * m)
                defect = la.max_abs(choi - la.dagger(choi))
                if defect > self.eq_tol:
                    return False, {"src_block": i, "dst_block": j,
                                   "min_eig": None, "herm_defect": defect}
                w = la.hermitian_eigvals((choi + la.dagger(choi)) / 2)
                low = float(w[-1]) if w.size else 0.0
                if worst is None or low < worst[0]:
                    worst = (low, i, j)
        if worst is None:
            return True, {"min_eig": 0.0, "src_block": None, "dst_block": None}
        ok = worst[0] >= -self.eq_tol
        return ok, {"min_eig": worst[0], "src_block": worst[1], "dst_block": worst[2]}

    def subunital_defect(self, f: Arrow) -> float:
        """How far f(1) pokes above 1 or below 0."""
        u = self.apply(f, f.dst.one())
        worst = 0.0
        for b in u:
            w = la.hermitian_eigvals((b + la.dagger(b)) / 2)
            worst = max(worst, float(w[0]) - 1.0, -float(w[-1]))
        return max(worst, 0.0)

    # ---- sampling ----

    def rand_object(self, rng, bounds, like=None) -> MatrixAlgebra:
        k = rng.randint(1, bounds.get("max_blocks", 2))
        dims = tuple(rng.randint(1, bounds.get("max_block_dim", 3))
                     for _ in range(k))
        return MatrixAlgebra(dims)

    def rand_pred(self, rng, X, bounds=None):
        mode = rng.random()
        blocks = []
        for n in X.block_dims:
            if mode < 0.05:
                blocks.append(np.zeros((n, n), dtype=complex))
            elif mode < 0.10:
                blocks.append(np.eye(n, dtype=complex))
            elif mode < 0.40:
                h = la.rand_complex(rng, n, n)
                _, u = la.hermitian_eig((h + la.dagger(h)) / 2)
                d = np.diag([float(rng.randint(0, 1)) for _ in range(n)])
                pr = u @ d.astype(complex) @ la.dagger(u)
                blocks.append((pr + la.dagger(pr)) / 2)
            else:
                g = la.rand_complex(rng, n, n)
                a = la.dagger(g) @ g
                lam = float(la.hermitian_eigvals(a)[0])
                t = rng.random()
                b = a * (t / lam) if lam > 1e-12 else np.zeros((n, n), complex)
                blocks.append((b + la.dagger(b)) / 2)
        return tuple(blocks)

    def rand_arrow(self, rng, X, Y, bounds=None) -> Arrow:
        terms = [(i, j, la.rand_complex(rng, m, n))
                 for i, m in enumerate(X.block_dims)
                 for j, n in enumerate(Y.block_dims)
                 for _ in range(rng.randint(0, 2))]
        s = kraus_superop(X, Y, terms)
        f = Arrow(X, Y, s)
        lam = op_norm(self.apply(f, Y.one()))
        if lam > 1e-12:
            t = 0.3 + 0.7 * rng.random()
            f = Arrow(X, Y, s * (t / max(lam, t)))
        return f

    def rand_hom(self, rng, X, p, built, Y, bounds) -> Arrow:
        """For the quotient, a random map after assert(1 - p), drawn
        without the unit; for the comprehension, the default."""
        if not isinstance(built, QuotientResult):
            return super().rand_hom(rng, X, p, built, Y, bounds)
        f0 = self.rand_arrow(rng, X, Y)
        return self.compose(f0, self.assert_closed_form(X, self.ortho(X, p)))

    # ---- serialization ----

    def object_to_json(self, X):
        return list(X.block_dims)

    def pred_to_json(self, X, p):
        return [la.complex_to_json(np.asarray(b)) for b in p]

    def arrow_to_json(self, f: Arrow):
        return la.complex_to_json(np.asarray(f.data, dtype=complex).tolist())
