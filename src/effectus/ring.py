"""Ring chain: finite products of modular-integer rings, idempotents as
predicates.

Chain arrows point opposite to the underlying ring maps: an arrow X -> Y
carries a table sending each element of Y to an element of X, and that
table must be additive and multiplicative (unit preservation is not
required, only that the image of 1 is idempotent, which multiplicativity
already forces).  The table is stored as the tuple of the images of Y's
elements in `Y.elements()` order; `RingChain.arrow` encodes an element
dict and `RingChain.table` decodes it.

Corner rings (ideals generated by an idempotent) serve as both quotient
and comprehension carriers; their elements are elements of the parent, so
the coincidence of the two carriers is literal object identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from math import gcd
from operator import add, mod, mul, neg

from .core import (
    Arrow,
    ChainInstance,
    Construction,
    HomConditionError,
    Law,
    ValidationError,
    atom_key,
    atom_to_json,
    check_size,
    make_arrow,
    picker,
)


class FiniteRing:
    """Protocol for the concrete ring classes below: commutative, unital,
    elements hashable and totally ordered by atom_key.  `zero`, `one`
    and the elements are stored when the ring is built, and `position`
    maps each element to its place in `elements()`."""

    zero: object
    one: object

    def _store(self, elts: tuple, zero, one) -> None:
        object.__setattr__(self, "_elts", elts)
        object.__setattr__(self, "position", dict(zip(elts, range(len(elts)))))
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "one", one)

    def elements(self) -> tuple:
        return self._elts

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def __len__(self) -> int:
        return len(self.elements())


def _element(R: FiniteRing, e):
    """e, refused unless it is an element of R."""
    if e not in R.position:
        raise ValidationError(f"{e!r} is not an element of {R!r}")
    return e


@dataclass(frozen=True)
class ZProductRing(FiniteRing):
    """Product of Z_m factors; elements are residue tuples.  An empty
    moduli tuple gives the zero ring, whose only element is ()."""

    moduli: tuple

    def __post_init__(self):
        for m in self.moduli:
            check_size(m, "modulus", 2)
        # product() of ranges is already in atom_key order
        self._store(tuple(product(*(range(m) for m in self.moduli))),
                    (0,) * len(self.moduli), (1,) * len(self.moduli))

    def add(self, a, b):
        return tuple(map(mod, map(add, a, b), self.moduli))

    def neg(self, a):
        return tuple(map(mod, map(neg, a), self.moduli))

    def mul(self, a, b):
        return tuple(map(mod, map(mul, a, b), self.moduli))

    def __repr__(self):
        if not self.moduli:
            return "Z0"
        return " x ".join(f"Z{m}" for m in self.moduli)


@dataclass(frozen=True)
class IdealRing(FiniteRing):
    """The ideal e*R of a parent ring, a unital ring with unit e.
    Elements are parent elements, so inclusion into the parent is the
    identity on values."""

    parent: FiniteRing
    unit: object

    def __post_init__(self):
        R, e = self.parent, _element(self.parent, self.unit)
        if R.mul(e, e) != e:
            raise ValidationError(f"{e!r} is not idempotent in {R!r}")
        self._store(tuple(sorted({R.mul(e, x) for x in R.elements()}, key=atom_key)),
                    R.zero, e)

    def add(self, a, b):
        return self.parent.add(a, b)

    def neg(self, a):
        return self.parent.neg(a)

    def mul(self, a, b):
        return self.parent.mul(a, b)

    def __repr__(self):
        return f"({self.unit!r}){self.parent!r}"


@dataclass(frozen=True)
class PairRing(FiniteRing):
    """Binary product of two rings; elements are (left, right) pairs."""

    left: FiniteRing
    right: FiniteRing

    def __post_init__(self):
        # the product of two atom_key-sorted factors is atom_key-sorted
        self._store(tuple(product(self.left.elements(), self.right.elements())),
                    (self.left.zero, self.right.zero), (self.left.one, self.right.one))

    def add(self, a, b):
        return (self.left.add(a[0], b[0]), self.right.add(a[1], b[1]))

    def neg(self, a):
        return (self.left.neg(a[0]), self.right.neg(a[1]))

    def mul(self, a, b):
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def __repr__(self):
        return f"({self.left!r}) x ({self.right!r})"


def idempotents(R: FiniteRing) -> tuple:
    return tuple(e for e in R.elements() if R.mul(e, e) == e)


def canonical_iso(R: FiniteRing):
    """Identify R with a product of Z_m (m >= 2): returns the normal form
    and the translation dict (element -> residue tuple)."""
    if isinstance(R, ZProductRing):
        return R, {x: x for x in R.elements()}
    if isinstance(R, PairRing):
        lnf, lto = canonical_iso(R.left)
        rnf, rto = canonical_iso(R.right)
        nf = ZProductRing(lnf.moduli + rnf.moduli)
        return nf, {(a, b): lto[a] + rto[b]
                    for a in R.left.elements() for b in R.right.elements()}
    if isinstance(R, IdealRing):
        pnf, pto = canonical_iso(R.parent)
        u = pto[R.unit]
        orders = [m // gcd(c, m) for c, m in zip(u, pnf.moduli)]
        kept = [i for i, d in enumerate(orders) if d > 1]
        nf = ZProductRing(tuple(orders[i] for i in kept))
        return nf, {x: tuple(pto[x][i] % orders[i] for i in kept)
                    for x in R.elements()}
    raise ValidationError(f"unknown ring class {type(R).__name__}")


def canonical_moduli(R: FiniteRing) -> tuple:
    return canonical_iso(R)[0].moduli


def enumerate_hom_tables(Y: FiniteRing, X: FiniteRing):
    """All additive multiplicative maps Y -> X (subunital by nature),
    each yielded as the tuple of its images of Y's elements, in order.

    Writing Y as a product of Z_n factors, such a map is determined by an
    assignment of pairwise orthogonal idempotents c_j of X with n_j*c_j = 0,
    one per factor; the map sends a residue tuple to sum_j c_j * y_j.

    Each idempotent's multiples 0, c, ..., n_j*c are built once per factor,
    by repeated addition, and every table entry reads its terms from them."""
    nf, to_nf = canonical_iso(Y)
    idems = idempotents(X)
    # partial assignments (the multiples of c_0, ..., c_j), each with the
    # part of the unit it leaves free, extended one factor at a time in the
    # order of idems, which keeps them in lexicographic order
    partial = [((), X.one)]
    for n_j in nf.moduli:
        multiples = []
        for c in idems:
            m = [X.zero]
            for _ in range(n_j):
                m.append(X.add(m[-1], c))
            if m[n_j] == X.zero:
                multiples.append((c, m))
        partial = [(chosen + (m,), X.sub(remaining, c))
                   for chosen, remaining in partial for c, m in multiples
                   if X.mul(c, remaining) == c]

    zero = X.zero
    for ms, _ in partial:
        table = []
        for y in Y.elements():
            # the terms c_j * y_j with y_j nonzero, summed
            terms = [m[r] for m, r in zip(ms, to_nf[y]) if r]
            table.append(reduce(X.add, terms) if terms else zero)
        yield tuple(table)


def rings_up_to(max_order: int):
    """All products of Z_m (canonical non-decreasing moduli) of order at
    most max_order, the zero ring included."""
    out, todo = [], [((), 1)]
    while todo:
        moduli, order = todo.pop()
        out.append(moduli)
        low = moduli[-1] if moduli else 2
        todo += [(moduli + (m,), order * m) for m in range(low, max_order // order + 1)]
    return [ZProductRing(t) for t in sorted(out)]


@dataclass(frozen=True, eq=False)
class Decomposition:
    """The splitting R ~ eR x (1-e)R induced by an idempotent e."""

    pair: PairRing
    split: Arrow  # chain pair -> R; underlying x |-> (ex, (1-e)x)
    merge: Arrow  # chain R -> pair; underlying (a, b) |-> a + b


@lru_cache(maxsize=8192)
def _hom_tables(Y: FiniteRing, X: FiniteRing) -> tuple:
    """enumerate_hom_tables(Y, X) as a tuple, cached: samplers and
    enumerations ask for the same hom sets over and over.  The bound
    sits above the 3,884 ring pairs that `effectus check --seed 1` and
    the acceptance sweeps store when run in one process."""
    return tuple(enumerate_hom_tables(Y, X))


def _check_ring_decompose(inst, X, p):
    dec = inst.decompose(X, p)
    r1 = inst.map_residual(inst.compose(dec.split, dec.merge), inst.identity(X))
    r2 = inst.map_residual(inst.compose(dec.merge, dec.split),
                           inst.identity(dec.pair))
    res = max(r1, r2)
    return res, None if res <= inst.eq_tol else {
        "split_then_merge": r1, "merge_then_split": r2}


class RingChain(ChainInstance):
    """Products of modular-integer rings with reversed subunital ring maps."""

    name = "ring"
    description = "finite commutative rings, arrows opposite to ring maps"
    own_laws = {"ring-decompose": Law.on_fibre(
        "An idempotent e splits a commutative ring into the product of its "
        "two corner ideals, with x -> (ex, (1-e)x) and addition as mutually "
        "inverse ring maps.", _check_ring_decompose)}
    laws = ChainInstance.laws + tuple(own_laws)
    default_cases = 40
    default_sweep = {"max_order": 8}

    # ---- category ----

    def _check_table(self, X: FiniteRing, Y: FiniteRing, table: dict) -> None:
        ys = Y.elements()
        if set(table) != set(ys):
            raise ValidationError("table keys must be exactly the target ring")
        xs = set(X.elements())
        for y, v in table.items():
            if v not in xs:
                raise ValidationError(f"value {v!r} for {y!r} not in source ring")
        for a in ys:
            for b in ys:
                if table[Y.add(a, b)] != X.add(table[a], table[b]):
                    raise ValidationError(f"table not additive at {a!r}, {b!r}")
                if table[Y.mul(a, b)] != X.mul(table[a], table[b]):
                    raise ValidationError(f"table not multiplicative at {a!r}, {b!r}")

    def arrow(self, X, Y, table: dict) -> Arrow:
        self._check_table(X, Y, table)
        return Arrow(X, Y, tuple(table[y] for y in Y.elements()))

    def table(self, f: Arrow) -> dict:
        """The element table of f: each element of f.dst with its image."""
        return dict(zip(f.dst.elements(), f.data))

    def identity(self, X) -> Arrow:
        return Arrow(X, X, X.elements())

    def compose(self, g: Arrow, f: Arrow) -> Arrow:
        self.check_composable(g, f)
        pos, data = f.dst.position, f.data
        return make_arrow((f.src, g.dst, tuple(data[pos[y]] for y in g.data)))

    def precompose(self, f: Arrow):
        """Each entry of g read through f's element table."""
        image = self.table(f).__getitem__
        return lambda d, Y: tuple(map(image, d))

    def postcompose(self, f: Arrow):
        """g's table read at f's entries, all picked at once."""
        at = picker([f.src.position[x] for x in f.data])
        return lambda d, Y: at(d)

    # ---- fibre: idempotents ----

    def top(self, X):
        return X.one

    def bottom(self, X):
        return X.zero

    def pred_leq(self, X, p, q) -> bool:
        return X.mul(_element(X, p), _element(X, q)) == p

    def pred_residual(self, X, p, q) -> float:
        return 0.0 if _element(X, p) == _element(X, q) else 1.0

    def ortho(self, X, p):
        return X.sub(X.one, _element(X, p))

    def iter_preds(self, X):
        return iter(idempotents(X))

    def subst(self, f: Arrow, q):
        # the elements of f.src that f's table gives q and 1 of f.dst
        X, Y, pos = f.src, f.dst, f.dst.position
        return X.add(f.data[pos[_element(Y, q)]], X.sub(X.one, f.data[pos[Y.one]]))

    # ---- quotient / comprehension ----

    def quotient(self, X, p) -> Construction:
        """The corner of the complement; a ring map sending 1 orthogonal
        to p lands in it and transposes to the same table."""
        obj = IdealRing(X, self.ortho(X, p))

        def transpose(data, Y) -> tuple:
            img_one = data[Y.position[Y.one]]
            if X.mul(p, img_one) != X.zero:
                raise HomConditionError(
                    f"ring: image of 1 is {img_one!r}, not orthogonal to {p!r}"
                )
            return data

        return Construction(self, obj, Arrow(X, obj, obj.elements()), transpose, epi=True)

    def comprehension(self, X, p) -> Construction:
        """The corner of p; a ring map giving p and 1 the same image
        transposes to its restriction to the corner."""
        obj = IdealRing(X, p)
        at_kept, pos = picker([X.position[c] for c in obj.elements()]), X.position

        def transpose(data, Y) -> tuple:
            img_one, img_p = data[pos[X.one]], data[pos[p]]
            if img_p != img_one:
                raise HomConditionError(
                    f"ring: {p!r} and 1 have distinct images {img_p!r}, {img_one!r}"
                )
            return at_kept(data)

        counit = Arrow(obj, X, tuple(X.mul(p, x) for x in X.elements()))
        return Construction(self, obj, counit, transpose, epi=False)

    def cancels(self, f: Arrow, epi: bool) -> bool:
        """A sufficient test on f's table.  Epi: (g after f) reads f's
        table at g's entries, so a one-to-one table gives them back.
        Mono: (f after g) reads g's table at f's entries, so a table
        reaching every element of f.src gives all of g's table."""
        return len(set(f.data)) == (len(f.data) if epi else len(f.src))

    # ---- assert / instrument / decomposition ----
    # PairRing(X, X) lists its pairs (a, b) in product order, so a table
    # over it is read off the product of two tables over X.

    def assert_closed_form(self, X, p) -> Arrow:
        _element(X, p)
        return Arrow(X, X, tuple(X.mul(p, x) for x in X.elements()))

    def instrument_closed_form(self, X, p) -> Arrow:
        dd = PairRing(X, X)
        q = self.ortho(X, p)
        table = tuple(X.add(X.mul(p, a), X.mul(q, b)) for a, b in dd.elements())
        return Arrow(X, dd, table)

    def instrument_combine(self, X, branch_pass: Arrow, branch_fail: Arrow) -> Arrow:
        dd = PairRing(X, X)
        table = tuple(X.add(a, b) for a, b in product(branch_pass.data, branch_fail.data))
        return Arrow(X, dd, table)

    def codiagonal(self, X) -> Arrow:
        dd = PairRing(X, X)
        return Arrow(dd, X, tuple((x, x) for x in X.elements()))

    def decompose(self, X, p) -> Decomposition:
        q = self.ortho(X, p)
        pair = PairRing(IdealRing(X, p), IdealRing(X, q))
        split = Arrow(pair, X, tuple((X.mul(p, x), X.mul(q, x)) for x in X.elements()))
        merge = Arrow(X, pair, tuple(X.add(a, b) for a, b in pair.elements()))
        return Decomposition(pair, split, merge)

    # ---- sampling and enumeration ----

    def rand_object(self, rng, bounds, like=None) -> FiniteRing:
        max_order = bounds.get("max_order", 24)
        moduli = []
        prod_ = 1
        while True:
            opts = [m for m in range(2, 10) if prod_ * m <= max_order]
            if not opts or (moduli and rng.random() < 0.5):
                break
            m = rng.choice(opts)
            moduli.append(m)
            prod_ *= m
        return ZProductRing(tuple(sorted(moduli)))

    def rand_pred(self, rng, X, bounds):
        return rng.choice(list(idempotents(X)))

    def rand_arrow(self, rng, X, Y, bounds) -> Arrow:
        return Arrow(X, Y, rng.choice(_hom_tables(Y, X)))

    def count_arrows(self, X, Y) -> int:
        return len(_hom_tables(Y, X))

    def iter_arrows(self, X, Y):
        for table in _hom_tables(Y, X):
            yield make_arrow((X, Y, table))

    def iter_objects(self, bounds):
        return iter(rings_up_to(bounds.get("max_order", 12)))

    # ---- serialization ----

    def object_to_json(self, X):
        if isinstance(X, ZProductRing):
            return list(X.moduli)
        if isinstance(X, IdealRing):
            return {"kind": "ideal", "parent": self.object_to_json(X.parent),
                    "unit": atom_to_json(X.unit)}
        if isinstance(X, PairRing):
            return {"kind": "pair", "left": self.object_to_json(X.left),
                    "right": self.object_to_json(X.right)}
        return repr(X)

    def pred_to_json(self, X, p):
        return atom_to_json(p)

    def arrow_to_json(self, f: Arrow):
        return [[atom_to_json(y), atom_to_json(v)]
                for y, v in zip(f.dst.elements(), f.data)]
