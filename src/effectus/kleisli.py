"""Finite sets with the Kleisli arrows of three monads on X + 1.

An arrow X -> Y sends each atom of X to an image over Y + 1, where the
marker * stands for abort:

  * ``sets``: the lift monad; an image is an atom of Y or *,
  * ``nondet``: the non-empty powerset monad; a non-empty set of atoms
    of Y and/or *,
  * ``dist``: the subdistribution monad; rational weights on Y, the
    missing mass on *.

Predicates are read as values in [0, 1] (a subset is the 0/1 fuzzy
predicate), so one construction serves all three.  The quotient of p
keeps each atom x with weight 1 - p(x) (carrier: the atoms where p < 1)
and the comprehension restricts to the atoms where p = 1; for subsets the
quotient of P literally is the comprehension of its complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .core import (
    STAR,
    Arrow,
    ChainInstance,
    ComprehensionResult,
    HomConditionError,
    QuotientResult,
    ValidationError,
    atom_key,
    atom_to_json,
)

ZERO = Fraction(0)
ONE = Fraction(1)


# ---- value types ----------------------------------------------------


@dataclass(frozen=True)
class FiniteSet:
    """Sorted, duplicate-free tuple of atoms (ints, strings, or tuples)."""

    atoms: tuple
    # atom -> position in `atoms`
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        atoms = tuple(sorted(self.atoms, key=atom_key))
        for a, b in zip(atoms, atoms[1:]):
            if a == b:
                raise ValidationError(f"duplicate atom {a!r}")
        if "*" in atoms or STAR in atoms:
            raise ValidationError("the marker * cannot be an atom")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_index", dict(zip(atoms, range(len(atoms)))))

    def __contains__(self, a) -> bool:
        return a in self._index

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __repr__(self):
        return "{" + ", ".join(repr(a) for a in self.atoms) + "}"


def complement(X: FiniteSet, P: FiniteSet) -> FiniteSet:
    return FiniteSet(tuple(a for a in X if a not in P))


def tagged_double(X: FiniteSet) -> FiniteSet:
    """X + X with outcome tags: (1, x) for the first summand, (2, x) for
    the second."""
    return FiniteSet(tuple((1, a) for a in X) + tuple((2, a) for a in X))


def _frac(v) -> Fraction:
    if isinstance(v, bool):
        raise ValidationError("weights must be rationals, not bools")
    return Fraction(v)


def frac_to_json(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


@dataclass(frozen=True)
class SubDist:
    """Subdistribution on a finite set: sparse map atom -> positive weight
    with total mass at most 1.  Weight on * is the 1 - total remainder."""

    weights: tuple  # sorted ((atom, Fraction), ...), strictly positive

    def __post_init__(self):
        pairs = [(a, _frac(w)) for a, w in self.weights]
        pairs = tuple(sorted(((a, w) for a, w in pairs if w != 0),
                             key=lambda aw: atom_key(aw[0])))
        total = ZERO
        for a, w in pairs:
            if w < 0:
                raise ValidationError(f"negative weight {w} at {a!r}")
            total += w
        if total > 1:
            raise ValidationError(f"total mass {total} exceeds 1")
        object.__setattr__(self, "weights", pairs)

    def weight(self, a) -> Fraction:
        for b, w in self.weights:
            if b == a:
                return w
        return ZERO

    @property
    def mass(self) -> Fraction:
        return sum((w for _, w in self.weights), ZERO)

    @property
    def star_weight(self) -> Fraction:
        return ONE - self.mass

    def __repr__(self):
        parts = [f"{w}|{a!r}>" for a, w in self.weights]
        rest = self.star_weight
        if rest:
            parts.append(f"{rest}|*>")
        return " + ".join(parts) if parts else "0"


def dirac(a) -> SubDist:
    return SubDist(((a, ONE),))


@dataclass(frozen=True)
class FuzzyPred:
    """Total table atom -> rational in [0, 1]."""

    table: tuple  # sorted ((atom, Fraction), ...), one entry per carrier atom

    def __post_init__(self):
        pairs = tuple(sorted(((a, _frac(v)) for a, v in self.table),
                             key=lambda av: atom_key(av[0])))
        for a, v in pairs:
            if not (0 <= v <= 1):
                raise ValidationError(f"predicate value {v} at {a!r} outside [0, 1]")
        object.__setattr__(self, "table", pairs)

    def value(self, a) -> Fraction:
        for b, v in self.table:
            if b == a:
                return v
        raise ValidationError(f"atom {a!r} not in predicate table")

    def __repr__(self):
        return "{" + ", ".join(f"{a!r}: {v}" for a, v in self.table) + "}"


def fuzzy(X: FiniteSet, mapping) -> FuzzyPred:
    get = mapping.get if hasattr(mapping, "get") else mapping
    return FuzzyPred(tuple((a, get(a)) for a in X))


# ---- the construction -----------------------------------------------


class KleisliChain(ChainInstance):
    """Finite sets with the Kleisli arrows of a monad T on X + 1: a table
    maps each atom of the source to an image in T(target + 1).

    Every chain operation is written once here.  A subclass supplies T's
    images d, e: `_eta(a)` (a for certain), `_bind(d, k)` (Kleisli
    extension, k maps atoms to images), `_scale(d, w)` (mass times w, the
    rest aborting), `_plus(d, e)` (disjoint sum), `_expect(d, q)` (value of
    q under d, abort counting 1), `_mass(d)` (weight not on *), `_support(d)`,
    `_distance(d, e)`, `_as_image(x, d)` (checked image of x), `_images(Y)`
    (all images, None if infinitely many), `_rand_image(rng, bounds, atoms,
    cap)` (mass at most cap) and `_image_to_json(d)`; and its predicates:
    `_val(p, a)` (value of p at a) and `_pred(X, value)`."""

    exact = True
    has_ortho = True
    has_instrument = True

    # ---- category ----

    def arrow(self, X: FiniteSet, Y: FiniteSet, table: dict) -> Arrow:
        if set(table) != set(X.atoms):
            raise ValidationError("table keys must be exactly the source atoms")
        table = {x: self._as_image(x, d) for x, d in table.items()}
        for x, d in table.items():
            for y in self._support(d):
                if y not in Y:
                    raise ValidationError(f"value {y!r} for {x!r} not in target")
        return Arrow(X, Y, table)

    def identity(self, X: FiniteSet) -> Arrow:
        return Arrow(X, X, {a: self._eta(a) for a in X})

    def compose(self, g: Arrow, f: Arrow) -> Arrow:
        self.check_composable(g, f)
        bind, k = self._bind, g.data
        return Arrow(f.src, g.dst, {x: bind(d, k) for x, d in f.data.items()})

    def map_residual(self, f: Arrow, g: Arrow) -> float:
        if f.src != g.src or f.dst != g.dst:
            return 1.0
        if f.data == g.data:
            return 0.0
        return float(max(self._distance(f.data[x], g.data[x]) for x in f.src))

    def objects_equal(self, A, B) -> bool:
        return A == B

    # ---- fibre and substitution ----

    def top(self, X):
        return self._pred(X, lambda a: ONE)

    def bottom(self, X):
        return self._pred(X, lambda a: ZERO)

    def pred_leq(self, X, p, q) -> bool:
        val = self._val
        return all(val(p, a) <= val(q, a) for a in X)

    def pred_residual(self, X, p, q) -> float:
        val = self._val
        return float(max((abs(val(p, a) - val(q, a)) for a in X), default=0))

    def ortho(self, X, p):
        return self._pred(X, lambda a: 1 - self._val(p, a))

    def ceil(self, X, p):
        return self._pred(X, lambda a: ONE if self._val(p, a) > 0 else ZERO)

    def floor(self, X, p):
        return self._pred(X, lambda a: ONE if self._val(p, a) == 1 else ZERO)

    def subst(self, f: Arrow, q):
        expect, data = self._expect, f.data
        return self._pred(f.src, lambda x: expect(data[x], q))

    # ---- quotient / comprehension ----

    def _certain(self, X, p) -> FiniteSet:
        """The atoms where p = 1: the comprehension carrier."""
        return FiniteSet(tuple(a for a in X if self._val(p, a) == 1))

    def quotient(self, X, p) -> QuotientResult:
        """The carrier is the atoms where p < 1, and the unit keeps each
        atom x with weight 1 - p(x) and aborts otherwise.  The transpose
        divides that weight back out: it requires f to put mass at most
        1 - p(x) on atoms at every x, so atoms where p = 1, outside the
        carrier, must abort entirely."""
        keep = {x: 1 - self._val(p, x) for x in X}
        obj = FiniteSet(tuple(x for x in X if keep[x]))

        def transpose(f: Arrow) -> Arrow:
            for x in X:
                if self._mass(f.data[x]) > keep[x]:
                    raise HomConditionError(f"{self.name}: mass {self._mass(f.data[x])} "
                                            f"at {x!r} exceeds 1 - p = {keep[x]}")
            return Arrow(obj, f.dst, {x: f.data[x] if keep[x] == 1
                                      else self._scale(f.data[x], 1 / keep[x])
                                      for x in obj})

        unit = {x: self._scale(self._eta(x), keep[x]) for x in X}
        return QuotientResult(obj, Arrow(X, obj, unit), transpose)

    def comprehension(self, X, p) -> ComprehensionResult:
        """A map out of truth lands in p exactly when all its mass sits
        where p = 1, so the carrier is those atoms, the counit their
        inclusion, and the transpose the same table with the carrier as
        target."""
        obj = self._certain(X, p)

        def transpose(f: Arrow) -> Arrow:
            for y, d in f.data.items():
                for x in self._support(d):
                    if x not in obj:
                        raise HomConditionError(f"{self.name}: image of {y!r} reaches "
                                                f"{x!r}, outside the comprehension carrier")
            return Arrow(f.src, obj, dict(f.data))

        counit = Arrow(obj, X, {x: self._eta(x) for x in obj})
        return ComprehensionResult(obj, counit, transpose)

    # ---- assert / instrument ----

    def assert_closed_form(self, X, p) -> Arrow:
        return Arrow(X, X, {x: self._scale(self._eta(x), self._val(p, x)) for x in X})

    def instrument_closed_form(self, X, p) -> Arrow:
        table = {}
        for x in X:
            v = self._val(p, x)
            table[x] = self._plus(self._scale(self._eta((1, x)), v),
                                  self._scale(self._eta((2, x)), 1 - v))
        return Arrow(X, tagged_double(X), table)

    def instrument_combine(self, X, branch_pass: Arrow, branch_fail: Arrow) -> Arrow:
        first = {a: self._eta((1, a)) for a in X}
        second = {a: self._eta((2, a)) for a in X}
        table = {x: self._plus(self._bind(branch_pass.data[x], first),
                               self._bind(branch_fail.data[x], second))
                 for x in X}
        return Arrow(X, tagged_double(X), table)

    def codiagonal(self, X) -> Arrow:
        dd = tagged_double(X)
        return Arrow(dd, X, {a: self._eta(a[1]) for a in dd})

    # ---- sampling and enumeration ----

    def rand_arrow(self, rng, X, Y, bounds) -> Arrow:
        return Arrow(X, Y, {x: self._rand_image(rng, bounds, Y.atoms, ONE) for x in X})

    def rand_quotient_hom(self, rng, X, p, Y, bounds) -> Arrow:
        """Built with mass at most 1 - p(x), so the hom condition holds by
        construction."""
        return Arrow(X, Y, {x: self._rand_image(rng, bounds, Y.atoms, 1 - self._val(p, x))
                            for x in X})

    def rand_comprehension_hom(self, rng, X, p, Y, bounds) -> Arrow:
        atoms = self._certain(X, p).atoms
        return Arrow(Y, X, {y: self._rand_image(rng, bounds, atoms, ONE) for y in Y})

    def _images(self, Y):
        return None

    def count_arrows(self, X, Y):
        images = self._images(Y)
        return None if images is None else len(images) ** len(X)

    def iter_arrows(self, X, Y):
        images = self._images(Y)
        if images is None:
            return super().iter_arrows(X, Y)
        return (Arrow(X, Y, dict(zip(X.atoms, choice)))
                for choice in product(images, repeat=len(X)))

    # ---- serialization ----

    def object_to_json(self, X: FiniteSet):
        return [atom_to_json(a) for a in X]

    def arrow_to_json(self, f: Arrow):
        return [[atom_to_json(x), self._image_to_json(f.data[x])] for x in f.src]


class _SubsetChain(KleisliChain):
    """The two possibilistic instances: subsets as predicates and images
    weighted 0 (abort) or 1, with the samplers both share."""

    def _scale(self, d, w):
        return d if w else self._abort

    def _mass(self, d) -> int:
        return int(d != self._abort)

    def _distance(self, d, e) -> int:
        return int(d != e)

    def _val(self, p: FiniteSet, a) -> bool:
        return a in p

    def _pred(self, X: FiniteSet, value) -> FiniteSet:
        return FiniteSet(tuple(a for a in X if value(a)))

    def _certain(self, X, p: FiniteSet) -> FiniteSet:
        for a in p:
            if a not in X:
                raise ValidationError(f"atom {a!r} not in carrier {X!r}")
        return super()._certain(X, p)

    def rand_object(self, rng, bounds, like=None) -> FiniteSet:
        n = rng.randint(0, bounds.get("max_size", 4))
        if rng.random() < 0.5:
            base = rng.randint(0, 20)
            return FiniteSet(tuple(range(base, base + n)))
        letters = "abcdefghijklmnopqrstuvwxyz"
        base = rng.randint(0, 20)
        return FiniteSet(tuple(letters[(base + i) % 26] + str((base + i) // 26) for i in range(n)))

    def rand_pred(self, rng, X: FiniteSet, bounds) -> FiniteSet:
        return FiniteSet(tuple(a for a in X if rng.random() < 0.5))

    def iter_preds(self, X: FiniteSet):
        for mask in range(1 << len(X)):
            yield FiniteSet(tuple(a for i, a in enumerate(X) if mask >> i & 1))

    def iter_objects(self, bounds):
        for n in range(bounds.get("max_size", 3) + 1):
            yield FiniteSet(tuple(range(1, n + 1)))
        yield FiniteSet(("a", "b"))

    def pred_to_json(self, X, p: FiniteSet):
        return [atom_to_json(a) for a in p]


class SetsChain(_SubsetChain):
    """Finite sets with partial functions (the lift monad): a table maps
    each atom of the source to an atom of the target or to the marker *."""

    name = "sets"
    description = "finite sets and partial functions"
    _abort = STAR

    def _as_image(self, x, y):
        return y

    def _eta(self, a):
        return a

    def _bind(self, y, k):
        return STAR if y is STAR else k[y]

    def _plus(self, y, z):
        return z if y is STAR else y

    def _expect(self, y, q: FiniteSet) -> bool:
        return y is STAR or y in q

    def _support(self, y):
        return () if y is STAR else (y,)

    def _images(self, Y):
        return list(Y.atoms) + [STAR]

    def _rand_image(self, rng, bounds, atoms, cap):
        return rng.choice(list(atoms) + [STAR]) if cap else STAR

    def _image_to_json(self, y):
        return atom_to_json(y)

    def arrow_key(self, f: Arrow) -> int:
        """The images as the digits of one int, base |Y| + 1: an atom's
        position in Y, or |Y| for *."""
        pos = {**f.dst._index, STAR: len(f.dst)}
        key = 0
        for x in f.src.atoms:
            key = key * len(pos) + pos[f.data[x]]
        return key

    def perturb_arrow(self, rng, f: Arrow, bounds) -> Arrow:
        if len(f.src) == 0 or len(f.dst) == 0:
            return f
        x = rng.choice(f.src.atoms)
        opts = [y for y in list(f.dst.atoms) + [STAR] if y != f.data[x]]
        return Arrow(f.src, f.dst, {**f.data, x: rng.choice(opts)})


class NondetChain(_SubsetChain):
    """Finite sets with non-deterministic maps (the non-empty powerset
    monad): each atom goes to a non-empty set of target atoms and/or the
    marker *."""

    name = "nondet"
    description = "finite sets and non-empty-valued multimaps"
    _abort = frozenset({STAR})

    def _as_image(self, x, s) -> frozenset:
        s = frozenset(s)
        if not s:
            raise ValidationError(f"image of {x!r} must be a non-empty frozenset")
        return s

    def _eta(self, a) -> frozenset:
        return frozenset({a})

    def _bind(self, s, k) -> frozenset:
        out = set()
        for y in s:
            if y is STAR:
                out.add(STAR)
            else:
                out |= k[y]
        return frozenset(out)

    def _plus(self, s, t) -> frozenset:
        return (s | t) - self._abort or self._abort

    def _expect(self, s, q: FiniteSet) -> bool:
        return all(y is STAR or y in q for y in s)

    def _support(self, s):
        return s - self._abort

    def _images(self, Y):
        opts = list(Y.atoms) + [STAR]
        return [frozenset(o for i, o in enumerate(opts) if mask >> i & 1)
                for mask in range(1, 1 << len(opts))]

    def _rand_image(self, rng, bounds, atoms, cap) -> frozenset:
        if not cap:
            return self._abort
        opts = list(atoms) + [STAR]
        return frozenset({o for o in opts if rng.random() < 0.4} or {rng.choice(opts)})

    def _image_to_json(self, s):
        return [atom_to_json(y) for y in sorted(s, key=atom_key)]

    def arrow_key(self, f: Arrow) -> int:
        """Each image as a bitmask over Y + 1 (* the top bit), the masks
        packed into one int."""
        pos = {**f.dst._index, STAR: len(f.dst)}
        key = 0
        for x in f.src.atoms:
            key <<= len(pos)
            for y in f.data[x]:
                key |= 1 << pos[y]
        return key

    def perturb_arrow(self, rng, f: Arrow, bounds) -> Arrow:
        if len(f.src) == 0:
            return f
        x = rng.choice(f.src.atoms)
        for _ in range(64):
            s = self._rand_image(rng, bounds, f.dst.atoms, ONE)
            if s != f.data[x]:
                return Arrow(f.src, f.dst, {**f.data, x: s})
        return f


class DistChain(KleisliChain):
    """Finite sets with subdistribution kernels, exact over the rationals:
    an arrow X -> Y maps each atom of X to a SubDist on Y.  Predicates are
    fuzzy: a rational in [0, 1] per atom."""

    name = "dist"
    description = "finite sets and rational subdistribution kernels"

    def _val(self, p: FuzzyPred, a) -> Fraction:
        return p.value(a)

    def _pred(self, X, value) -> FuzzyPred:
        return fuzzy(X, value)

    def _as_image(self, x, d) -> SubDist:
        if not isinstance(d, SubDist):
            raise ValidationError(f"image of {x!r} must be a SubDist")
        return d

    def _eta(self, a) -> SubDist:
        return dirac(a)

    def _bind(self, d, k) -> SubDist:
        acc: dict = {}
        for y, w in d.weights:
            for z, v in k[y].weights:
                acc[z] = acc.get(z, ZERO) + w * v
        return SubDist(tuple(acc.items()))

    def _scale(self, d, w) -> SubDist:
        return SubDist(tuple((y, v * w) for y, v in d.weights))

    def _plus(self, d, e) -> SubDist:
        return SubDist(d.weights + e.weights)

    def _expect(self, d, q: FuzzyPred) -> Fraction:
        return sum((w * q.value(y) for y, w in d.weights), ZERO) + d.star_weight

    def _mass(self, d) -> Fraction:
        return d.mass

    def _support(self, d):
        return [y for y, _ in d.weights]

    def _distance(self, d, e) -> Fraction:
        atoms = {a for a, _ in d.weights} | {a for a, _ in e.weights}
        return max((abs(d.weight(a) - e.weight(a)) for a in atoms), default=ZERO)

    def _rand_frac(self, rng, bounds, lo=ZERO, hi=ONE) -> Fraction:
        den = rng.randint(1, bounds.get("max_den", 16))
        num = rng.randint(0, den)
        return lo + (hi - lo) * Fraction(num, den)

    def _rand_image(self, rng, bounds, atoms, cap) -> SubDist:
        # One common denominator keeps every kernel weight's denominator
        # within the requested bound even after splitting the budget.
        den = rng.randint(1, bounds.get("max_den", 16))
        units = int(cap * den)  # floor: never exceeds the cap
        pairs = []
        for a in atoms:
            k = rng.randint(0, units)
            if k:
                pairs.append((a, Fraction(k, den)))
                units -= k
        return SubDist(tuple(pairs))

    def _image_to_json(self, d):
        row = [[atom_to_json(y), frac_to_json(w)] for y, w in d.weights]
        if d.star_weight:
            row.append(["*", frac_to_json(d.star_weight)])
        return row

    # ---- samplers whose draws differ from the finite-set instances ----

    def rand_object(self, rng, bounds, like=None) -> FiniteSet:
        n = rng.randint(1, bounds.get("max_size", 4))
        base = rng.randint(0, 20)
        return FiniteSet(tuple(range(base, base + n)))

    def rand_pred(self, rng, X, bounds) -> FuzzyPred:
        return fuzzy(X, lambda a: self._rand_frac(rng, bounds))

    def perturb_arrow(self, rng, f: Arrow, bounds) -> Arrow:
        """Move a nonzero amount of mass at one input between an atom and *."""
        if not (len(f.src) and len(f.dst)):
            return f
        x = rng.choice(f.src.atoms)
        d = f.data[x]
        y = rng.choice(f.dst.atoms)
        w = d.weight(y)
        room = d.star_weight
        if room > 0 and (w == 0 or rng.random() < 0.5):
            new_w = w + (self._rand_frac(rng, bounds, ZERO, room) or room)
        elif w > 0:
            new_w = w - (self._rand_frac(rng, bounds, ZERO, w) or w)
        else:
            return f
        pairs = tuple((a, v) for a, v in d.weights if a != y) + ((y, new_w),)
        return Arrow(f.src, f.dst, {**f.data, x: SubDist(pairs)})

    def pred_to_json(self, X, p: FuzzyPred):
        return [[atom_to_json(a), frac_to_json(v)] for a, v in p.table]
