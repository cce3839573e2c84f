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

A predicate over X is stored densely too, as a tuple with one value per
atom of X in X's order: a bool for ``sets`` and ``nondet``, a Fraction
in [0, 1] for ``dist``.  Substitution along f is then the expectation of
q under each image of f, with * counting 1.

Arrows are stored densely, as a tuple with one image per source atom in
the source's order.  An image is encoded over the positions of Y's atoms:

  * ``nondet``: an int bitmask over Y + 1, with * as bit |Y|,
  * ``sets``: the same, with exactly one bit set (the lift monad is the
    powerset's singletons),
  * ``dist``: a tuple of |Y| + 1 non-negative ints, * last, in lowest
    terms: each weight is its int over their sum, so equal
    subdistributions have equal tuples.

`KleisliChain.arrow` encodes atom tables and `KleisliChain.table` decodes
them, as `KleisliChain.pred` encodes predicates (a collection of atoms,
or for ``dist`` a mapping atom -> value) and `KleisliChain.pred_table`
decodes them; nothing outside this module reads the encodings.  Every
atom they read is first sorted by `atom_key`, which refuses a bool or a
float that would pass for the int atom it hashes equal to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import product, repeat
from math import gcd, lcm
from numbers import Rational
from operator import le, mul, not_, or_, sub

from .core import (
    STAR,
    Arrow,
    ChainInstance,
    Construction,
    HomConditionError,
    PredObject,
    ValidationError,
    atom_key,
    atom_to_json,
    hom_check,
    make_arrow,
    picker,
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


def tagged_double(X: FiniteSet) -> FiniteSet:
    """X + X with outcome tags: (1, x) for the first summand, (2, x) for
    the second."""
    return FiniteSet(tuple((1, a) for a in X) + tuple((2, a) for a in X))


def _frac(v) -> Fraction:
    # bools are ints to Python but ambiguous as weights, as in
    # core.atom_key; floats and strings would convert inexactly
    if isinstance(v, bool) or not isinstance(v, Rational):
        raise ValidationError(f"value {v!r} is not a rational")
    return Fraction(v)


def frac_to_json(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


@dataclass(frozen=True)
class SubDist:
    """Subdistribution on a finite set: sparse map atom -> positive weight
    with total mass at most 1.  Weight on * is the 1 - total remainder."""

    weights: tuple  # sorted ((atom, Fraction), ...), strictly positive

    def __post_init__(self):
        pairs = sorted(((a, _frac(w)) for a, w in self.weights),
                       key=lambda aw: atom_key(aw[0]))
        for (a, _), (b, _) in zip(pairs, pairs[1:]):
            if a == b:
                raise ValidationError(f"repeated atom {a!r}")
        pairs = tuple((a, w) for a, w in pairs if w != 0)
        total = ZERO
        for a, w in pairs:
            if w < 0:
                raise ValidationError(f"negative weight {w} at {a!r}")
            total += w
        if total > 1:
            raise ValidationError(f"total mass {total} exceeds 1")
        object.__setattr__(self, "weights", pairs)

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


def fuzzy(X: FiniteSet, mapping) -> tuple:
    """The dist predicate with value mapping[a] at each atom a of X: a
    rational in [0, 1], one for every atom and none for anything else."""
    if tuple(sorted(mapping, key=atom_key)) != X.atoms:
        raise ValidationError("predicate keys must be exactly the carrier atoms")
    values = tuple(_frac(mapping[a]) for a in X)
    for a, v in zip(X, values):
        if not 0 <= v <= 1:
            raise ValidationError(f"predicate value {v} at {a!r} outside [0, 1]")
    return values


def _check_pred(X: FiniteSet, p) -> None:
    if not isinstance(p, tuple) or len(p) != len(X.atoms):
        raise ValidationError(f"a predicate over {X!r} is a tuple of {len(X)} values")


# The one-atom carrier over which `NondetChain.iter_homs` asks which
# images the hom condition allows at an atom.
_POINT = FiniteSet((0,))


# ---- the construction -----------------------------------------------


def _bits(mask: int):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=64)
def _unions(k):
    """The memo of `NondetChain._extend` and `postcompose` for one k: a mask's
    union of k's rows at its bits, kept as masks are met (2 ** len(k) at most)."""
    return cache(lambda s: reduce(or_, map(k.__getitem__, _bits(s)), 0))


class KleisliChain(ChainInstance):
    """Finite sets with the Kleisli arrows of a monad T on X + 1: a table
    maps each atom of the source to an image in T(target + 1).

    Every chain operation is written once here, on arrows stored as the
    module docstring describes.  A subclass supplies T's images d, e,
    encoded over n target positions and * (an int mask, or for dist ints
    over Y + 1): `_eta(j, n)` (position j for certain), `_abort(n)`,
    `_extend(data, k)` (k's Kleisli extension on each image of data; k
    has an image per target position, then one for *), `_scale(d, w, n)`
    (mass times w, the rest aborting), `_plus(d, e, n)` (disjoint sum,
    refusing an image T cannot hold), `_mass(d, n)` (weight not on *: an
    int, or a Fraction for dist), `_support(d, n)` (the positions other
    than * where d puts weight, lowest first), `_restriction(kept, n)`
    (re-indexes an image onto the positions `kept`, None when it reaches
    outside them), `_rand_image(rng, bounds, n, positions, cap)` (support
    in `positions`, mass at most cap); the boundary `_encode(x, image, Y)`
    (x's atom image, checked and encoded), `_decode(d, Y)` and
    `_image_to_json(d, Y)`; and its predicate values (bools, or Fractions
    for dist): `_true` and `_false`, `_not(v)` (1 - v) and
    `_expectation(Y, q)` (image -> value of q under it, abort counting 1),
    with the boundary `pred(X, spec)` (the atoms where the predicate holds,
    or for dist a mapping atom -> value) and its decoder `pred_table(X, p)`.
    Only the possibilistic monads enumerate arrows, from their `_images(n)`,
    and replace `_fits(images, caps, n)` (each image's mass at most its
    cap), `precompose` and `postcompose` with faster ones."""

    def _fits(self, images, caps, n) -> bool:
        return all(map(le, map(self._mass, images, repeat(n)), caps))

    # ---- the encoding boundary ----

    def arrow(self, X: FiniteSet, Y: FiniteSet, table: dict) -> Arrow:
        if tuple(sorted(table, key=atom_key)) != X.atoms:
            raise ValidationError("table keys must be exactly the source atoms")
        data = []
        for x in X:
            try:
                data.append(self._encode(x, table[x], Y))
            except KeyError as exc:
                raise ValidationError(
                    f"value {exc.args[0]!r} for {x!r} not in target") from None
            except TypeError:  # an unhashable image is no atom of Y
                raise ValidationError(
                    f"image {table[x]!r} of {x!r} is not an atom of the target") from None
        return Arrow(X, Y, tuple(data))

    def table(self, f: Arrow) -> dict:
        """The atom table of f: each source atom's image, an atom or STAR
        (sets), a frozenset (nondet) or a SubDist (dist)."""
        return {x: self._decode(d, f.dst) for x, d in zip(f.src, f.data)}

    # ---- category ----

    def identity(self, X: FiniteSet) -> Arrow:
        n = len(X.atoms)
        return Arrow(X, X, tuple(self._eta(i, n) for i in range(n)))

    def compose(self, g: Arrow, f: Arrow) -> Arrow:
        if f.dst is not g.src:
            self.check_composable(g, f)
        k = g.data + (self._abort(len(g.dst.atoms)),)
        return make_arrow((f.src, g.dst, self._extend(f.data, k)))

    def objects_equal(self, A, B) -> bool:
        return A is B or A == B

    # ---- fibre and substitution ----

    def top(self, X) -> tuple:
        return (self._true,) * len(X.atoms)

    def bottom(self, X) -> tuple:
        return (self._false,) * len(X.atoms)

    def pred_leq(self, X, p, q) -> bool:
        _check_pred(X, p)
        _check_pred(X, q)
        return all(map(le, p, q))

    def pred_residual(self, X, p, q) -> float:
        _check_pred(X, p)
        _check_pred(X, q)
        return float(max(map(abs, map(sub, p, q)), default=0))

    def ortho(self, X, p) -> tuple:
        _check_pred(X, p)
        return tuple(map(self._not, p))

    def ceil(self, X, p) -> tuple:
        _check_pred(X, p)
        return tuple(self._true if v else self._false for v in p)

    def floor(self, X, p) -> tuple:
        _check_pred(X, p)
        return tuple(self._true if v == 1 else self._false for v in p)

    def subst(self, f: Arrow, q) -> tuple:
        _check_pred(f.dst, q)
        return tuple(map(self._expectation(f.dst, q), f.data))

    # ---- quotient / comprehension ----

    def quotient(self, X, p) -> Construction:
        """The carrier is the atoms where p < 1, and the unit keeps each
        atom x with weight 1 - p(x) and aborts otherwise.  The transpose
        divides that weight back out: it requires f to put mass at most
        1 - p(x) on atoms at every x, so atoms where p = 1, outside the
        carrier, must abort entirely."""
        _check_pred(X, p)
        keep = [1 - v for v in p]
        kept = [i for i, w in enumerate(keep) if w]
        obj = FiniteSet(tuple(X.atoms[i] for i in kept))
        m = len(obj)
        data = [self._abort(m)] * len(X)
        for j, i in enumerate(kept):
            data[i] = self._scale(self._eta(j, m), keep[i], m)
        unit = Arrow(X, obj, tuple(data))
        # no image has mass over 1, so only these positions can fail, and
        # only dist's kept positions can need rescaling
        capped = [i for i, w in enumerate(keep) if w != 1]
        caps, at_capped, at_kept = [keep[i] for i in capped], picker(capped), picker(kept)
        inverse = [1 / keep[i] for i in kept] if set(capped) & set(kept) else None

        def transpose(data, Y) -> tuple:
            n = len(Y.atoms)
            if not self._fits(at_capped(data), caps, n):
                i = next(i for i in capped if self._mass(data[i], n) > keep[i])
                raise HomConditionError(f"{self.name}: mass {self._mass(data[i], n)} "
                                        f"at {X.atoms[i]!r} exceeds 1 - p = {keep[i]}")
            out = at_kept(data)
            return tuple(map(self._scale, out, inverse, repeat(n))) if inverse else out

        return Construction(self, obj, unit, transpose, epi=True)

    def comprehension(self, X, p) -> Construction:
        """A map out of truth lands in p exactly when all its mass sits
        where p = 1, so the carrier is those atoms, the counit their
        inclusion, and the transpose the same images re-indexed onto the
        carrier."""
        _check_pred(X, p)
        n = len(X.atoms)
        kept = [i for i, v in enumerate(p) if v == 1]
        obj = FiniteSet(tuple(X.atoms[i] for i in kept))
        restrict = self._restriction(kept, n)

        def transpose(data, Y) -> tuple:
            out = tuple(map(restrict, data))
            if None in out:
                j = out.index(None)
                x = X.atoms[next(i for i in self._support(data[j], n) if i not in kept)]
                raise HomConditionError(f"{self.name}: image of {Y.atoms[j]!r} reaches "
                                        f"{x!r}, outside the comprehension carrier")
            return out

        counit = Arrow(obj, X, tuple(self._eta(i, n) for i in kept))
        return Construction(self, obj, counit, transpose, epi=False)

    def cancels(self, f: Arrow, epi: bool) -> bool:
        """A test sufficient for all three monads.  Epi: every target atom
        j is some image w.d_j, w > 0 (not {j, *}), so (g after f) reads
        w.g(j) there.  Mono: the images are distinct etas, so (f after g)
        relabels g's images one-to-one."""
        n = len(f.dst.atoms)
        points = {i for d in f.data for i in self._support(d, n)
                  if d == self._scale(self._eta(i, n), self._mass(d, n) if epi else ONE, n)}
        return len(points) == (n if epi else len(f.data))

    # ---- assert / instrument ----
    # tagged_double(X) lists every (1, x) before any (2, x), both in X's
    # order, so (1, x) sits at x's position i and (2, x) at len(X) + i.

    def assert_closed_form(self, X, p) -> Arrow:
        _check_pred(X, p)
        n = len(X)
        return Arrow(X, X, tuple(self._scale(self._eta(i, n), v, n)
                                 for i, v in enumerate(p)))

    def instrument_closed_form(self, X, p) -> Arrow:
        _check_pred(X, p)
        n, eta, scale = len(X), self._eta, self._scale
        dd = 2 * n
        return Arrow(X, tagged_double(X), tuple(
            self._plus(scale(eta(i, dd), v, dd), scale(eta(n + i, dd), 1 - v, dd), dd)
            for i, v in enumerate(p)))

    def instrument_combine(self, X, branch_pass: Arrow, branch_fail: Arrow) -> Arrow:
        n = len(X)
        dd = 2 * n
        first = tuple(self._eta(i, dd) for i in range(n)) + (self._abort(dd),)
        second = tuple(self._eta(n + i, dd) for i in range(n)) + (self._abort(dd),)
        return Arrow(X, tagged_double(X), tuple(
            self._plus(d, e, dd) for d, e in zip(self._extend(branch_pass.data, first),
                                                 self._extend(branch_fail.data, second))))

    def codiagonal(self, X) -> Arrow:
        n = len(X)
        return Arrow(tagged_double(X), X, tuple(self._eta(j % n, n) for j in range(2 * n)))

    # ---- sampling and enumeration ----

    def rand_arrow(self, rng, X, Y, bounds) -> Arrow:
        n = len(Y)
        return Arrow(X, Y, tuple(self._rand_image(rng, bounds, n, range(n), ONE)
                                 for _ in X))

    def rand_hom(self, rng, X, p, built, Y, bounds) -> Arrow:
        """Drawn from the hom condition, not through the unit or counit,
        so a round trip from it tests the transpose on maps the
        construction did not make: for the quotient, mass at most 1 - p(x)
        at each x; for the comprehension, support inside the carrier,
        where p = 1."""
        if built.epi:
            _check_pred(X, p)
            n = len(Y)
            return Arrow(X, Y, tuple(self._rand_image(rng, bounds, n, range(n), 1 - v)
                                     for v in p))
        kept = [X._index[a] for a in built.obj]
        return Arrow(Y, X, tuple(self._rand_image(rng, bounds, len(X), kept, ONE)
                                 for _ in Y))

    # ---- serialization ----

    def object_to_json(self, X: FiniteSet):
        return [atom_to_json(a) for a in X]

    def arrow_to_json(self, f: Arrow):
        Y = f.dst
        return [[atom_to_json(x), self._image_to_json(d, Y)]
                for x, d in zip(f.src, f.data)]


class NondetChain(KleisliChain):
    """Finite sets with non-deterministic maps (the non-empty powerset
    monad): each atom goes to a non-empty set of target atoms and/or the
    marker *, an image being a bitmask over Y + 1 weighted 0 (abort) or
    1.  A predicate is a subset."""

    name = "nondet"
    description = "finite sets and non-empty-valued multimaps"
    default_cases = 40
    default_sweep = {"max_size": 2}

    def _abort(self, n) -> int:
        return 1 << n

    def _eta(self, j, n) -> int:
        return 1 << j

    def _extend(self, data, k) -> tuple:
        """The union of k's rows at each image's bits.  A one-bit image
        reads its row; a wider one reads the memo `_unions(k)`."""
        out, union = [], None
        for s in data:
            if s & s - 1 == 0 < s:
                out.append(k[s.bit_length() - 1])
            else:
                union = union or _unions(k)
                out.append(union(s))
        return tuple(out)

    def _fits(self, images, caps, n) -> bool:
        return images.count(1 << n) == len(images)  # every cap is 0: abort alone

    def precompose(self, f: Arrow):
        """Each image of f must have one bit, as a quotient unit's do: each
        reads one row of g or abort, all picked at once."""
        rows = picker([s.bit_length() - 1 for s in f.data])
        return lambda d, Y: rows(d + (1 << len(Y.atoms),))

    def postcompose(self, f: Arrow):
        """Each image of g read through f's memo of unions, `_unions`."""
        union = _unions(f.data + (1 << len(f.dst.atoms),))
        return lambda d, Y: tuple(map(union, d))

    def _scale(self, d, w, n):
        return d if w else self._abort(n)

    def _plus(self, s, t, n) -> int:
        star = 1 << n
        return (s | t) & (star - 1) or star

    def _mass(self, d, n) -> int:
        return int(d != 1 << n)

    def _support(self, s, n):
        return _bits(s & ~(1 << n))

    def _expectation(self, Y, q: tuple):
        inside = sum(1 << i for i, v in enumerate(q) if v) | 1 << len(Y.atoms)
        return lambda s: not s & ~inside

    def _restriction(self, kept, n):
        # The bit of a kept position i moves down to its carrier position
        # j, and * from bit n to bit len(kept): the bits sharing a shift
        # i - j move together, under one mask.  Memoised per construction,
        # as a sweep re-indexes the same few masks over and over: there are
        # 2 ** (n + 1) of them, 32 at the acceptance bounds.
        runs = {}
        for j, i in enumerate([*kept, n]):
            runs[i - j] = runs.get(i - j, 0) | 1 << i
        outside = (1 << n + 1) - 1 - sum(runs.values())
        runs = tuple(runs.items())

        @lru_cache(maxsize=256, typed=True)
        def restrict(s):
            if s & outside:
                return None
            out = 0
            for shift, mask in runs:
                out |= (s & mask) >> shift
            return out

        return restrict

    def _images(self, n):
        return range(1, 1 << (n + 1))

    def count_arrows(self, X, Y) -> int:
        return len(self._images(len(Y))) ** len(X)

    def iter_arrows(self, X, Y):
        images = self._images(len(Y))
        return (make_arrow((X, Y, data)) for data in product(images, repeat=len(X)))

    def iter_homs(self, built, X, p, Y):
        """The hom condition holds atom by atom of the source, at each
        atom on its predicate value alone, so the homs' data are the
        product over the source atoms of the images allowed at each: an
        image d is allowed at value v when the one-atom map onto d is a
        hom from (point, v) to the target predicated object."""
        src, dst = built.hom_objects(X, p, Y)
        images = self._images(len(dst.base))
        allowed = {v: [d for d in images
                       if hom_check(self, make_arrow((_POINT, dst.base, (d,))),
                                    PredObject(_POINT, (v,)), dst)]
                   for v in set(src.pred)}
        return product(*[allowed[v] for v in src.pred])

    def _rand_image(self, rng, bounds, n, positions, cap) -> int:
        if not cap:
            return 1 << n
        opts = [*positions, n]
        picked = [o for o in opts if rng.random() < 0.4] or [rng.choice(opts)]
        return sum(1 << o for o in picked)

    def _encode(self, x, s, Y: FiniteSet) -> int:
        if not isinstance(s, (set, frozenset)) or not s:
            raise ValidationError(f"image of {x!r} must be a non-empty frozenset")
        return sum(1 << (len(Y) if y is STAR else Y._index[y])
                   for y in sorted(s, key=atom_key))

    def _atoms(self, s, Y: FiniteSet) -> list:
        return [STAR if i == len(Y) else Y.atoms[i] for i in _bits(s)]

    def _decode(self, s, Y: FiniteSet) -> frozenset:
        return frozenset(self._atoms(s, Y))

    def _image_to_json(self, s, Y: FiniteSet):
        return [atom_to_json(y) for y in self._atoms(s, Y)]

    # ---- predicates: subsets ----

    _true, _false = True, False
    _not = staticmethod(not_)

    def pred(self, X: FiniteSet, atoms) -> tuple:
        """The subset of X made of `atoms`."""
        atoms = set(sorted(atoms, key=atom_key))
        for a in atoms:
            if a not in X:
                raise ValidationError(f"atom {a!r} not in carrier {X!r}")
        return tuple(a in atoms for a in X)

    def pred_table(self, X: FiniteSet, p) -> FiniteSet:
        _check_pred(X, p)
        return FiniteSet(tuple(a for a, v in zip(X.atoms, p) if v))

    def rand_object(self, rng, bounds, like=None) -> FiniteSet:
        n = rng.randint(0, bounds.get("max_size", 4))
        if rng.random() < 0.5:
            base = rng.randint(0, 20)
            return FiniteSet(tuple(range(base, base + n)))
        letters = "abcdefghijklmnopqrstuvwxyz"
        base = rng.randint(0, 20)
        return FiniteSet(tuple(letters[(base + i) % 26] + str((base + i) // 26) for i in range(n)))

    def rand_pred(self, rng, X: FiniteSet, bounds) -> tuple:
        return tuple(rng.random() < 0.5 for _ in X)

    def iter_preds(self, X: FiniteSet):
        n = len(X)
        for mask in range(1 << n):
            yield tuple(bool(mask >> i & 1) for i in range(n))

    def iter_objects(self, bounds):
        for n in range(bounds.get("max_size", 3) + 1):
            yield FiniteSet(tuple(range(1, n + 1)))
        yield FiniteSet(("a", "b"))

    def pred_to_json(self, X, p):
        _check_pred(X, p)
        return [atom_to_json(a) for a, v in zip(X, p) if v]


class SetsChain(NondetChain):
    """Finite sets with partial functions (the lift monad, the powerset's
    singletons): each atom goes to one target atom or to *, an image
    being a nondet mask with exactly one bit set."""

    name = "sets"
    description = "finite sets and partial functions"
    default_cases = 60
    default_sweep = {"max_size": 3}

    def _images(self, n):
        return [1 << j for j in range(n + 1)]

    def _rand_image(self, rng, bounds, n, positions, cap) -> int:
        return 1 << (rng.choice([*positions, n]) if cap else n)

    def _plus(self, s, t, n) -> int:
        out = super()._plus(s, t, n)
        if out & out - 1:
            raise ValidationError("sets: both branches are defined at one atom")
        return out

    def _encode(self, x, y, Y: FiniteSet) -> int:
        return super()._encode(x, frozenset((y,)), Y)

    def _decode(self, s, Y: FiniteSet):
        [y] = self._atoms(s, Y)
        return y

    def _image_to_json(self, s, Y: FiniteSet):
        return atom_to_json(self._decode(s, Y))


def _canonical(row) -> tuple:
    """A dist image's integer weights in lowest terms."""
    g = gcd(*row)
    return tuple(row) if g == 1 else tuple(v // g for v in row)


class DistChain(KleisliChain):
    """Finite sets with subdistribution kernels, exact over the rationals:
    an arrow X -> Y maps each atom of X to a SubDist on Y, stored as
    integer weights over Y + 1 in lowest terms, * last.  Fractions appear
    only at the boundary: encoding, decoding, JSON, error texts and the
    predicates, which are fuzzy: a rational in [0, 1] per atom."""

    name = "dist"
    description = "finite sets and rational subdistribution kernels"
    default_cases = 80

    _true, _false = ONE, ZERO
    _not = staticmethod(ONE.__sub__)

    def pred(self, X: FiniteSet, mapping) -> tuple:
        return fuzzy(X, mapping)

    def pred_table(self, X: FiniteSet, p) -> dict:
        _check_pred(X, p)
        return dict(zip(X.atoms, p))

    def _abort(self, n) -> tuple:
        return (0,) * n + (1,)

    def _eta(self, j, n) -> tuple:
        return (0,) * j + (1,) + (0,) * (n - j)

    def _extend(self, data, k) -> tuple:
        # the rows of k that d reaches, over the lcm of their sums, by weight
        sums = [sum(row) for row in k]
        out = []
        for d in data:
            den = lcm(*[s for w, s in zip(d, sums) if w])
            e = [0] * len(k[-1])
            for w, row, s in zip(d, k, sums):
                if w:
                    c = w * (den // s)
                    e = [a + c * v for a, v in zip(e, row)]
            out.append(_canonical(e))
        return tuple(out)

    def _scale(self, d, w, n) -> tuple:
        # over q * sum(d) for w = p / q: p * d on Y, the rest on *
        p, q = w.numerator, w.denominator
        return _canonical([v * p for v in d[:n]] + [(q - p) * sum(d) + p * d[n]])

    def _plus(self, d, e, n) -> tuple:
        D, E = sum(d), sum(e)
        row = [a * E + b * D for a, b in zip(d[:n], e)]
        if sum(row) > D * E:
            raise ValidationError(f"dist: combined mass {Fraction(sum(row), D * E)} exceeds 1")
        return _canonical(row + [D * E - sum(row)])

    def map_residual(self, f: Arrow, g: Arrow) -> float:
        if not (self.objects_equal(f.src, g.src) and self.objects_equal(f.dst, g.dst)):
            return 1.0
        gap, den = 0, 1  # the largest weight difference so far, gap / den
        for d, e in zip(f.data, g.data):
            if d != e:
                D, E = sum(d), sum(e)
                top = max(abs(a * E - b * D) for a, b in zip(d[:-1], e))
                if top * den > gap * D * E:
                    gap, den = top, D * E
        return gap / den

    def _expectation(self, Y, q: tuple):
        # 1 - sum of w * (1 - q(y)), read over one common denominator c
        c = lcm(*[v.denominator for v in q])
        miss = [c - v.numerator * (c // v.denominator) for v in q]
        return lambda d: Fraction(c * sum(d) - sum(map(mul, d, miss)), c * sum(d))

    def _mass(self, d, n) -> Fraction:
        return Fraction(sum(d) - d[n], sum(d))

    def _support(self, d, n) -> list:
        return [i for i in range(n) if d[i]]

    def _restriction(self, kept, n):
        outside = sorted(set(range(n)).difference(kept))
        return lambda d: (None if any(d[i] for i in outside)
                          else tuple(d[i] for i in kept) + d[-1:])

    def _rand_image(self, rng, bounds, n, positions, cap) -> tuple:
        # One common denominator keeps every kernel weight's denominator
        # within the requested bound even after splitting the budget.
        den = rng.randint(1, bounds.get("max_den", 16))
        units = cap.numerator * den // cap.denominator  # floor: never exceeds the cap
        row = [0] * (n + 1)
        for j in positions:
            row[j] = k = rng.randint(0, units)
            units -= k
        row[n] = den - sum(row)
        return _canonical(row)

    def _encode(self, x, d, Y: FiniteSet) -> tuple:
        if not isinstance(d, SubDist):
            raise ValidationError(f"image of {x!r} must be a SubDist")
        den = lcm(*[w.denominator for _, w in d.weights])
        row = [0] * (len(Y) + 1)
        for y, w in d.weights:
            row[Y._index[y]] = w.numerator * (den // w.denominator)
        row[-1] = den - sum(row)
        return _canonical(row)

    def _decode(self, d, Y: FiniteSet) -> SubDist:
        total = sum(d)
        return SubDist(tuple((y, Fraction(w, total)) for y, w in zip(Y.atoms, d) if w))

    def _image_to_json(self, d, Y: FiniteSet):
        total = sum(d)
        row = [[atom_to_json(y), frac_to_json(Fraction(w, total))]
               for y, w in zip(Y.atoms, d) if w]
        if d[-1]:
            row.append(["*", frac_to_json(Fraction(d[-1], total))])
        return row

    # ---- samplers whose draws differ from the finite-set instances ----

    def rand_object(self, rng, bounds, like=None) -> FiniteSet:
        n = rng.randint(1, bounds.get("max_size", 4))
        base = rng.randint(0, 20)
        return FiniteSet(tuple(range(base, base + n)))

    def rand_pred(self, rng, X, bounds) -> tuple:
        values = []
        for _ in X:
            den = rng.randint(1, bounds.get("max_den", 16))
            values.append(Fraction(rng.randint(0, den), den))
        return tuple(values)

    def pred_to_json(self, X, p):
        _check_pred(X, p)
        return [[atom_to_json(a), frac_to_json(v)] for a, v in zip(X, p)]
