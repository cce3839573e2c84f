"""Finite-set chains: partial functions and non-deterministic maps.

Predicates over a finite set are its subsets.  The quotient of P collapses
P to the undefined marker (carrier: the complement), while comprehension
restricts to P (carrier: P itself), so the quotient of a subset literally
is the comprehension of its complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class FiniteSet:
    """Sorted, duplicate-free tuple of atoms (ints, strings, or tuples)."""

    atoms: tuple
    _index: frozenset = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        atoms = tuple(sorted(self.atoms, key=atom_key))
        for a, b in zip(atoms, atoms[1:]):
            if a == b:
                raise ValidationError(f"duplicate atom {a!r}")
        if "*" in atoms or STAR in atoms:
            raise ValidationError("the marker * cannot be an atom")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_index", frozenset(atoms))

    def __contains__(self, a) -> bool:
        return a in self._index

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __repr__(self):
        return "{" + ", ".join(repr(a) for a in self.atoms) + "}"


def subset_of(atoms, X: FiniteSet) -> FiniteSet:
    s = FiniteSet(tuple(atoms))
    for a in s:
        if a not in X:
            raise ValidationError(f"atom {a!r} not in carrier {X!r}")
    return s


def complement(X: FiniteSet, P: FiniteSet) -> FiniteSet:
    return FiniteSet(tuple(a for a in X if a not in P))


def tagged_double(X: FiniteSet) -> FiniteSet:
    """X + X with outcome tags: (1, x) for the first summand, (2, x) for
    the second."""
    return FiniteSet(tuple((1, a) for a in X) + tuple((2, a) for a in X))


def _check_parallel(f: Arrow, g: Arrow) -> bool:
    return f.src == g.src and f.dst == g.dst


class _DiscreteBase(ChainInstance):
    """Shared structure of the two finite-set instances: subsets as
    predicates, complements, quotient/comprehension carriers."""

    exact = True
    has_ortho = True
    has_instrument = True

    def objects_equal(self, A, B) -> bool:
        return A == B

    def top(self, X: FiniteSet) -> FiniteSet:
        return X

    def bottom(self, X: FiniteSet) -> FiniteSet:
        return FiniteSet(())

    def pred_leq(self, X, p: FiniteSet, q: FiniteSet) -> bool:
        return all(a in q for a in p)

    def pred_residual(self, X, p, q) -> float:
        return 0.0 if p == q else 1.0

    def ortho(self, X: FiniteSet, p: FiniteSet) -> FiniteSet:
        return complement(X, p)

    def map_residual(self, f: Arrow, g: Arrow) -> float:
        return 0.0 if (_check_parallel(f, g) and f.data == g.data) else 1.0

    # Sampling shared by both instances.

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

    def object_to_json(self, X: FiniteSet):
        return [atom_to_json(a) for a in X]

    def pred_to_json(self, X, p: FiniteSet):
        return [atom_to_json(a) for a in p]


class SetsChain(_DiscreteBase):
    """Finite sets with partial functions; a table maps each atom of the
    source to an atom of the target or to the marker *."""

    name = "sets"
    description = "finite sets and partial functions"

    # ---- category ----

    def _check_table(self, X: FiniteSet, Y: FiniteSet, table: dict) -> None:
        if set(table) != set(X.atoms):
            raise ValidationError("table keys must be exactly the source atoms")
        for x, y in table.items():
            if y is not STAR and y not in Y:
                raise ValidationError(f"value {y!r} for {x!r} not in target")

    def arrow(self, X: FiniteSet, Y: FiniteSet, table: dict) -> Arrow:
        self._check_table(X, Y, table)
        return Arrow(X, Y, dict(table))

    def identity(self, X: FiniteSet) -> Arrow:
        return Arrow(X, X, {a: a for a in X})

    def compose(self, g: Arrow, f: Arrow) -> Arrow:
        self.check_composable(g, f)
        table = {}
        for x, y in f.data.items():
            table[x] = STAR if y is STAR else g.data[y]
        return Arrow(f.src, g.dst, table)

    # ---- fibre and substitution ----

    def subst(self, f: Arrow, q: FiniteSet) -> FiniteSet:
        return FiniteSet(tuple(x for x, y in f.data.items() if y is STAR or y in q))

    # ---- quotient / comprehension ----

    def quotient(self, X: FiniteSet, p: FiniteSet) -> QuotientResult:
        obj = complement(X, p)
        unit = Arrow(X, obj, {x: (STAR if x in p else x) for x in X})
        return QuotientResult(obj, unit)

    def comprehension(self, X: FiniteSet, p: FiniteSet) -> ComprehensionResult:
        obj = subset_of(p, X)
        counit = Arrow(obj, X, {x: x for x in obj})
        return ComprehensionResult(obj, counit)

    def transpose_quotient(self, X, p, f: Arrow) -> Arrow:
        bad = [x for x in p if f.data[x] is not STAR]
        if bad:
            raise HomConditionError(
                f"sets: map is defined on the collapsed region at {bad[0]!r}"
            )
        obj = complement(X, p)
        return Arrow(obj, f.dst, {x: f.data[x] for x in obj})

    def transpose_comprehension(self, X, p, f: Arrow) -> Arrow:
        bad = [y for y, x in f.data.items() if x is not STAR and x not in p]
        if bad:
            raise HomConditionError(
                f"sets: image leaves the comprehension carrier at {bad[0]!r}"
            )
        return Arrow(f.src, subset_of(p, X), dict(f.data))

    # ---- instrument ----

    def instrument_combine(self, X, branch_pass: Arrow, branch_fail: Arrow) -> Arrow:
        table = {}
        for x in X:
            v = branch_pass.data[x]
            if v is not STAR:
                table[x] = (1, v)
            else:
                w = branch_fail.data[x]
                table[x] = (2, w) if w is not STAR else STAR
        return Arrow(X, tagged_double(X), table)

    def codiagonal(self, X: FiniteSet) -> Arrow:
        dd = tagged_double(X)
        return Arrow(dd, X, {a: a[1] for a in dd})

    def assert_closed_form(self, X, p) -> Arrow:
        return Arrow(X, X, {x: (x if x in p else STAR) for x in X})

    def instrument_closed_form(self, X, p) -> Arrow:
        return Arrow(X, tagged_double(X), {x: ((1, x) if x in p else (2, x)) for x in X})

    # ---- sampling and enumeration ----

    def rand_arrow(self, rng, X, Y, bounds) -> Arrow:
        opts = list(Y.atoms) + [STAR]
        return Arrow(X, Y, {x: rng.choice(opts) for x in X})

    def rand_quotient_hom(self, rng, X, p, Y, bounds) -> Arrow:
        opts = list(Y.atoms) + [STAR]
        return Arrow(X, Y, {x: (STAR if x in p else rng.choice(opts)) for x in X})

    def rand_comprehension_hom(self, rng, X, p, Y, bounds) -> Arrow:
        opts = list(p.atoms) + [STAR]
        return Arrow(Y, X, {y: rng.choice(opts) for y in Y})

    def perturb_arrow(self, rng, f: Arrow, bounds) -> Arrow:
        if len(f.src) == 0 or len(f.dst) == 0:
            return f
        x = rng.choice(f.src.atoms)
        opts = [y for y in list(f.dst.atoms) + [STAR] if y != f.data[x]]
        table = dict(f.data)
        table[x] = rng.choice(opts)
        return Arrow(f.src, f.dst, table)

    def count_arrows(self, X, Y) -> int:
        return (len(Y) + 1) ** len(X)

    def iter_arrows(self, X, Y):
        opts = list(Y.atoms) + [STAR]
        for values in product(opts, repeat=len(X)):
            yield Arrow(X, Y, dict(zip(X.atoms, values)))

    # ---- serialization ----

    def arrow_to_json(self, f: Arrow):
        return [[atom_to_json(x), atom_to_json(f.data[x])] for x in f.src]


class NondetChain(_DiscreteBase):
    """Finite sets with non-deterministic maps: each atom goes to a
    non-empty set of target atoms and/or the marker *."""

    name = "nondet"
    description = "finite sets and non-empty-valued multimaps"

    def _check_table(self, X, Y, table) -> None:
        if set(table) != set(X.atoms):
            raise ValidationError("table keys must be exactly the source atoms")
        for x, s in table.items():
            if not isinstance(s, frozenset) or not s:
                raise ValidationError(f"image of {x!r} must be a non-empty frozenset")
            for y in s:
                if y is not STAR and y not in Y:
                    raise ValidationError(f"value {y!r} for {x!r} not in target")

    def arrow(self, X, Y, table: dict) -> Arrow:
        table = {x: frozenset(s) for x, s in table.items()}
        self._check_table(X, Y, table)
        return Arrow(X, Y, table)

    def identity(self, X) -> Arrow:
        return Arrow(X, X, {a: frozenset({a}) for a in X})

    def compose(self, g: Arrow, f: Arrow) -> Arrow:
        self.check_composable(g, f)
        table = {}
        for x, s in f.data.items():
            out = set()
            for y in s:
                if y is STAR:
                    out.add(STAR)
                else:
                    out |= g.data[y]
            table[x] = frozenset(out)
        return Arrow(f.src, g.dst, table)

    def subst(self, f: Arrow, q: FiniteSet) -> FiniteSet:
        keep = []
        for x, s in f.data.items():
            if all(y is STAR or y in q for y in s):
                keep.append(x)
        return FiniteSet(tuple(keep))

    def quotient(self, X, p) -> QuotientResult:
        obj = complement(X, p)
        unit = Arrow(
            X, obj,
            {x: (frozenset({STAR}) if x in p else frozenset({x})) for x in X},
        )
        return QuotientResult(obj, unit)

    def comprehension(self, X, p) -> ComprehensionResult:
        obj = subset_of(p, X)
        counit = Arrow(obj, X, {x: frozenset({x}) for x in obj})
        return ComprehensionResult(obj, counit)

    def transpose_quotient(self, X, p, f: Arrow) -> Arrow:
        bad = [x for x in p if f.data[x] != frozenset({STAR})]
        if bad:
            raise HomConditionError(
                f"nondet: image on the collapsed region is not {{*}} at {bad[0]!r}"
            )
        obj = complement(X, p)
        return Arrow(obj, f.dst, {x: f.data[x] for x in obj})

    def transpose_comprehension(self, X, p, f: Arrow) -> Arrow:
        for y, s in f.data.items():
            for v in s:
                if v is not STAR and v not in p:
                    raise HomConditionError(
                        f"nondet: image leaves the comprehension carrier at {y!r}"
                    )
        return Arrow(f.src, subset_of(p, X), dict(f.data))

    def instrument_combine(self, X, branch_pass: Arrow, branch_fail: Arrow) -> Arrow:
        table = {}
        for x in X:
            out = {(1, y) for y in branch_pass.data[x] if y is not STAR}
            out |= {(2, y) for y in branch_fail.data[x] if y is not STAR}
            table[x] = frozenset(out) if out else frozenset({STAR})
        return Arrow(X, tagged_double(X), table)

    def codiagonal(self, X) -> Arrow:
        dd = tagged_double(X)
        return Arrow(dd, X, {a: frozenset({a[1]}) for a in dd})

    def assert_closed_form(self, X, p) -> Arrow:
        return Arrow(
            X, X,
            {x: (frozenset({x}) if x in p else frozenset({STAR})) for x in X},
        )

    def instrument_closed_form(self, X, p) -> Arrow:
        return Arrow(
            X, tagged_double(X),
            {x: frozenset({(1, x) if x in p else (2, x)}) for x in X},
        )

    # ---- sampling and enumeration ----

    def _rand_image(self, rng, opts) -> frozenset:
        s = {o for o in opts if rng.random() < 0.4}
        if not s:
            s = {rng.choice(opts)}
        return frozenset(s)

    def rand_arrow(self, rng, X, Y, bounds) -> Arrow:
        opts = list(Y.atoms) + [STAR]
        return Arrow(X, Y, {x: self._rand_image(rng, opts) for x in X})

    def rand_quotient_hom(self, rng, X, p, Y, bounds) -> Arrow:
        opts = list(Y.atoms) + [STAR]
        return Arrow(
            X, Y,
            {x: (frozenset({STAR}) if x in p else self._rand_image(rng, opts)) for x in X},
        )

    def rand_comprehension_hom(self, rng, X, p, Y, bounds) -> Arrow:
        opts = list(p.atoms) + [STAR]
        return Arrow(Y, X, {y: self._rand_image(rng, opts) for y in Y})

    def perturb_arrow(self, rng, f: Arrow, bounds) -> Arrow:
        if len(f.src) == 0:
            return f
        x = rng.choice(f.src.atoms)
        opts = list(f.dst.atoms) + [STAR]
        for _ in range(64):
            s = self._rand_image(rng, opts)
            if s != f.data[x]:
                table = dict(f.data)
                table[x] = s
                return Arrow(f.src, f.dst, table)
        return f

    def count_arrows(self, X, Y) -> int:
        return (2 ** (len(Y) + 1) - 1) ** len(X)

    def iter_arrows(self, X, Y):
        opts = list(Y.atoms) + [STAR]
        images = []
        for mask in range(1, 1 << len(opts)):
            images.append(frozenset(o for i, o in enumerate(opts) if mask >> i & 1))
        for choice in product(images, repeat=len(X)):
            yield Arrow(X, Y, dict(zip(X.atoms, choice)))

    def arrow_to_json(self, f: Arrow):
        out = []
        for x in f.src:
            img = sorted(f.data[x], key=atom_key)
            out.append([atom_to_json(x), [atom_to_json(y) for y in img]])
        return out
