"""Discrete probabilistic chain: subdistribution kernels over finite sets.

States are subconvex combinations with rational weights; the missing mass
is the weight of the abort marker * and is never stored.  Predicates are
fuzzy: a rational in [0, 1] per atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
from .discrete import FiniteSet, tagged_double

ZERO = Fraction(0)
ONE = Fraction(1)


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
        pairs = tuple(sorted(((a, _frac(w)) for a, w in self.weights if _frac(w) != 0),
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

    def atoms(self):
        return tuple(a for a, _ in self.table)

    def __repr__(self):
        return "{" + ", ".join(f"{a!r}: {v}" for a, v in self.table) + "}"


def fuzzy(X: FiniteSet, mapping) -> FuzzyPred:
    get = mapping.get if hasattr(mapping, "get") else mapping
    return FuzzyPred(tuple((a, get(a)) for a in X))


class DistChain(ChainInstance):
    """Finite sets with subdistribution kernels, exact over the rationals.

    An arrow X -> Y is a table mapping each atom of X to a SubDist on Y."""

    name = "dist"
    description = "finite sets and rational subdistribution kernels"
    exact = True

    # ---- category ----

    def _check_table(self, X, Y, table) -> None:
        if set(table) != set(X.atoms):
            raise ValidationError("table keys must be exactly the source atoms")
        for x, d in table.items():
            if not isinstance(d, SubDist):
                raise ValidationError(f"image of {x!r} must be a SubDist")
            for y, _ in d.weights:
                if y not in Y:
                    raise ValidationError(f"value {y!r} for {x!r} not in target")

    def arrow(self, X, Y, table: dict) -> Arrow:
        self._check_table(X, Y, table)
        return Arrow(X, Y, dict(table))

    def identity(self, X) -> Arrow:
        return Arrow(X, X, {a: dirac(a) for a in X})

    def compose(self, g: Arrow, f: Arrow) -> Arrow:
        self.check_composable(g, f)
        table = {}
        for x, d in f.data.items():
            acc: dict = {}
            for y, w in d.weights:
                for z, v in g.data[y].weights:
                    acc[z] = acc.get(z, ZERO) + w * v
            table[x] = SubDist(tuple(acc.items()))
        return Arrow(f.src, g.dst, table)

    def map_residual(self, f: Arrow, g: Arrow) -> float:
        if f.src != g.src or f.dst != g.dst:
            return 1.0
        worst = ZERO
        for x in f.src:
            df, dg = f.data[x], g.data[x]
            atoms = {a for a, _ in df.weights} | {a for a, _ in dg.weights}
            for a in atoms:
                worst = max(worst, abs(df.weight(a) - dg.weight(a)))
        return float(worst)

    def objects_equal(self, A, B) -> bool:
        return A == B

    # ---- fibre ----

    def top(self, X) -> FuzzyPred:
        return fuzzy(X, lambda a: ONE)

    def bottom(self, X) -> FuzzyPred:
        return fuzzy(X, lambda a: ZERO)

    def pred_leq(self, X, p: FuzzyPred, q: FuzzyPred) -> bool:
        return all(p.value(a) <= q.value(a) for a in X)

    def pred_residual(self, X, p, q) -> float:
        worst = max((abs(p.value(a) - q.value(a)) for a in X), default=ZERO)
        return float(worst)

    def ortho(self, X, p: FuzzyPred) -> FuzzyPred:
        return fuzzy(X, lambda a: ONE - p.value(a))

    def ceil(self, X, p: FuzzyPred) -> FuzzyPred:
        return fuzzy(X, lambda a: ONE if p.value(a) > 0 else ZERO)

    def floor(self, X, p: FuzzyPred) -> FuzzyPred:
        return fuzzy(X, lambda a: ONE if p.value(a) == 1 else ZERO)

    def subst(self, f: Arrow, q: FuzzyPred) -> FuzzyPred:
        def pull(x):
            d = f.data[x]
            return sum((w * q.value(y) for y, w in d.weights), ZERO) + d.star_weight

        return fuzzy(f.src, pull)

    # ---- support / kernel carriers ----

    def _certain_part(self, X, p) -> FiniteSet:
        return FiniteSet(tuple(a for a in X if p.value(a) == 1))

    def quotient(self, X, p: FuzzyPred) -> QuotientResult:
        """Carrier: atoms where p is not certain; the unit keeps each atom
        with probability 1 - p and aborts with probability p."""
        obj = FiniteSet(tuple(a for a in X if p.value(a) < 1))
        table = {}
        for x in X:
            keep = ONE - p.value(x)
            table[x] = SubDist(((x, keep),)) if keep else SubDist(())
        return QuotientResult(obj, Arrow(X, obj, table))

    def comprehension(self, X, p: FuzzyPred) -> ComprehensionResult:
        """Carrier: atoms where p is certain.  A kernel out of truth lands
        in p exactly when all its mass sits on such atoms, so anything
        smaller than the abort-weighted substitution cannot be factored."""
        obj = self._certain_part(X, p)
        counit = Arrow(obj, X, {x: dirac(x) for x in obj})
        return ComprehensionResult(obj, counit)

    def transpose_quotient(self, X, p, f: Arrow) -> Arrow:
        """Divide out the garbage collected into * by the unit: requires
        f to abort at least with probability p pointwise.  Atoms with
        p = 1 fall outside the carrier but still carry a condition: all
        of their mass must abort."""
        for x in X:
            if f.data[x].mass > ONE - p.value(x):
                raise HomConditionError(
                    f"dist: mass {f.data[x].mass} at {x!r} exceeds "
                    f"1 - p = {ONE - p.value(x)}"
                )
        obj = FiniteSet(tuple(a for a in X if p.value(a) < 1))
        table = {}
        for x in obj:
            keep = ONE - p.value(x)
            table[x] = SubDist(tuple((y, w / keep) for y, w in f.data[x].weights))
        return Arrow(obj, f.dst, table)

    def transpose_comprehension(self, X, p, f: Arrow) -> Arrow:
        obj = self._certain_part(X, p)
        table = {}
        for y, d in f.data.items():
            for x, _ in d.weights:
                if x not in obj:
                    raise HomConditionError(
                        f"dist: mass at {y!r} -> {x!r} where p = "
                        f"{p.value(x)} < 1"
                    )
            table[y] = d
        return Arrow(f.src, obj, table)

    # ---- assert / instrument ----

    def assert_closed_form(self, X, p: FuzzyPred) -> Arrow:
        return Arrow(X, X, {x: SubDist(((x, p.value(x)),)) for x in X})

    def instrument_closed_form(self, X, p: FuzzyPred) -> Arrow:
        table = {}
        for x in X:
            v = p.value(x)
            table[x] = SubDist((((1, x), v), ((2, x), ONE - v)))
        return Arrow(X, tagged_double(X), table)

    def instrument_combine(self, X, branch_pass: Arrow, branch_fail: Arrow) -> Arrow:
        table = {}
        for x in X:
            parts = [((1, y), w) for y, w in branch_pass.data[x].weights]
            parts += [((2, y), w) for y, w in branch_fail.data[x].weights]
            table[x] = SubDist(tuple(parts))
        return Arrow(X, tagged_double(X), table)

    def codiagonal(self, X) -> Arrow:
        dd = tagged_double(X)
        return Arrow(dd, X, {a: dirac(a[1]) for a in dd})

    # ---- sampling ----

    def rand_object(self, rng, bounds, like=None) -> FiniteSet:
        n = rng.randint(1, bounds.get("max_size", 4))
        base = rng.randint(0, 20)
        return FiniteSet(tuple(range(base, base + n)))

    def _rand_frac(self, rng, bounds, lo=ZERO, hi=ONE) -> Fraction:
        den = rng.randint(1, bounds.get("max_den", 16))
        num = rng.randint(0, den)
        return lo + (hi - lo) * Fraction(num, den)

    def _rand_subdist(self, rng, bounds, atoms, cap=ONE) -> SubDist:
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

    def rand_pred(self, rng, X, bounds) -> FuzzyPred:
        return fuzzy(X, lambda a: self._rand_frac(rng, bounds))

    def rand_arrow(self, rng, X, Y, bounds) -> Arrow:
        return Arrow(X, Y, {x: self._rand_subdist(rng, bounds, Y.atoms) for x in X})

    def rand_quotient_hom(self, rng, X, p, Y, bounds) -> Arrow:
        """Built with mass at most 1 - p(x), so the hom condition holds by
        construction."""
        table = {x: self._rand_subdist(rng, bounds, Y.atoms, ONE - p.value(x))
                 for x in X}
        return Arrow(X, Y, table)

    def rand_comprehension_hom(self, rng, X, p, Y, bounds) -> Arrow:
        core = self._certain_part(X, p)
        return Arrow(Y, X, {y: self._rand_subdist(rng, bounds, core.atoms)
                            for y in Y})

    def perturb_arrow(self, rng, f: Arrow, bounds) -> Arrow:
        """Move a nonzero amount of mass at one input between an atom and *."""
        xs = [x for x in f.src if len(f.dst)]
        if not xs:
            return f
        x = rng.choice(xs)
        d = f.data[x]
        y = rng.choice(f.dst.atoms)
        w = d.weight(y)
        room = d.star_weight
        if room > 0 and (w == 0 or rng.random() < 0.5):
            delta = self._rand_frac(rng, bounds, ZERO, room)
            if delta == 0:
                delta = room
            new_w = w + delta
        elif w > 0:
            delta = self._rand_frac(rng, bounds, ZERO, w)
            if delta == 0:
                delta = w
            new_w = w - delta
        else:
            return f
        pairs = tuple((a, v) for a, v in d.weights if a != y) + ((y, new_w),)
        table = dict(f.data)
        table[x] = SubDist(pairs)
        return Arrow(f.src, f.dst, table)

    # ---- serialization ----

    def object_to_json(self, X):
        return [atom_to_json(a) for a in X]

    def pred_to_json(self, X, p: FuzzyPred):
        return [[atom_to_json(a), frac_to_json(v)] for a, v in p.table]

    def arrow_to_json(self, f: Arrow):
        out = []
        for x in f.src:
            d = f.data[x]
            row = [[atom_to_json(y), frac_to_json(w)] for y, w in d.weights]
            if d.star_weight:
                row.append(["*", frac_to_json(d.star_weight)])
            out.append([atom_to_json(x), row])
        return out
