"""Generic machinery shared by all chain instances.

An instance provides one category (arrows may be partial maps, kernels,
subunital ring maps, superoperators, or plain linear maps) together with a
predicate poset over every object and four pieces of structure:

  * substitution of predicates along arrows, preserving the top predicate,
  * truth/falsum sections embedding plain objects into predicated ones,
  * a quotient construction with its unit arrow, left adjoint to falsum,
  * a comprehension construction with its counit arrow, right adjoint
    to truth.

On top of those hooks this module derives assert maps (comprehension
counit after quotient unit), instruments (both asserts combined into one
total map), and the side-effect test for a predicate.

Arrow direction convention: ``Arrow.src``/``Arrow.dst`` are always the
chain-category endpoints.  Instances whose underlying data runs the other
way (ring and operator-algebra maps are linear maps from the codomain's
carrier to the domain's) keep that reversal inside ``data``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Iterator


class ChainError(Exception):
    """Base class for chain-level failures."""


class CompositionError(ChainError):
    """Arrow endpoints do not line up."""


class HomConditionError(ChainError):
    """A transpose was requested for a map violating its hom condition."""


class ValidationError(ChainError):
    """A value breaks its structural invariants."""


class UnsupportedError(ChainError):
    """The instance does not provide the requested structure."""


class _Star:
    # Bottom marker used in partial-map tables; a singleton distinct from
    # every atom so tables can never confuse "undefined" with a value.
    _only = None

    def __new__(cls):
        if cls._only is None:
            cls._only = super().__new__(cls)
        return cls._only

    def __repr__(self):
        return "*"


STAR = _Star()


def atom_key(a):
    """Total order on atoms: ints, then strings, then tuples, then *."""
    if isinstance(a, bool):
        raise ValidationError("bool atoms are ambiguous; use 0/1 or a string")
    if isinstance(a, int):
        return (0, a)
    if isinstance(a, str):
        return (1, a)
    if isinstance(a, tuple):
        return (2, tuple(atom_key(x) for x in a))
    if a is STAR:
        return (3,)
    raise ValidationError(f"unsupported atom {a!r}")


def atom_to_json(a):
    if a is STAR:
        return "*"
    if isinstance(a, tuple):
        return [atom_to_json(x) for x in a]
    return a


@dataclass(frozen=True)
class PredObject:
    """An object of the predicated (total) category: a carrier plus a
    predicate in the fibre over it."""

    base: Any
    pred: Any


@dataclass(frozen=True, eq=False)
class Arrow:
    """A chain-category arrow.  ``data`` is instance-specific."""

    src: Any
    dst: Any
    data: Any


@dataclass(frozen=True, eq=False)
class QuotientResult:
    """Quotient object together with its unit arrow X -> X/p."""

    obj: Any
    unit: Arrow


@dataclass(frozen=True, eq=False)
class ComprehensionResult:
    """Comprehension object together with its counit arrow {X|p} -> X."""

    obj: Any
    counit: Arrow


class ChainInstance(ABC):
    """Hook bundle provided by one instance.  All operations are pure and
    all values immutable, so instances are freely shareable."""

    name = "?"
    description = ""
    exact = True          # morphism equality is exact, not tolerance-based
    has_ortho = True      # the fibres carry an orthocomplement
    has_instrument = True # the instance supports instrument combination
    eq_tol = 0.0          # residual accepted as equality
    hom_tol = 0.0         # slack accepted in hom-condition checks
    extra_laws = ()       # laws checked beyond those every instance gets

    # ---- category -------------------------------------------------

    @abstractmethod
    def identity(self, X) -> Arrow:
        ...

    @abstractmethod
    def compose(self, g: Arrow, f: Arrow) -> Arrow:
        """g after f; raises CompositionError if f.dst != g.src."""

    @abstractmethod
    def map_residual(self, f: Arrow, g: Arrow) -> float:
        """Worst deviation between two parallel arrows (0.0 when equal)."""

    @abstractmethod
    def objects_equal(self, A, B) -> bool:
        ...

    def maps_equal(self, f: Arrow, g: Arrow) -> bool:
        if not (self.objects_equal(f.src, g.src) and self.objects_equal(f.dst, g.dst)):
            return False
        return self.map_residual(f, g) <= self.eq_tol

    def check_composable(self, g: Arrow, f: Arrow) -> None:
        if not self.objects_equal(f.dst, g.src):
            raise CompositionError(
                f"{self.name}: cannot compose, middle objects differ: "
                f"{f.dst!r} vs {g.src!r}"
            )

    # ---- fibres ---------------------------------------------------

    @abstractmethod
    def top(self, X):
        ...

    @abstractmethod
    def bottom(self, X):
        ...

    @abstractmethod
    def pred_leq(self, X, p, q) -> bool:
        ...

    @abstractmethod
    def pred_residual(self, X, p, q) -> float:
        ...

    def preds_equal(self, X, p, q) -> bool:
        return self.pred_residual(X, p, q) <= self.eq_tol

    def ortho(self, X, p):
        raise UnsupportedError(f"{self.name}: fibres have no orthocomplement")

    def ceil(self, X, p):
        return p

    def floor(self, X, p):
        return p

    def is_sharp(self, X, p) -> bool:
        return self.preds_equal(X, p, self.ceil(X, p))

    @abstractmethod
    def subst(self, f: Arrow, q):
        """Substitution along f: a predicate over f.dst becomes one over f.src."""

    # ---- quotient and comprehension -------------------------------

    @abstractmethod
    def quotient(self, X, p) -> QuotientResult:
        ...

    @abstractmethod
    def comprehension(self, X, p) -> ComprehensionResult:
        ...

    @abstractmethod
    def transpose_quotient(self, X, p, f: Arrow) -> Arrow:
        """f: X -> Y collapsing p (a hom (X,p) -> falsum Y) becomes the
        mediating arrow X/p -> Y.  Raises HomConditionError otherwise."""

    @abstractmethod
    def transpose_comprehension(self, X, p, f: Arrow) -> Arrow:
        """f: Y -> X landing where p holds (a hom truth Y -> (X,p)) becomes
        the mediating arrow Y -> {X|p}.  Raises HomConditionError otherwise."""

    def untranspose_quotient(self, X, p, g: Arrow) -> Arrow:
        q = self.quotient(X, p)
        return self.compose(g, q.unit)

    def untranspose_comprehension(self, X, p, g: Arrow) -> Arrow:
        c = self.comprehension(X, p)
        return self.compose(c.counit, g)

    # ---- instrument support ---------------------------------------

    def instrument_combine(self, X, branch_pass: Arrow, branch_fail: Arrow) -> Arrow:
        raise UnsupportedError(f"{self.name}: no instrument combination")

    def codiagonal(self, X) -> Arrow:
        raise UnsupportedError(f"{self.name}: no codiagonal")

    def assert_closed_form(self, X, p) -> Arrow:
        raise UnsupportedError(f"{self.name}: no closed-form assert")

    def instrument_closed_form(self, X, p) -> Arrow:
        raise UnsupportedError(f"{self.name}: no closed-form instrument")

    # ---- harness hooks --------------------------------------------
    # Seeded samplers; exact instances may additionally provide the
    # iter_*/count_* enumerators used for exhaustive checks.  `bounds`
    # is a plain dict of instance-understood size knobs.

    def rand_object(self, rng, bounds, like=None):
        """Sample a carrier within bounds; `like` is an existing carrier
        the sample must be compatible with (same base field etc.)."""
        raise UnsupportedError(f"{self.name}: no object sampler")

    def rand_pred(self, rng, X, bounds):
        raise UnsupportedError(f"{self.name}: no predicate sampler")

    def rand_arrow(self, rng, X, Y, bounds) -> Arrow:
        raise UnsupportedError(f"{self.name}: no arrow sampler")

    def rand_quotient_hom(self, rng, X, p, Y, bounds) -> Arrow:
        """Arrow X -> Y satisfying the quotient hom condition for p,
        built by construction rather than rejection."""
        raise UnsupportedError(f"{self.name}: no quotient hom sampler")

    def rand_comprehension_hom(self, rng, X, p, Y, bounds) -> Arrow:
        """Arrow Y -> X landing where p holds, built by construction."""
        raise UnsupportedError(f"{self.name}: no comprehension hom sampler")

    def perturb_arrow(self, rng, f: Arrow, bounds) -> Arrow:
        """A valid arrow with the same endpoints but different data."""
        raise UnsupportedError(f"{self.name}: no perturbation sampler")

    def iter_preds(self, X) -> Iterator:
        raise UnsupportedError(f"{self.name}: fibre not enumerable")

    def iter_objects(self, bounds) -> Iterator:
        raise UnsupportedError(f"{self.name}: objects not enumerable")

    def iter_arrows(self, X, Y) -> Iterator:
        raise UnsupportedError(f"{self.name}: arrows not enumerable")

    def count_arrows(self, X, Y):
        """Number of arrows X -> Y, or None when not enumerable."""
        return None

    def comparable_objects(self, X, Y) -> bool:
        """Whether arrows between the two carriers exist at all (same
        base field and the like); used by exhaustive sweeps."""
        return True

    def predicts_side_effect_free(self, X, p, tol) -> bool:
        """Whether measuring p should leave no trace, i.e. whether the
        instrument with its outcome forgotten is the identity.  True by
        default, as in the classical and probabilistic instances."""
        return True

    def subunital_defect(self, f: Arrow) -> float:
        """How far f maps the unit outside [0, 1]; 0.0 for instances whose
        arrows are subunital by construction."""
        return 0.0

    def coincidence_residual(self, X, p, q: QuotientResult,
                             c: ComprehensionResult) -> float:
        """Extra carrier-level agreement beyond objects_equal, for
        instances whose canonical carriers hide a chosen basis."""
        return 0.0

    # ---- serialization --------------------------------------------

    def object_to_json(self, X):
        return repr(X)

    def pred_to_json(self, X, p):
        return repr(p)

    def arrow_to_json(self, f: Arrow):
        return repr(f.data)

    def arrow_key(self, f: Arrow):
        """Hashable key telling apart arrows with the same endpoints, for
        the bijection checks; it holds no reference to f's data."""
        return repr(self.arrow_to_json(f))


# ---- generic operations over an instance ---------------------------


def kleisli_compose(inst: ChainInstance, g: Arrow, f: Arrow) -> Arrow:
    """Composition in the instance's category of partial maps."""
    return inst.compose(g, f)


def truth(inst: ChainInstance, X) -> PredObject:
    return PredObject(X, inst.top(X))


def falsum(inst: ChainInstance, X) -> PredObject:
    return PredObject(X, inst.bottom(X))


def hom_check(inst: ChainInstance, f: Arrow, src: PredObject, dst: PredObject) -> bool:
    """True iff f is an arrow of predicated objects src -> dst, i.e.
    src.pred is below the substitution of dst.pred along f."""
    if not (inst.objects_equal(f.src, src.base) and inst.objects_equal(f.dst, dst.base)):
        raise CompositionError(
            f"{inst.name}: arrow endpoints do not match the predicated objects"
        )
    return inst.pred_leq(src.base, src.pred, inst.subst(f, dst.pred))


def derive_assert(inst: ChainInstance, X, p) -> Arrow:
    """Assert map for p: quotient-collapse the complement, then embed the
    support back.  Requires the two middle objects to coincide."""
    if not inst.has_ortho:
        raise UnsupportedError(f"{inst.name}: assert needs an orthocomplement")
    q = inst.quotient(X, inst.ortho(X, p))
    c = inst.comprehension(X, inst.ceil(X, p))
    if not inst.objects_equal(q.obj, c.obj):
        raise ChainError(
            f"{inst.name}: quotient of the complement and comprehension of "
            f"the support produced different objects"
        )
    return inst.compose(c.counit, q.unit)


def derive_instrument(inst: ChainInstance, X, p) -> Arrow:
    """Instrument for p: both asserts combined into one total map that
    tags which branch happened."""
    branch_pass = derive_assert(inst, X, p)
    branch_fail = derive_assert(inst, X, inst.ortho(X, p))
    return inst.instrument_combine(X, branch_pass, branch_fail)


def side_effect(inst: ChainInstance, X, p) -> tuple[Arrow, bool]:
    """The instrument with its outcome tag forgotten, and whether that
    equals the identity (measurement left no trace)."""
    instr = derive_instrument(inst, X, p)
    merged = inst.compose(inst.codiagonal(X), instr)
    return merged, inst.maps_equal(merged, inst.identity(X))
