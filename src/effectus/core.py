"""Generic machinery shared by all chain instances.

An instance provides one category (arrows may be partial maps, kernels,
subunital ring maps, superoperators, or plain linear maps) together with a
predicate poset over every object and four pieces of structure:

  * substitution of predicates along arrows, preserving the top predicate,
  * truth/falsum sections embedding plain objects into predicated ones,
  * a quotient construction with its unit arrow, left adjoint to falsum,
  * a comprehension construction with its counit arrow, right adjoint
    to truth.

Both are one `Construction`, told apart by `epi`, which carries its
universal property as two maps of data at a far end Y, closed over what
building it computed: the transpose and its inverse through the unit or
counit, which `transpose` and `untranspose`, here alone, wrap into
arrows.  `ends(A, Y)` orders the ends of an arrow between A (the carrier,
or X for a hom) and Y, and `hom_objects` names the objects a hom joins.

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
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Iterator, NamedTuple


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


def check_size(n, what: str, least: int = 0) -> None:
    # a bool is refused, as atom_key refuses bool atoms
    if isinstance(n, bool) or not isinstance(n, int) or n < least:
        raise ValidationError(f"{what} {n!r} must be an int >= {least}")


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


class Arrow(NamedTuple):
    """A chain-category arrow.  ``data`` is instance-specific.  Arrows
    compare and hash by identity, as the instances' `maps_equal` is what
    tells them apart."""

    src: Any
    dst: Any
    data: Any

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


# Arrow(src, dst, data) as one C call, without the Python-level __new__
# of a NamedTuple, for the exact instances' iter_arrows and compose and
# the constructions' transposes.
make_arrow = partial(tuple.__new__, Arrow)


def picker(positions):
    """data -> the tuple of data's entries at `positions`, in one C call."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


@dataclass(frozen=True, eq=False)
class Construction:
    """A quotient X/p, left adjoint to falsum, if `epi`, else a comprehension
    {X|p}, right adjoint to truth.  `arrow` is the unit X -> X/p, which must
    be epi, or the counit {X|p} -> X, which must be mono.  `transpose` sends
    a hom between `hom_objects` (f: X -> Y collapsing p, or f: Y -> X landing
    where p holds) to the mediating arrow between the carrier and Y, else
    raises HomConditionError; `untranspose` composes g with `arrow`, whose
    `untranspose_data` is built once from `arrow` by `inst.precompose` or
    `postcompose`."""

    inst: Any
    obj: Any
    arrow: Arrow
    transpose_data: Callable  # (f.data, Y) -> the mediating map's data
    epi: bool = field(kw_only=True)
    # (g.data, Y) -> the data of g composed with arrow
    untranspose_data: Callable = field(init=False, repr=False)

    def __post_init__(self):
        carry = self.inst.precompose if self.epi else self.inst.postcompose
        object.__setattr__(self, "untranspose_data", carry(self.arrow))

    def ends(self, A, Y):
        return (A, Y) if self.epi else (Y, A)

    def hom_objects(self, X, p, Y):
        return self.ends(PredObject(X, p), (falsum if self.epi else truth)(self.inst, Y))

    def transpose(self, f: Arrow) -> Arrow:
        Y = f.dst if self.epi else f.src
        return make_arrow((*self.ends(self.obj, Y), self.transpose_data(f.data, Y)))

    def untranspose(self, g: Arrow) -> Arrow:
        first, then = self.ends(self.arrow, g)
        self.inst.check_composable(then, first)
        Y = g.dst if self.epi else g.src
        return make_arrow((first.src, then.dst, self.untranspose_data(g.data, Y)))


class Law(NamedTuple):
    """A law as the harness states and checks it: `case(inst, rng, bounds)`
    runs ONE seeded case and returns (residual, detail), detail being
    None exactly when the law held, else the witness detail."""

    statement: str
    case: Callable

    @classmethod
    def on_fibre(cls, statement: str, check: Callable) -> Law:
        """A law of one predicate p on one object X: each case draws X,
        then p, and returns `check(inst, X, p)`, naming X and p in the
        detail of a violation."""
        def case(inst, rng, bounds):
            X = inst.rand_object(rng, bounds)
            p = inst.rand_pred(rng, X, bounds)
            res, detail = check(inst, X, p)
            return res, detail if detail is None else {
                **detail, "X": inst.object_to_json(X), "p": inst.pred_to_json(X, p)}
        return cls(statement, case)


# The laws every instance satisfies, and those of fibres with an
# orthocomplement; the harness states and checks each by name.
CHAIN_LAWS = ("kleisli-laws", "subst-functor", "truth-falsum",
              "quotient-adjunction", "comprehension-adjunction")
ORTHO_LAWS = ("factorization", "coincidence", "sharpness")


class ChainInstance(ABC):
    """Hook bundle provided by one instance.  All operations are pure and
    all values immutable, so instances are freely shareable."""

    name = "?"
    description = ""
    eq_tol = 0.0  # the instance's one tolerance: equality, order, vn's hom conditions
    laws = CHAIN_LAWS + ORTHO_LAWS + ("instrument",)  # the laws it carries
    own_laws = {}  # name -> Law of each law only it carries, also in `laws`
    # Sampled cases per law in the default suite, sized so the whole suite
    # stays well under two minutes, and the bounds of the small exhaustive
    # adjunction sweeps it adds (None: no sweep); the acceptance tests run
    # the full-size sweeps.
    default_cases = 50
    default_sweep = None

    @property
    def exact(self) -> bool:
        """Whether morphism equality is exact, not tolerance-based."""
        return self.eq_tol == 0

    # ---- category -------------------------------------------------

    @abstractmethod
    def identity(self, X) -> Arrow:
        ...

    @abstractmethod
    def compose(self, g: Arrow, f: Arrow) -> Arrow:
        """g after f; raises CompositionError if f.dst != g.src."""

    def map_residual(self, f: Arrow, g: Arrow) -> float:
        """Worst deviation between f and g: 1.0 unless parallel, else `data_residual`."""
        if not (self.objects_equal(f.src, g.src) and self.objects_equal(f.dst, g.dst)):
            return 1.0
        return self.data_residual(f.data, g.data)

    def data_residual(self, d, e) -> float:
        """Worst deviation between the data of two parallel arrows (0.0
        when equal); by default 0.0 or 1.0, for data compared exactly."""
        return 0.0 if d == e else 1.0

    def objects_equal(self, A, B) -> bool:
        return A is B or A == B

    def maps_equal(self, f: Arrow, g: Arrow) -> bool:
        # the ends test stands apart, so no tolerance makes non-parallel maps equal
        if not (self.objects_equal(f.src, g.src) and self.objects_equal(f.dst, g.dst)):
            return False
        return self.data_residual(f.data, g.data) <= self.eq_tol

    def check_composable(self, g: Arrow, f: Arrow) -> None:
        if not self.objects_equal(f.dst, g.src):
            raise CompositionError(
                f"{self.name}: cannot compose, middle objects differ: "
                f"{f.dst!r} vs {g.src!r}"
            )

    def precompose(self, f: Arrow) -> Callable:
        """(d, Y) -> the data of g after f, for one unit f and many g: f.dst -> Y
        of data d, whose start the construction checks: read f once."""
        return lambda d, Y: self.compose(make_arrow((f.dst, Y, d)), f).data

    def postcompose(self, f: Arrow) -> Callable:
        """(d, Y) -> the data of f after g: Y -> f.src, for one counit f, likewise."""
        return lambda d, Y: self.compose(f, make_arrow((Y, f.src, d))).data

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
    def quotient(self, X, p) -> Construction:
        ...

    @abstractmethod
    def comprehension(self, X, p) -> Construction:
        ...

    def transpose_quotient(self, X, p, f: Arrow) -> Arrow:
        return self.quotient(X, p).transpose(f)

    def transpose_comprehension(self, X, p, f: Arrow) -> Arrow:
        return self.comprehension(X, p).transpose(f)

    # ---- instrument support ---------------------------------------

    def instrument_combine(self, X, branch_pass: Arrow, branch_fail: Arrow) -> Arrow:
        raise UnsupportedError(f"{self.name}: no instrument combination")

    def codiagonal(self, X) -> Arrow:
        raise UnsupportedError(f"{self.name}: no codiagonal")

    def assert_closed_form(self, X, p) -> Arrow:
        raise UnsupportedError(f"{self.name}: no closed-form assert")

    def instrument_closed_form(self, X, p) -> Arrow:
        """By default the closed-form asserts of p and of its complement, combined."""
        return self.instrument_combine(X, self.assert_closed_form(X, p),
                                       self.assert_closed_form(X, self.ortho(X, p)))

    # ---- harness hooks --------------------------------------------
    # Seeded samplers; the hom sampler defaults to a random map through
    # the construction the caller already built.  Exact instances may add
    # the iter_*/count_* enumerators, for exhaustive checks.  `iter_homs`
    # yields exactly the homs' data, each once, in a fixed order: the sweep
    # round-trips each and counts them against the candidates, asking no
    # `hom_check` itself.  `bounds` is a dict of instance size knobs.

    def rand_object(self, rng, bounds, like=None):
        """Sample a carrier within bounds; `like` is an existing carrier
        the sample must be compatible with (same base field etc.)."""
        raise UnsupportedError(f"{self.name}: no object sampler")

    def rand_pred(self, rng, X, bounds):
        raise UnsupportedError(f"{self.name}: no predicate sampler")

    def rand_arrow(self, rng, X, Y, bounds) -> Arrow:
        raise UnsupportedError(f"{self.name}: no arrow sampler")

    def rand_hom(self, rng, X, p, built, Y, bounds) -> Arrow:
        """A hom between `built.hom_objects(X, p, Y)`, `built` being the
        Construction of X's quotient or comprehension by p: a random
        mediating map untransposed, a hom by the universal property."""
        return built.untranspose(self.rand_arrow(rng, *built.ends(built.obj, Y), bounds))

    def iter_homs(self, built, X, p, Y) -> Iterator:
        """The data of exactly the homs between `built.hom_objects(X, p,
        Y)`, `built` a Construction as in `rand_hom`, each once, in a fixed
        order; by default of the arrows between X and Y that pass hom_check."""
        objs = built.hom_objects(X, p, Y)
        return (f.data for f in self.iter_arrows(*built.ends(X, Y)) if hom_check(self, f, *objs))

    def iter_preds(self, X) -> Iterator:
        raise UnsupportedError(f"{self.name}: fibre not enumerable")

    def iter_objects(self, bounds) -> Iterator:
        raise UnsupportedError(f"{self.name}: objects not enumerable")

    def iter_arrows(self, X, Y) -> Iterator:
        raise UnsupportedError(f"{self.name}: arrows not enumerable")

    def count_arrows(self, X, Y):
        """Number of arrows X -> Y, or None when not enumerable."""
        return None

    def cancels(self, f: Arrow, epi: bool) -> bool:
        """Whether the instance's test shows f epi (if `epi`) or mono;
        False when it has no test."""
        return False

    def comparable_objects(self, X, Y) -> bool:
        """Whether arrows between the two carriers exist at all (same
        base field and the like); used by exhaustive sweeps."""
        return True

    def predicts_side_effect_free(self, X, p) -> bool:
        """Whether measuring p should leave no trace, i.e. whether the
        instrument with its outcome forgotten is the identity.  True by
        default, as in the classical and probabilistic instances."""
        return True

    def subunital_defect(self, f: Arrow) -> float:
        """How far f maps the unit outside [0, 1]; 0.0 for instances whose
        arrows are subunital by construction."""
        return 0.0

    def coincidence_residual(self, X, p, q: Construction, c: Construction) -> float:
        """Extra agreement of the quotient q and comprehension c beyond
        objects_equal, for instances whose carriers hide a chosen basis."""
        return 0.0

    # ---- serialization --------------------------------------------

    def object_to_json(self, X):
        return repr(X)

    def pred_to_json(self, X, p):
        return repr(p)

    def arrow_to_json(self, f: Arrow):
        return repr(f.data)


# ---- generic operations over an instance ---------------------------


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
    q = inst.quotient(X, inst.ortho(X, p))
    c = inst.comprehension(X, inst.ceil(X, p))
    if not inst.objects_equal(q.obj, c.obj):
        raise ChainError(
            f"{inst.name}: quotient of the complement and comprehension of "
            f"the support produced different objects"
        )
    return inst.compose(c.arrow, q.arrow)


def derive_instrument(inst: ChainInstance, X, p) -> Arrow:
    """Instrument for p: both asserts combined into one total map that
    tags which branch happened."""
    branch_pass = derive_assert(inst, X, p)
    branch_fail = derive_assert(inst, X, inst.ortho(X, p))
    return inst.instrument_combine(X, branch_pass, branch_fail)


def side_effect(inst: ChainInstance, instr: Arrow) -> tuple[Arrow, bool]:
    """The instrument `instr` on X = instr.src with its outcome tag
    forgotten, and whether that equals the identity on X (measurement
    left no trace)."""
    X = instr.src
    merged = inst.compose(inst.codiagonal(X), instr)
    return merged, inst.maps_equal(merged, inst.identity(X))
