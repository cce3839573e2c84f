"""Quotient-comprehension chains over seven concrete instances.

Every instance bundles a category of (possibly partial) maps with a poset
of predicates over each object.  Truth and falsum embed plain objects into
predicated ones; quotient collapses the region where a predicate holds and
comprehension carves out the region where it holds with certainty.  Assert
maps and measurement instruments fall out of those two constructions, and
the harness checks all of the defining laws with seeded or exhaustive
case generation.
"""

from .core import (
    STAR,
    Arrow,
    ChainError,
    CompositionError,
    HomConditionError,
    PredObject,
    UnsupportedError,
    ValidationError,
    derive_assert,
    derive_instrument,
    falsum,
    hom_check,
    side_effect,
    truth,
)
from .registry import INSTANCES, get_instance

__version__ = "0.1.0"

__all__ = [
    "STAR",
    "Arrow",
    "ChainError",
    "CompositionError",
    "HomConditionError",
    "PredObject",
    "UnsupportedError",
    "ValidationError",
    "derive_assert",
    "derive_instrument",
    "falsum",
    "hom_check",
    "side_effect",
    "truth",
    "INSTANCES",
    "get_instance",
    "__version__",
]
