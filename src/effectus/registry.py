"""Singleton registry of the seven built-in chain instances."""

from __future__ import annotations

from .core import UnsupportedError
from .kleisli import DistChain, NondetChain, SetsChain
from .linear import FpChain, HilbChain
from .ring import RingChain
from .vn import VnChain

INSTANCES = {
    inst.name: inst
    for inst in (
        SetsChain(),
        NondetChain(),
        DistChain(),
        FpChain(),
        HilbChain(),
        RingChain(),
        VnChain(),
    )
}


def get_instance(name: str):
    try:
        return INSTANCES[name]
    except KeyError:
        known = ", ".join(sorted(INSTANCES))
        raise UnsupportedError(f"unknown instance {name!r}; one of: {known}") from None
