"""Stable names for built-in instances, addressable from the CLI and files."""

from __future__ import annotations

from functools import lru_cache

from ..errors import DomainError
from ..structures import TopogenousOrder, discrete_order
from . import groups, topgroups
from .topology import (
    FinTopSpace,
    SIERPINSKI,
    SIERPINSKI_OP,
    closure_order,
    discrete,
    discrete_coreflection,
    enumerate_topologies,
    fintop_fibration,
    fintop_upto,
    indiscrete,
    interior_order,
    t0_reflection,
)


def builtin_space(name: str) -> FinTopSpace:
    named = {
        "empty": FinTopSpace(0, (0,)),
        "pt": discrete(1),
        "discrete2": discrete(2),
        "indiscrete2": indiscrete(2),
        "sierpinski": SIERPINSKI,
        "sierpinski_op": SIERPINSKI_OP,
        "discrete3": discrete(3),
        "indiscrete3": indiscrete(3),
    }
    if name in named:
        return named[name]
    if name.startswith("t3_"):
        ranked = enumerate_topologies(3)
        try:
            return ranked[int(name[3:])]
        except (ValueError, IndexError):
            raise DomainError(f"unknown 3-point space {name!r}") from None
    raise DomainError(f"unknown built-in space {name!r}")


@lru_cache(maxsize=None)
def builtin_fibration(name: str):
    """The built-in fibration ``name``, built once per process.

    Its maps are tabulated before it is cached, since every consumer of a
    built-in reads them: a process pays for them where it first asks for
    the fibration, as a set-up that builds the built-ins does.
    """
    fib = _untabulated_builtin(name)
    fib.img  # the first read of a morphism field tabulates the maps
    return fib


def _untabulated_builtin(name: str):
    if name in ("fintop1", "fintop2", "fintop3"):
        return fintop_upto(int(name[-1]))
    if name == "disc2_loop":
        # single-object category: the 2-point discrete space and its four self-maps
        return fintop_fibration([discrete(2)], name=name)
    if name == "t0_small":
        return fintop_fibration([builtin_space("pt"), builtin_space("indiscrete2")], name=name)
    if name == "coreflect_small":
        return fintop_fibration([builtin_space("sierpinski"), builtin_space("discrete2")], name=name)
    if name == "grp_small":
        return groups.fingrp_fibration(groups.small_catalog(), name=name)
    if name == "grp_le4":
        return groups.fingrp_fibration(groups.catalog_le4(), name=name)
    if name == "grp_le8":
        return groups.fingrp_fibration(groups.catalog(), name=name)
    if name == "topgrp_le4":
        return topgroups.topgrp_fibration().total
    raise DomainError(
        f"unknown built-in fibration {name!r} (known: {', '.join(FIBRATION_NAMES)})"
    )


def builtin_functor(name: str):
    if name == "topgrp_le4":
        return topgroups.topgrp_fibration()
    raise DomainError(f"unknown built-in fibered functor {name!r}")


# each built-in order kind and the order it builds on a fibration
_ORDERS = {"closure": closure_order, "interior": interior_order,
           "grp_normal": groups.normal_interval_order, "leq": discrete_order}
ORDER_KINDS = tuple(_ORDERS)


def builtin_order(kind: str, fib) -> TopogenousOrder:
    if kind not in _ORDERS:
        raise DomainError(f"unknown order kind {kind!r} (one of {ORDER_KINDS})")
    return _ORDERS[kind](fib)


ENDOFUNCTORS = {
    ("pointed", "t0"): t0_reflection,
    ("copointed", "discrete"): discrete_coreflection,
}


def builtin_endofunctor(side: str, name: str, fib):
    if (side, name) not in ENDOFUNCTORS:
        raise DomainError(f"unknown built-in {side} endofunctor {name!r}")
    return ENDOFUNCTORS[side, name](fib)


FIBRATION_NAMES = (
    "fintop1", "fintop2", "fintop3", "disc2_loop", "t0_small", "coreflect_small",
    "grp_small", "grp_le4", "grp_le8", "topgrp_le4",
)
