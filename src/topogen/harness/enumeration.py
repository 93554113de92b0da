"""Exhaustive enumeration of structures on small fibrations.

Each kind states its law along a morphism once, as data (``law_along`` of
its class in ``structures``, a ``LawAlong``: index pairs and two lookups).
Each object's candidates obey the local axioms and the kind's law along the
object's own endomorphisms from the start: a backtracking search places one
entry per lattice element and checks each index pair of the law, read off
the ``LawAlong``'s fields, as soon as both of its entries are placed, rather
than generating every local table and filtering afterwards.  Then a
backtracking product applies the law along the other morphisms
incrementally, each decided over two whole rows by ``LawAlong.holds``, the
validator's reader, which stops at the first failing pair.
Output order is deterministic: the structures come in sorted order of
their tables.

The local candidates are memoised for the life of the process by
``local_candidates``'s key.  The property filter, the cross-object product,
the lattice cap ``MAX_LATTICE`` and the candidate budget belong to each call
and never enter a memo.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Optional

from ..errors import DomainError, PreconditionError, ResourceCapError
from ..lattice import FiniteLattice
from ..site import SubobjectFibration
from ..structures import (
    ClosureOperator,
    InteriorOperator,
    NeighbourhoodOperator,
    TopogenousOrder,
    is_interpolative,
    is_join_preserving,
    is_meet_preserving,
)

DEFAULT_MAX_CANDIDATES = 1 << 24
ENV_MAX_CANDIDATES = "TOPOGEN_MAX_CANDIDATES"
MAX_LATTICE = 16

# each enumerable kind and its structure class, which holds the kind's law
KINDS = {
    cls.kind: cls
    for cls in (TopogenousOrder, ClosureOperator, InteriorOperator, NeighbourhoodOperator)
}


@dataclass(frozen=True)
class EnumerationSpec:
    fibration: SubobjectFibration
    kind: str
    prop_filter: Optional[str] = None   # "meet" | "join" | "interpolative"


def _budget() -> int:
    """The candidate budget: the environment variable, else the default; a
    positive integer or ``DomainError``."""
    env = os.environ.get(ENV_MAX_CANDIDATES)
    if not env:
        return DEFAULT_MAX_CANDIDATES
    try:
        value = int(env)
    except ValueError:
        raise DomainError(f"{ENV_MAX_CANDIDATES}={env!r} is not an integer") from None
    if value < 1:
        raise DomainError(f"{ENV_MAX_CANDIDATES}={value} must be at least 1")
    return value


# ---------------------------------------------------------------------------
# local candidate generation


def _tables(lat: FiniteLattice, kind: str, laws) -> tuple[tuple[int, ...], ...]:
    """Every table of ``kind`` on ``lat`` that obeys the object-local axioms
    and each ``LawAlong`` of ``laws`` from the table to itself; sorted.

    A relation row lies below its element, is an up-set and is antitone in
    the element; an operator value is above (closure) or below (interior)
    its element and monotone in it.  Elements are placed in order of their
    down-set size, so each after all below it, and each check runs as soon
    as both of its entries are placed.
    """
    if kind in ("closure", "interior"):
        allowed = lat.up if kind == "closure" else lat.down
        # (value, its mask, the bound it puts on the values above it)
        values = [(v, 1 << v, lat.up[v]) for v in range(lat.size)]
    else:
        allowed = lat.up
        values = [(u, u, u) for u in lat.upsets()]
    order = sorted(range(lat.size), key=lambda e: lat.down[e].bit_count())
    position = {e: pos for pos, e in enumerate(order)}
    below = [[d for d in order[:pos] if lat.leq(d, e)] for pos, e in enumerate(order)]
    # per position, the law's pairs (a, b) due once both entries are placed,
    # each with its lookups: the law fails at (a, b) iff lhs[table[a]] (or
    # table[a] itself where lhs is None) has a bit outside rhs[table[b]]
    due = [[] for _ in order]
    for law in laws:
        for a, b in zip(law.cod_index, law.dom_index):
            due[max(position[a], position[b])].append((a, b, law.lhs, law.rhs))
    out = []
    table, bounds = [0] * lat.size, [0] * lat.size

    def place(pos):
        if pos == lat.size:
            out.append(tuple(table))
            return
        e = order[pos]
        bound = allowed[e]
        for d in below[pos]:
            bound &= bounds[d]
        for v, mask, above in values:
            if mask & ~bound == 0:
                table[e], bounds[e] = v, above
                if not any(
                    (table[a] if lhs is None else lhs[table[a]]) & ~rhs[table[b]]
                    for a, b, lhs, rhs in due[pos]
                ):
                    place(pos + 1)

    place(0)
    return tuple(sorted(out))


# local_candidates' memo; it holds lattices and tables, never a fibration
_LOCAL: dict = {}


def local_candidates(
    structure_class, fib: SubobjectFibration, x: int
) -> tuple[tuple[int, ...], ...]:
    """Object ``x``'s candidate rows for ``structure_class`` that satisfy the
    class's law along every endomorphism of ``x``: the tables of ``_tables``
    under the law along each endomorphism.

    Memoised on (class, lattice of x, the ``(pre[f], img[f])`` tables of x's
    endomorphisms f in order).  The key is sound: the local axioms depend
    only on the class and the lattice, and the law along an endomorphism f
    reads ``fib`` only through ``pre[f]``, ``img[f]`` and ``sub_cod(f)``/
    ``sub_dom(f)``, which for an endomorphism are x's own lattice.
    """
    lat = fib.sub[x]
    cat = fib.category
    endos = [f for f in cat.morphisms_from[x] if cat.mor_cod[f] == x]
    key = (structure_class, lat, tuple((fib.pre[f], fib.img[f]) for f in endos))
    rows = _LOCAL.get(key)
    if rows is None:
        laws = [law for _, _, law in _laws(structure_class, fib, endos)]
        rows = _LOCAL[key] = _tables(lat, structure_class.kind, laws)
    return rows


def _laws(structure_class, fib: SubobjectFibration, morphisms) -> list:
    """``(dom, cod, law)`` for the class's ``LawAlong`` along each of
    ``morphisms``; morphisms between the same objects with equal tables have
    one law, listed once."""
    distinct = {(fib.dom(f), fib.cod(f), fib.pre[f], fib.img[f]): f for f in morphisms}
    return [
        (dx, cx, structure_class.law_along(fib, f))
        for (dx, cx, _, _), f in distinct.items()
    ]


# ---------------------------------------------------------------------------
# the product


_FILTERS = {
    "meet": is_meet_preserving,
    "join": is_join_preserving,
    "interpolative": is_interpolative,
}


def enumerate_structures(spec: EnumerationSpec) -> Iterator:
    """Yield every structure of the requested kind exactly once.

    Before any candidate generation, raises a usage error for a property
    filter that does not apply, a resource error for a lattice over
    ``MAX_LATTICE``, and then a usage error for a malformed budget; a
    resource error if the pruned candidate space exceeds the budget.
    """
    if spec.kind not in KINDS:
        raise PreconditionError(f"unknown enumeration kind {spec.kind!r}")
    if spec.prop_filter is not None:
        if spec.kind != "topogenous":
            raise DomainError("property filters apply to topogenous enumeration")
        if spec.prop_filter not in _FILTERS:
            raise DomainError(f"unknown property filter {spec.prop_filter!r}")
    keep = _FILTERS.get(spec.prop_filter)
    fib = spec.fibration
    cat = fib.category
    for lat in fib.sub:
        if lat.size > MAX_LATTICE:
            raise ResourceCapError(
                f"lattice of size {lat.size} exceeds enumeration cap {MAX_LATTICE}")
    budget = _budget()
    structure_class = KINDS[spec.kind]

    n_objects = cat.n_objects
    local = [local_candidates(structure_class, fib, x) for x in range(n_objects)]
    total = 1
    for rows in local:
        total *= len(rows)
        if total > budget:
            raise ResourceCapError(f"candidate space exceeds {budget} after local pruning")

    # the laws along the morphisms between x and an earlier object
    cross = [
        _laws(structure_class, fib, (
            f
            for f in range(cat.n_morphisms)
            if (cat.mor_dom[f] == x) != (cat.mor_cod[f] == x)
            and max(cat.mor_dom[f], cat.mor_cod[f]) == x
        ))
        for x in range(n_objects)
    ]
    assignment: list[Optional[tuple[int, ...]]] = [None] * n_objects

    def place(x) -> Iterator:
        if x == n_objects:
            structure = structure_class(fib, tuple(assignment))
            if keep is None or keep(structure):
                yield structure
            return
        for rows in local[x]:
            assignment[x] = rows
            for dx, cx, law in cross[x]:
                if not law.holds(assignment[dx], assignment[cx]):
                    break
            else:
                yield from place(x + 1)
        assignment[x] = None

    yield from place(0)
