"""Exhaustive enumeration of structures on small fibrations.

Per-object candidates are generated respecting the local axioms (and the
object's own endomorphisms), then a backtracking product applies the kind's
cross-object law (held by its class in ``structures``) incrementally.  Output
order is deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Optional

from ..errors import DomainError, PreconditionError, ResourceCapError
from ..lattice import FiniteLattice, mask_iter
from ..site import SubobjectFibration
from ..structures import (
    ClosureOperator,
    InteriorOperator,
    NeighbourhoodOperator,
    TopogenousOrder,
    is_interpolative,
    predicates,
)

DEFAULT_MAX_CANDIDATES = 1 << 24
ENV_MAX_CANDIDATES = "TOPOGEN_MAX_CANDIDATES"

# each enumerable kind and its structure class, which holds the kind's law
KINDS = {
    cls.kind: cls
    for cls in (TopogenousOrder, ClosureOperator, InteriorOperator, NeighbourhoodOperator)
}


@dataclass(frozen=True)
class EnumerationSpec:
    fibration: SubobjectFibration
    kind: str
    max_lattice: int = 16
    prop_filter: Optional[str] = None   # "meet" | "join" | "interpolative"
    max_candidates: Optional[int] = None

    def budget(self) -> int:
        """The candidate budget: ``max_candidates``, else the environment
        variable, else the default; a positive integer or ``DomainError``."""
        if self.max_candidates is not None:
            value, source = self.max_candidates, "max_candidates"
        else:
            env = os.environ.get(ENV_MAX_CANDIDATES)
            if not env:
                return DEFAULT_MAX_CANDIDATES
            source = ENV_MAX_CANDIDATES
            try:
                value = int(env)
            except ValueError:
                raise DomainError(f"{source}={env!r} is not an integer") from None
        if value < 1:
            raise DomainError(f"{source}={value} must be at least 1")
        return value


# ---------------------------------------------------------------------------
# local candidate generation


def relation_candidates(lat: FiniteLattice) -> list[tuple[int, ...]]:
    """All per-object relations that are below the order, antitone in the
    first argument and up-closed in the second (the object-local axioms
    shared by topogenous orders and neighbourhood assignments)."""
    upsets = lat.upsets()
    order = sorted(range(lat.size), key=lambda e: bin(lat.down[e]).count("1"))
    out = []
    rows = [0] * lat.size

    def place(pos):
        if pos == len(order):
            out.append(tuple(rows))
            return
        e = order[pos]
        bound = lat.up[e]
        for smaller in order[:pos]:
            if lat.leq(smaller, e):
                bound &= rows[smaller]
        for u in upsets:
            if u & ~bound == 0:
                rows[e] = u
                place(pos + 1)
        rows[e] = 0

    place(0)
    return sorted(out)


def operator_candidates(lat: FiniteLattice, kind: str) -> list[tuple[int, ...]]:
    """All monotone self-maps that are extensive (``kind="closure"``) or
    contractive (``kind="interior"``)."""
    allowed = lat.up if kind == "closure" else lat.down
    order = sorted(range(lat.size), key=lambda e: bin(lat.down[e]).count("1"))
    out = []
    table = [0] * lat.size

    def place(pos):
        if pos == len(order):
            out.append(tuple(table))
            return
        e = order[pos]
        bound = allowed[e]
        for smaller in order[:pos]:
            if lat.leq(smaller, e):
                bound &= lat.up[table[smaller]]
        for v in mask_iter(bound):
            table[e] = v
            place(pos + 1)

    place(0)
    return sorted(out)


# ---------------------------------------------------------------------------
# the product


_FILTERS = {
    "meet": lambda t: predicates(t).meet_preserving,
    "join": lambda t: predicates(t).join_preserving,
    "interpolative": is_interpolative,
}


def enumerate_structures(spec: EnumerationSpec) -> Iterator:
    """Yield every structure of the requested kind exactly once.

    Raises a usage error for a property filter that does not apply, and a
    resource error if the pruned candidate space exceeds the budget, both
    before generation.
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
        if lat.size > spec.max_lattice:
            raise ResourceCapError(
                f"lattice of size {lat.size} exceeds enumeration cap {spec.max_lattice}"
            )
    structure_class = KINDS[spec.kind]
    law = structure_class.law

    local: list[list[tuple[int, ...]]] = []
    candidate_sets = {}
    for x, lat in enumerate(fib.sub):
        key = id(lat)
        if key not in candidate_sets:
            candidate_sets[key] = (
                operator_candidates(lat, spec.kind)
                if spec.kind in ("closure", "interior")
                else relation_candidates(lat)
            )
        rows = candidate_sets[key]
        endos = [f for f in cat.morphisms_from[x] if cat.mor_cod[f] == x]
        kept = [r for r in rows if all(next(law(fib, f, r, r), None) is None for f in endos)]
        local.append(kept)

    budget = spec.budget()
    total = 1
    for rows in local:
        total *= len(rows)
        if total > budget:
            raise ResourceCapError(
                f"candidate space exceeds {budget} after local pruning", total
            )

    n_objects = cat.n_objects
    cross = [
        [
            f
            for f in range(cat.n_morphisms)
            if (cat.mor_dom[f] == x) != (cat.mor_cod[f] == x)
            and max(cat.mor_dom[f], cat.mor_cod[f]) == x
        ]
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
            for f in cross[x]:
                dx, cx = cat.mor_dom[f], cat.mor_cod[f]
                if next(law(fib, f, assignment[dx], assignment[cx]), None) is not None:
                    break
            else:
                yield from place(x + 1)
        assignment[x] = None

    yield from place(0)


def count_structures(spec: EnumerationSpec) -> int:
    return sum(1 for _ in enumerate_structures(spec))
