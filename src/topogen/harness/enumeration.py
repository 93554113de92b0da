"""Exhaustive enumeration of structures on small fibrations.

Per-object candidates are generated respecting the local axioms (and the
object's own endomorphisms), then a backtracking product applies the
cross-object continuity axiom incrementally.  Output order is deterministic.
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

KINDS = ("topogenous", "closure", "interior", "neighbourhood")


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


def closure_candidates(lat: FiniteLattice) -> list[tuple[int, ...]]:
    """All extensive monotone self-maps."""
    order = sorted(range(lat.size), key=lambda e: bin(lat.down[e]).count("1"))
    out = []
    table = [0] * lat.size

    def place(pos):
        if pos == len(order):
            out.append(tuple(table))
            return
        e = order[pos]
        for v in range(lat.size):
            if not lat.leq(e, v):
                continue
            if any(
                lat.leq(smaller, e) and not lat.leq(table[smaller], v)
                for smaller in order[:pos]
            ):
                continue
            table[e] = v
            place(pos + 1)
        table[e] = 0

    place(0)
    return sorted(out)


def interior_candidates(lat: FiniteLattice) -> list[tuple[int, ...]]:
    """All contractive monotone self-maps."""
    order = sorted(range(lat.size), key=lambda e: bin(lat.down[e]).count("1"))
    out = []
    table = [0] * lat.size

    def place(pos):
        if pos == len(order):
            out.append(tuple(table))
            return
        e = order[pos]
        for v in range(lat.size):
            if not lat.leq(v, e):
                continue
            if any(
                lat.leq(smaller, e) and not lat.leq(table[smaller], v)
                for smaller in order[:pos]
            ):
                continue
            table[e] = v
            place(pos + 1)
        table[e] = 0

    place(0)
    return sorted(out)


# ---------------------------------------------------------------------------
# cross-object constraints


def _topogenous_edge_ok(fib, f, rel_dom, rel_cod) -> bool:
    pre = fib.pre[f]
    for m in range(len(rel_cod)):
        row = rel_dom[pre[m]]
        for n in mask_iter(rel_cod[m]):
            if not row >> pre[n] & 1:
                return False
    return True


def _neighbourhood_edge_ok(fib, f, nu_dom, nu_cod) -> bool:
    img, pre = fib.img[f], fib.pre[f]
    for m in range(len(nu_dom)):
        row = nu_dom[m]
        for n in mask_iter(nu_cod[img[m]]):
            if not row >> pre[n] & 1:
                return False
    return True


def _closure_edge_ok(fib, f, c_dom, c_cod) -> bool:
    img = fib.img[f]
    ly = fib.sub_cod(f)
    return all(ly.leq(img[c_dom[m]], c_cod[img[m]]) for m in range(len(c_dom)))


def _interior_edge_ok(fib, f, i_dom, i_cod) -> bool:
    pre = fib.pre[f]
    lx = fib.sub_dom(f)
    return all(lx.leq(pre[i_cod[n]], i_dom[pre[n]]) for n in range(len(i_cod)))


_EDGE_CHECK = {
    "topogenous": _topogenous_edge_ok,
    "neighbourhood": _neighbourhood_edge_ok,
    "closure": _closure_edge_ok,
    "interior": _interior_edge_ok,
}

_LOCAL_GEN = {
    "topogenous": relation_candidates,
    "neighbourhood": relation_candidates,
    "closure": closure_candidates,
    "interior": interior_candidates,
}

_WRAP = {
    "topogenous": TopogenousOrder,
    "neighbourhood": NeighbourhoodOperator,
    "closure": ClosureOperator,
    "interior": InteriorOperator,
}


def enumerate_structures(spec: EnumerationSpec) -> Iterator:
    """Yield every structure of the requested kind exactly once.

    Raises a resource error before generation if the pruned candidate space
    exceeds the budget.
    """
    if spec.kind not in KINDS:
        raise PreconditionError(f"unknown enumeration kind {spec.kind!r}")
    fib = spec.fibration
    cat = fib.category
    for lat in fib.sub:
        if lat.size > spec.max_lattice:
            raise ResourceCapError(
                f"lattice of size {lat.size} exceeds enumeration cap {spec.max_lattice}"
            )
    edge_ok = _EDGE_CHECK[spec.kind]
    gen = _LOCAL_GEN[spec.kind]

    local: list[list[tuple[int, ...]]] = []
    candidate_sets = {}
    for x, lat in enumerate(fib.sub):
        key = id(lat)
        if key not in candidate_sets:
            candidate_sets[key] = gen(lat)
        rows = candidate_sets[key]
        endos = [f for f in cat.morphisms_from[x] if cat.mor_cod[f] == x]
        kept = [r for r in rows if all(edge_ok(fib, f, r, r) for f in endos)]
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
    wrap = _WRAP[spec.kind]

    def filtered(structure):
        if spec.prop_filter is None:
            return True
        if spec.kind != "topogenous":
            raise PreconditionError("property filters apply to topogenous enumeration")
        if spec.prop_filter == "meet":
            return predicates(structure).meet_preserving
        if spec.prop_filter == "join":
            return predicates(structure).join_preserving
        if spec.prop_filter == "interpolative":
            return is_interpolative(structure)
        raise PreconditionError(f"unknown property filter {spec.prop_filter!r}")

    def place(x) -> Iterator:
        if x == n_objects:
            structure = wrap(fib, tuple(assignment))
            if filtered(structure):
                yield structure
            return
        for rows in local[x]:
            assignment[x] = rows
            ok = True
            for f in cross[x]:
                dx, cx = cat.mor_dom[f], cat.mor_cod[f]
                if not edge_ok(fib, f, assignment[dx], assignment[cx]):
                    ok = False
                    break
            if ok:
                yield from place(x + 1)
        assignment[x] = None

    yield from place(0)


def count_structures(spec: EnumerationSpec) -> int:
    return sum(1 for _ in enumerate_structures(spec))
