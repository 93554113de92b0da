"""Exhaustive enumeration of structures on small fibrations.

Each kind states its law along a morphism once, as data (``law_along`` of
its class in ``structures``, a ``LawAlong``: index pairs and two lookups).

Topogenous orders and neighbourhood operators are relations, sets of
entries (x, m, n) with m <= n in the lattice of x, and each of their axioms
is a one-premise implication between entries: (x, m, n) forces (x, m', n')
for m' <= m and n <= n', and along f: x -> y, for each index pair (a, b) of
the kind's ``LawAlong`` and each n >= a, (y, a, n) forces (x, b, f^{-1} n).
So the structures of such a kind are exactly the up-sets of the preorder
"entry e forces entry e'" (G. Birkhoff, "Rings of sets", 1937).
``orders_of`` builds that preorder once per fibration and kind: it closes
the one-step forcings over bitmasks, drops each entry that forces a pair
(b, f^{-1} n) with b not below f^{-1} n, merges the entries that force
each other into classes, and counts the up-sets of the class order by
memoised branching; the same branching builds the tables, sorted, the
first time a call asks for them.

Closure and interior operators are the topogenous orders their kind's
``structures.CORRESPONDENCE`` picks (meet or join preservation): their
enumeration filters the tables of the topogenous forcing record with that
predicate and converts the orders it keeps.

Every kind's structures come in sorted order of their tables, and the
budget bounds the structures a kind reads, the topogenous orders for an
operator kind, counted before any is built.

The forcing record reads its laws off the kind's validation plan
(``structures.plan_of``), the one record per fibration and kind.
Memoised: ``orders_of``'s record (preorder, count and tables) on that plan,
for as long as its fibration lives, holding tables, never a structure or
the fibration; each lattice's entries for the life of the process.  The
property filters' per-object verdicts are facts of tables, memoised where
they are decided; the filter choice, the lattice cap ``MAX_LATTICE`` and
the budget belong to each call and never enter a memo.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from operator import or_
from typing import Iterator, Optional

from ..errors import DomainError, PreconditionError, ResourceCapError
from ..lattice import FiniteLattice, mask_iter
from ..site import SubobjectFibration
from ..structures import (
    CORRESPONDENCE,
    KINDS,
    RELATIONS,
    TopogenousOrder,
    is_interpolative,
    is_join_preserving,
    is_meet_preserving,
    plan_of,
)

DEFAULT_MAX_CANDIDATES = 1 << 24
ENV_MAX_CANDIDATES = "TOPOGEN_MAX_CANDIDATES"
MAX_LATTICE = 16


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
# relations: the up-sets of the forcing preorder


@dataclass(frozen=True)
class _Entries:
    """The entries (m, n), m <= n, of one lattice, numbered m-major
    (``pairs``); ``ids[m][n]`` numbers (m, n), and ``cone[m][n]`` is the mask
    of the entries (m, n) forces locally, (m', n') with m' <= m and n <= n',
    or 0 where m is not below n."""

    pairs: tuple[tuple[int, int], ...]
    ids: tuple[tuple[int, ...], ...]
    cone: tuple[tuple[int, ...], ...]


def _entries(lat: FiniteLattice, up: tuple[int, ...]) -> _Entries:
    """The entries of ``lat``, whose order has the rows ``up``; read through
    ``lat.row_fact``, so they are built once per lattice, kept on it, and
    found without hashing it."""
    pairs = tuple((m, n) for m in range(lat.size) for n in mask_iter(up[m]))
    ids = [[-1] * lat.size for _ in range(lat.size)]
    for i, (m, n) in enumerate(pairs):
        ids[m][n] = i
    cone = [[0] * lat.size for _ in range(lat.size)]
    for m, n in pairs:
        cone[m][n] = sum(
            1 << ids[low][high] for low in mask_iter(lat.down[m]) for high in mask_iter(up[n])
        )
    return _Entries(pairs, tuple(map(tuple, ids)), tuple(map(tuple, cone)))


class _Forcing:
    """The structures of a relation kind on ``lattices`` (one per object)
    under ``laws`` (``(dom, cod, LawAlong)``): the up-sets of the preorder
    "entry e forces entry e'", as ``count`` and, built on first use, the
    sorted ``tables()``.

    Entries are numbered object by object.  ``forced[e]`` is the mask of the
    entries e forces in one step (e among them), and ``closed[e]`` the mask
    of all it forces; an entry that forces one outside the order lies in no
    structure and is dropped.  The rest fall into classes of entries forcing
    each other, and an up-set is a choice of classes closed under forcing:
    branching on the lowest undecided class, taking it decides every class it
    forces, leaving it every class that forces it.
    """

    def __init__(self, lattices, laws):
        entries = [lat.row_fact(_entries, lat.up) for lat in lattices]
        # per object, its first entry number and its first row in a flat table
        bases, offsets = [0], [0]
        for lat, ent in zip(lattices, entries):
            bases.append(bases[-1] + len(ent.pairs))
            offsets.append(offsets[-1] + lat.size)
        forced = [
            ent.cone[m][n] << base for ent, base in zip(entries, bases) for m, n in ent.pairs
        ]
        outside = 0
        for dx, cx, law in laws:
            pre = law.rhs.pre
            cone, cod_ids, base = entries[dx].cone, entries[cx].ids, bases[dx]
            above = lattices[cx].above
            for a, b in zip(law.cod_index, law.dom_index):
                into, source = cone[b], cod_ids[a]
                for n in above[a]:
                    e = bases[cx] + source[n]
                    if into[pre[n]]:
                        forced[e] |= into[pre[n]] << base
                    else:
                        outside |= 1 << e
        # the closure, entry by entry: an entry already closed contributes its
        # closure and needs no expanding, any other its one-step forcings
        closed = [0] * len(forced)
        for e, reach in enumerate(forced):
            todo = reach & ~(1 << e)
            while todo:
                low = todo & -todo
                d = low.bit_length() - 1
                if closed[d]:
                    reach |= closed[d]
                    todo &= ~closed[d]
                else:
                    todo |= forced[d] & ~reach
                    reach |= forced[d]
                    todo ^= low
            closed[e] = reach
        classes = {}
        for e, mask in enumerate(closed):
            if not mask & outside:
                classes.setdefault(mask, e)
        # per class: the classes it forces, and its rows, flat over (x, m)
        self._above = [
            sum(1 << d for d, rep in enumerate(classes.values()) if mask >> rep & 1)
            for mask in classes
        ]
        self._below = [
            sum(1 << c for c, above in enumerate(self._above) if above >> d & 1)
            for d in range(len(classes))
        ]
        at = [(offsets[x] + m, 1 << n) for x, ent in enumerate(entries) for m, n in ent.pairs]
        self._rows = []
        for mask in classes:
            flat = [0] * offsets[-1]
            for e in mask_iter(mask):
                i, bit = at[e]
                flat[i] |= bit
            self._rows.append(tuple(flat))
        self._offsets = offsets
        counts = {0: 1}

        def count(undecided):
            found = counts.get(undecided)
            if found is None:
                c = (undecided & -undecided).bit_length() - 1
                found = counts[undecided] = (
                    count(undecided & ~self._above[c]) + count(undecided & ~self._below[c]))
            return found

        self.count = count((1 << len(classes)) - 1)
        self._tables = None

    def tables(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        if self._tables is None:
            above, below, class_rows, offsets = self._above, self._below, self._rows, self._offsets
            spans = list(zip(offsets, offsets[1:]))
            out = []

            def walk(undecided, flat):
                if not undecided:
                    out.append(tuple(flat[lo:hi] for lo, hi in spans))
                    return
                c = (undecided & -undecided).bit_length() - 1
                walk(undecided & ~above[c], tuple(map(or_, flat, class_rows[c])))
                walk(undecided & ~below[c], flat)

            walk((1 << len(above)) - 1, (0,) * offsets[-1])
            out.sort()
            self._tables = tuple(out)
        return self._tables


def orders_of(fib: SubobjectFibration, structure_class) -> _Forcing:
    """The forcing record of a relation class on ``fib``, built on first use
    from the class's law along every morphism and kept on its plan."""
    plan = plan_of(fib, structure_class)
    if plan.forcing is None:
        cat = fib.category
        plan.forcing = _Forcing(fib.sub, zip(cat.mor_dom, cat.mor_cod, plan.laws))
    return plan.forcing


# ---------------------------------------------------------------------------
# enumeration


# the property filters of topogenous enumeration, by name
FILTERS = {
    "meet": is_meet_preserving,
    "join": is_join_preserving,
    "interpolative": is_interpolative,
}


def enumerate_structures(spec: EnumerationSpec) -> Iterator:
    """Yield every structure of the requested kind exactly once.

    Before any candidate generation, raises a usage error for a property
    filter that does not apply, a resource error for a lattice over
    ``MAX_LATTICE``, and then a usage error for a malformed budget.  Then a
    resource error, before any structure is built, when the structures the
    kind reads exceed the budget: a relation kind's own, an operator kind's
    topogenous orders.
    """
    structure_class = KINDS.get(spec.kind)
    if structure_class is None:
        raise PreconditionError(f"unknown enumeration kind {spec.kind!r}")
    if spec.prop_filter is not None:
        if structure_class is not TopogenousOrder:
            raise DomainError("property filters apply to topogenous enumeration")
        if spec.prop_filter not in FILTERS:
            raise DomainError(f"unknown property filter {spec.prop_filter!r}")
    fib = spec.fibration
    for lat in fib.sub:
        if lat.size > MAX_LATTICE:
            raise ResourceCapError(
                f"lattice of size {lat.size} exceeds enumeration cap {MAX_LATTICE}")
    budget = _budget()
    if structure_class in RELATIONS:
        source, keep, convert = structure_class, FILTERS.get(spec.prop_filter), None
    else:
        source, (keep, convert, _) = TopogenousOrder, CORRESPONDENCE[structure_class]

    record = orders_of(fib, source)
    if record.count > budget:
        raise ResourceCapError(f"{record.count} {source.kind} structures exceed {budget}")
    found = (source(fib, table) for table in record.tables())
    if keep is not None:
        found = filter(keep, found)
    if convert is None:
        yield from found
    else:
        # a conversion need not keep the order of the tables
        yield from sorted(map(convert, found), key=lambda s: s.table)
