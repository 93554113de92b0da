"""Exhaustive enumeration of structures on small fibrations.

The structures of a relation kind are the up-sets of its order space,
which the kind's plan builds from the kind's laws
(``structures.plan_of(fib, cls).orders``); this module reads only its
``count`` and its sorted ``tables()``.  Closure and interior operators are
the topogenous orders their kind's ``structures.CORRESPONDENCE`` picks
(meet or join preservation): their enumeration filters the topogenous
tables with that predicate and converts the orders it keeps.

Every kind's structures come in sorted order of their tables, and the
budget bounds the structures a kind reads, the topogenous orders for an
operator kind, counted before any is built.  Nothing is memoised here: the
filter choice, the lattice cap ``MAX_LATTICE`` and the budget belong to
each call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Optional

from ..errors import DomainError, PreconditionError, ResourceCapError
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

    record = plan_of(fib, source).orders
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
