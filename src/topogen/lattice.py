"""Finite bounded lattices, monotone maps, and image/preimage adjunctions.

Elements are indexed 0..n-1 and carry canonical string labels so that
serialized structures are stable.  The order is stored as a bit matrix
(``up[i]`` is the mask of all j with i <= j) together with precomputed
meet/join tables; every higher-level scan in the package is a sweep over
these masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import DomainError, PreconditionError
from .reporting import Report, Violation

MAX_ELEMENTS = 256


def mask_iter(mask: int):
    """Yield the set bits of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def validate_order_candidate(labels: tuple[str, ...], up: tuple[int, ...]) -> Report:
    """Check the lattice laws for an order candidate given as up-set masks.

    Never raises: the report lists each failed law (reflexivity, antisymmetry,
    transitivity, existence of binary and empty meets/joins) with a minimal
    witness.
    """
    n = len(labels)
    violations = []
    checked = 0

    def lab(i):
        return labels[i]

    leq = lambda i, j: bool(up[i] >> j & 1)
    for i in range(n):
        checked += 1
        if not leq(i, i):
            violations.append(Violation("reflexivity", witness=(lab(i),)))
    for i in range(n):
        for j in range(n):
            checked += 1
            if i != j and leq(i, j) and leq(j, i):
                if i < j:
                    violations.append(Violation("antisymmetry", witness=(lab(i), lab(j))))
            if leq(i, j):
                # transitivity: up[j] must stay inside up[i]
                extra = up[j] & ~up[i]
                if extra:
                    k = next(mask_iter(extra))
                    violations.append(Violation("transitivity", witness=(lab(i), lab(j), lab(k))))
    if violations:
        return Report("lattice-order", checked, tuple(violations))

    full = (1 << n) - 1
    down = [0] * n
    for i in range(n):
        for j in mask_iter(up[i]):
            down[j] |= 1 << i

    def glb(mask_of_lower_bounds):
        # greatest element of a set of common lower bounds, if any
        candidates = [c for c in mask_iter(mask_of_lower_bounds) if mask_of_lower_bounds & ~down[c] == 0]
        return candidates[0] if len(candidates) == 1 else None

    def lub(mask_of_upper_bounds):
        candidates = [c for c in mask_iter(mask_of_upper_bounds) if mask_of_upper_bounds & ~up[c] == 0]
        return candidates[0] if len(candidates) == 1 else None

    # empty meet/join: a top and a bottom must exist
    checked += 2
    if glb(full) is None:
        violations.append(Violation("bottom-exists"))
    if lub(full) is None:
        violations.append(Violation("top-exists"))
    for i in range(n):
        for j in range(i, n):
            checked += 2
            lower = down[i] & down[j]
            upper = up[i] & up[j]
            if lower == 0 or lub(lower) is None:
                violations.append(Violation("meet-exists", witness=(lab(i), lab(j))))
            if upper == 0 or glb(upper) is None:
                violations.append(Violation("join-exists", witness=(lab(i), lab(j))))
    return Report("lattice-order", checked, tuple(violations))


@dataclass(frozen=True)
class FiniteLattice:
    """A finite bounded lattice over indexed, labelled elements."""

    labels: tuple[str, ...]
    up: tuple[int, ...]            # up[i] = mask of j with i <= j
    down: tuple[int, ...]          # down[i] = mask of j with j <= i
    meet_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    top: int
    bottom: int

    @property
    def size(self) -> int:
        return len(self.labels)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    @cached_property
    def above(self) -> tuple[tuple[int, ...], ...]:
        """above[i] = the j with i <= j, in increasing order."""
        return tuple(tuple(mask_iter(mask)) for mask in self.up)

    @cached_property
    def principal(self) -> dict[int, int]:
        """Each principal down-set ↓c, as a mask, mapped to c."""
        return {mask: c for c, mask in enumerate(self.down)}

    def meet(self, i: int, j: int) -> int:
        return self.meet_table[i][j]

    def join(self, i: int, j: int) -> int:
        return self.join_table[i][j]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DomainError(f"no element labelled {label!r}") from None

    def require(self, i: int) -> None:
        if not 0 <= i < len(self.labels):
            raise DomainError(f"element index {i} out of range for lattice of size {len(self.labels)}")

    def upsets(self) -> tuple[int, ...]:
        """All up-closed subsets, as masks, in increasing numeric order."""
        found = {0}
        for i in range(self.size):
            found |= {m | self.up[i] for m in found}
        return tuple(sorted(found))

    @staticmethod
    def from_order(labels: Iterable[str], up: Iterable[int]) -> "FiniteLattice":
        labels = tuple(labels)
        up = tuple(up)
        if not labels:
            raise PreconditionError("lattice needs at least one element")
        if len(labels) > MAX_ELEMENTS:
            raise PreconditionError(f"lattice size {len(labels)} exceeds cap {MAX_ELEMENTS}")
        report = validate_order_candidate(labels, up)
        if not report.ok:
            raise PreconditionError(f"not a lattice: {report.violations[0].render()}", witness=report)
        n = len(labels)
        down = [0] * n
        for i in range(n):
            for j in mask_iter(up[i]):
                down[j] |= 1 << i
        bottom = next(i for i in range(n) if bin(up[i]).count("1") == n)
        top = next(i for i in range(n) if bin(down[i]).count("1") == n)
        meet_t = [[0] * n for _ in range(n)]
        join_t = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                lower = down[i] & down[j]
                meet_t[i][j] = next(c for c in mask_iter(lower) if lower & ~down[c] == 0)
                upper = up[i] & up[j]
                join_t[i][j] = next(c for c in mask_iter(upper) if upper & ~up[c] == 0)
        return FiniteLattice(
            labels=labels,
            up=up,
            down=tuple(down),
            meet_table=tuple(tuple(r) for r in meet_t),
            join_table=tuple(tuple(r) for r in join_t),
            top=top,
            bottom=bottom,
        )

    @staticmethod
    def powerset(n_points: int) -> "FiniteLattice":
        """Powerset of n points; element index == subset bitmask, so the order
        is inclusion, meet is ``&`` and join is ``|``."""
        size = 1 << n_points
        if size > MAX_ELEMENTS:
            raise PreconditionError(f"lattice size {size} exceeds cap {MAX_ELEMENTS}")
        elems = range(size)
        labels = tuple(
            "{" + ",".join(str(p) for p in range(n_points) if s >> p & 1) + "}"
            for s in elems
        )
        return FiniteLattice(
            labels=labels,
            up=tuple(sum(1 << t for t in elems if s & ~t == 0) for s in elems),
            down=tuple(sum(1 << t for t in elems if t & ~s == 0) for s in elems),
            meet_table=tuple(tuple(s & t for t in elems) for s in elems),
            join_table=tuple(tuple(s | t for t in elems) for s in elems),
            top=size - 1,
            bottom=0,
        )


@dataclass(frozen=True)
class MonotoneMap:
    source: FiniteLattice
    target: FiniteLattice
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.source.size:
            raise DomainError("monotone map table size does not match source lattice")
        for v in self.table:
            self.target.require(v)
        up, table = self.target.up, self.table
        for i, above in enumerate(self.source.up):
            for j in mask_iter(above):
                if not up[table[i]] >> table[j] & 1:
                    raise PreconditionError(
                        "map is not monotone",
                        witness=(self.source.labels[i], self.source.labels[j]),
                    )


def right_adjoint_table(
    source: FiniteLattice, target: FiniteLattice, table: Sequence[int]
) -> Optional[tuple[int, ...]]:
    """The right adjoint of the map ``table`` (source -> target, entries in
    range), or None.  It exists iff each {p : table[p] <= x} is a principal
    down-set ↓c of the source, and then sends x to c; the adjunction holds
    by construction and makes both maps monotone."""
    below = [0] * target.size
    above = target.above
    for p, v in enumerate(table):
        bit = 1 << p
        for x in above[v]:
            below[x] |= bit
    principal = source.principal
    try:
        return tuple([principal[mask] for mask in below])
    except KeyError:  # not principal
        return None


def right_adjoint_of(upper: MonotoneMap) -> Optional[MonotoneMap]:
    """Right adjoint of ``upper`` (L_Y -> L_X), or None; partial adjoints
    are never returned (``right_adjoint_table``)."""
    table = right_adjoint_table(upper.source, upper.target, upper.table)
    return None if table is None else MonotoneMap(upper.target, upper.source, table)
