"""Topogenous orders, closure/interior/neighbourhood operators, conversions.

A topogenous order is stored densely: ``rel[x][m]`` is the bitmask of all n
with m ⊏ n in the subobject lattice of object x.  Neighbourhood operators use
the same shape (``nu[x][m]`` = mask of neighbourhoods of m) but are validated
against their own axioms; the conversion between the two is the content of
the order isomorphism between the conglomerates, not a representational
accident we rely on silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .lattice import mask_iter
from .reporting import Report, Violation
from .site import SubobjectFibration

# Exhaustive family quantification in the meet/join-preservation predicates
# scans all 2^|sub X| subsets; capped here.
PREDICATE_LATTICE_CAP = 16


@dataclass(frozen=True, eq=False)
class _Structure:
    """One table per object over a fibration.

    Two structures are equal when they are of one kind, over the same
    fibration object, with equal tables.
    """

    fib: SubobjectFibration

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        return getattr(self, self._table_field)

    def _key(self):
        return (type(self), id(self.fib), self.table)

    def __eq__(self, other):
        return isinstance(other, _Structure) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class _Relation(_Structure):
    """A relation of each subobject lattice: row m is a mask of elements."""

    def pointwise_leq(self, other: "_Relation") -> bool:
        """Pointwise inclusion of the rows."""
        return all(
            a & ~b == 0 for ra, rb in zip(self.table, other.table) for a, b in zip(ra, rb)
        )


@dataclass(frozen=True, eq=False)
class TopogenousOrder(_Relation):
    rel: tuple[tuple[int, ...], ...]
    _table_field = "rel"

    def holds(self, x: int, m: int, n: int) -> bool:
        return bool(self.rel[x][m] >> n & 1)


@dataclass(frozen=True, eq=False)
class _Operator(_Structure):
    """A self-map of each subobject lattice."""

    def pointwise_leq(self, other: "_Operator") -> bool:
        return all(
            lat.leq(a, b)
            for lat, ra, rb in zip(self.fib.sub, self.table, other.table)
            for a, b in zip(ra, rb)
        )


@dataclass(frozen=True, eq=False)
class ClosureOperator(_Operator):
    cmap: tuple[tuple[int, ...], ...]   # cmap[x][m] = c_X(m)
    _table_field = "cmap"


@dataclass(frozen=True, eq=False)
class InteriorOperator(_Operator):
    imap: tuple[tuple[int, ...], ...]
    _table_field = "imap"


@dataclass(frozen=True, eq=False)
class NeighbourhoodOperator(_Relation):
    nu: tuple[tuple[int, ...], ...]     # nu[x][m] = mask of neighbourhoods of m
    _table_field = "nu"


# ---------------------------------------------------------------------------
# validation


def _local_relation_violations(fib, rel, above, antitone, up_closed):
    """The object-local axioms of a relation table ``rel[x][m]``: each row
    lies above its element, is antitone in the element and up-closed.

    Returns the number of checks and the violations, under the given names.
    """
    violations = []
    checked = 0
    for x, lat in enumerate(fib.sub):
        where = fib.category.object_names[x]
        rows = rel[x]
        for m in range(lat.size):
            checked += 1
            if rows[m] & ~lat.up[m]:
                n = next(mask_iter(rows[m] & ~lat.up[m]))
                violations.append(
                    Violation(above, where=where, witness=(lat.labels[m], lat.labels[n]))
                )
        for m in range(lat.size):
            for mp in mask_iter(lat.up[m]):
                checked += 1
                if rows[mp] & ~rows[m]:
                    q = next(mask_iter(rows[mp] & ~rows[m]))
                    violations.append(
                        Violation(
                            antitone,
                            where=where,
                            witness=(lat.labels[m], lat.labels[mp], lat.labels[q]),
                        )
                    )
            for n in mask_iter(rows[m]):
                checked += 1
                if lat.up[n] & ~rows[m]:
                    q = next(mask_iter(lat.up[n] & ~rows[m]))
                    violations.append(
                        Violation(
                            up_closed,
                            where=where,
                            witness=(lat.labels[m], lat.labels[n], lat.labels[q]),
                        )
                    )
    return checked, violations


def validate_topogenous(t: TopogenousOrder) -> Report:
    fib = t.fib
    checked, violations = _local_relation_violations(
        fib, t.rel, "below-order", "order-compatibility", "order-compatibility"
    )
    cat = fib.category
    for f in range(cat.n_morphisms):
        x, y = fib.dom(f), fib.cod(f)
        pre = fib.pre[f]
        rows_y, rows_x = t.rel[y], t.rel[x]
        ly = fib.sub[y]
        for m in range(ly.size):
            for n in mask_iter(rows_y[m]):
                checked += 1
                if not rows_x[pre[m]] >> pre[n] & 1:
                    violations.append(
                        Violation(
                            "preimage-stability",
                            where=cat.mor_names[f],
                            witness=(ly.labels[m], ly.labels[n]),
                        )
                    )
    return Report("topogenous-order", checked, tuple(violations))


def validate_closure(c: ClosureOperator) -> Report:
    violations = []
    checked = 0
    fib = c.fib
    for x, lat in enumerate(fib.sub):
        where = fib.category.object_names[x]
        cm = c.cmap[x]
        for m in range(lat.size):
            checked += 1
            if not lat.leq(m, cm[m]):
                violations.append(Violation("extensive", where=where, witness=(lat.labels[m],)))
            for n in mask_iter(lat.up[m]):
                checked += 1
                if not lat.leq(cm[m], cm[n]):
                    violations.append(
                        Violation("monotone", where=where, witness=(lat.labels[m], lat.labels[n]))
                    )
    cat = fib.category
    for f in range(cat.n_morphisms):
        x, y = fib.dom(f), fib.cod(f)
        img = fib.img[f]
        lx, ly = fib.sub[x], fib.sub[y]
        for m in range(lx.size):
            checked += 1
            if not ly.leq(img[c.cmap[x][m]], c.cmap[y][img[m]]):
                violations.append(
                    Violation("image-continuity", where=cat.mor_names[f], witness=(lx.labels[m],))
                )
    return Report("closure-operator", checked, tuple(violations))


def validate_interior(i: InteriorOperator) -> Report:
    violations = []
    checked = 0
    fib = i.fib
    for x, lat in enumerate(fib.sub):
        where = fib.category.object_names[x]
        im = i.imap[x]
        for m in range(lat.size):
            checked += 1
            if not lat.leq(im[m], m):
                violations.append(Violation("contractive", where=where, witness=(lat.labels[m],)))
            for n in mask_iter(lat.up[m]):
                checked += 1
                if not lat.leq(im[m], im[n]):
                    violations.append(
                        Violation("monotone", where=where, witness=(lat.labels[m], lat.labels[n]))
                    )
    cat = fib.category
    for f in range(cat.n_morphisms):
        x, y = fib.dom(f), fib.cod(f)
        pre = fib.pre[f]
        lx, ly = fib.sub[x], fib.sub[y]
        for n in range(ly.size):
            checked += 1
            if not lx.leq(pre[i.imap[y][n]], i.imap[x][pre[n]]):
                violations.append(
                    Violation("preimage-continuity", where=cat.mor_names[f], witness=(ly.labels[n],))
                )
    return Report("interior-operator", checked, tuple(violations))


def validate_neighbourhood(nu: NeighbourhoodOperator) -> Report:
    fib = nu.fib
    checked, violations = _local_relation_violations(
        fib, nu.nu, "neighbourhood-above", "antitone", "up-closed"
    )
    cat = fib.category
    for f in range(cat.n_morphisms):
        x, y = fib.dom(f), fib.cod(f)
        img, pre = fib.img[f], fib.pre[f]
        lx, ly = fib.sub[x], fib.sub[y]
        for m in range(lx.size):
            for n in mask_iter(nu.nu[y][img[m]]):
                checked += 1
                if not nu.nu[x][m] >> pre[n] & 1:
                    violations.append(
                        Violation(
                            "continuity", where=cat.mor_names[f], witness=(lx.labels[m], ly.labels[n])
                        )
                    )
    return Report("neighbourhood-operator", checked, tuple(violations))


def validate_structure(s) -> Report:
    if isinstance(s, TopogenousOrder):
        return validate_topogenous(s)
    if isinstance(s, ClosureOperator):
        return validate_closure(s)
    if isinstance(s, InteriorOperator):
        return validate_interior(s)
    if isinstance(s, NeighbourhoodOperator):
        return validate_neighbourhood(s)
    raise PreconditionError(f"not a known structure: {type(s).__name__}")


# ---------------------------------------------------------------------------
# predicates


@dataclass(frozen=True)
class OrderPredicates:
    meet_preserving: bool
    join_preserving: bool
    interpolative: bool


def _meet_preservation_witness(t: TopogenousOrder):
    """None, or (object, m, family-mask) with every member related but not the meet."""
    for x, lat in enumerate(t.fib.sub):
        if lat.size > PREDICATE_LATTICE_CAP:
            raise PreconditionError(
                f"predicate scan capped at lattice size {PREDICATE_LATTICE_CAP}"
            )
        for m in range(lat.size):
            related = t.rel[x][m]
            for family in range(1 << lat.size):
                if family & ~related:
                    continue
                if not related >> lat.meet_mask(family) & 1:
                    return (x, m, family)
    return None


def _join_preservation_witness(t: TopogenousOrder):
    for x, lat in enumerate(t.fib.sub):
        if lat.size > PREDICATE_LATTICE_CAP:
            raise PreconditionError(
                f"predicate scan capped at lattice size {PREDICATE_LATTICE_CAP}"
            )
        for n in range(lat.size):
            related = 0
            for m in range(lat.size):
                if t.rel[x][m] >> n & 1:
                    related |= 1 << m
            for family in range(1 << lat.size):
                if family & ~related:
                    continue
                if not t.rel[x][lat.join_mask(family)] >> n & 1:
                    return (x, n, family)
    return None


def is_interpolative(t: TopogenousOrder) -> bool:
    for x, lat in enumerate(t.fib.sub):
        # row_to[n] = mask of p with p ⊏ n
        row_to = [0] * lat.size
        for p in range(lat.size):
            for n in mask_iter(t.rel[x][p]):
                row_to[n] |= 1 << p
        for m in range(lat.size):
            for n in mask_iter(t.rel[x][m]):
                if not t.rel[x][m] & row_to[n]:
                    return False
    return True


def predicates(t: TopogenousOrder) -> OrderPredicates:
    """Meet/join preservation (all families, including the empty one) and interpolation."""
    return OrderPredicates(
        meet_preserving=_meet_preservation_witness(t) is None,
        join_preserving=_join_preservation_witness(t) is None,
        interpolative=is_interpolative(t),
    )


# ---------------------------------------------------------------------------
# conversions


def nbhd_from_topogenous(t: TopogenousOrder) -> NeighbourhoodOperator:
    """nu(m) = the set of n with m ⊏ n."""
    return NeighbourhoodOperator(t.fib, t.rel)


def topogenous_from_nbhd(nu: NeighbourhoodOperator) -> TopogenousOrder:
    """m ⊏ n iff n is a neighbourhood of m."""
    return TopogenousOrder(nu.fib, nu.nu)


def closure_from_topogenous(t: TopogenousOrder) -> ClosureOperator:
    """c(m) = meet of everything above m in the order; needs meet-preservation."""
    witness = _meet_preservation_witness(t)
    if witness is not None:
        x, m, family = witness
        lat = t.fib.sub[x]
        raise PreconditionError(
            "order is not meet-preserving",
            witness=(
                t.fib.category.object_names[x],
                lat.labels[m],
                tuple(lat.labels[i] for i in mask_iter(family)),
            ),
        )
    cmap = tuple(
        tuple(lat.meet_mask(t.rel[x][m]) for m in range(lat.size))
        for x, lat in enumerate(t.fib.sub)
    )
    return ClosureOperator(t.fib, cmap)


def topogenous_from_closure(c: ClosureOperator) -> TopogenousOrder:
    """m ⊏ n iff c(m) <= n."""
    rel = tuple(
        tuple(lat.up[c.cmap[x][m]] for m in range(lat.size))
        for x, lat in enumerate(c.fib.sub)
    )
    return TopogenousOrder(c.fib, rel)


def interior_from_topogenous(t: TopogenousOrder) -> InteriorOperator:
    """i(n) = join of everything below n in the order; needs join-preservation."""
    witness = _join_preservation_witness(t)
    if witness is not None:
        x, n, family = witness
        lat = t.fib.sub[x]
        raise PreconditionError(
            "order is not join-preserving",
            witness=(
                t.fib.category.object_names[x],
                lat.labels[n],
                tuple(lat.labels[i] for i in mask_iter(family)),
            ),
        )
    imap = []
    for x, lat in enumerate(t.fib.sub):
        row_to = [0] * lat.size
        for p in range(lat.size):
            for n in mask_iter(t.rel[x][p]):
                row_to[n] |= 1 << p
        imap.append(tuple(lat.join_mask(row_to[n]) for n in range(lat.size)))
    return InteriorOperator(t.fib, tuple(imap))


def topogenous_from_interior(i: InteriorOperator) -> TopogenousOrder:
    """m ⊏ n iff m <= i(n)."""
    rel = []
    for x, lat in enumerate(i.fib.sub):
        rows = [0] * lat.size
        for n in range(lat.size):
            for m in mask_iter(lat.down[i.imap[x][n]]):
                rows[m] |= 1 << n
        rel.append(tuple(rows))
    return TopogenousOrder(i.fib, tuple(rel))


def is_idempotent(op) -> bool:
    if not isinstance(op, _Operator):
        raise PreconditionError("idempotence is defined for closure/interior operators")
    return all(row[row[m]] == row[m] for row in op.table for m in range(len(row)))


# ---------------------------------------------------------------------------
# stock orders


def discrete_order(fib: SubobjectFibration) -> TopogenousOrder:
    """The largest topogenous order: m ⊏ n iff m <= n."""
    return TopogenousOrder(fib, tuple(tuple(lat.up) for lat in fib.sub))


def induced_relation_of_closure(t: TopogenousOrder) -> tuple[tuple[int, ...], ...]:
    """The relation {(m, n) : meet(related set of m) <= n}, rowwise.

    Always contains the original relation; equals it exactly when the order
    is meet-preserving (rows with an empty related set stay empty).
    """
    out = []
    for x, lat in enumerate(t.fib.sub):
        rows = []
        for m in range(lat.size):
            related = t.rel[x][m]
            rows.append(lat.up[lat.meet_mask(related)] if related else 0)
        out.append(tuple(rows))
    return tuple(out)
