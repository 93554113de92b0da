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
    """One table per object over a fibration, with its kind's axioms.

    Each kind states its cross-object law once, as the generator
    ``law(fib, f, dom_row, cod_row)``: it yields each witness, as lattice
    indices, at which the law fails along f between the table ``dom_row`` of
    f's domain and the table ``cod_row`` of its codomain.  The validator names
    the witnesses; the enumerator and the extremality constraints only ask
    whether there is one.  ``law_checks`` is the number of checks the law
    makes, in closed form, and ``witness_sides`` says which end of f (0
    domain, 1 codomain) each witness index lies in.

    Two structures are equal when they are of one kind, over the same
    fibration object, with equal tables.
    """

    fib: SubobjectFibration

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        return getattr(self, self._table_field)

    def law_holds(self, f: int) -> bool:
        """Whether the kind's law holds along f between this structure's tables."""
        fib = self.fib
        rows = self.table
        return next(self.law(fib, f, rows[fib.dom(f)], rows[fib.cod(f)]), None) is None

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

    def _local_violations(self):
        """Each row lies above its element, is antitone in the element and
        up-closed; the number of checks and the violations, under the kind's
        three ``local_laws`` names."""
        above, antitone, up_closed = self.local_laws
        violations = []
        checked = 0
        for x, lat in enumerate(self.fib.sub):
            where = self.fib.category.object_names[x]
            rows = self.table[x]
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


@dataclass(frozen=True, eq=False)
class TopogenousOrder(_Relation):
    rel: tuple[tuple[int, ...], ...]
    _table_field = "rel"
    kind = "topogenous"
    report_name = "topogenous-order"
    local_laws = ("below-order", "order-compatibility", "order-compatibility")
    law_name = "preimage-stability"
    witness_sides = (1, 1)

    @staticmethod
    def law(fib, f, dom_row, cod_row):
        """Preimage stability: m ⊏ n downstairs gives f^{-1}(m) ⊏ f^{-1}(n);
        yields (m, n)."""
        pre = fib.pre[f]
        for m, related in enumerate(cod_row):
            row = dom_row[pre[m]]
            while related:  # the set bits n of related, lowest first
                low = related & -related
                n = low.bit_length() - 1
                if not row >> pre[n] & 1:
                    yield m, n
                related ^= low

    @staticmethod
    def law_checks(fib, f, dom_row, cod_row) -> int:
        return sum(row.bit_count() for row in cod_row)

    def holds(self, x: int, m: int, n: int) -> bool:
        return bool(self.rel[x][m] >> n & 1)


@dataclass(frozen=True, eq=False)
class NeighbourhoodOperator(_Relation):
    nu: tuple[tuple[int, ...], ...]     # nu[x][m] = mask of neighbourhoods of m
    _table_field = "nu"
    kind = "neighbourhood"
    report_name = "neighbourhood-operator"
    local_laws = ("neighbourhood-above", "antitone", "up-closed")
    law_name = "continuity"
    witness_sides = (0, 1)

    @staticmethod
    def law(fib, f, dom_row, cod_row):
        """Continuity: n a neighbourhood of f(m) gives f^{-1}(n) a
        neighbourhood of m; yields (m, n)."""
        img, pre = fib.img[f], fib.pre[f]
        for m, row in enumerate(dom_row):
            related = cod_row[img[m]]
            while related:  # the set bits n of related, lowest first
                low = related & -related
                n = low.bit_length() - 1
                if not row >> pre[n] & 1:
                    yield m, n
                related ^= low

    @staticmethod
    def law_checks(fib, f, dom_row, cod_row) -> int:
        return sum(cod_row[i].bit_count() for i in fib.img[f])


@dataclass(frozen=True, eq=False)
class _Operator(_Structure):
    """A self-map of each subobject lattice."""

    def pointwise_leq(self, other: "_Operator") -> bool:
        return all(
            lat.leq(a, b)
            for lat, ra, rb in zip(self.fib.sub, self.table, other.table)
            for a, b in zip(ra, rb)
        )

    def _local_violations(self):
        """Each map is extensive (closure) or contractive (interior), and
        monotone; the number of checks and the violations, under the kind's
        two ``local_laws`` names."""
        bounded, monotone = self.local_laws
        violations = []
        checked = 0
        for x, lat in enumerate(self.fib.sub):
            where = self.fib.category.object_names[x]
            allowed = lat.up if self.kind == "closure" else lat.down
            op = self.table[x]
            for m in range(lat.size):
                checked += 1
                if not allowed[m] >> op[m] & 1:
                    violations.append(Violation(bounded, where=where, witness=(lat.labels[m],)))
                for n in mask_iter(lat.up[m]):
                    checked += 1
                    if not lat.leq(op[m], op[n]):
                        violations.append(
                            Violation(monotone, where=where, witness=(lat.labels[m], lat.labels[n]))
                        )
        return checked, violations


@dataclass(frozen=True, eq=False)
class ClosureOperator(_Operator):
    cmap: tuple[tuple[int, ...], ...]   # cmap[x][m] = c_X(m)
    _table_field = "cmap"
    kind = "closure"
    report_name = "closure-operator"
    local_laws = ("extensive", "monotone")
    law_name = "image-continuity"
    witness_sides = (0,)

    @staticmethod
    def law(fib, f, dom_row, cod_row):
        """Image continuity: f(c(m)) <= c(f(m)); yields (m,)."""
        img, up = fib.img[f], fib.sub_cod(f).up
        for m, cm in enumerate(dom_row):
            if not up[img[cm]] >> cod_row[img[m]] & 1:
                yield (m,)

    @staticmethod
    def law_checks(fib, f, dom_row, cod_row) -> int:
        return len(dom_row)


@dataclass(frozen=True, eq=False)
class InteriorOperator(_Operator):
    imap: tuple[tuple[int, ...], ...]
    _table_field = "imap"
    kind = "interior"
    report_name = "interior-operator"
    local_laws = ("contractive", "monotone")
    law_name = "preimage-continuity"
    witness_sides = (1,)

    @staticmethod
    def law(fib, f, dom_row, cod_row):
        """Preimage continuity: f^{-1}(i(n)) <= i(f^{-1}(n)); yields (n,)."""
        pre, up = fib.pre[f], fib.sub_dom(f).up
        for n, i_n in enumerate(cod_row):
            if not up[pre[i_n]] >> dom_row[pre[n]] & 1:
                yield (n,)

    @staticmethod
    def law_checks(fib, f, dom_row, cod_row) -> int:
        return len(cod_row)


# ---------------------------------------------------------------------------
# validation


def validate_structure(s) -> Report:
    """The kind's local axioms on every object, then its law along every
    morphism."""
    if not isinstance(s, _Structure):
        raise PreconditionError(f"not a known structure: {type(s).__name__}")
    fib, table = s.fib, s.table
    cat = fib.category
    checked, violations = s._local_violations()
    for f in range(cat.n_morphisms):
        dom_row, cod_row = table[fib.dom(f)], table[fib.cod(f)]
        labels = (fib.sub_dom(f).labels, fib.sub_cod(f).labels)
        checked += s.law_checks(fib, f, dom_row, cod_row)
        violations.extend(
            Violation(
                s.law_name,
                where=cat.mor_names[f],
                witness=tuple(labels[side][i] for side, i in zip(s.witness_sides, witness)),
            )
            for witness in s.law(fib, f, dom_row, cod_row)
        )
    return Report(s.report_name, checked, tuple(violations))


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


def is_meet_preserving(t: TopogenousOrder) -> bool:
    """Each set {n : m ⊏ n} is closed under all meets, the empty one included."""
    return _meet_preservation_witness(t) is None


def is_join_preserving(t: TopogenousOrder) -> bool:
    """Each set {m : m ⊏ n} is closed under all joins, the empty one included."""
    return _join_preservation_witness(t) is None


def predicates(t: TopogenousOrder) -> OrderPredicates:
    """Meet/join preservation (all families, including the empty one) and interpolation."""
    return OrderPredicates(
        meet_preserving=is_meet_preserving(t),
        join_preserving=is_join_preserving(t),
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
