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
from functools import lru_cache, reduce

from .errors import PreconditionError
from .lattice import mask_iter
from .reporting import Report, Violation
from .site import SubobjectFibration

@dataclass(frozen=True, eq=False)
class _Structure:
    """One table per object over a fibration, with its kind's axioms.

    Each kind states its cross-object law along f once, entry by entry:
    ``law_pairs(fib, f)`` lists the index pairs (a, b) it relates, a in f's
    codomain lattice and b in its domain's, and ``entry_law(fib, f)`` is a
    function of the codomain entry at a and the domain entry at b that is
    falsy exactly where the law holds.  The generator
    ``law(fib, f, dom_row, cod_row)`` yields each witness, as lattice
    indices, at which the law fails between the table ``dom_row`` of f's
    domain and the table ``cod_row`` of its codomain.  The validator names
    the witnesses; the extremality constraints only ask whether there is
    one, and the enumerator checks each pair as soon as both entries are
    placed.  ``law_checks`` is the number of checks the law makes, in
    closed form, and ``witness_sides`` says which end of f (0 domain, 1
    codomain) each witness index lies in.

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


class _Pull(dict):
    """pull_f for one preimage table ``pre``: the mask S maps to
    {n : pre[n] ∈ S}; filled on first use."""

    def __init__(self, pre: tuple[int, ...]):
        super().__init__()
        self.pre = pre

    def __missing__(self, s: int) -> int:
        pulled = self[s] = sum(1 << n for n, p in enumerate(self.pre) if s >> p & 1)
        return pulled


@lru_cache(maxsize=None)
def _pull_along(pre: tuple[int, ...]) -> _Pull:
    """The one pull_f of each preimage table, memoised by value."""
    return _Pull(pre)


def _image_pairs(fib, f):
    """(f(m), m) for each m of f's domain lattice."""
    img = fib.img[f]
    return zip(img, range(len(img)))


def _preimage_pairs(fib, f):
    """(n, f^{-1}(n)) for each n of f's codomain lattice."""
    return enumerate(fib.pre[f])


@dataclass(frozen=True, eq=False)
class _Relation(_Structure):
    """A relation of each subobject lattice: row m is a mask of elements.

    Its law along f is one inclusion per index pair (a, b): the codomain row
    at a lies inside the domain row at b pulled back along f,
    ``cod_row[a] ⊆ pull_f(dom_row[b])``.
    """

    @staticmethod
    def entry_law(fib, f):
        pull = _pull_along(fib.pre[f])
        return lambda cod_entry, dom_entry: cod_entry & ~pull[dom_entry]

    @classmethod
    def law(cls, fib, f, dom_row, cod_row):
        """Yields (k, n) for the k-th pair (a, b) and each n of cod_row[a]
        outside pull_f(dom_row[b]), lowest first."""
        fails = cls.entry_law(fib, f)
        for k, (a, b) in enumerate(cls.law_pairs(fib, f)):
            outside = fails(cod_row[a], dom_row[b])
            if outside:
                for n in mask_iter(outside):
                    yield k, n

    @classmethod
    def law_checks(cls, fib, f, dom_row, cod_row) -> int:
        return sum(cod_row[a].bit_count() for a, _ in cls.law_pairs(fib, f))

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

    # preimage stability: m ⊏ n downstairs gives f^{-1}(m) ⊏ f^{-1}(n);
    # witnesses (m, n)
    law_pairs = staticmethod(_preimage_pairs)

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

    # continuity: n a neighbourhood of f(m) gives f^{-1}(n) a neighbourhood
    # of m; witnesses (m, n)
    law_pairs = staticmethod(_image_pairs)


@dataclass(frozen=True, eq=False)
class _Operator(_Structure):
    """A self-map of each subobject lattice.

    Its law along f is one comparison per index pair (a, b) of the codomain
    entry at a with the domain entry at b.
    """

    @classmethod
    def law(cls, fib, f, dom_row, cod_row):
        """Yields (k,) for each k-th pair (a, b) at which the law fails."""
        fails = cls.entry_law(fib, f)
        for k, (a, b) in enumerate(cls.law_pairs(fib, f)):
            if fails(cod_row[a], dom_row[b]):
                yield (k,)

    @classmethod
    def law_checks(cls, fib, f, dom_row, cod_row) -> int:
        return sum(1 for _ in cls.law_pairs(fib, f))

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

    law_pairs = staticmethod(_image_pairs)

    @staticmethod
    def entry_law(fib, f):
        # image continuity: f(c(m)) <= c(f(m)); witnesses (m,)
        img, up = fib.img[f], fib.sub_cod(f).up
        return lambda cod_entry, dom_entry: not up[img[dom_entry]] >> cod_entry & 1


@dataclass(frozen=True, eq=False)
class InteriorOperator(_Operator):
    imap: tuple[tuple[int, ...], ...]
    _table_field = "imap"
    kind = "interior"
    report_name = "interior-operator"
    local_laws = ("contractive", "monotone")
    law_name = "preimage-continuity"
    witness_sides = (1,)

    law_pairs = staticmethod(_preimage_pairs)

    @staticmethod
    def entry_law(fib, f):
        # preimage continuity: f^{-1}(i(n)) <= i(f^{-1}(n)); witnesses (n,)
        pre, up = fib.pre[f], fib.sub_dom(f).up
        return lambda cod_entry, dom_entry: not up[pre[cod_entry]] >> dom_entry & 1


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


def _unclosed_family(table, unit: int, s: int):
    """None when the set ``s`` (a mask) holds the fold under ``table`` of each
    of its families, else the least such family, in mask order, whose fold
    lies outside ``s``; ``s`` need not be up-closed.

    Mask order compares the highest member first, so the family is built from
    the top down, each next member the least h that some family of members
    up to h completes (it lies below the last).  ``reachable``, the folds of
    those families, grows one member h at a time (the old folds, and each
    combined with h) and stays inside a closed ``s``: O(|s|^2) to decide,
    O(|s|^2 |L|) for the witness on a lattice L, not O(2^|s|).
    """
    family, fold = 0, unit
    while s >> fold & 1:
        reachable = {unit}
        for h in mask_iter(s):
            reachable |= {table[g][h] for g in reachable}
            if not all(s >> table[g][fold] & 1 for g in reachable):
                break
        else:
            return None
        family |= 1 << h
        fold = table[fold][h]
    return family


def _transpose(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The transpose of one object's relation: from the rows {n : m ⊏ n}, the
    columns {m : m ⊏ n}, and back."""
    cols = [0] * len(rows)
    for m, row in enumerate(rows):
        for n in mask_iter(row):
            cols[n] |= 1 << m
    return tuple(cols)


def _sets_to_close(t: TopogenousOrder, joins: bool):
    """Per object: its lattice, the operation and unit to close under, and the
    sets to close: the rows {n : m ⊏ n} under meets, or the columns under joins."""
    for lat, rows in zip(t.fib.sub, t.rel):
        if joins:
            yield lat, lat.join_table, lat.bottom, _transpose(rows)
        else:
            yield lat, lat.meet_table, lat.top, rows


def _preserves(t: TopogenousOrder, joins: bool) -> bool:
    return all(
        _unclosed_family(table, unit, s) is None
        for _, table, unit, sets in _sets_to_close(t, joins)
        for s in sets
    )


def is_interpolative(t: TopogenousOrder) -> bool:
    for rows in t.rel:
        cols = _transpose(rows)
        for row in rows:
            for n in mask_iter(row):
                if not row & cols[n]:
                    return False
    return True


def is_meet_preserving(t: TopogenousOrder) -> bool:
    """Each set {n : m ⊏ n} is closed under all meets, the empty one included."""
    return _preserves(t, joins=False)


def is_join_preserving(t: TopogenousOrder) -> bool:
    """Each set {m : m ⊏ n} is closed under all joins, the empty one included."""
    return _preserves(t, joins=True)


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


def _folds(t: TopogenousOrder, joins: bool) -> tuple[tuple[int, ...], ...]:
    """Per object, the meet of each row (or the join of each column) of t.

    Raises when a row (column) is not closed under meets (joins), with the
    object, its element and the least failing family as witness."""
    out = []
    for x, (lat, table, unit, sets) in enumerate(_sets_to_close(t, joins)):
        folds = []
        for m, s in enumerate(sets):
            family = _unclosed_family(table, unit, s)
            if family is not None:
                raise PreconditionError(
                    f"order is not {'join' if joins else 'meet'}-preserving",
                    witness=(
                        t.fib.category.object_names[x],
                        lat.labels[m],
                        tuple(lat.labels[i] for i in mask_iter(family)),
                    ),
                )
            folds.append(reduce(lambda acc, i: table[acc][i], mask_iter(s), unit))
        out.append(tuple(folds))
    return tuple(out)


def closure_from_topogenous(t: TopogenousOrder) -> ClosureOperator:
    """c(m) = meet of everything above m in the order; needs meet-preservation."""
    return ClosureOperator(t.fib, _folds(t, joins=False))


def topogenous_from_closure(c: ClosureOperator) -> TopogenousOrder:
    """m ⊏ n iff c(m) <= n."""
    rel = tuple(
        tuple(lat.up[c.cmap[x][m]] for m in range(lat.size))
        for x, lat in enumerate(c.fib.sub)
    )
    return TopogenousOrder(c.fib, rel)


def interior_from_topogenous(t: TopogenousOrder) -> InteriorOperator:
    """i(n) = join of everything below n in the order; needs join-preservation."""
    return InteriorOperator(t.fib, _folds(t, joins=True))


def topogenous_from_interior(i: InteriorOperator) -> TopogenousOrder:
    """m ⊏ n iff m <= i(n)."""
    rel = tuple(
        _transpose(tuple(lat.down[i.imap[x][n]] for n in range(lat.size)))
        for x, lat in enumerate(i.fib.sub)
    )
    return TopogenousOrder(i.fib, rel)


def is_idempotent(op) -> bool:
    if not isinstance(op, _Operator):
        raise PreconditionError("idempotence is defined for closure/interior operators")
    return all(row[row[m]] == row[m] for row in op.table for m in range(len(row)))


# ---------------------------------------------------------------------------
# stock orders


def discrete_order(fib: SubobjectFibration) -> TopogenousOrder:
    """The largest topogenous order: m ⊏ n iff m <= n."""
    return TopogenousOrder(fib, tuple(tuple(lat.up) for lat in fib.sub))
