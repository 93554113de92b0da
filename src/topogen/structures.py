"""Topogenous orders, closure/interior/neighbourhood operators, conversions.

A topogenous order is stored densely: ``rel[x][m]`` is the bitmask of all n
with m ⊏ n in the subobject lattice of object x.  Neighbourhood operators use
the same shape (``nu[x][m]`` = mask of neighbourhoods of m) but are validated
against their own axioms; the conversion between the two is the content of
the order isomorphism between the conglomerates, not a representational
accident we rely on silently.

``validate_structure`` decides each kind's laws once per distinct table.  On
first use per fibration and structure class it builds a plan: the law along
each morphism, read once, the morphisms grouped by (dom, cod), and how many
checks the laws make, in closed form.  A call then interns each object's
row table and reads each object's local axioms, and each hom-set's verdict
(its failing morphisms), off the memo by the ids of the tables they read;
witnesses are walked only along the failing morphisms, in morphism order.
Where the fibration and the tables are carried along the isos from each
class representative, only the hom-sets between representatives are read,
unless one of them fails (``validate_structure``).

A relation kind's structures are the up-sets of one preorder on the
entries (x, m, n), m <= n (G. Birkhoff, "Rings of sets", 1937): (x, m, n)
forces (x, m', n') for m' <= m and n <= n', and along f: x -> y, for each
index pair (a, b) of the kind's ``LawAlong`` and each n >= a, (y, a, n)
forces (x, b, f^{-1} n).  The kind's plan builds that order space, an
``OrderSpace``, from its own laws on first read (``plan.orders``); no other
module reads a ``LawAlong``'s index pairs or lookups, or a plan's laws.

Each kind's correspondence with the topogenous orders (Á. Császár, 1963),
its predicate and conversions both ways, is stated once: ``CORRESPONDENCE``.

The order predicates are per-object conditions: each object's verdict is
decided on its row table alone and memoised on its lattice
(``FiniteLattice.row_fact``), never on a plan.  Meet and join preservation
read whether one per-object fold succeeds, and the conversions to closure
and interior operators read that fold's value, so a row table is folded
once for both.

Memoised: each plan (``plan_of``), the one record per fibration and
structure class, for as long as its fibration lives, in a weak-keyed memo
that holds tables, ids and verdicts, never a structure or the fibration:
the laws, the interned row tables, per (object, table id) its checks and
local violations, per (dom, cod, table ids at both) the hom-set's failing
morphisms, a relation class's order space, and the fibration's iso
classes as the validator reads them (``_Plan.skeleton``).  Each object's predicate
verdicts and folds, by (deciding function, rows), and each lattice's
entries, for as long as its lattice lives.  Each kind's ``law_along``, and
each preimage table's pull, for the life of the process.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter, mul, or_
from typing import Mapping, Optional, Sequence

from .errors import PreconditionError
from .lattice import MAX_ELEMENTS, mask_iter
from .reporting import Report, Violation
from .site import SubobjectFibration, carried, carry_rows, symmetry


class LawAlong:
    """A kind's law along one morphism f, as data.

    Pair k relates the codomain entry at ``cod_index[k]`` with the domain
    entry at ``dom_index[k]``, and the law fails there iff ``lhs[c] &
    ~rhs[d]`` is nonzero for the codomain entry c and the domain entry d.
    ``lhs`` and ``rhs`` are lookups built from f's tables, so the law
    compares masks on any lattice.  A relation's law has ``lhs`` None and
    reads c itself: each element n of that mask is a check and a witness
    (k, n).  An operator's ``lhs`` maps a value to its single bit: each pair
    is one check and a failing pair one witness (k,).  So a relation's law
    makes one check per element of each codomain row a pair reads, and an
    operator's one per pair.
    """

    __slots__ = ("cod_index", "dom_index", "lhs", "rhs")

    def __init__(
        self,
        cod_index: Sequence[int],
        dom_index: Sequence[int],
        lhs: Optional[Sequence[int]],
        rhs: Mapping[int, int],
    ):
        self.cod_index, self.dom_index, self.lhs, self.rhs = cod_index, dom_index, lhs, rhs

    def holds(self, dom_row, cod_row) -> bool:
        """Whether the law holds between the table ``dom_row`` of f's domain
        and the table ``cod_row`` of its codomain: one loop over the pairs,
        with no call per pair (``map`` over the rows' bound ``__getitem__``
        read slower on CPython 3.11)."""
        cod_index, dom_index, lhs, rhs = self.cod_index, self.dom_index, self.lhs, self.rhs
        if lhs is None:
            for a, b in zip(cod_index, dom_index):
                if cod_row[a] & ~rhs[dom_row[b]]:
                    return False
        else:
            for a, b in zip(cod_index, dom_index):
                if lhs[cod_row[a]] & ~rhs[dom_row[b]]:
                    return False
        return True

    def witnesses(self, dom_row, cod_row):
        """Yields each witness, as lattice indices, lowest pair first; the
        pairs are walked for witnesses only when the law fails."""
        if self.holds(dom_row, cod_row):
            return
        lhs, rhs = self.lhs, self.rhs
        for k, (a, b) in enumerate(zip(self.cod_index, self.dom_index)):
            if lhs is None:
                for n in mask_iter(cod_row[a] & ~rhs[dom_row[b]]):
                    yield k, n
            elif lhs[cod_row[a]] & ~rhs[dom_row[b]]:
                yield (k,)


@dataclass(frozen=True, eq=False)
class _Structure:
    """One table per object over a fibration, with its kind's axioms.

    Each kind states its cross-object law along f once, as data:
    ``law_along(fib, f)`` is a ``LawAlong``, the index pairs it relates and
    the two lookups that decide each pair.  ``LawAlong.holds`` decides the
    law between two whole tables for the validator's plan, ``law_holds``,
    the extremality constraints and ``constructions.continuity_between``;
    only where it fails are the pairs walked for witnesses, and
    ``witness_sides`` says which end of f (0 domain, 1 codomain) each
    witness index lies in.  The validator and the order space read the
    law along each morphism off one record per fibration and kind, its
    plan (``plan_of``).

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
        return self.law_along(fib, f).holds(rows[fib.dom(f)], rows[fib.cod(f)])

    def _key(self):
        return (type(self), id(self.fib), self.table)

    def __eq__(self, other):
        return isinstance(other, _Structure) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class _Pull(dict):
    """pull_f for one preimage table ``pre``: the mask S maps to
    {n : pre[n] ∈ S}, filled on first use as the union of the fibres
    {n : pre[n] = p} over the values p in S.  ``fibres`` holds the fibre of
    each p up to the largest value (0 where p is no value), ``values`` the
    values as a mask."""

    __slots__ = ("pre", "fibres", "values")

    def __init__(self, pre: tuple[int, ...]):
        super().__init__()
        self.pre = pre
        self.values = sum(1 << p for p in set(pre))
        fibres = [0] * (max(pre, default=-1) + 1)
        for n, p in enumerate(pre):
            fibres[p] |= 1 << n
        self.fibres = tuple(fibres)

    def __missing__(self, s: int) -> int:
        fibres, pulled, rest = self.fibres, 0, s & self.values
        while rest:
            low = rest & -rest
            pulled |= fibres[low.bit_length() - 1]
            rest ^= low
        self[s] = pulled
        return pulled


@lru_cache(maxsize=None)
def pull_along(pre: tuple[int, ...]) -> _Pull:
    """The one pull_f of each preimage table, memoised by value."""
    return _Pull(pre)


# 1 << i for each index i of a lattice
_BITS = tuple(1 << i for i in range(MAX_ELEMENTS))


# Each kind's law along f, named by its ``law_name``, as a function of the
# tables of f and its lattices that it reads, memoised by value.


@lru_cache(maxsize=None)
def _preimage_stability(pre) -> LawAlong:
    """m ⊏ n downstairs gives f^{-1}(m) ⊏ f^{-1}(n): pairs (m, f^{-1}(m)),
    witnesses (m, n)."""
    return LawAlong(range(len(pre)), pre, None, pull_along(pre))


@lru_cache(maxsize=None)
def _continuity(img, pre) -> LawAlong:
    """n a neighbourhood of f(m) gives f^{-1}(n) a neighbourhood of m: pairs
    (f(m), m), witnesses (m, n)."""
    return LawAlong(img, range(len(img)), None, pull_along(pre))


@lru_cache(maxsize=None)
def _image_continuity(img, cod_up) -> LawAlong:
    """f(c(m)) <= c(f(m)): pairs (f(m), m), witnesses (m,)."""
    return LawAlong(img, range(len(img)), _BITS, tuple(cod_up[a] for a in img))


@lru_cache(maxsize=None)
def _preimage_continuity(pre, dom_down) -> LawAlong:
    """f^{-1}(i(n)) <= i(f^{-1}(n)): pairs (n, f^{-1}(n)), witnesses (n,)."""
    return LawAlong(range(len(pre)), pre, tuple(_BITS[b] for b in pre), dom_down)


@dataclass(frozen=True, eq=False)
class _Relation(_Structure):
    """A relation of each subobject lattice: row m is a mask of elements.

    Its law along f is one inclusion per index pair: the codomain row lies
    inside the domain row pulled back along f, ``lhs`` the identity and
    ``rhs`` pull_f.
    """

    carried = staticmethod(carry_rows)

    def first_excess(self, other: "_Relation"):
        """(object, m, n) naming the first pair m ⊏ n related here but not in
        ``other``; None when every row lies inside ``other``'s."""
        for x, (lat, ra, rb) in enumerate(zip(self.fib.sub, self.table, other.table)):
            for m, (a, b) in enumerate(zip(ra, rb)):
                if a & ~b:
                    n = next(mask_iter(a & ~b))
                    return self.fib.category.object_names[x], lat.labels[m], lat.labels[n]
        return None

    def _object_violations(self, x: int):
        """Object x's row lies above its element, is antitone in the element
        and up-closed; the number of checks and the violations, under the
        kind's three ``local_laws`` names."""
        above, antitone, up_closed = self.local_laws
        lat = self.fib.sub[x]
        where = self.fib.category.object_names[x]
        rows = self.table[x]
        violations = []
        checked = 0
        for m in range(lat.size):
            checked += 1
            if rows[m] & ~lat.up[m]:
                n = next(mask_iter(rows[m] & ~lat.up[m]))
                violations.append(
                    Violation(above, where=where, witness=(lat.labels[m], lat.labels[n]))
                )
        for m in range(lat.size):
            for mp in lat.above[m]:
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
    def law_along(fib, f) -> LawAlong:
        return _preimage_stability(fib.pre[f])


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
    def law_along(fib, f) -> LawAlong:
        return _continuity(fib.img[f], fib.pre[f])


@dataclass(frozen=True, eq=False)
class _Operator(_Structure):
    """A self-map of each subobject lattice.

    Its law along f is one order comparison per index pair, ``lhs`` the
    single bit of one side's value and ``rhs`` the mask of values it may
    take against the other side's.  Each class states its dual data once:
    ``bound``, per lattice, the mask of values each element may take;
    ``adjoint``, per fibration, the table of each morphism that
    ``constructions.induced_operator`` composes with; ``combine``, per
    lattice, the table that folds a counit's value into its element.
    """

    @staticmethod
    def carried(op: tuple[int, ...], table: Sequence[int]) -> tuple[int, ...]:
        """The self-map ``op`` carried along the bijection ``table``: it
        sends table[m] to table[op[m]]."""
        carried = [0] * len(op)
        for m, value in enumerate(op):
            carried[table[m]] = table[value]
        return tuple(carried)

    def first_excess(self, other: "_Operator"):
        """(object, m) naming the first element whose value here is not below
        its value in ``other``; None when there is none."""
        for x, (lat, ra, rb) in enumerate(zip(self.fib.sub, self.table, other.table)):
            for m, (a, b) in enumerate(zip(ra, rb)):
                if not lat.leq(a, b):
                    return self.fib.category.object_names[x], lat.labels[m]
        return None

    def _object_violations(self, x: int):
        """Object x's map takes each element within the kind's ``bound`` and
        is monotone; the number of checks and the violations, under the
        kind's two ``local_laws`` names."""
        bounded, monotone = self.local_laws
        lat = self.fib.sub[x]
        where = self.fib.category.object_names[x]
        allowed = self.bound(lat)
        op = self.table[x]
        violations = []
        checked = 0
        for m in range(lat.size):
            checked += 1
            if not allowed[m] >> op[m] & 1:
                violations.append(Violation(bounded, where=where, witness=(lat.labels[m],)))
            for n in lat.above[m]:
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
    bound = attrgetter("up")
    adjoint = attrgetter("img")
    combine = attrgetter("join_table")

    @staticmethod
    def law_along(fib, f) -> LawAlong:
        return _image_continuity(fib.img[f], fib.sub_cod(f).up)


@dataclass(frozen=True, eq=False)
class InteriorOperator(_Operator):
    imap: tuple[tuple[int, ...], ...]
    _table_field = "imap"
    kind = "interior"
    report_name = "interior-operator"
    local_laws = ("contractive", "monotone")
    law_name = "preimage-continuity"
    witness_sides = (1,)
    bound = attrgetter("down")
    adjoint = attrgetter("fstar")
    combine = attrgetter("meet_table")

    @staticmethod
    def law_along(fib, f) -> LawAlong:
        return _preimage_continuity(fib.pre[f], fib.sub_dom(f).down)


# ---------------------------------------------------------------------------
# validation


class _Verdicts(dict):
    """A plan's hom-set verdicts: ``verdicts[x, y, i, j]`` is the tuple of
    morphisms x -> y, in order, whose law fails between the interned row
    tables ``i`` at x and ``j`` at y, decided by ``LawAlong.holds`` on a
    miss and kept."""

    __slots__ = ("laws", "hom", "tables")

    def __init__(self, laws, hom, tables):
        super().__init__()
        self.laws, self.hom, self.tables = laws, hom, tables

    def __missing__(self, key) -> tuple[int, ...]:
        x, y, i, j = key
        dom_row, cod_row, laws = self.tables[i], self.tables[j], self.laws
        bad = self[key] = tuple([f for f in self.hom[x, y] if not laws[f].holds(dom_row, cod_row)])
        return bad


class _Plan:
    """One structure class's validation on one fibration.

    ``laws[f]`` is the class's law along f and ``homs`` the morphisms
    grouped by (dom, cod), in order.  The laws make ``law_checks`` checks
    whatever the tables, one per pair of an operator's law, and a
    relation's law reads row n of object y's table ``reads[y][n]`` times
    over the morphisms into y, one check per element of the row: the
    in-degree of y for a topogenous order, the image multiplicities for a
    neighbourhood operator.  ``intern`` numbers row tables (``ids``, and
    back, ``tables``); ``objects`` maps (x, id) to x's checks and local
    violations, and ``verdicts`` (x, y, id at x, id at y) to the failing
    morphisms x -> y, the one decision of a hom-set.  ``orders`` is a
    relation class's order space, built from ``laws`` on first read.
    ``skeleton(fib)`` is the fibration's iso classes as the validator
    reads them, found on first call.
    """

    __slots__ = ("laws", "homs", "law_checks", "reads", "ids", "tables", "objects",
                 "verdicts", "_lattices", "_orders", "_skeleton")

    def __init__(self, fib: SubobjectFibration, structure_class):
        cat = fib.category
        self.laws = tuple(structure_class.law_along(fib, f) for f in range(cat.n_morphisms))
        homs = {}
        for f, ends in enumerate(zip(cat.mor_dom, cat.mor_cod)):
            homs.setdefault(ends, []).append(f)
        self.homs = tuple((x, y, tuple(fs)) for (x, y), fs in homs.items())
        reads = [[0] * lat.size for lat in fib.sub]
        self.law_checks = 0
        for law, y in zip(self.laws, cat.mor_cod):
            if law.lhs is None:
                counts = reads[y]
                for a in law.cod_index:
                    counts[a] += 1
            else:
                self.law_checks += len(law.cod_index)
        self.reads = tuple(map(tuple, reads))
        self.ids, self.tables, self.objects = {}, [], {}
        self.verdicts = _Verdicts(self.laws, {(x, y): fs for x, y, fs in self.homs}, self.tables)
        self._lattices, self._orders, self._skeleton = fib.sub, None, _UNREAD

    @property
    def orders(self) -> "OrderSpace":
        """The order space of a relation class, built on first read."""
        if self._orders is None:
            laws = self.laws
            self._orders = OrderSpace(
                self._lattices, [(x, y, laws[f]) for x, y, fs in self.homs for f in fs])
        return self._orders

    def skeleton(self, fib: SubobjectFibration):
        """(rep A and U_A = img ι_A per object, the hom-sets of ``homs``
        between representatives) of ``fib``, this plan's fibration, when it
        is carried along the generators of its category's symmetry
        (``site.carried``) and some object is not its class's representative
        (``site.symmetry``); else None.  Isomorphic objects have as many
        points and as many maps in and out, so where no two objects do, the
        symmetry is not computed."""
        if self._skeleton is _UNREAD:
            cat = fib.category
            shapes = list(zip(
                map(len, map(cat.graphs.__getitem__, cat.identities)),
                map(len, cat.morphisms_from), map(len, cat.morphisms_to)))
            self._skeleton = None
            if len(set(shapes)) < len(shapes):
                sym = symmetry(cat)
                rep = sym.rep
                if rep != tuple(range(len(rep))) and carried(fib):
                    self._skeleton = tuple(zip(rep, map(fib.img.__getitem__, sym.iota))), tuple(
                        hom for hom in self.homs if rep[hom[0]] == hom[0] and rep[hom[1]] == hom[1])
        return self._skeleton

    def intern(self, rows) -> int:
        """The id of the row table ``rows``, numbered on first sight."""
        i = self.ids.get(rows)
        if i is None:
            i = self.ids[rows] = len(self.tables)
            self.tables.append(rows)
        return i


_UNREAD = object()

# plan_of's memo: per fibration, per structure class, its plan
_PLANS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def plan_of(fib: SubobjectFibration, structure_class) -> _Plan:
    """The one record of ``structure_class`` on ``fib``, built on first use
    and kept until ``fib`` is collected."""
    plans = _PLANS.setdefault(fib, {})
    plan = plans.get(structure_class)
    if plan is None:
        plan = plans[structure_class] = _Plan(fib, structure_class)
    return plan


def validate_structure(s) -> Report:
    """The kind's local axioms on every object, then its law along every
    morphism, each decided once per distinct table by the fibration's plan.

    The law is categorical: along f it holds exactly when it holds along
    f~ = ι_Y^-1 ∘ f ∘ ι_X (``site.symmetry``) where the fibration is
    carried along the generators of that symmetry (``site.carried``) and
    s's tables along the U_A = img ι_A, table A being table rep A carried
    along U_A (the kind's ``carried``): every pair the law compares at f is
    the pair at f~, carried.  Then the hom-sets between representatives
    (``_Plan.skeleton``) are decided alone, and where none of their maps
    fails, none does.  Where one fails, or the hypothesis does not hold,
    every hom-set is decided, so each violation is named."""
    if not isinstance(s, _Structure):
        raise PreconditionError(f"not a known structure: {type(s).__name__}")
    fib, table = s.fib, s.table
    cat = fib.category
    plan = plan_of(fib, type(s))
    objects, verdicts, laws = plan.objects, plan.verdicts, plan.laws
    ids = [plan.intern(rows) for rows in table]
    checked = plan.law_checks
    violations = []
    for x in range(cat.n_objects):
        key = (x, ids[x])
        found = objects.get(key)
        if found is None:
            local, broken = s._object_violations(x)
            along = sum(map(mul, plan.reads[x], map(int.bit_count, table[x])))
            found = objects[key] = (local + along, tuple(broken))
        checked += found[0]
        violations += found[1]
    def failing(homs):
        return [f for x, y, _ in homs for f in verdicts[x, y, ids[x], ids[y]]]

    skeleton = plan.skeleton(fib)
    bad = None
    if skeleton is not None and all(
        r == a or s.carried(table[r], unit) == table[a] for a, (r, unit) in enumerate(skeleton[0])
    ):
        bad = failing(skeleton[1])
    if bad is None or bad:
        bad = failing(plan.homs)
    for f in sorted(bad):
        x, y = cat.mor_dom[f], cat.mor_cod[f]
        labels = (fib.sub[x].labels, fib.sub[y].labels)
        violations.extend(
            Violation(
                s.law_name,
                where=cat.mor_names[f],
                witness=tuple(labels[side][i] for side, i in zip(s.witness_sides, witness)),
            )
            for witness in laws[f].witnesses(table[x], table[y])
        )
    return Report(s.report_name, checked, tuple(violations))


# ---------------------------------------------------------------------------
# order spaces: the up-sets of the forcing preorder


@dataclass(frozen=True)
class _Entries:
    """The entries (m, n), m <= n, of one lattice, numbered m-major
    (``pairs``); ``ids[m][n]`` numbers (m, n), and ``cone[m][n]`` is the mask
    of the entries (m, n) forces locally, (m', n') with m' <= m and n <= n',
    or 0 where m is not below n."""

    pairs: tuple[tuple[int, int], ...]
    ids: tuple[tuple[int, ...], ...]
    cone: tuple[tuple[int, ...], ...]


def _entries(lat, up: tuple[int, ...]) -> _Entries:
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


class OrderSpace:
    """The structures of a relation kind on ``lattices`` (one per object)
    under ``laws`` (``(dom, cod, LawAlong)``): the up-sets of the preorder
    "entry e forces entry e'".

    ``entries`` numbers the entries (x, m, n), object by object.  An entry
    that forces, in any number of steps, a pair outside the order (on an
    invalid fibration) lies in no structure, and ``outside`` is the mask of
    those.  The rest fall into classes of entries forcing each other:
    ``representatives[c]`` is class c's least entry, ``above[c]`` the mask
    of the classes c forces (c among them), ``below[c]`` of those that force
    c, and ``rows[c]`` the rows of the least structure holding c, flat over
    (x, m), object x's from ``offsets[x]`` to ``offsets[x + 1]``.  A
    structure is an up-set of classes, the union of their rows: ``count``
    counts them by branching on the lowest undecided class, memoised by the
    undecided classes (taking it decides every class it forces, leaving it
    every class that forces it), and ``tables()`` walks the same branching
    once, sorted, on first call.
    """

    __slots__ = ("entries", "outside", "representatives", "above", "below", "rows",
                 "offsets", "count", "_tables")

    def __init__(self, lattices, laws):
        by_object = [lat.row_fact(_entries, lat.up) for lat in lattices]
        # per object, its first entry number and its first row in a flat table
        bases, offsets = [0], [0]
        for lat, ent in zip(lattices, by_object):
            bases.append(bases[-1] + len(ent.pairs))
            offsets.append(offsets[-1] + lat.size)
        self.entries = tuple((x, m, n) for x, ent in enumerate(by_object) for m, n in ent.pairs)
        forced = [
            ent.cone[m][n] << base for ent, base in zip(by_object, bases) for m, n in ent.pairs
        ]
        beyond = 0
        for dx, cx, law in laws:
            pre = law.rhs.pre
            cone, cod_ids, base = by_object[dx].cone, by_object[cx].ids, bases[dx]
            above = lattices[cx].above
            for a, b in zip(law.cod_index, law.dom_index):
                into, source = cone[b], cod_ids[a]
                for n in above[a]:
                    e = bases[cx] + source[n]
                    if into[pre[n]]:
                        forced[e] |= into[pre[n]] << base
                    else:
                        beyond |= 1 << e
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
        classes, outside = {}, 0
        for e, mask in enumerate(closed):
            if mask & beyond:
                outside |= 1 << e
            else:
                classes.setdefault(mask, e)
        self.outside = outside
        self.representatives = tuple(self.entries[e] for e in classes.values())
        self.above = tuple(
            sum(1 << d for d, rep in enumerate(classes.values()) if mask >> rep & 1)
            for mask in classes
        )
        self.below = tuple(
            sum(1 << c for c, above in enumerate(self.above) if above >> d & 1)
            for d in range(len(classes))
        )
        at = [(offsets[x] + m, 1 << n) for x, m, n in self.entries]
        rows = []
        for mask in classes:
            flat = [0] * offsets[-1]
            for e in mask_iter(mask):
                i, bit = at[e]
                flat[i] |= bit
            rows.append(tuple(flat))
        self.rows, self.offsets = tuple(rows), tuple(offsets)
        above, below, counts = self.above, self.below, {0: 1}

        def count(undecided):
            found = counts.get(undecided)
            if found is None:
                c = (undecided & -undecided).bit_length() - 1
                found = counts[undecided] = (
                    count(undecided & ~above[c]) + count(undecided & ~below[c]))
            return found

        self.count = count((1 << len(classes)) - 1)
        self._tables = None

    def tables(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        if self._tables is None:
            above, below, class_rows, offsets = self.above, self.below, self.rows, self.offsets
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


def _fold(table, unit: int, sets):
    """The per-object fold: (the fold under ``table`` of each set of
    ``sets``, None) when each set holds the folds of its families; else
    (None, (m, family)) for the first set m that does not and its least
    unclosed family."""
    for m, s in enumerate(sets):
        family = _unclosed_family(table, unit, s)
        if family is not None:
            return None, (m, family)
    folds = []
    for s in sets:
        fold = unit
        for h in mask_iter(s):
            fold = table[fold][h]
        folds.append(fold)
    return tuple(folds), None


def _meet_folds(lat, rows):
    """``_fold`` of one object's rows {n : m ⊏ n} under meets."""
    return _fold(lat.meet_table, lat.top, rows)


def _join_folds(lat, rows):
    """``_fold`` of one object's columns {m : m ⊏ n} under joins."""
    return _fold(lat.join_table, lat.bottom, _transpose(rows))


def _interpolates(lat, rows) -> bool:
    """m ⊏ n in one object gives some k with m ⊏ k ⊏ n."""
    cols = _transpose(rows)
    return all(row & cols[n] for row in rows for n in mask_iter(row))


def is_interpolative(t: TopogenousOrder) -> bool:
    """m ⊏ n gives some k with m ⊏ k ⊏ n, decided once per object row table
    and memoised on its lattice."""
    return all(lat.row_fact(_interpolates, rows) for lat, rows in zip(t.fib.sub, t.rel))


def is_meet_preserving(t: TopogenousOrder) -> bool:
    """Each set {n : m ⊏ n} is closed under all meets, the empty one
    included: whether each object's fold succeeds.  The fold is computed
    once per (lattice, rows) and shared with ``closure_from_topogenous``."""
    return all(lat.row_fact(_meet_folds, rows)[1] is None for lat, rows in zip(t.fib.sub, t.rel))


def is_join_preserving(t: TopogenousOrder) -> bool:
    """Each set {m : m ⊏ n} is closed under all joins, the empty one
    included: whether each object's fold succeeds.  The fold is computed
    once per (lattice, rows) and shared with ``interior_from_topogenous``."""
    return all(lat.row_fact(_join_folds, rows)[1] is None for lat, rows in zip(t.fib.sub, t.rel))


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
    """Per object, the meet of each row (or the join of each column) of t:
    each object's fold, read off the memo its predicate shares.

    Raises when a row (column) is not closed under meets (joins), with the
    object, its element and the least failing family as witness."""
    compute = _join_folds if joins else _meet_folds
    out = []
    for x, (lat, rows) in enumerate(zip(t.fib.sub, t.rel)):
        folds, unclosed = lat.row_fact(compute, rows)
        if unclosed is not None:
            m, family = unclosed
            raise PreconditionError(
                f"order is not {'join' if joins else 'meet'}-preserving",
                witness=(
                    t.fib.category.object_names[x],
                    lat.labels[m],
                    tuple(lat.labels[i] for i in mask_iter(family)),
                ),
            )
        out.append(folds)
    return tuple(out)


def closure_from_topogenous(t: TopogenousOrder) -> ClosureOperator:
    """c(m) = meet of everything above m in the order; needs meet-preservation."""
    return ClosureOperator(t.fib, _folds(t, joins=False))


def _closure_rows(lat, cmap):
    """One object's rows {n : c(m) <= n} from its closure values."""
    return tuple(map(lat.up.__getitem__, cmap))


def topogenous_from_closure(c: ClosureOperator) -> TopogenousOrder:
    """m ⊏ n iff c(m) <= n: row m is the up-set of c(m), computed once per
    (lattice, closure row) and memoised on the lattice."""
    return TopogenousOrder(c.fib, tuple(
        lat.row_fact(_closure_rows, row) for lat, row in zip(c.fib.sub, c.cmap)))


def interior_from_topogenous(t: TopogenousOrder) -> InteriorOperator:
    """i(n) = join of everything below n in the order; needs join-preservation."""
    return InteriorOperator(t.fib, _folds(t, joins=True))


def _interior_rows(lat, imap):
    """One object's rows {n : m <= i(n)}: the transpose of its columns, the
    down-sets of its interior values."""
    return _transpose(tuple(map(lat.down.__getitem__, imap)))


def topogenous_from_interior(i: InteriorOperator) -> TopogenousOrder:
    """m ⊏ n iff m <= i(n): column n is the down-set of i(n), computed once
    per (lattice, interior row) and memoised on the lattice."""
    return TopogenousOrder(i.fib, tuple(
        lat.row_fact(_interior_rows, row) for lat, row in zip(i.fib.sub, i.imap)))


# each non-topogenous class: the predicate that picks its orders (None: all
# orders), and its conversions from and to orders.  A conversion from orders
# names its function when called, so rebinding it (as a tracer does) reaches
# it.
CORRESPONDENCE = {
    ClosureOperator: (is_meet_preserving, lambda t: closure_from_topogenous(t),
                      topogenous_from_closure),
    InteriorOperator: (is_join_preserving, lambda t: interior_from_topogenous(t),
                       topogenous_from_interior),
    NeighbourhoodOperator: (None, lambda t: nbhd_from_topogenous(t), topogenous_from_nbhd),
}
# each kind's name and its structure class, which holds the kind's law
KINDS = {cls.kind: cls for cls in (TopogenousOrder, *CORRESPONDENCE)}
# the kinds whose tables are relations, a mask of elements per element
RELATIONS = (TopogenousOrder, NeighbourhoodOperator)


def is_idempotent(op) -> bool:
    if not isinstance(op, _Operator):
        raise PreconditionError("idempotence is defined for closure/interior operators")
    return all(row[row[m]] == row[m] for row in op.table for m in range(len(row)))


# ---------------------------------------------------------------------------
# stock orders


def discrete_order(fib: SubobjectFibration) -> TopogenousOrder:
    """The largest topogenous order: m ⊏ n iff m <= n."""
    return TopogenousOrder(fib, tuple(tuple(lat.up) for lat in fib.sub))
