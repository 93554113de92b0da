import itertools
import operator
import random
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from topogen.errors import PreconditionError
from topogen.instances.registry import builtin_fibration
from topogen.lattice import FiniteLattice, mask_iter
from topogen.reporting import Report, Violation
from topogen.structures import (
    KINDS,
    ClosureOperator,
    InteriorOperator,
    TopogenousOrder,
    closure_from_topogenous,
    discrete_order,
    interior_from_topogenous,
    is_idempotent,
    is_interpolative,
    is_join_preserving,
    is_meet_preserving,
    nbhd_from_topogenous,
    plan_of,
    predicates,
    topogenous_from_closure,
    topogenous_from_interior,
    topogenous_from_nbhd,
    validate_structure,
)
from topogen.instances.topology import closure_order, interior_order, spaces_of


def closure_by_scan(space, mask):
    # independent oracle: smallest closed superset, by scanning all subsets
    best = space.full
    for c in range(1 << space.n):
        if mask & ~c == 0 and space.is_open(space.full & ~c) and bin(c).count("1") < bin(best).count("1"):
            best = c
    return best


def test_discrete_order_is_topogenous(fintop2):
    t = discrete_order(fintop2)
    assert validate_structure(t).ok


def test_bottom_only_relation_is_topogenous(fintop2):
    rel = []
    for lat in fintop2.sub:
        rows = [0] * lat.size
        rows[lat.bottom] = (1 << lat.size) - 1
        rel.append(tuple(rows))
    t = TopogenousOrder(fintop2, tuple(rel))
    assert validate_structure(t).ok


def test_closure_order_matches_set_level_closures(fintop2):
    t = closure_order(fintop2)
    assert validate_structure(t).ok
    spaces = spaces_of(fintop2)
    for x, s in enumerate(spaces):
        for a in range(1 << s.n):
            for b in range(1 << s.n):
                expected = closure_by_scan(s, a) & ~b == 0
                assert bool(t.rel[x][a] >> b & 1) == expected


def test_builtin_orders_have_expected_predicates(fintop2):
    for t in (closure_order(fintop2), interior_order(fintop2)):
        p = predicates(t)
        assert p.interpolative
    assert predicates(closure_order(fintop2)).meet_preserving
    assert predicates(interior_order(fintop2)).join_preserving


def test_closure_induced_order_is_meet_preserving(fintop2):
    c = closure_from_topogenous(closure_order(fintop2))
    t = topogenous_from_closure(c)
    assert predicates(t).meet_preserving


def test_interior_induced_order_is_join_preserving(fintop2):
    i = interior_from_topogenous(interior_order(fintop2))
    t = topogenous_from_interior(i)
    assert predicates(t).join_preserving


def test_neighbourhoods_of_dense_point_on_sierpinski(fintop2):
    t = closure_order(fintop2)
    nu = nbhd_from_topogenous(t)
    assert validate_structure(nu).ok
    x = fintop2.category.object_index("sierpinski")
    # the open point is dense, so its only neighbourhood is the whole space
    assert nu.nu[x][0b10] == 1 << 0b11
    # the closed point is its own closure
    assert nu.nu[x][0b01] == fintop2.sub[x].up[0b01]


def test_closure_conversion_matches_topological_closure(fintop2):
    t = closure_order(fintop2)
    c = closure_from_topogenous(t)
    assert validate_structure(c).ok
    for x, s in enumerate(spaces_of(fintop2)):
        for a in range(1 << s.n):
            assert c.cmap[x][a] == closure_by_scan(s, a)


def test_interior_conversion_matches_topological_interior(fintop2):
    t = interior_order(fintop2)
    i = interior_from_topogenous(t)
    assert validate_structure(i).ok
    for x, s in enumerate(spaces_of(fintop2)):
        for a in range(1 << s.n):
            assert i.imap[x][a] == s.interior(a)


def test_non_meet_preserving_conversion_fails_with_witness(fintop2):
    rel = tuple(tuple(0 for _ in range(lat.size)) for lat in fintop2.sub)
    t = TopogenousOrder(fintop2, rel)
    assert validate_structure(t).ok
    with pytest.raises(PreconditionError) as excinfo:
        closure_from_topogenous(t)
    assert excinfo.value.witness is not None
    obj, label, family = excinfo.value.witness
    assert family == ()  # the empty family already fails


def test_non_join_preserving_conversion_fails(fintop2):
    rel = tuple(tuple(0 for _ in range(lat.size)) for lat in fintop2.sub)
    with pytest.raises(PreconditionError):
        interior_from_topogenous(TopogenousOrder(fintop2, rel))


def trivial_fibration(lat):
    from topogen.site import FiniteCategory, SubobjectFibration

    cat = FiniteCategory(("x",), (0,), (0,), ("id_x",), (0,), graphs=((0,),))
    ident = tuple(range(lat.size))
    return SubobjectFibration(cat, (lat,), (ident,), (ident,), frozenset({0}), frozenset({0}))


def test_structures_are_equal_by_kind_fibration_and_table():
    lat = FiniteLattice.powerset(2)
    fib, other_fib = trivial_fibration(lat), trivial_fibration(lat)
    table = (tuple(range(4)),)
    c = ClosureOperator(fib, table)
    assert c == ClosureOperator(fib, tuple(map(tuple, table)))
    assert hash(c) == hash(ClosureOperator(fib, table))
    assert len({c, ClosureOperator(fib, table)}) == 1
    # another kind with the same table, or an equal fibration object, differs
    assert c != InteriorOperator(fib, table)
    assert c != ClosureOperator(other_fib, table)
    assert c != ClosureOperator(fib, (tuple(m | 1 for m in range(4)),))
    assert c != table


def test_idempotence_examples():
    lat = FiniteLattice.powerset(2)
    fib = trivial_fibration(lat)
    identity = ClosureOperator(fib, (tuple(range(4)),))
    assert is_idempotent(identity)
    # joining a fixed atom everywhere is idempotent
    join_atom = ClosureOperator(fib, (tuple(m | 0b01 for m in range(4)),))
    assert validate_structure(join_atom).ok
    assert is_idempotent(join_atom)
    # adding the lowest missing point is extensive and monotone but not idempotent
    def add_min_missing(m):
        missing = [p for p in range(2) if not m >> p & 1]
        return m | (1 << missing[0]) if missing else m
    creep = ClosureOperator(fib, (tuple(add_min_missing(m) for m in range(4)),))
    assert validate_structure(creep).ok
    assert not is_idempotent(creep)
    with pytest.raises(PreconditionError):
        is_idempotent(TopogenousOrder(fib, ((0, 0, 0, 0),)))


def test_largest_order_converts_to_identity_operators(fintop2):
    t = discrete_order(fintop2)
    c = closure_from_topogenous(t)
    i = interior_from_topogenous(t)
    for x, lat in enumerate(fintop2.sub):
        identity = tuple(range(lat.size))
        assert c.cmap[x] == identity
        assert i.imap[x] == identity
    nu = nbhd_from_topogenous(t)
    for x, lat in enumerate(fintop2.sub):
        assert nu.nu[x] == lat.up


def test_roundtrips_on_builtin_orders(fintop2):
    tc = closure_order(fintop2)
    ti = interior_order(fintop2)
    assert topogenous_from_closure(closure_from_topogenous(tc)) == tc
    assert topogenous_from_interior(interior_from_topogenous(ti)) == ti
    assert topogenous_from_nbhd(nbhd_from_topogenous(tc)) == tc


def _all_orders(fib):
    from topogen.harness.enumeration import EnumerationSpec, enumerate_structures

    return list(enumerate_structures(EnumerationSpec(fib, "topogenous")))


def test_conversions_are_order_compatible(disc2_loop):
    # neighbourhood and interior conversions are monotone in the order;
    # the closure conversion reverses it (larger related sets, smaller meets)
    orders = _all_orders(disc2_loop)
    for t1 in orders:
        for t2 in orders:
            if t1.first_excess(t2) is not None:
                continue
            assert nbhd_from_topogenous(t1).first_excess(nbhd_from_topogenous(t2)) is None
            p1, p2 = predicates(t1), predicates(t2)
            if p1.meet_preserving and p2.meet_preserving:
                c1, c2 = closure_from_topogenous(t1), closure_from_topogenous(t2)
                assert c2.first_excess(c1) is None
            if p1.join_preserving and p2.join_preserving:
                i1, i2 = interior_from_topogenous(t1), interior_from_topogenous(t2)
                assert i1.first_excess(i2) is None


def _first_excess_by_entries(s1, s2):
    """The first entry, in object, m, n order, where s1 <= s2 fails."""
    for x, lat in enumerate(s1.fib.sub):
        where = s1.fib.category.object_names[x]
        for m in range(lat.size):
            a, b = s1.table[x][m], s2.table[x][m]
            if s1.kind in ("closure", "interior"):
                if not lat.leq(a, b):
                    return where, lat.labels[m]
                continue
            for n in range(lat.size):
                if a >> n & 1 and not b >> n & 1:
                    return where, lat.labels[m], lat.labels[n]
    return None


def test_first_excess_names_the_first_entry_out_of_order(disc2_loop):
    orders = _all_orders(disc2_loop)
    closures = [
        closure_from_topogenous(t) for t in orders if predicates(t).meet_preserving]
    interiors = [
        interior_from_topogenous(t) for t in orders if predicates(t).join_preserving]
    found = set()
    for family in (orders, list(map(nbhd_from_topogenous, orders)), closures, interiors):
        for s1 in family:
            for s2 in family:
                excess = s1.first_excess(s2)
                assert excess == _first_excess_by_entries(s1, s2)
                found.add((s1.kind, excess is None))
    kinds = ("topogenous", "neighbourhood", "closure", "interior")
    assert found == {(kind, b) for kind in kinds for b in (True, False)}


def induced_relation_of_closure(t: TopogenousOrder) -> tuple[tuple[int, ...], ...]:
    """The relation {(m, n) : meet(related set of m) <= n}, rowwise.

    Always contains the original relation.  When every row is inhabited, it
    equals the original exactly when the order is meet-preserving.  An empty
    row stays empty, so it matches, yet it lacks the top and is never
    meet-preserving.
    """
    out = []
    for x, lat in enumerate(t.fib.sub):
        rows = []
        for m in range(lat.size):
            related = t.rel[x][m]
            rows.append(lat.up[reduce(lat.meet, mask_iter(related), lat.top)] if related else 0)
        out.append(tuple(rows))
    return tuple(out)


def test_closure_induced_relation_contains_order(disc2_loop):
    # rows with a meet witness induce a relation containing the original;
    # with all rows inhabited, equality characterizes meet-preservation
    for t in _all_orders(disc2_loop):
        induced = induced_relation_of_closure(t)
        contains = all(
            row & ~irow == 0
            for rows, irows in zip(t.rel, induced)
            for row, irow in zip(rows, irows)
        )
        assert contains
        inhabited = all(row for rows in t.rel for row in rows)
        if inhabited:
            assert (induced == t.rel) == predicates(t).meet_preserving
        else:
            assert not predicates(t).meet_preserving


@given(st.integers(0, 3))
def test_join_fixed_mask_closure_roundtrip(mask):
    lat = FiniteLattice.powerset(2)
    fib = trivial_fibration(lat)
    c = ClosureOperator(fib, (tuple(m | mask for m in range(4)),))
    assert validate_structure(c).ok
    t = topogenous_from_closure(c)
    assert validate_structure(t).ok
    assert closure_from_topogenous(t) == c
    assert is_interpolative(t)


def test_neighbourhood_axioms_vs_topogenous_axioms(disc2_loop):
    # the two validators accept exactly the same relations
    from topogen.harness.enumeration import EnumerationSpec, enumerate_structures

    torders = {t.rel for t in _all_orders(disc2_loop)}
    nbhds = {
        nu.nu
        for nu in enumerate_structures(EnumerationSpec(disc2_loop, "neighbourhood"))
    }
    assert torders == nbhds


def test_corrupted_closure_order_row_is_reported_with_witness(fintop2):
    t = closure_order(fintop2)
    x = fintop2.category.object_index("sierpinski")
    lat = fintop2.sub[x]
    top, bottom = lat.index_of("{0,1}"), lat.index_of("{}")
    rel = [list(rows) for rows in t.rel]
    rel[x][top] |= 1 << bottom  # the whole space related to the empty set
    broken = TopogenousOrder(fintop2, tuple(map(tuple, rel)))
    report = validate_structure(broken)
    assert not report.ok
    assert Violation("below-order", where="sierpinski", witness=("{0,1}", "{}")) in report.violations
    # the row is no longer antitone below the top either
    assert any(
        v.law == "order-compatibility" and v.where == "sierpinski" and v.witness[2] == "{}"
        for v in report.violations
    )
    # the same table as a neighbourhood operator, under the neighbourhood names
    report = validate_structure(nbhd_from_topogenous(broken))
    assert Violation(
        "neighbourhood-above", where="sierpinski", witness=("{0,1}", "{}")
    ) in report.violations
    assert any(v.law == "antitone" and v.where == "sierpinski" for v in report.violations)
    assert not any(v.law == "order-compatibility" for v in report.violations)


# ---------------------------------------------------------------------------
# meet/join preservation against the exhaustive family scan


def _meet_witness_by_scan(t):
    """Reference: (object, m, family) for the first family, in mask order, of
    elements related to m whose meet is not; None when there is none."""
    for x, lat in enumerate(t.fib.sub):
        for m in range(lat.size):
            related = t.rel[x][m]
            for family in range(1 << lat.size):
                if family & ~related == 0 and not related >> reduce(lat.meet, mask_iter(family), lat.top) & 1:
                    return x, m, family
    return None


def _join_witness_by_scan(t):
    """Reference: (object, n, family) for the first family, in mask order, of
    elements related to n whose join is not; None when there is none."""
    for x, lat in enumerate(t.fib.sub):
        for n in range(lat.size):
            related = sum(1 << m for m in range(lat.size) if t.rel[x][m] >> n & 1)
            for family in range(1 << lat.size):
                if family & ~related:
                    continue
                if not t.rel[x][reduce(lat.join, mask_iter(family), lat.bottom)] >> n & 1:
                    return x, n, family
    return None


def _assert_preservation_matches_scan(t):
    """The decisions and the conversions' witnesses equal the reference's;
    returns the sizes of the witness families."""
    sizes = []
    for decide, convert, scan in (
        (is_meet_preserving, closure_from_topogenous, _meet_witness_by_scan),
        (is_join_preserving, interior_from_topogenous, _join_witness_by_scan),
    ):
        found = scan(t)
        assert decide(t) == (found is None)
        if found is None:
            convert(t)
            continue
        x, m, family = found
        lat = t.fib.sub[x]
        with pytest.raises(PreconditionError) as excinfo:
            convert(t)
        assert excinfo.value.witness == (
            t.fib.category.object_names[x],
            lat.labels[m],
            tuple(lat.labels[i] for i in mask_iter(family)),
        )
        sizes.append(family.bit_count())
    return sizes


@pytest.mark.parametrize("name", ["disc2_loop", "fintop2", "t0_small", "coreflect_small"])
def test_preservation_matches_scan_on_enumerated_orders(name):
    for t in _all_orders(builtin_fibration(name)):
        _assert_preservation_matches_scan(t)


def test_preservation_matches_scan_on_unvalidated_tables(fintop2):
    # random rows, each with the top taken out (the empty family fails) or put
    # in (the row need not be up-closed, and a family of two members fails)
    rng = random.Random(0)
    sizes = set()
    for _ in range(300):
        rel = tuple(
            tuple(
                rng.getrandbits(lat.size) & ~(1 << lat.top) | rng.getrandbits(1) << lat.top
                for _ in range(lat.size)
            )
            for lat in fintop2.sub
        )
        sizes.update(_assert_preservation_matches_scan(TopogenousOrder(fintop2, rel)))
    assert sizes == {0, 2}


def _powerset_numbered(points: int, number) -> FiniteLattice:
    """The powerset of ``points`` points, element i being the subset number(i)."""
    size = 1 << points
    subsets = [number(i) for i in range(size)]
    return FiniteLattice.from_order(
        [str(a) for a in subsets],
        [sum(1 << j for j in range(size) if a & ~subsets[j] == 0) for a in subsets],
    )


@pytest.mark.parametrize("number", [lambda i: i, lambda i: 7 - i], ids=["masks", "complements"])
def test_preservation_matches_scan_on_every_set(number):
    # each set of an 8-element lattice as every row, then as every column;
    # under the two numberings the least failing family has three members
    # for one set, under joins and under meets respectively
    lat = _powerset_numbered(3, number)
    fib = trivial_fibration(lat)
    sizes = []
    for s in range(1 << lat.size):
        sizes += _assert_preservation_matches_scan(TopogenousOrder(fib, ((s,) * lat.size,)))
        columns = tuple((1 << lat.size) - 1 if s >> m & 1 else 0 for m in range(lat.size))
        sizes += _assert_preservation_matches_scan(TopogenousOrder(fib, (columns,)))
    assert set(sizes) == {0, 2, 3}


def test_least_failing_family_is_found_without_walking_the_families():
    # on the 64-element powerset of six points, the odd elements (the subsets
    # holding point 0) with {1,...,5}: every family of odd elements below
    # {1,...,5} passes, so 2^31 families precede the least failing one
    lat = FiniteLattice.powerset(6)
    s = sum(1 << m for m in range(1, lat.size, 2)) | 1 << 0b111110
    t = TopogenousOrder(trivial_fibration(lat), (tuple(s & up for up in lat.up),))
    assert validate_structure(t).ok
    assert not is_meet_preserving(t)
    with pytest.raises(PreconditionError) as excinfo:
        closure_from_topogenous(t)
    assert excinfo.value.witness == ("x", "{}", ("{0}", "{1,2,3,4,5}"))


# ---------------------------------------------------------------------------
# the per-object predicate memo against the per-set scan


def _predicates_by_scan(t):
    """Reference, with no memo: each row closed under meets and each column
    under joins by ``_unclosed_family``, and interpolation entry by entry."""
    from topogen.structures import OrderPredicates, _unclosed_family

    meet = join = interpolative = True
    for lat, rows in zip(t.fib.sub, t.rel):
        cols = [sum(1 << m for m, row in enumerate(rows) if row >> n & 1) for n in range(lat.size)]
        meet &= all(_unclosed_family(lat.meet_table, lat.top, s) is None for s in rows)
        join &= all(_unclosed_family(lat.join_table, lat.bottom, s) is None for s in cols)
        interpolative &= all(row & cols[n] for row in rows for n in mask_iter(row))
    return OrderPredicates(meet, join, interpolative)


def _assert_predicates_match_the_scan(t):
    # the second call reads every object's verdicts off the memo
    expected = _predicates_by_scan(t)
    assert predicates(t) == expected
    assert predicates(t) == expected
    assert (is_meet_preserving(t), is_join_preserving(t), is_interpolative(t)) == (
        expected.meet_preserving, expected.join_preserving, expected.interpolative)


@pytest.mark.parametrize("name", [
    "fintop1", "fintop2", "disc2_loop", "t0_small", "coreflect_small", "grp_small", "grp_le4",
    "topgrp_le4",
])
def test_memoised_predicates_match_the_scan_on_every_order(name):
    fib = builtin_fibration(name)
    seen = set()
    for rel in plan_of(fib, TopogenousOrder).orders.tables():
        t = TopogenousOrder(fib, rel)
        _assert_predicates_match_the_scan(t)
        seen.add(_predicates_by_scan(t))
    assert len(seen) > 1


# one fibration per powerset of at most 3 points, shared by the examples, so
# that later examples read verdicts earlier ones filed
_POWERSET_FIBRATIONS = {}


@given(st.data())
def test_memoised_predicates_match_the_scan_on_up_closed_relations(data):
    points = data.draw(st.integers(0, 3))
    if points not in _POWERSET_FIBRATIONS:
        _POWERSET_FIBRATIONS[points] = trivial_fibration(FiniteLattice.powerset(points))
    fib = _POWERSET_FIBRATIONS[points]
    lat = fib.sub[0]
    rows = data.draw(st.lists(
        st.integers(0, (1 << lat.size) - 1), min_size=lat.size, max_size=lat.size))
    # each row up-closed: the union of the up-sets of its elements
    up_closed = tuple(reduce(operator.or_, (lat.up[n] for n in mask_iter(row)), 0) for row in rows)
    _assert_predicates_match_the_scan(TopogenousOrder(fib, (up_closed,)))


def test_predicates_build_no_plan():
    from topogen import structures

    fib = trivial_fibration(FiniteLattice.powerset(2))
    predicates(discrete_order(fib))
    assert fib not in structures._PLANS


# ---------------------------------------------------------------------------
# the per-object fold the predicates and the conversions share, against an
# unmemoised fold


_FOLD_BUILTINS = [
    "fintop1", "fintop2", "disc2_loop", "t0_small", "coreflect_small", "grp_small", "grp_le4",
    "fintop3", "topgrp_le4",
]


def _fold_by_brute_force(lat, rows, joins):
    """Reference, with no memo: one object's meet of each row (join of each
    column), member by member, and whether every such set holds the unit
    and the meet (join) of each two of its members."""
    if joins:
        table, unit = lat.join_table, lat.bottom
        sets = [sum(1 << m for m, row in enumerate(rows) if row >> n & 1) for n in range(lat.size)]
    else:
        table, unit, sets = lat.meet_table, lat.top, rows
    closed = all(
        s >> unit & 1 and all(s >> table[a][b] & 1 for a in mask_iter(s) for b in mask_iter(s))
        for s in sets
    )
    return tuple(reduce(lambda acc, i: table[acc][i], mask_iter(s), unit) for s in sets), closed


def _first_unclosed_by_scan(lat, rows, joins):
    """Reference: the first row (column) m that ``_unclosed_family`` finds
    not closed, and its family, or None."""
    from topogen.structures import _unclosed_family

    table, unit = (lat.join_table, lat.bottom) if joins else (lat.meet_table, lat.top)
    cols = [sum(1 << m for m, row in enumerate(rows) if row >> n & 1) for n in range(lat.size)]
    for m, s in enumerate(cols if joins else rows):
        family = _unclosed_family(table, unit, s)
        if family is not None:
            return m, family
    return None


@pytest.mark.parametrize("name", _FOLD_BUILTINS)
def test_the_shared_fold_matches_an_unmemoised_fold_on_every_order(name):
    from topogen.structures import _join_folds, _meet_folds

    fib = builtin_fibration(name)
    closed_and_not = set()
    for rel in plan_of(fib, TopogenousOrder).orders.tables():
        t = TopogenousOrder(fib, rel)
        for joins, compute in ((False, _meet_folds), (True, _join_folds)):
            for lat, rows in zip(fib.sub, rel):
                folds, unclosed = lat.row_fact(compute, rows)
                expected, closed = _fold_by_brute_force(lat, rows, joins)
                closed_and_not.add(closed)
                assert unclosed == _first_unclosed_by_scan(lat, rows, joins)
                assert (unclosed is None) == closed
                assert folds == (expected if closed else None)
        _assert_predicates_match_the_scan(t)
    assert closed_and_not == {True, False}


def _converted_in_turn(fib, predicates_first):
    """Per topogenous order of ``fib``, with every lattice's memo emptied
    first: its meet and join preservation, and its closure and interior
    tables or conversion witnesses; the predicates are asked before or after
    the conversions."""
    for lat in fib.sub:
        lat.row_verdicts.clear()
    out = []
    for rel in plan_of(fib, TopogenousOrder).orders.tables():
        t = TopogenousOrder(fib, rel)
        if predicates_first:
            preserving = (is_meet_preserving(t), is_join_preserving(t))
        converted = []
        for convert in (closure_from_topogenous, interior_from_topogenous):
            try:
                converted.append(convert(t).table)
            except PreconditionError as exc:
                converted.append((str(exc), exc.witness))
        if not predicates_first:
            preserving = (is_meet_preserving(t), is_join_preserving(t))
        out.append((preserving, *converted))
    return out


@pytest.mark.parametrize("name", _FOLD_BUILTINS)
def test_predicates_first_and_conversions_first_agree(name):
    fib = builtin_fibration(name)
    first = _converted_in_turn(fib, predicates_first=True)
    assert _converted_in_turn(fib, predicates_first=False) == first
    for (meet, join), closure, interior in first:
        assert meet == isinstance(closure[0], tuple)
        assert join == isinstance(interior[0], tuple)
    if name == "fintop2":
        # topogenous_0000, _0003 and _0004 of ``topogen enumerate``
        assert first[0][1:] == (
            ("order is not meet-preserving", ("empty", "{}", ())),
            ("order is not join-preserving", ("empty", "{}", ())),
        )
        assert first[3][0] == (True, False)
        assert first[3][2] == ("order is not join-preserving", ("pt", "{}", ()))
        assert first[4][0] == (False, True)
        assert first[4][1] == ("order is not meet-preserving", ("pt", "{0}", ()))


# ---------------------------------------------------------------------------
# the validator's plan against the per-morphism reference


# the number of checks each kind's law makes, counted pair by pair: a bit of
# the codomain row at the pair for a relation, the pair for an operator
REFERENCE_CHECKS = {
    "topogenous": lambda fib, f, dom_row, cod_row: sum(r.bit_count() for r in cod_row),
    "neighbourhood": lambda fib, f, dom_row, cod_row: sum(
        cod_row[fib.img[f][m]].bit_count() for m in range(len(dom_row))
    ),
    "closure": lambda fib, f, dom_row, cod_row: len(dom_row),
    "interior": lambda fib, f, dom_row, cod_row: len(cod_row),
}


def _reference_report(s):
    """``validate_structure``'s report morphism by morphism: the local axioms
    object by object, then along each morphism in order its checks counted
    pair by pair and the law's witnesses."""
    fib, table = s.fib, s.table
    cat = fib.category
    checked, violations = 0, []
    for x in range(cat.n_objects):
        local, broken = s._object_violations(x)
        checked += local
        violations += broken
    for f, (x, y) in enumerate(zip(cat.mor_dom, cat.mor_cod)):
        dom_row, cod_row = table[x], table[y]
        checked += REFERENCE_CHECKS[s.kind](fib, f, dom_row, cod_row)
        labels = (fib.sub[x].labels, fib.sub[y].labels)
        violations += (
            Violation(
                s.law_name,
                where=cat.mor_names[f],
                witness=tuple(labels[side][i] for side, i in zip(s.witness_sides, witness)),
            )
            for witness in s.law_along(fib, f).witnesses(dom_row, cod_row)
        )
    return Report(s.report_name, checked, tuple(violations))


def _every_structure(fib):
    from topogen.harness.enumeration import EnumerationSpec, enumerate_structures

    for kind in KINDS:
        yield from enumerate_structures(EnumerationSpec(fib, kind))


def _one_entry_changed(s, rng):
    """``s`` with one entry moved: a bit of a relation's row flipped, or an
    operator's value replaced by another element (on a lattice that has
    one)."""
    table = [list(rows) for rows in s.table]
    x = rng.choice([x for x, lat in enumerate(s.fib.sub) if lat.size > 1])
    m = rng.randrange(len(table[x]))
    size = s.fib.sub[x].size
    if s.kind in ("topogenous", "neighbourhood"):
        table[x][m] ^= 1 << rng.randrange(size)
    else:
        table[x][m] = rng.choice([v for v in range(size) if v != table[x][m]])
    return type(s)(s.fib, tuple(map(tuple, table)))


def _sweep_fibrations(count, seed):
    """Four-object space fibrations shaped like the benchmark's sweep: the
    point, a 2-point space and two distinct 3-point spaces, seeded."""
    from topogen.instances.topology import enumerate_topologies, fintop_fibration

    rng = random.Random(seed)
    for i in range(count):
        spaces = [*enumerate_topologies(1), rng.choice(enumerate_topologies(2)),
                  *rng.sample(enumerate_topologies(3), 2)]
        yield fintop_fibration(spaces, name=f"sweep{i}", object_names=("p", "a", "b", "c"))


def _tables_exchanged(s):
    """``s`` with the tables of the first two objects that share a lattice
    and differ in ``s`` exchanged, or None."""
    table = list(s.table)
    for x, y in itertools.combinations(range(len(table)), 2):
        if s.fib.sub[x] == s.fib.sub[y] and table[x] != table[y]:
            table[x], table[y] = table[y], table[x]
            return type(s)(s.fib, tuple(table))
    return None


def _assert_reports_match_the_reference(structures, rng):
    """Each structure, it with one entry changed and it with two objects'
    tables exchanged validate to the reference's report; returns how many
    were invalid."""
    invalid = 0
    for s in structures:
        for t in (s, _one_entry_changed(s, rng), _tables_exchanged(s)):
            if t is not None:
                report = validate_structure(t)
                assert report == _reference_report(t)
                invalid += not report.ok
    return invalid


def _interleaved(fib):
    """``fib`` with its morphisms renumbered round-robin over the hom-sets,
    so that no hom-set's morphisms are consecutive."""
    from topogen.site import FiniteCategory, SubobjectFibration

    cat = fib.category
    ends = list(zip(cat.mor_dom, cat.mor_cod))
    rank = [ends[:f].count(ends[f]) for f in range(cat.n_morphisms)]
    order = sorted(range(cat.n_morphisms), key=lambda f: (rank[f], ends[f]))
    new = {f: i for i, f in enumerate(order)}
    category = FiniteCategory(
        cat.object_names, [cat.mor_dom[f] for f in order], [cat.mor_cod[f] for f in order],
        [cat.mor_names[f] for f in order], [new[i] for i in cat.identities],
        [cat.graphs[f] for f in order],
    )
    return SubobjectFibration(
        category, fib.sub, [fib.img[f] for f in order], [fib.pre[f] for f in order],
        {new[f] for f in fib.eclass}, {new[f] for f in fib.mclass},
        fstar=[fib.fstar[f] for f in order], name="interleaved",
    )


@pytest.mark.parametrize("name", [
    "fintop1", "fintop2", "disc2_loop", "t0_small", "coreflect_small", "grp_small", "grp_le4",
])
def test_validation_matches_the_per_morphism_reference_on_builtins(name):
    structures = list(_every_structure(builtin_fibration(name)))
    assert _assert_reports_match_the_reference(structures, random.Random(name)) >= len(structures) // 2


def test_validation_matches_the_reference_with_the_hom_sets_interleaved(fintop2):
    # the failing morphisms of different hom-sets alternate in morphism order
    fib = _interleaved(fintop2)
    assert len({fib.category.mor_dom[f] for f in range(7)}) > 1
    structures = [type(s)(fib, s.table) for s in _every_structure(fintop2)]
    assert _assert_reports_match_the_reference(structures, random.Random(2)) > len(structures)


def test_validation_matches_the_per_morphism_reference_on_sweep_fibrations():
    rng = random.Random(35)
    checked = invalid = 0
    for fib in _sweep_fibrations(20, seed=35):
        structures = list(_every_structure(fib))
        invalid += _assert_reports_match_the_reference(structures, rng)
        checked += 2 * len(structures)
    assert checked > 1000 and checked // 3 < invalid < checked


def test_validation_of_structures_sharing_some_tables_matches_the_reference():
    # orders agreeing on some objects: the second reads those objects' and
    # hom-sets' verdicts off the memo the first filled
    from topogen.harness.enumeration import EnumerationSpec, enumerate_structures

    fib = next(_sweep_fibrations(1, seed=7))
    n = fib.category.n_objects
    orders = list(enumerate_structures(EnumerationSpec(fib, "topogenous")))
    first, second = next(
        (a, b) for a in orders for b in orders
        if 0 < sum(map(operator.eq, a.table, b.table)) < n
    )
    shared = sum(map(operator.eq, first.table, second.table))
    plan = plan_of(fib, TopogenousOrder)
    assert validate_structure(first) == _reference_report(first)
    seen = len(plan.objects)
    assert validate_structure(second) == _reference_report(second)
    assert len(plan.objects) == seen + n - shared
    broken = _one_entry_changed(second, random.Random(1))
    assert validate_structure(broken) == _reference_report(broken)


def test_equal_tables_over_a_moved_preimage_match_the_reference(fintop2):
    # the same tables over fintop2 and over fintop2 with one preimage table
    # moved: each fibration has its own plan and verdicts
    from test_morphisms import _moved_preimage

    broken = _moved_preimage(fintop2, "pt>discrete2:0", (0, 0, 0, 1))
    differ = 0
    for s in _every_structure(fintop2):
        moved = type(s)(broken, s.table)
        assert validate_structure(s) == _reference_report(s)
        assert validate_structure(moved) == _reference_report(moved)
        differ += validate_structure(s) != validate_structure(moved)
    assert differ


def test_a_validation_plan_dies_with_its_fibration():
    import gc
    import weakref

    from topogen import structures

    gc.collect()
    before = len(structures._PLANS)
    fib = trivial_fibration(FiniteLattice.powerset(2))
    assert validate_structure(discrete_order(fib)).ok
    assert fib in structures._PLANS and len(structures._PLANS) == before + 1
    alive = weakref.ref(fib)
    del fib
    gc.collect()
    assert alive() is None
    assert len(structures._PLANS) == before


# ---------------------------------------------------------------------------
# operator-to-order conversions: one row fact per (lattice, operator row),
# shared by every fibration over the same powerset


_THREE_SPACES = Path(__file__).parent / "data" / "three_spaces.topo"


def _three_space_fibration():
    """A fresh ``spaces:s0,s1,s2`` fibration of the pinned file of three
    4-point spaces."""
    from topogen.harness import fileformat
    from topogen.instances.topology import fintop_fibration

    doc = fileformat.parse_document(_THREE_SPACES.read_text(encoding="utf-8"))
    records = [doc.find(fileformat.SpaceRecord, name) for name in ("s0", "s1", "s2")]
    return fintop_fibration([r.space for r in records], name="spaces:s0,s1,s2",
                            object_names=[r.name for r in records])


def _rows_by_bounds(op):
    """Reference, with no memo: per object, row m of the order is the bound
    of op(m) (a closure's up-set); an interior's bounds are its columns."""
    rows = tuple(tuple(map(op.bound(lat).__getitem__, row)) for lat, row in zip(op.fib.sub, op.table))
    if isinstance(op, ClosureOperator):
        return rows
    return tuple(
        tuple(sum(1 << m for m, col in enumerate(cols) if col >> n & 1) for n in range(len(cols)))
        for cols in rows
    )


def test_fintop_builds_share_their_powerset_lattices():
    first, second = _three_space_fibration(), _three_space_fibration()
    assert first is not second
    assert all(a is b for a, b in zip(first.sub, second.sub))
    assert first.sub[0] is FiniteLattice.powerset(4)
    assert builtin_fibration("fintop2").sub[-1] is FiniteLattice.powerset(2)


def test_a_conversion_row_fact_is_a_memo_hit_in_the_next_build(monkeypatch):
    from topogen import structures

    calls = []
    for compute in ("_closure_rows", "_interior_rows"):
        real = getattr(structures, compute)
        monkeypatch.setattr(structures, compute,
                            lambda lat, row, real=real: calls.append(row) or real(lat, row))
    counts, orders = [], []
    for _ in range(2):
        calls.clear()
        fib = _three_space_fibration()
        orders.append([order(fib).rel for order in (closure_order, interior_order)])
        counts.append(len(calls))
    # three spaces, each with its own closure and interior rows
    assert counts == [6, 0]
    assert orders[0] == orders[1]


@pytest.mark.parametrize("name", ["fintop2", "t0_small", "disc2_loop", "coreflect_small", "file"])
def test_conversions_to_orders_match_the_bound_formula(name):
    from topogen.harness.enumeration import EnumerationSpec, enumerate_structures

    if name == "file":
        fib = _three_space_fibration()
        spaces = spaces_of(fib)
        operators = [ClosureOperator(fib, tuple(s.closures for s in spaces)),
                     InteriorOperator(fib, tuple(tuple(map(s.interior, range(1 << s.n)))
                                                 for s in spaces))]
    else:
        fib = builtin_fibration(name)
        operators = [op for kind in ("closure", "interior")
                     for op in enumerate_structures(EnumerationSpec(fib, kind))]
    kinds = set()
    for op in operators:
        convert = topogenous_from_closure if isinstance(op, ClosureOperator) else topogenous_from_interior
        assert convert(op).rel == _rows_by_bounds(op)
        kinds.add(type(op))
    assert kinds == {ClosureOperator, InteriorOperator}
