import random
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from topogen.errors import PreconditionError
from topogen.instances.registry import builtin_fibration
from topogen.lattice import FiniteLattice, mask_iter
from topogen.reporting import Violation
from topogen.structures import (
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
                assert t.holds(x, a, b) == expected


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
