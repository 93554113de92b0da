import itertools
import os
import random
import subprocess
import sys
import time
from functools import lru_cache, reduce
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from topogen.errors import (
    DomainError,
    FormatError,
    InternalConsistencyError,
    PreconditionError,
    ResourceCapError,
)
from topogen.lattice import FiniteLattice, mask_iter
from topogen.site import FiniteCategory, SubobjectFibration
from topogen.structures import (
    KINDS,
    RELATIONS,
    ClosureOperator,
    InteriorOperator,
    OrderSpace,
    TopogenousOrder,
    is_interpolative,
    is_join_preserving,
    is_meet_preserving,
    plan_of,
    validate_structure,
)
from topogen.harness import fileformat
from topogen.harness.enumeration import EnumerationSpec, enumerate_structures
from topogen.harness.suite import run_suite
from topogen.instances.groups import groups_of


def loop_fibration(lat, extra_pre_tables=()):
    """Single-object fibration: identity plus chosen preimage endomaps."""
    n_mor = 1 + len(extra_pre_tables)
    ident = tuple(range(lat.size))
    pres = [ident, *extra_pre_tables]
    # images are the (verified) left adjoints of the given preimages
    imgs = []
    for pre in pres:
        img = []
        for m in range(lat.size):
            above = [n for n in range(lat.size) if lat.leq(m, pre[n])]
            img.append(reduce(lat.meet, above, lat.top))
        imgs.append(tuple(img))
    compose = {}
    for g in range(n_mor):
        for f in range(n_mor):
            composed = tuple(pres[f][pres[g][n]] for n in range(lat.size))
            compose[(g, f)] = pres.index(composed)
    cat = FiniteCategory(
        ("x",),
        tuple(0 for _ in range(n_mor)),
        tuple(0 for _ in range(n_mor)),
        tuple(f"m{i}" for i in range(n_mor)),
        (0,),
        # m's graph is left multiplication by m, so graphs compose as the table
        graphs=[tuple(compose[(m, k)] for k in range(n_mor)) for m in range(n_mor)],
    )
    return SubobjectFibration(
        cat, (lat,), imgs, [tuple(p) for p in pres],
        eclass=frozenset({0}), mclass=frozenset({0}), name="loop",
    )


def upsets(lat):
    """All up-closed subsets of ``lat``, as masks, in increasing numeric order."""
    found = {0}
    for i in range(lat.size):
        found |= {m | lat.up[i] for m in found}
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def relation_candidates(lat):
    """Every relation below the order, antitone in the first argument and
    up-closed in the second (the object-local axioms of topogenous orders
    and neighbourhood assignments), by backtracking without any law; sorted."""
    upsets_of_lat = upsets(lat)
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
        for u in upsets_of_lat:
            if u & ~bound == 0:
                rows[e] = u
                place(pos + 1)
        rows[e] = 0

    place(0)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def operator_candidates(lat, kind):
    """Every monotone self-map that is extensive (``kind="closure"``) or
    contractive (``kind="interior"``), by backtracking without any law; sorted."""
    allowed = lat.up if kind == "closure" else lat.down
    order = sorted(range(lat.size), key=lambda e: bin(lat.down[e]).count("1"))
    out = []
    table = [0] * lat.size

    def place(pos):
        if pos == len(order):
            out.append(tuple(table))
            return
        e = order[pos]
        bound = allowed[e]
        for smaller in order[:pos]:
            if lat.leq(smaller, e):
                bound &= lat.up[table[smaller]]
        for v in mask_iter(bound):
            table[e] = v
            place(pos + 1)

    place(0)
    return tuple(sorted(out))


def candidates(lat, kind):
    """The law-free candidates of one object for ``kind``."""
    if kind in ("closure", "interior"):
        return operator_candidates(lat, kind)
    return relation_candidates(lat)


# ---------------------------------------------------------------------------
# the backtracking oracle for the relation kinds, which the enumerator serves
# from the up-sets of its forcing preorder


def backtracking_rows(lat, laws):
    """Every relation table on ``lat`` that lies below the order, is antitone
    and up-closed, and obeys each ``LawAlong`` of ``laws`` from the table to
    itself, by placing one up-set per element, each after all below it, and
    checking each pair of a law as soon as both of its entries are placed;
    sorted."""
    order = sorted(range(lat.size), key=lambda e: lat.down[e].bit_count())
    position = {e: pos for pos, e in enumerate(order)}
    below = [[d for d in order[:pos] if lat.leq(d, e)] for pos, e in enumerate(order)]
    due = [[] for _ in order]
    for law in laws:
        for a, b in zip(law.cod_index, law.dom_index):
            due[max(position[a], position[b])].append((a, b, law.rhs))
    values = upsets(lat)
    out = []
    table = [0] * lat.size

    def place(pos):
        if pos == lat.size:
            out.append(tuple(table))
            return
        e = order[pos]
        bound = lat.up[e]
        for d in below[pos]:
            bound &= table[d]
        for u in values:
            if u & ~bound == 0:
                table[e] = u
                if not any(table[a] & ~rhs[table[b]] for a, b, rhs in due[pos]):
                    place(pos + 1)

    place(0)
    return tuple(sorted(out))


def laws_along(structure_class, fib, morphisms):
    """``(dom, cod, law)`` of the class along each of ``morphisms``, one per morphism."""
    return [(fib.dom(f), fib.cod(f), structure_class.law_along(fib, f)) for f in morphisms]


def backtracking_local_rows(structure_class, fib, x):
    """Object x's rows under the law along each of its endomorphisms."""
    cat = fib.category
    endos = [f for f in cat.morphisms_from[x] if cat.mor_cod[f] == x]
    laws = [law for _, _, law in laws_along(structure_class, fib, endos)]
    return backtracking_rows(fib.sub[x], laws)


def forcing_local_rows(structure_class, fib, x):
    """Object x's rows of a relation class under the law along each of its
    endomorphisms: the tables of the order space of x alone, sorted."""
    cat = fib.category
    endos = [f for f in cat.morphisms_from[x] if cat.mor_cod[f] == x]
    laws = [(0, 0, law) for _, _, law in laws_along(structure_class, fib, endos)]
    return tuple(table for (table,) in OrderSpace((fib.sub[x],), laws).tables())


def backtracking_structures(fib, structure_class, keep=None, local_rows=backtracking_local_rows):
    """The tables of every structure of ``structure_class`` on ``fib`` that
    ``keep`` accepts: each object's rows under its endomorphisms
    (``local_rows``, by default the relation oracle's; ``_fresh_local_rows``
    for an operator class), then a backtracking product deciding the law
    along each morphism between an object and an earlier one with
    ``LawAlong.holds``, no memo; in sorted order of the tables."""
    cat = fib.category
    n_objects = cat.n_objects
    local = [local_rows(structure_class, fib, x) for x in range(n_objects)]
    cross = [
        laws_along(structure_class, fib, (
            f for f in range(cat.n_morphisms)
            if (cat.mor_dom[f] == x) != (cat.mor_cod[f] == x)
            and max(cat.mor_dom[f], cat.mor_cod[f]) == x
        ))
        for x in range(n_objects)
    ]
    assignment = [None] * n_objects
    out = []

    def place(x):
        if x == n_objects:
            table = tuple(assignment)
            if keep is None or keep(structure_class(fib, table)):
                out.append(table)
            return
        for rows in local[x]:
            assignment[x] = rows
            if all(law.holds(assignment[dx], assignment[cx]) for dx, cx, law in cross[x]):
                place(x + 1)
        assignment[x] = None

    place(0)
    return out


def brute_force_topogenous_count(fib):
    lat = fib.sub[0]
    n = lat.size
    pairs = [(m, k) for m in range(n) for k in range(n)]
    count = 0
    for choice in itertools.product((0, 1), repeat=len(pairs)):
        rows = [0] * n
        for (m, k), on in zip(pairs, choice):
            if on:
                rows[m] |= 1 << k
        t = TopogenousOrder(fib, (tuple(rows),))
        if validate_structure(t).ok:
            count += 1
    return count


def test_singleton_lattice_admits_two_orders():
    # the empty relation and the full one both satisfy every axiom
    fib = loop_fibration(FiniteLattice.powerset(0))
    assert brute_force_topogenous_count(fib) == 2
    assert sum(1 for _ in enumerate_structures(EnumerationSpec(fib, "topogenous"))) == 2


def test_two_chain_identity_only_counts():
    lat = FiniteLattice.from_order(("0", "1"), (0b11, 0b10))
    fib = loop_fibration(lat)
    expected = brute_force_topogenous_count(fib)
    assert expected == 5
    assert sum(1 for _ in enumerate_structures(EnumerationSpec(fib, "topogenous"))) == 5


def test_extra_endomorphism_prunes_orders():
    lat = FiniteLattice.from_order(("0", "1"), (0b11, 0b10))
    # the collapse-to-top preimage (adjoint pair with constant-bottom image)
    fib = loop_fibration(lat, extra_pre_tables=((1, 1),))
    expected = brute_force_topogenous_count(fib)
    assert expected == 3
    assert sum(1 for _ in enumerate_structures(EnumerationSpec(fib, "topogenous"))) == 3


def test_local_candidate_generators_agree_with_brute_force():
    lat = FiniteLattice.powerset(2)
    rels = relation_candidates(lat)
    brute = []
    for choice in itertools.product(range(1 << lat.size), repeat=lat.size):
        ok = True
        for m in range(lat.size):
            if choice[m] & ~lat.up[m]:
                ok = False
                break
            for k in range(lat.size):
                if choice[m] >> k & 1 and lat.up[k] & ~choice[m]:
                    ok = False
                    break
            for mp in range(lat.size):
                if lat.leq(m, mp) and choice[mp] & ~choice[m]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            brute.append(tuple(choice))
    assert sorted(rels) == sorted(brute)

    brute_cl = [
        table for table in itertools.product(range(lat.size), repeat=lat.size)
        if all(lat.leq(m, table[m]) for m in range(lat.size))
        and all(
            lat.leq(table[m], table[k])
            for m in range(lat.size) for k in range(lat.size) if lat.leq(m, k)
        )
    ]
    assert sorted(operator_candidates(lat, "closure")) == sorted(brute_cl)
    brute_in = [
        table for table in itertools.product(range(lat.size), repeat=lat.size)
        if all(lat.leq(table[m], m) for m in range(lat.size))
        and all(
            lat.leq(table[m], table[k])
            for m in range(lat.size) for k in range(lat.size) if lat.leq(m, k)
        )
    ]
    assert sorted(operator_candidates(lat, "interior")) == sorted(brute_in)


def test_enumeration_is_deterministic(disc2_loop):
    first = [t.rel for t in enumerate_structures(EnumerationSpec(disc2_loop, "topogenous"))]
    second = [t.rel for t in enumerate_structures(EnumerationSpec(disc2_loop, "topogenous"))]
    assert first == second
    assert len(set(first)) == len(first)


@pytest.mark.parametrize("name", [
    "fintop1", "fintop2", "disc2_loop", "t0_small", "coreflect_small", "grp_small", "grp_le4",
])
def test_enumeration_yields_sorted_tables_without_repeats(name):
    # the record names <kind>_NNNN of `topogen enumerate` number the
    # structures in this order
    from topogen.instances.registry import builtin_fibration

    fib = builtin_fibration(name)
    specs = [EnumerationSpec(fib, kind) for kind in KINDS]
    specs += [EnumerationSpec(fib, "topogenous", prop) for prop in ("meet", "join", "interpolative")]
    for spec in specs:
        tables = [s.table for s in enumerate_structures(spec)]
        assert tables and tables == sorted(set(tables)), (spec.kind, spec.prop_filter)


SMALL_FIBRATIONS = (
    "fintop1", "fintop2", "disc2_loop", "t0_small", "coreflect_small", "grp_small", "grp_le4",
)
RELATION_FILTERS = {
    None: None, "meet": is_meet_preserving, "join": is_join_preserving,
    "interpolative": is_interpolative,
}


def _assert_relations_match_the_oracle(fib):
    # tables and their order, for both relation kinds and every filter
    for structure_class in RELATIONS:
        record = plan_of(fib, structure_class).orders
        assert len(record.tables()) == record.count
        filters = RELATION_FILTERS if structure_class is TopogenousOrder else {None: None}
        for prop, keep in filters.items():
            found = [
                s.table for s in enumerate_structures(
                    EnumerationSpec(fib, structure_class.kind, prop_filter=prop))
            ]
            assert found == backtracking_structures(fib, structure_class, keep), (
                fib.name, structure_class.kind, prop)


@pytest.mark.parametrize("name", SMALL_FIBRATIONS)
def test_relations_match_the_backtracking_oracle(name):
    from topogen.instances.registry import builtin_fibration

    _assert_relations_match_the_oracle(builtin_fibration(name))


def test_relations_match_the_oracle_on_seeded_space_fibrations():
    # shaped like the benchmark's enumerate-sweep inputs: the point, one
    # 2-point space and two distinct 3-point spaces
    from topogen.instances.topology import FinTopSpace, enumerate_topologies, fintop_fibration

    twos, threes = enumerate_topologies(2), enumerate_topologies(3)
    for seed in range(24):
        rng = random.Random(seed)
        spaces = [FinTopSpace(1, (0, 1)), rng.choice(twos), *rng.sample(threes, 2)]
        _assert_relations_match_the_oracle(
            fintop_fibration(spaces, name=f"seed{seed}", object_names=("p", "a", "b", "c")))


@pytest.mark.parametrize("name, index, value", [
    ("discrete2>pt:00", 1, 0b01),
    # no longer monotone: (m, n) at the codomain forces a pair (b, f^{-1} n)
    # with b not below f^{-1} n, so it lies in no structure
    ("discrete2>discrete2:10", 3, 0b00),
    ("discrete2>discrete2:10", 0, 0b11),
])
def test_relations_on_a_moved_preimage_match_the_oracle(fintop2, name, index, value):
    _assert_relations_match_the_oracle(_moved_preimage(fintop2, name, index, value))


def _moved_preimage(fib, name, index, value):
    """``fib`` with entry ``index`` of the preimage table of ``name`` set to
    ``value``."""
    f = fib.category.morphism_index(name)
    pre = list(fib.pre)
    moved = list(pre[f])
    moved[index] = value
    pre[f] = tuple(moved)
    return SubobjectFibration(
        category=fib.category, sub=fib.sub, img=fib.img, pre=pre,
        eclass=fib.eclass, mclass=fib.mclass, fstar=fib.fstar, name="broken",
    )


def _assert_the_order_space_round_trips(fib):
    for structure_class in RELATIONS:
        space = plan_of(fib, structure_class).orders
        spans = list(zip(space.offsets, space.offsets[1:]))

        def table_of(classes):
            flat = [0] * space.offsets[-1]
            for c in mask_iter(classes):
                flat = [a | b for a, b in zip(flat, space.rows[c])]
            return tuple(tuple(flat[lo:hi]) for lo, hi in spans)

        # the entry numbering covers every entry (x, m, n), m <= n, once
        assert sorted(space.entries) == [
            (x, m, n) for x, lat in enumerate(fib.sub)
            for m in range(lat.size) for n in mask_iter(lat.up[m])]
        tables = space.tables()
        # each table is the union of the classes whose representatives it holds
        for table in tables:
            held = sum(1 << c for c, (x, m, n) in enumerate(space.representatives)
                       if table[x][m] >> n & 1)
            assert table_of(held) == table
        # the up-sets of the class order, as the unions of the principal
        # up-sets above[c], give distinct tables, count of them, all of them
        upsets = {0}
        for above in space.above:
            upsets |= {s | above for s in upsets}
        assert all(space.above[c] & ~s == 0 for s in upsets for c in mask_iter(s))
        # below is the transpose of above
        k = range(len(space.above))
        assert [[space.below[d] >> c & 1 for d in k] for c in k] == [
            [space.above[c] >> d & 1 for d in k] for c in k]
        rebuilt = sorted(map(table_of, upsets))
        assert len(upsets) == space.count == len(set(rebuilt)) and tuple(rebuilt) == tables
        # outside: exactly the entries that lie in no order
        held = {(x, m, n) for table in tables for x, rows in enumerate(table)
                for m, row in enumerate(rows) for n in mask_iter(row)}
        assert {space.entries[e] for e in mask_iter(space.outside)} == set(space.entries) - held


@pytest.mark.parametrize("name", (*SMALL_FIBRATIONS, "topgrp_le4"))
def test_the_order_space_round_trips_on_the_small_builtins(name):
    from topogen.instances.registry import builtin_fibration

    fib = builtin_fibration(name)
    _assert_the_order_space_round_trips(fib)
    # on a fibration, the discrete order holds every entry
    assert all(plan_of(fib, cls).orders.outside == 0 for cls in RELATIONS)


def test_the_order_space_round_trips_on_moved_preimages(fintop2):
    dropping = set()
    for name, index, value in (
        ("discrete2>pt:00", 1, 0b01), ("discrete2>discrete2:10", 3, 0b00),
        ("discrete2>discrete2:10", 0, 0b11),
    ):
        broken = _moved_preimage(fintop2, name, index, value)
        _assert_the_order_space_round_trips(broken)
        dropping |= {cls for cls in RELATIONS if plan_of(broken, cls).orders.outside}
    # each kind drops entries on some of them, so that outside is not empty
    assert dropping == set(RELATIONS)


@pytest.mark.parametrize("name, count", [
    ("fintop3", 17), ("grp_le8", 11_653), ("topgrp_le4", 115),
])
def test_relations_the_product_could_not_reach_enumerate(name, count):
    # the backtracking product's candidate space exceeded the default budget
    # of 2^24 on each; their relations are few
    from topogen.instances.registry import builtin_fibration

    fib = builtin_fibration(name)
    for structure_class in RELATIONS:
        assert plan_of(fib, structure_class).orders.count == count
    orders = list(enumerate_structures(EnumerationSpec(fib, "topogenous")))
    tables = [t.rel for t in orders]
    assert len(tables) == count and tables == sorted(set(tables))
    assert all(validate_structure(t).ok for t in orders[:: max(1, count // 17)])


def test_a_forcing_record_dies_with_its_fibration():
    import gc
    import weakref

    from topogen import structures

    fib = loop_fibration(FiniteLattice.powerset(2))
    assert list(enumerate_structures(EnumerationSpec(fib, "topogenous")))
    # the enumeration built the order space on the kind's plan
    assert structures._PLANS[fib][TopogenousOrder]._orders is not None
    alive = weakref.ref(fib)
    del fib
    gc.collect()
    assert alive() is None


def test_one_plan_serves_enumeration_and_validation():
    # the laws, the validation memo and a relation kind's order space live
    # on one plan per (fibration, kind), whichever path reaches it first
    from topogen import structures
    from topogen.instances.topology import FinTopSpace, enumerate_topologies, fintop_fibration
    from topogen.structures import (
        closure_from_topogenous,
        discrete_order,
        interior_from_topogenous,
        nbhd_from_topogenous,
    )

    rng = random.Random(38)
    shapes = {
        "fintop2": [s for k in range(3) for s in enumerate_topologies(k)],
        # the benchmark's enumerate-sweep shape
        "sweep": [FinTopSpace(1, (0, 1)), rng.choice(enumerate_topologies(2)),
                  *rng.sample(enumerate_topologies(3), 2)],
    }
    for name, spaces in shapes.items():
        enumerated_first, validated_first = (
            fintop_fibration(spaces, name=name) for _ in range(2))
        order = discrete_order(validated_first)
        for s in (order, closure_from_topogenous(order), interior_from_topogenous(order),
                  nbhd_from_topogenous(order)):
            assert validate_structure(s).ok
        before = dict(structures._PLANS[validated_first])
        for fib in (enumerated_first, validated_first):
            for cls in KINDS.values():
                found = list(enumerate_structures(EnumerationSpec(fib, cls.kind)))
                assert found and all(validate_structure(s).ok for s in found)
            assert set(structures._PLANS[fib]) == set(KINDS.values())
            for cls in RELATIONS:
                plan = plan_of(fib, cls)
                assert plan._orders is not None and plan.orders is plan._orders
        assert set(before) == set(KINDS.values())
        assert all(structures._PLANS[validated_first][cls] is plan for cls, plan in before.items())


def test_enumerated_structures_are_valid_and_count_matches(disc2_loop, fintop2):
    for fib in (disc2_loop, fintop2):
        torders = list(enumerate_structures(EnumerationSpec(fib, "topogenous")))
        assert all(validate_structure(t).ok for t in torders)
        nbhds = list(enumerate_structures(EnumerationSpec(fib, "neighbourhood")))
        assert all(validate_structure(nu).ok for nu in nbhds)
        assert len(torders) == len(nbhds)


def test_property_filters(disc2_loop):
    all_orders = list(enumerate_structures(EnumerationSpec(disc2_loop, "topogenous")))
    meets = list(enumerate_structures(EnumerationSpec(disc2_loop, "topogenous", prop_filter="meet")))
    joins = list(enumerate_structures(EnumerationSpec(disc2_loop, "topogenous", prop_filter="join")))
    inters = list(enumerate_structures(EnumerationSpec(disc2_loop, "topogenous", prop_filter="interpolative")))
    assert len(meets) == 3 and len(joins) == 3
    assert set(t.rel for t in meets) <= set(t.rel for t in all_orders)
    assert inters


def test_enumeration_cap_fires_before_generation(fintop2, monkeypatch):
    monkeypatch.setenv("TOPOGEN_MAX_CANDIDATES", "1")
    with pytest.raises(ResourceCapError):
        next(iter(enumerate_structures(EnumerationSpec(fintop2, "topogenous"))))


def test_enumeration_cap_env_override(disc2_loop, monkeypatch):
    monkeypatch.setenv("TOPOGEN_MAX_CANDIDATES", "1")
    with pytest.raises(ResourceCapError):
        next(iter(enumerate_structures(EnumerationSpec(disc2_loop, "topogenous"))))


def test_lattice_size_cap():
    fib = loop_fibration(FiniteLattice.powerset(5))
    with pytest.raises(ResourceCapError):
        next(iter(enumerate_structures(EnumerationSpec(fib, "topogenous"))))


def test_unknown_kind_rejected(disc2_loop):
    with pytest.raises(PreconditionError):
        next(iter(enumerate_structures(EnumerationSpec(disc2_loop, "nonsense"))))


def _refuse_generation(monkeypatch):
    # the order space is read off the kind's plan, which builds it on first
    # read; a record the plan already holds must be refused too
    from topogen import structures

    def no_generation(*args):
        raise AssertionError("candidates generated")

    monkeypatch.setattr(structures, "OrderSpace", no_generation)
    monkeypatch.setattr(structures._Plan, "orders", property(no_generation))


@pytest.mark.parametrize("kind,prop", [
    ("closure", "meet"), ("interior", "join"), ("neighbourhood", "interpolative"),
    ("topogenous", "nonsense"),
])
def test_bad_property_filter_rejected_before_generation(fintop2, monkeypatch, kind, prop):
    _refuse_generation(monkeypatch)
    with pytest.raises(DomainError):
        next(iter(enumerate_structures(EnumerationSpec(fintop2, kind, prop_filter=prop))))


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_bad_budget_rejected_before_generation(fintop2, monkeypatch, value):
    _refuse_generation(monkeypatch)
    monkeypatch.setenv("TOPOGEN_MAX_CANDIDATES", value)
    with pytest.raises(DomainError, match="TOPOGEN_MAX_CANDIDATES"):
        next(iter(enumerate_structures(EnumerationSpec(fintop2, "closure"))))


def test_lattice_cap_precedes_a_bad_budget(monkeypatch):
    _refuse_generation(monkeypatch)
    monkeypatch.setenv("TOPOGEN_MAX_CANDIDATES", "abc")
    fib = loop_fibration(FiniteLattice.powerset(5))
    with pytest.raises(ResourceCapError):
        next(iter(enumerate_structures(EnumerationSpec(fib, "topogenous"))))


def _order_law(fib, f, dom_row, cod_row):
    """Preimage stability bit by bit: m ⊏ n downstairs gives f^{-1}(m) ⊏
    f^{-1}(n); yields (m, n)."""
    pre = fib.pre[f]
    for m, related in enumerate(cod_row):
        row = dom_row[pre[m]]
        while related:  # the set bits n of related, lowest first
            low = related & -related
            n = low.bit_length() - 1
            if not row >> pre[n] & 1:
                yield m, n
            related ^= low


def _neighbourhood_law(fib, f, dom_row, cod_row):
    """Continuity bit by bit: n a neighbourhood of f(m) gives f^{-1}(n) a
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


def _closure_law(fib, f, dom_row, cod_row):
    """Image continuity: f(c(m)) <= c(f(m)); yields (m,)."""
    img, up = fib.img[f], fib.sub_cod(f).up
    for m, cm in enumerate(dom_row):
        if not up[img[cm]] >> cod_row[img[m]] & 1:
            yield (m,)


def _interior_law(fib, f, dom_row, cod_row):
    """Preimage continuity: f^{-1}(i(n)) <= i(f^{-1}(n)); yields (n,)."""
    pre, up = fib.pre[f], fib.sub_dom(f).up
    for n, i_n in enumerate(cod_row):
        if not up[pre[i_n]] >> dom_row[pre[n]] & 1:
            yield (n,)


# each kind's law written out on its own, as the reference for the law of
# the kind's class in structures
REFERENCE_LAWS = {
    "topogenous": _order_law,
    "neighbourhood": _neighbourhood_law,
    "closure": _closure_law,
    "interior": _interior_law,
}


def _law_holds_along_all(kind, fib, endos, table):
    return all(next(REFERENCE_LAWS[kind](fib, f, table, table), None) is None for f in endos)


def _fresh_local_rows(structure_class, fib, x):
    """The oracle: object x's law-free candidates kept by a fresh per-row
    filter, the reference law along each endomorphism of x."""
    lat = fib.sub[x]
    cat = fib.category
    endos = [f for f in cat.morphisms_from[x] if cat.mor_cod[f] == x]
    kind = structure_class.kind
    return [r for r in candidates(lat, kind) if _law_holds_along_all(kind, fib, endos, r)]


def test_memoised_local_rows_match_a_fresh_filter():
    # all these fibrations share the 3-point powerset lattice, but not the
    # endomorphisms of their objects: the order space, whose entries are
    # memoised per lattice, must read each object's endomorphisms afresh
    from topogen.instances.topology import FinTopSpace, enumerate_topologies, fintop_fibration

    discrete = FinTopSpace(3, tuple(range(8)))
    sierpinski_like = FinTopSpace(3, (0, 1, 7))
    oracle = {}
    for a in (discrete, sierpinski_like):
        for c in enumerate_topologies(3):
            fib = fintop_fibration([a, c], object_names=("a", "c"))
            for x, space in enumerate((a, c)):
                for structure_class in RELATIONS:
                    key = (structure_class, space.opens)
                    if key not in oracle:
                        oracle[key] = _fresh_local_rows(structure_class, fib, x)
                    rows = list(forcing_local_rows(structure_class, fib, x))
                    assert list(backtracking_local_rows(structure_class, fib, x)) == rows
                    assert rows == oracle[key]
    # the endomorphisms prune differently, so the test can tell keys apart
    for structure_class in RELATIONS:
        assert oracle[structure_class, discrete.opens] != oracle[structure_class, sierpinski_like.opens]


@pytest.mark.parametrize("name", ["fintop2", "grp_small", "grp_le8"])
def test_local_rows_under_the_laws_match_a_fresh_filter(name):
    # subgroup lattices are not powersets, and their preimage tables are not
    # those of a map of points.  The law-free candidates of a lattice of more
    # than 8 elements are too many to filter (381,944 rows for d4), so there
    # the laws along every second endomorphism are placed in the search and
    # the filter runs along all of them
    # the relation kinds' rows come from the backtracking oracle, and the
    # enumerator's own (the order space of the object alone) must equal them
    from topogen.instances.registry import builtin_fibration

    fib = builtin_fibration(name)
    cat = fib.category
    for x, lat in enumerate(fib.sub):
        endos = [f for f in cat.morphisms_from[x] if cat.mor_cod[f] == x]
        for structure_class in RELATIONS:
            rows = list(forcing_local_rows(structure_class, fib, x))
            assert list(backtracking_local_rows(structure_class, fib, x)) == rows
            if lat.size <= 8:
                assert rows == _fresh_local_rows(structure_class, fib, x), cat.object_names[x]
                continue
            laws = [law for _, _, law in laws_along(structure_class, fib, endos[::2])]
            kind = structure_class.kind
            kept = [
                r for r in backtracking_rows(lat, laws)
                if _law_holds_along_all(kind, fib, endos, r)
            ]
            assert rows == kept, cat.object_names[x]


@pytest.mark.parametrize("opens,counts", [
    (tuple(range(16)), (6, 3, 3, 6, 3, 3)),
    # the 4-point topology with the fewest continuous self-maps (31)
    ((0, 1, 2, 3, 5, 7, 11, 15), (17, 11, 11, 17, 11, 11)),
], ids=["discrete4", "fewest-endomorphisms"])
def test_four_point_spaces_enumerate_within_a_second(opens, counts, monkeypatch):
    # generating every law-free row of the 16-element lattice first and
    # filtering afterwards does not finish on these spaces
    from topogen.instances.topology import FinTopSpace, fintop_fibration

    monkeypatch.setenv("TOPOGEN_MAX_CANDIDATES", "1000")
    fib = fintop_fibration([FinTopSpace(4, opens)])
    assert fib.category.n_morphisms == (256 if opens == tuple(range(16)) else 31)
    started = time.perf_counter()
    found = {
        (kind, prop): sum(1 for _ in enumerate_structures(
            EnumerationSpec(fib, kind, prop_filter=prop)))
        for kind, prop in (
            ("topogenous", None), ("closure", None), ("interior", None),
            ("neighbourhood", None), ("topogenous", "meet"), ("topogenous", "join"),
        )
    }
    assert time.perf_counter() - started < 1.0
    assert found["topogenous", None] == found["neighbourhood", None]
    assert found["topogenous", "meet"] == found["closure", None]
    assert found["topogenous", "join"] == found["interior", None]
    assert tuple(found.values()) == counts


def test_a_warm_memo_keeps_the_budget_verdicts(fintop2, monkeypatch):
    # every kind, operators too, is refused once the order space it reads
    # is built and counted
    for kind in KINDS:
        assert list(enumerate_structures(EnumerationSpec(fintop2, kind)))
    for value, error in (("1", ResourceCapError), ("abc", DomainError)):
        monkeypatch.setenv("TOPOGEN_MAX_CANDIDATES", value)
        for kind in KINDS:
            with pytest.raises(error):
                next(iter(enumerate_structures(EnumerationSpec(fintop2, kind))))


# ---------------------------------------------------------------------------
# operators against the backtracking product, and validation on a warm plan


OPERATORS = (ClosureOperator, InteriorOperator)


def _operator_fibration(name):
    """A built-in, or ``sweep``: a seeded fibration shaped like the
    benchmark's enumerate-sweep inputs, the point, one 2-point space and two
    distinct 3-point spaces, built afresh."""
    from topogen.instances.registry import builtin_fibration
    from topogen.instances.topology import FinTopSpace, enumerate_topologies, fintop_fibration

    if name != "sweep":
        return builtin_fibration(name)
    rng = random.Random(39)
    spaces = [FinTopSpace(1, (0, 1)), rng.choice(enumerate_topologies(2)),
              *rng.sample(enumerate_topologies(3), 2)]
    return fintop_fibration(spaces, name="sweep", object_names=("p", "a", "b", "c"))


def _fresh_copy(fib):
    """``fib`` as a new fibration object, so with no plan of its own."""
    return SubobjectFibration(
        category=fib.category, sub=fib.sub, img=fib.img, pre=fib.pre, eclass=fib.eclass,
        mclass=fib.mclass, fstar=fib.fstar, name=fib.name,
    )


def _locally_valid_and_broken(s):
    """``s`` with one object's row replaced by another of that object's
    candidate rows, the first such change, in object and row order, that
    breaks the law along some morphism; None when every change keeps it."""
    for x in range(s.fib.category.n_objects):
        for rows in _fresh_local_rows(type(s), s.fib, x):
            table = s.table[:x] + (rows,) + s.table[x + 1:]
            broken = type(s)(s.fib, table)
            if not validate_structure(broken).ok:
                return broken
    return None


OPERATOR_FIBRATIONS = ("disc2_loop", "fintop2", "t0_small", "coreflect_small", "sweep")


@pytest.mark.parametrize("name", OPERATOR_FIBRATIONS + ("grp_small", "grp_le4", "topgrp_le4"))
def test_the_operator_product_matches_a_product_without_a_memo(name):
    # the enumerator converts the preserving orders; the oracle is a product
    # of each object's law-free rows under its endomorphisms, deciding every
    # other morphism's law with no memo and no order
    fib = _operator_fibration(name)
    for structure_class in OPERATORS:
        found = [
            s.table for s in enumerate_structures(EnumerationSpec(fib, structure_class.kind))]
        assert found, structure_class.kind
        assert found == backtracking_structures(
            fib, structure_class, local_rows=_fresh_local_rows), structure_class.kind


def test_the_suite_operators_are_the_enumerated_ones():
    # conversion-bijections reads its operators from a search of its own
    from topogen.harness.suite import _operators
    from topogen.instances.registry import builtin_fibration

    for name in ("disc2_loop", "fintop2"):
        fib = builtin_fibration(name)
        for structure_class in OPERATORS:
            assert _operators(fib, structure_class) == list(
                enumerate_structures(EnumerationSpec(fib, structure_class.kind)))


@pytest.mark.parametrize("name", OPERATOR_FIBRATIONS)
def test_operator_reports_match_those_on_an_empty_plan(name):
    # validation fills the plan's hom-set verdicts structure by structure and
    # must report what a plan that has decided nothing reports
    from topogen import structures

    fib = _operator_fibration(name)
    fresh = _fresh_copy(fib)
    broken_seen = 0
    for structure_class in OPERATORS:
        found = list(enumerate_structures(EnumerationSpec(fib, structure_class.kind)))
        broken = _locally_valid_and_broken(found[0])
        broken_seen += broken is not None
        for s in found + [broken] * (broken is not None):
            structures._PLANS.pop(fresh, None)
            assert validate_structure(s) == validate_structure(structure_class(fresh, s.table))
    assert broken_seen == (0 if name == "disc2_loop" else 2)


def test_fintop3_operators_are_its_preserving_orders(fintop3):
    # the product of fintop3's closure candidate counts is about 2^80, far
    # beyond the oracle; its 17 orders give 11 closures and 11 interiors
    from topogen.structures import closure_from_topogenous, interior_from_topogenous

    for kind, prop, convert in (
        ("closure", "meet", closure_from_topogenous),
        ("interior", "join", interior_from_topogenous),
    ):
        operators = list(enumerate_structures(EnumerationSpec(fintop3, kind)))
        orders = list(enumerate_structures(EnumerationSpec(fintop3, "topogenous", prop_filter=prop)))
        assert len(operators) == len(orders) == 11
        assert set(map(convert, orders)) == set(operators)
        assert all(validate_structure(s).ok for s in operators)


def test_the_operator_budget_counts_the_orders(fintop2, monkeypatch):
    # fintop2's closures are read from its 11 topogenous orders, counted
    # before any structure is built
    assert plan_of(fintop2, TopogenousOrder).orders.count == 11
    monkeypatch.setenv("TOPOGEN_MAX_CANDIDATES", "10")
    yielded = []
    with pytest.raises(ResourceCapError, match="11 topogenous structures exceed 10"):
        yielded.extend(enumerate_structures(EnumerationSpec(fintop2, "closure")))
    assert yielded == []
    monkeypatch.setenv("TOPOGEN_MAX_CANDIDATES", "11")
    assert len(list(enumerate_structures(EnumerationSpec(fintop2, "closure")))) == 7


# ---------------------------------------------------------------------------
# file format


CANONICAL = """space sier: points=2; opens={},{1},{0,1}
map to_sier: from=d2; to=sier; graph=1,1
order tiny: fibration=t0_small; kind=closure
"""


def test_canonical_text_roundtrip():
    doc = fileformat.parse_document(CANONICAL)
    assert fileformat.serialize_document(doc) == CANONICAL


def test_comments_and_blanks_are_ignored():
    doc = fileformat.parse_document("# header\n\n" + CANONICAL)
    assert len(doc.records) == 3


def test_parse_error_positions():
    with pytest.raises(FormatError) as err:
        fileformat.parse_document("space bad points=1\n")
    assert err.value.line == 1
    with pytest.raises(FormatError) as err:
        fileformat.parse_document("space ok: points=1; opens={},{0}\nnonsense x: a=b\n")
    assert err.value.line == 2
    # a field's error, and every error inside its value, names the 1-based
    # column in its line where the field starts, empty fields counted
    for text, column, field, message in (
        ("space a: points=2; bad; opens={}", 20, "bad", "field without '='"),
        ("space a: bad", 10, "bad", "field without '='"),
        ("space a: points=2;; bad", 21, "bad", "field without '='"),
        ("  space a:points=2;bad", 20, "bad", "field without '='"),
        ("space a: points=1; opens={}; points=1", 30, "points=1", "duplicate field 'points'"),
        ("order o: fibration=fintop1;kind=explicit; kind=explicit", 43, "kind", "duplicate"),
        # below the field split, the column of the field
        ("order o: fibration=fintop1; kind=explicit; rel=pt[(a)]", 44, "rel", "two entries"),
        ("operator c: fibration=fintop1; kind=closure;table=pt[{}]", 45, "table", "'=>' entry"),
        (" space a: points=1; opens={},[0}", 21, "opens", "expected a point set"),
        ("space a: points=1; opens={},{0; broken", 20, "opens", "unbalanced brackets"),
        ("space a: points=1; opens={}}; x=1", 20, "opens", "unbalanced brackets"),
        # the record head counts columns in the unstripped line too
        ("  spaced a b: x=1", 3, "spaced", "bad record head"),
        ("  nonsense x: a=b", 3, "nonsense", "unknown record kind"),
        ("  space a points=1", 18, "1", "expected 'kind name: fields'"),
    ):
        assert text[column - 1:].startswith(field)
        with pytest.raises(FormatError, match=message) as err:
            fileformat.parse_document("# header\n" + text + "\n")
        assert (err.value.line, err.value.column) == (2, column), text


def test_a_far_point_is_refused_before_it_is_shifted():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="names a point >= 2"):
            fileformat.parse_document("space a: points=2; opens={},{0,1},{40000000}\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("points", ["9", "400000000", "-1"])
def test_space_point_counts_outside_0_to_8_are_refused(points):
    with pytest.raises(FormatError, match=f"point count {points} is not in 0..8"):
        fileformat.parse_document(f"space a: points={points}; opens={{}}\n")


def _reference_split_top(value, sep, line, col):
    """Split on ``sep`` at bracket depth zero, one character at a time."""
    parts = []
    depth = 0
    current = []
    for ch in value:
        if ch in "{[(":
            depth += 1
        elif ch in "}])":
            depth -= 1
            if depth < 0:
                raise FormatError("unbalanced brackets", line, col)
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise FormatError("unbalanced brackets", line, col)
    parts.append("".join(current))
    return parts


def _split_outcome(split, value, sep):
    try:
        return split(value, sep, 3, 5)
    except FormatError as err:
        return ("FormatError", str(err), err.line, err.column)


_SPLIT_ALPHABET = "{}[]()|,;=> 0a"
# balanced values with every bracket kind, nested, and mixed kinds closing
_BALANCED = st.recursive(
    st.text(alphabet="|,;=> 0a", max_size=4),
    lambda inner: st.builds(
        lambda o, parts, c: o + "".join(parts) + c,
        st.sampled_from("{[("), st.lists(inner, max_size=3), st.sampled_from("}])"),
    ) | st.lists(inner, min_size=2, max_size=4).map("".join),
    max_leaves=12,
)


@settings(max_examples=400)
@given(
    st.one_of(st.text(alphabet=_SPLIT_ALPHABET, max_size=24), _BALANCED),
    st.sampled_from(",|;"),
)
def test_split_top_matches_the_per_character_scanner(value, sep):
    assert _split_outcome(fileformat._split_top, value, sep) == _split_outcome(
        _reference_split_top, value, sep
    )


def test_split_top_errors_and_mixed_brackets():
    assert fileformat._split_top("{0,1),(a|b],c", ",", 1, 0) == ["{0,1)", "(a|b]", "c"]
    for bad in ("}{", "{0},1}", "(a", "a,]("):
        with pytest.raises(FormatError):
            fileformat._split_top(bad, ",", 1, 0)


def test_parse_rejects_duplicates_and_unknown_fields():
    with pytest.raises(FormatError):
        fileformat.parse_document("space a: points=1; opens={},{0}\nspace a: points=1; opens={},{0}\n")
    with pytest.raises(FormatError):
        fileformat.parse_document("space a: points=1; opens={},{0}; extra=1\n")
    with pytest.raises(FormatError):
        fileformat.parse_document("space a: points=1; opens={},{0; broken\n")


def test_explicit_order_record_roundtrip(fintop2):
    from topogen.instances.topology import closure_order

    t = closure_order(fintop2)
    record = fileformat.order_record_of("cl", t)
    text = fileformat.serialize_record(record) + "\n"
    doc = fileformat.parse_document(text)
    assert doc.records[0] == record
    assert fileformat.resolve_order(doc.records[0], fintop2) == t


def test_group_record_roundtrip(grp_small):
    for g in groups_of(grp_small):
        record = fileformat.GroupRecord(g.name, g)
        text = fileformat.serialize_record(record) + "\n"
        doc = fileformat.parse_document(text)
        assert doc.records[0] == record


def test_endofunctor_record_roundtrip(endofunctor_record):
    from topogen.instances.registry import builtin_endofunctor, builtin_fibration

    fib = builtin_fibration("t0_small")
    p = builtin_endofunctor("pointed", "t0", fib)
    record = endofunctor_record("reflect", p)
    doc = fileformat.parse_document(fileformat.serialize_record(record) + "\n")
    assert doc.records[0] == record
    resolved = fileformat.resolve_endofunctor(doc.records[0], fib)
    assert resolved.side == "pointed"
    assert resolved.obj_map == p.obj_map
    assert resolved.mor_map == p.mor_map
    assert resolved.components == p.components

    fibc = builtin_fibration("coreflect_small")
    q = builtin_endofunctor("copointed", "discrete", fibc)
    record = endofunctor_record("discretize", q)
    doc = fileformat.parse_document(fileformat.serialize_record(record) + "\n")
    resolved = fileformat.resolve_endofunctor(doc.records[0], fibc)
    assert resolved.side == "copointed"
    assert resolved.components == q.components


def test_operator_record_roundtrip(fintop2):
    from topogen.instances.topology import closure_order
    from topogen.structures import closure_from_topogenous

    c = closure_from_topogenous(closure_order(fintop2))
    record = fileformat.operator_record_of("cl", c, "closure")
    doc = fileformat.parse_document(fileformat.serialize_record(record) + "\n")
    assert doc.records[0] == record


# ---------------------------------------------------------------------------
# the canonical path of order and operator lines


def _parsed(text):
    """The records of a document, or its FormatError as (message, line, column)."""
    try:
        return fileformat.parse_document(text).records
    except FormatError as err:
        return ("FormatError", str(err), err.line, err.column)


def _parsed_by_the_general_scanner(text):
    with mock.patch.object(fileformat, "_canonical_record", lambda kind, name, rest, bodies: None):
        return _parsed(text)


def _cli_records(fib, limit=None):
    """The explicit order and operator records the CLI writes on ``fib``:
    each built-in order kind that applies, as ``lift`` and ``induce`` write
    an order, and the first ``limit`` structures of each kind, as
    ``enumerate`` writes them."""
    from itertools import islice

    from topogen.instances.registry import ORDER_KINDS, builtin_order

    records = []
    for kind in ORDER_KINDS:
        try:
            records.append(fileformat.order_record_of(kind, builtin_order(kind, fib)))
        except DomainError:
            continue
    for kind in ("topogenous", "neighbourhood", "closure", "interior"):
        structures = enumerate_structures(EnumerationSpec(fib, kind))
        for k, structure in enumerate(islice(structures, limit)):
            name = f"{kind}_{k:04d}"
            if kind in ("closure", "interior"):
                records.append(fileformat.operator_record_of(name, structure, kind))
            else:
                records.append(fileformat.order_record_of(name, structure))
    return records


def _assert_read_in_one_match(records):
    text = "".join(fileformat.serialize_record(r) + "\n" for r in records)
    for record, line in zip(records, text.splitlines()):
        head, _, rest = line.partition(":")
        kind, name = head.split()
        if kind in ("order", "operator"):
            assert fileformat._canonical_record(kind, name, rest, {}) == record, line
    assert _parsed(text) == _parsed_by_the_general_scanner(text) == tuple(records)


@pytest.mark.parametrize("name,limit", [
    ("fintop1", None), ("fintop2", None), ("disc2_loop", None), ("t0_small", None),
    ("coreflect_small", None), ("grp_small", None), ("grp_le4", None),
    ("grp_le8", 40), ("topgrp_le4", 40),
])
def test_builtin_records_are_read_in_one_match(name, limit):
    from topogen.instances.registry import builtin_fibration

    records = _cli_records(builtin_fibration(name), limit)
    assert any(isinstance(r, fileformat.OperatorRecord) for r in records)
    _assert_read_in_one_match(records)


@pytest.mark.parametrize("name,limit", [("fintop2", None), ("grp_small", None), ("topgrp_le4", 40)])
def test_a_document_is_its_records_lines(name, limit):
    # the document writes each repeated block body once, to the same bytes
    # that each record's own line holds
    from topogen.instances.registry import builtin_fibration

    records = _cli_records(builtin_fibration(name), limit)
    blocks = [b for r in records for b in (r.rel if isinstance(r, fileformat.OrderRecord) else r.table)]
    assert len({entries for _, entries in blocks}) < len(blocks)
    doc = fileformat.Document(tuple(records))
    assert fileformat.serialize_document(doc) == "".join(
        fileformat.serialize_record(r) + "\n" for r in doc.records)


def _sharing_a_block(structures):
    """Two of ``structures`` that agree on some object of more than two
    subobjects, with a nonzero entry there, and that object."""
    for s, r in itertools.combinations(structures, 2):
        for x, (a, b) in enumerate(zip(s.table, r.table)):
            if a == b and len(a) > 2 and any(a):
                return s, r, x
    raise AssertionError("no two structures agree on an object")


def test_records_repeating_a_block_share_its_entries(fintop2):
    orders = list(enumerate_structures(EnumerationSpec(fintop2, "topogenous")))
    closures = list(enumerate_structures(EnumerationSpec(fintop2, "closure")))
    s, r, x = _sharing_a_block(orders)
    c, d, y = _sharing_a_block(closures)
    records = [
        fileformat.order_record_of("s", s), fileformat.order_record_of("r", r),
        fileformat.operator_record_of("c", c, "closure"),
        fileformat.operator_record_of("d", d, "closure"),
    ]
    # built once per (lattice, rows)
    assert records[0].rel[x][1] is records[1].rel[x][1]
    assert records[2].table[y][1] is records[3].table[y][1]
    # read once per document
    text = fileformat.serialize_document(fileformat.Document(tuple(records)))
    back = fileformat.parse_document(text).records
    assert back == tuple(records) == _parsed_by_the_general_scanner(text)
    assert back[0].rel[x][1] is back[1].rel[x][1]
    assert back[2].table[y][1] is back[3].table[y][1]


def test_space_fibration_records_are_read_in_one_match():
    # the CLI's ``spaces:`` fibration over a document's spaces, and the
    # enumerate-sweep shape: a point, a 2-point and two 3-point spaces
    from topogen.instances.topology import FinTopSpace, enumerate_topologies, fintop_fibration

    sierpinski = FinTopSpace(2, (0, 2, 3))
    three = enumerate_topologies(3)
    spaces = [
        fileformat.SpaceRecord("a", sierpinski), fileformat.SpaceRecord("b", three[3]),
    ]
    fib = fintop_fibration([r.space for r in spaces], name="spaces:a,b", object_names=("a", "b"))
    _assert_read_in_one_match(spaces + _cli_records(fib))
    sweep = [FinTopSpace(1, (0, 1)), sierpinski, three[1], three[-2]]
    fib = fintop_fibration(sweep, name="spaces(p,a,b,c)", object_names=("p", "a", "b", "c"))
    _assert_read_in_one_match(_cli_records(fib))


# names and labels the canonical patterns accept: every label shape a
# built-in lattice carries, and the fibrations the CLI and the benchmark name
_CANONICAL_LABELS = ["{}", "{0}", "{0,2}", "{e,(12),(01)}", "{0.0,1.1}", "-i", "e"]
_CANONICAL_OBJECTS = ["p", "z2xz2", "z1.n0", "sierpinski_op"]
_CANONICAL_FIBRATIONS = ["fintop2", "spaces:a,b", "spaces(p,a,b,c)"]
# ones they refuse: a separator the scanner splits on, a space, a comma
# outside brackets, mixed or unbalanced brackets, nothing at all
_SEPARATOR_LABELS = ["{a;b}", "a;b", "{a|b}", "a|b", "{a=>b}", "a=>b", "{0, 1}", "a,b", ""]
_BRACKET_LABELS = ["(a,b)", "{0)", "(0}", "{0", "0}", "{0}}", ")(", "[0]", "{[0]}"]
_OTHER_NAMES = ["p;q", "p|q", "p q", "p=q", "p,q", "p(q", "p)", "p[q]", "p{q}", ""]
# perturbations after which the line stands for the same record
_SAME_RECORD = ["none", "spaces", "empty chunk", "reordered fields"]
# and those after which the record may change, or the line be refused
_ANY_OUTCOME = ["object", "fibration", "duplicated field", "missing field"]


@st.composite
def _record_lines(draw, perturbation, label=None):
    """(line, record): an order or operator line built from canonical
    pieces and then perturbed, and the record the pieces stand for; the
    perturbation "label" puts ``label`` at one place of one entry."""
    kind = draw(st.sampled_from(["order", "operator"]))
    labels = st.sampled_from(_CANONICAL_LABELS)
    blocks = draw(st.lists(
        st.tuples(
            st.sampled_from(_CANONICAL_OBJECTS),
            st.lists(st.tuples(labels, labels), max_size=3).map(tuple),
        ),
        min_size=1, max_size=3,
    ))
    if perturbation == "label":
        at = draw(st.integers(0, len(blocks) - 1))
        obj, entries = blocks[at]
        entries = list(entries) or [draw(st.tuples(labels, labels))]
        k, side = draw(st.integers(0, len(entries) - 1)), draw(st.integers(0, 1))
        entry = list(entries[k])
        entry[side] = label
        entries[k] = tuple(entry)
        blocks[at] = (obj, tuple(entries))
    fibration = draw(st.sampled_from(_CANONICAL_FIBRATIONS))
    if kind == "order":
        record = fileformat.OrderRecord("x", fibration, "explicit", tuple(blocks))
    else:
        kinds = st.sampled_from(["closure", "interior"])
        record = fileformat.OperatorRecord("x", fibration, draw(kinds), tuple(blocks))
    line = fileformat.serialize_record(record)
    if perturbation == "object":
        at = draw(st.integers(0, len(blocks) - 1))
        blocks[at] = (draw(st.sampled_from(_OTHER_NAMES)), blocks[at][1])
    elif perturbation == "fibration":
        fibration = draw(st.sampled_from(_OTHER_NAMES))
    spaced = perturbation == "spaces"

    def pad(text):
        return draw(st.sampled_from(["", " ", "\t "])) + text if spaced else text

    def gap():
        # the one space the serializer writes after ':' and each ';'
        return pad("") if spaced else " "

    chunks = []
    for obj, entries in blocks:
        if kind == "order":
            body = ",".join(pad("(") + pad(a) + pad(",") + pad(b) + pad(")") for a, b in entries)
        else:
            body = ",".join(pad(a) + pad("=>") + pad(b) for a, b in entries)
        chunks.append(pad(obj) + pad("[") + body + pad("]"))
    if perturbation == "empty chunk":
        chunks.insert(draw(st.integers(0, len(chunks))), "")
    field = "rel" if kind == "order" else "table"
    fields = [("fibration", fibration), ("kind", record.kind), (field, "|".join(chunks))]
    if perturbation == "reordered fields":
        fields = draw(st.permutations(fields))
    elif perturbation == "duplicated field":
        fields.insert(draw(st.integers(0, 3)), draw(st.sampled_from(fields)))
    elif perturbation == "missing field":
        del fields[draw(st.integers(0, 2))]
    text = pad(f"{kind} x:") + ";".join(
        gap() + pad(key) + pad("=") + pad(value) for key, value in fields
    ) + pad("")
    assert text == line or perturbation != "none"
    return text, record


@pytest.mark.parametrize("perturbation", _SAME_RECORD + _ANY_OUTCOME)
@given(data=st.data(), header_lines=st.integers(0, 2))
def test_canonical_path_reads_what_the_general_scanner_reads(perturbation, data, header_lines):
    line, record = data.draw(_record_lines(perturbation))
    text = "# header\n" * header_lines + line + "\n"
    general = _parsed_by_the_general_scanner(text)
    assert _parsed(text) == general
    if perturbation in _SAME_RECORD:
        assert general == (record,)
    if perturbation == "none":
        head, _, rest = line.partition(":")
        assert fileformat._canonical_record(*head.split(), rest, {}) == record


@pytest.mark.parametrize("label", _SEPARATOR_LABELS + _BRACKET_LABELS)
@settings(max_examples=12)
@given(data=st.data())
def test_a_label_the_patterns_refuse_is_read_by_the_general_scanner(label, data):
    line, _ = data.draw(_record_lines("label", label))
    text = line + "\n"
    assert _parsed(text) == _parsed_by_the_general_scanner(text)


# the text after "rel=" or "table=" of lines that break one piece of a
# canonical line: a block's closing bracket, a square bracket in a body, the
# separators between blocks, an object's name
_ORDER_HEAD = "order o: fibration=fintop1; kind=explicit; rel="
_OPERATOR_HEAD = "operator c: fibration=fintop1; kind=closure; table="
_BROKEN_PIECES = {
    "no closing bracket": [
        (_ORDER_HEAD, "pt[({},{}),({},{0})"), (_ORDER_HEAD, "pt[({},{})|pt[]"),
        (_OPERATOR_HEAD, "pt[{}=>{},{0}=>{0}"), (_OPERATOR_HEAD, "pt[{}=>{}|pt[{0}=>{0}]"),
    ],
    "bracket in a body": [
        (_ORDER_HEAD, "pt[({},{}),({},{0})]]"), (_ORDER_HEAD, "pt[[({},{}),({},{0})]"),
        (_ORDER_HEAD, "pt[({},{}),[({},{0})]]"), (_ORDER_HEAD, "pt[({},[0])]"),
        (_OPERATOR_HEAD, "pt[{}=>{}],{0}=>{0}]"), (_OPERATOR_HEAD, "pt[{}=>{},{0}=>[{0}]]"),
        (_OPERATOR_HEAD, "pt[[]]"), (_OPERATOR_HEAD, "pt[]]"),
    ],
    "outer separator": [
        (_ORDER_HEAD, "|pt[({},{})]"), (_ORDER_HEAD, "pt[({},{})]|"), (_ORDER_HEAD, "pt[]||pt[]"),
        (_OPERATOR_HEAD, "|pt[{}=>{}]"), (_OPERATOR_HEAD, "pt[{}=>{}]|"), (_OPERATOR_HEAD, "|"),
    ],
    "empty object": [
        (_ORDER_HEAD, "[({},{})]"), (_ORDER_HEAD, "pt[({},{})]|[]"),
        (_OPERATOR_HEAD, "[{}=>{}]"), (_OPERATOR_HEAD, "[]|pt[{}=>{}]"),
    ],
}


@pytest.mark.parametrize("piece", sorted(_BROKEN_PIECES))
def test_a_line_breaking_one_piece_is_read_by_the_general_scanner(piece):
    for head, blocks in _BROKEN_PIECES[piece]:
        line = head + blocks
        kind, name = line.partition(":")[0].split()
        assert fileformat._canonical_record(kind, name, line.partition(":")[2], {}) is None, line
        assert _parsed(line + "\n") == _parsed_by_the_general_scanner(line + "\n"), line


@pytest.mark.parametrize("body", ["({},{}),({},{0}),({0},{0})", "{}=>{},{0}=>{0}"])
@pytest.mark.parametrize("first", ["order", "operator"])
def test_a_body_read_for_one_kind_is_not_reused_for_the_other(body, first):
    # the same body text on an order and an operator line of one document;
    # it is canonical for one kind only, whichever line comes first
    lines = {"order": _ORDER_HEAD + f"pt[{body}]", "operator": _OPERATOR_HEAD + f"pt[{body}]"}
    second = "operator" if first == "order" else "order"
    text = lines[first] + "\n" + lines[second] + "\n"
    parsed = _parsed(text)
    assert parsed == _parsed_by_the_general_scanner(text)
    assert parsed[0] == "FormatError"


def test_space_and_map_documents_never_compile_the_canonical_patterns():
    # a fresh process: the CLI's imports, then a document of spaces and maps
    # alone, as a user-queries file holds, compile neither kind's patterns
    src = str(Path(fileformat.__file__).resolve().parents[2])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    script = (
        "import topogen.cli\n"
        "from topogen.harness import fileformat\n"
        "fileformat.parse_document('space s: points=2; opens={},{1},{0,1}\\n'\n"
        "                          'map m: from=s; to=s; graph=1,1\\n')\n"
        "print(fileformat._canonical_patterns.cache_info().currsize)\n"
        "fileformat.parse_document('order o: fibration=fintop1; kind=explicit; rel=pt[]\\n')\n"
        "print(fileformat._canonical_patterns.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=False,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n1\n", "")


# ---------------------------------------------------------------------------
# suite


def test_suite_small_passes_and_is_deterministic():
    first = run_suite("small")
    assert first.ok, first.render_text()
    second = run_suite("small")
    assert first.render_text() == second.render_text()
    assert first.render_json() == second.render_json()
    assert "wall" not in first.render_text()


def test_suite_reports_match_goldens():
    from pathlib import Path

    report = run_suite("small")
    data = Path(__file__).parent / "data"
    assert report.render_text() == (data / "golden_suite_small.txt").read_text()
    assert report.render_json() == (data / "golden_suite_small.json").read_text()


def test_suite_medium_report_matches_the_benchmark_reference():
    from pathlib import Path

    tests = Path(__file__).resolve().parent
    reference = tests.parent / "benchmark" / "reference" / "suite_medium.json"
    report = run_suite("medium")
    assert report.render_json() == reference.read_text(encoding="utf-8")
    assert report.render_text() == (tests / "data" / "golden_suite_medium.txt").read_text()


@pytest.mark.parametrize("scale, checked, maps, between", [
    ("small", 75, 69, 44), ("medium", 11_380, 11_345, 1_476),
])
def test_top_map_classes_reads_each_maps_predicates_off_its_representative(
        scale, checked, maps, between):
    # map_predicates runs once per map between class representatives; the
    # counts stay out of the rendered report
    from topogen.harness.suite import check_top_map_classes

    report = check_top_map_classes(scale)
    assert report.ok and report.checked == checked
    assert report.counts == {"maps": maps, "representative_maps": between}
    assert "representative" not in report.render() and str(maps) not in report.render()


@pytest.mark.parametrize("scale", ["small", "medium"])
def test_top_map_classes_names_each_maps_failed_verdicts_in_map_order(monkeypatch, scale):
    # `open` flipped on every odd representative map: each map that reads
    # such a map fails the open comparisons, reported under its own name in
    # map order, though the verdicts are decided once per record triple
    from dataclasses import replace

    from topogen.harness import suite
    from topogen.instances.topology import map_predicates, predicate_transport
    from topogen.reporting import Violation

    def flipped(fib, f):
        found = map_predicates(fib, f)
        return replace(found, open=not found.open) if f % 2 else found

    monkeypatch.setattr(suite, "map_predicates", flipped)
    report = suite.check_top_map_classes(scale)
    name = suite.SCALED[scale][0]
    fib = suite._fib(name)
    cls = suite._space_classifications(name)
    want = []
    for f, g in enumerate(predicate_transport(fib)):
        mp, ccl, cin = flipped(fib, g), cls["closure"][f], cls["interior"][f]
        for label, a, b in (
            ("open-vs-closure-costrict", mp.open, ccl.costrict),
            ("open-vs-interior-strict", mp.open, cin.strict),
            ("closed-vs-closure-strict", mp.closed, ccl.strict),
            ("initial-vs-closure-initial", mp.initial_topology, ccl.initial),
            ("initial-vs-interior-initial", mp.initial_topology, cin.initial),
            ("hq-vs-closure-final", mp.hereditary_quotient, ccl.final),
            ("hq-vs-interior-final", mp.hereditary_quotient, cin.final),
        ):
            if a != b:
                want.append(Violation(label, where=fib.category.mor_names[f]))
    assert want and list(report.violations) == want
    assert report.checked == {"small": 75, "medium": 11_380}[scale]


def test_suite_reports_a_raising_check_as_failure(monkeypatch, capsys):
    from topogen.cli import main
    from topogen.harness import suite

    def broken(scale):
        raise InternalConsistencyError("continuity renderings disagree on f")

    monkeypatch.setitem(suite.CHECKS, "class-calculus", broken)
    report = run_suite("small")
    assert [e.check_id for e in report.entries] == list(suite.CHECKS)
    failed = {e.check_id: e.failures for e in report.entries if e.failures}
    assert failed == {
        "class-calculus": ("InternalConsistencyError: continuity renderings disagree on f",)
    }
    assert "  failure InternalConsistencyError: continuity renderings" in report.render_text()
    assert main(["suite", "--targets", "class-calculus,format-roundtrip"]) == 1
    assert "check format-roundtrip instances=" in capsys.readouterr().out


@pytest.mark.parametrize("name, index, value, first", [
    # the preimage of the point moves from {0,1} to {0}: still monotone
    ("discrete2>pt:00", 1, 0b01, "adjunction; at discrete2>pt:00; witness {1}, {0}"),
    # the preimage of the whole space moves to {}: no longer monotone
    ("discrete2>discrete2:10", 3, 0b00,
     "preimage-monotone; at discrete2>discrete2:10; witness {0}, {0,1}"),
])
def test_suite_reports_a_moved_preimage_entry_with_the_morphism(
    monkeypatch, capsys, fintop2, name, index, value, first
):
    from topogen.cli import main
    from topogen.harness import suite

    f = fintop2.category.morphism_index(name)
    pre = list(fintop2.pre)
    moved = list(pre[f])
    assert moved[index] != value
    moved[index] = value
    pre[f] = tuple(moved)
    broken = SubobjectFibration(
        category=fintop2.category, sub=fintop2.sub, img=fintop2.img, pre=pre,
        eclass=fintop2.eclass, mclass=fintop2.mclass, fstar=fintop2.fstar,
        backend=fintop2.backend, name="fintop2",
    )
    builtin = suite._fib
    monkeypatch.setattr(suite, "_fib", lambda n: broken if n == "fintop2" else builtin(n))
    report = run_suite("small", ["instance-validity"])
    (entry,) = report.entries
    assert entry.failures[0] == first
    assert f"fstar-differs-from-right-adjoint; at {name}" in entry.failures
    assert any(
        x.startswith("preimage-functorial; at ") and name in x for x in entry.failures
    )
    assert f"  failure {first}\n" in report.render_text()
    assert main(["suite", "--targets", "instance-validity"]) == 1
    assert "status=fail" in capsys.readouterr().out


@pytest.mark.parametrize("name, moved, first", [
    ("discrete2>pt:00", (0b00, 7), "table-range; at discrete2>pt:00; witness pre[{0}]=7"),
    ("discrete2>discrete2:10", (0b00, 0b01, 0b10), "table-size; at discrete2>discrete2:10"),
])
def test_suite_reports_a_malformed_preimage_table_with_the_morphism(
    monkeypatch, capsys, fintop2, name, moved, first
):
    from topogen.cli import main
    from topogen.harness import suite

    f = fintop2.category.morphism_index(name)
    pre = list(fintop2.pre)
    pre[f] = moved
    broken = SubobjectFibration(
        category=fintop2.category, sub=fintop2.sub, img=fintop2.img, pre=pre,
        eclass=fintop2.eclass, mclass=fintop2.mclass, fstar=fintop2.fstar,
        backend=fintop2.backend, name="fintop2",
    )
    builtin = suite._fib
    monkeypatch.setattr(suite, "_fib", lambda n: broken if n == "fintop2" else builtin(n))
    report = run_suite("small", ["instance-validity"])
    (entry,) = report.entries
    # the check's own report survives: the fault, and no adjoint to compare
    assert entry.instances > 0
    assert entry.failures == (first, f"fstar-differs-from-right-adjoint; at {name}")
    assert main(["suite", "--targets", "instance-validity"]) == 1
    assert "status=fail" in capsys.readouterr().out


def test_suite_unknown_target():
    report = run_suite("small", targets=["no-such-check"])
    assert report.entries[0].skipped == ("unknown proposition id",)
    assert report.ok


def test_suite_single_target():
    report = run_suite("small", targets=["conversion-bijections"])
    assert len(report.entries) == 1
    assert report.ok
