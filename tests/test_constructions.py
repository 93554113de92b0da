import pytest

from topogen.constructions import (
    CopointedEndofunctor,
    FamilySpec,
    FiberedFunctor,
    PointedEndofunctor,
    check_extremality,
    continuity_between,
    counit_constraint,
    induce_copointed,
    induce_pointed,
    induced_closure,
    induced_interior,
    lift_topogenous,
    unit_constraint,
    validate_copointed,
    validate_fibered_functor,
    validate_pointed,
)
from topogen.errors import PreconditionError
from topogen.structures import (
    closure_from_topogenous,
    discrete_order,
    interior_from_topogenous,
    is_idempotent,
    is_interpolative,
    validate_structure,
)
from topogen.instances.registry import (
    builtin_copointed,
    builtin_fibration,
    builtin_functor,
    builtin_order,
    builtin_pointed,
)
from topogen.instances.topology import closure_order, interior_order, spaces_of


def identity_pointed(fib):
    cat = fib.category
    return PointedEndofunctor(
        fib,
        tuple(range(cat.n_objects)),
        tuple(range(cat.n_morphisms)),
        tuple(cat.identities),
    )


def identity_copointed(fib):
    cat = fib.category
    return CopointedEndofunctor(
        fib,
        tuple(range(cat.n_objects)),
        tuple(range(cat.n_morphisms)),
        tuple(cat.identities),
    )


def identity_functor(fib):
    cat = fib.category
    gamma = tuple(tuple(range(lat.size)) for lat in fib.sub)
    return FiberedFunctor(
        total=fib, base=fib,
        obj_map=tuple(range(cat.n_objects)),
        mor_map=tuple(range(cat.n_morphisms)),
        gamma=gamma, delta=gamma,
    )


# ---------------------------------------------------------------------------
# lifting


def test_identity_lift_is_identity(grp_small):
    fd = identity_functor(grp_small)
    assert validate_fibered_functor(fd).ok
    t = builtin_order("grp_normal", grp_small)
    assert lift_topogenous(fd, t) == t


def test_topgrp_functor_validates():
    fd = builtin_functor("topgrp_le4")
    assert validate_fibered_functor(fd).ok
    from topogen.instances.topgroups import validate_topgroup

    for tg in fd.total.backend.topgroups:
        assert validate_topgroup(tg).ok


def test_topgrp_lift_is_topogenous_and_characterized():
    fd = builtin_functor("topgrp_le4")
    t_base = builtin_order("grp_normal", fd.base)
    lifted = lift_topogenous(fd, t_base)
    assert validate_structure(lifted).ok
    assert is_interpolative(lifted)
    # related upstairs means a normal subgroup of the underlying group between them
    from topogen.instances.groups import is_normal, subgroups_of

    for x in range(fd.total.category.n_objects):
        tg = fd.total.backend.topgroups[x]
        subs = subgroups_of(tg.group)
        normals = [m for m in subs if is_normal(tg.group, m)]
        for a_i, a in enumerate(subs):
            for b_i, b in enumerate(subs):
                expected = any(a & ~n == 0 and n & ~b == 0 for n in normals)
                assert lifted.holds(x, a_i, b_i) == expected


def test_lift_rejects_foreign_order(grp_small):
    fd = builtin_functor("topgrp_le4")
    with pytest.raises(PreconditionError):
        lift_topogenous(fd, builtin_order("grp_normal", grp_small))


# ---------------------------------------------------------------------------
# two-order continuity


def test_same_order_continuity(fintop2):
    t = closure_order(fintop2)
    for f in range(fintop2.category.n_morphisms):
        ok, _ = continuity_between(f, t, t)
        assert ok


def test_smaller_codomain_order_gives_continuity(fintop2):
    t = closure_order(fintop2)
    bigger = discrete_order(fintop2)
    # closure order is contained in plain inclusion, so every map is
    # (inclusion, closure)-continuous
    assert all(
        t.rel[x][m] & ~bigger.rel[x][m] == 0
        for x in range(fintop2.category.n_objects)
        for m in range(fintop2.sub[x].size)
    )
    for f in range(fintop2.category.n_morphisms):
        ok, _ = continuity_between(f, bigger, t)
        assert ok


def test_discontinuity_witness_exists(fintop2):
    t = closure_order(fintop2)
    bigger = discrete_order(fintop2)
    # some map fails to be (closure, inclusion)-continuous
    failures = [
        f for f in range(fintop2.category.n_morphisms)
        if not continuity_between(f, t, bigger)[0]
    ]
    assert failures
    f = failures[0]
    ok, witness = continuity_between(f, t, bigger)
    assert not ok and witness is not None


# ---------------------------------------------------------------------------
# induced orders


def test_identity_pointed_induces_same_order(fintop2):
    p = identity_pointed(fintop2)
    assert validate_pointed(p).ok and p.e_pointed
    for t in (closure_order(fintop2), interior_order(fintop2)):
        assert induce_pointed(p, t) == t


def test_identity_copointed_induces_same_order(fintop2):
    q = identity_copointed(fintop2)
    assert validate_copointed(q).ok
    for t in (closure_order(fintop2), interior_order(fintop2)):
        assert induce_copointed(q, t) == t


def test_induce_pointed_requires_e_pointing(fintop2):
    cat = fintop2.category
    # point the endofunctor with a non-surjective unit at one object
    p = identity_pointed(fintop2)
    unit = list(p.unit)
    empty = cat.object_index("empty")
    pt = cat.object_index("pt")
    bad = PointedEndofunctor(
        fintop2,
        tuple(pt if x == empty else x for x in range(cat.n_objects)),
        p.mor_map,  # not a real functor, but the E-check fires first
        tuple(cat.morphism_index("empty>pt:-") if x == empty else u
              for x, u in enumerate(unit)),
    )
    with pytest.raises(PreconditionError):
        induce_pointed(bad, closure_order(fintop2))


def test_reflection_collapses_indiscrete_pairs():
    fib = builtin_fibration("t0_small")
    p = builtin_pointed("t0", fib)
    t = builtin_order("closure", fib)
    ind = induce_pointed(p, t)
    x = fib.category.object_index("indiscrete2")
    lat = fib.sub[x]
    # any nonempty proper subset relates only to the whole space
    assert ind.rel[x][0b01] == 1 << 0b11
    assert ind.rel[x][0b10] == 1 << 0b11
    assert ind.rel[x][lat.bottom] == lat.full_mask


def test_discretization_order_is_inclusion():
    fib = builtin_fibration("coreflect_small")
    q = builtin_copointed("discrete", fib)
    t = builtin_order("closure", fib)
    ind = induce_copointed(q, t)
    for x, lat in enumerate(fib.sub):
        for m in range(lat.size):
            assert ind.rel[x][m] == lat.up[m]


def test_induced_orders_validate_and_inherit_interpolation(fintop2):
    p = builtin_pointed("t0", fintop2)
    q = builtin_copointed("discrete", fintop2)
    for t in (closure_order(fintop2), interior_order(fintop2)):
        ind_p = induce_pointed(p, t)
        ind_q = induce_copointed(q, t)
        assert validate_structure(ind_p).ok
        assert validate_structure(ind_q).ok
        assert is_interpolative(t)
        assert is_interpolative(ind_p)


def test_unit_continuity_of_induced_order(fintop2):
    p = builtin_pointed("t0", fintop2)
    t = closure_order(fintop2)
    ind = induce_pointed(p, t)
    for x in range(fintop2.category.n_objects):
        ok, _ = continuity_between(p.unit[x], ind, t)
        assert ok


def test_counit_continuity_of_induced_order(fintop2):
    q = builtin_copointed("discrete", fintop2)
    t = closure_order(fintop2)
    ind = induce_copointed(q, t)
    for x in range(fintop2.category.n_objects):
        ok, _ = continuity_between(q.counit[x], t, ind)
        assert ok


# ---------------------------------------------------------------------------
# induced operators


def test_identity_endofunctor_induces_same_operators(fintop2):
    p = identity_pointed(fintop2)
    q = identity_copointed(fintop2)
    tc = closure_order(fintop2)
    ti = interior_order(fintop2)
    base_c = closure_from_topogenous(tc)
    base_i = interior_from_topogenous(ti)
    assert induced_closure(p, tc) == base_c
    assert induced_closure(q, tc) == base_c
    assert induced_interior(p, ti) == base_i
    assert induced_interior(q, ti) == base_i


def test_reflection_order_on_three_point_example(fintop3):
    # the space with opens {}, {0,1}, {0,1,2}: its quotient identifies 0 and 1,
    # every quotient class is dense, so {0} relates only to the whole space
    from topogen.instances.topology import FinTopSpace

    sp = FinTopSpace(3, (0, 0b011, 0b111))
    x = fintop3.backend._object_of(sp)
    p = builtin_pointed("t0", fintop3)
    t = builtin_order("closure", fintop3)
    ind = induce_pointed(p, t)
    lat = fintop3.sub[x]
    assert ind.rel[x][0b001] == 1 << 0b111
    c = induced_closure(p, t)
    assert c.cmap[x][0b001] == 0b111
    # the quotient itself is a two-point space with one open point
    quotient = spaces_of(fintop3)[p.obj_map[x]]
    assert quotient.n == 2 and len(quotient.opens) == 3


def test_induced_operators_agree_with_conversions(fintop2):
    p = builtin_pointed("t0", fintop2)
    q = builtin_copointed("discrete", fintop2)
    tc = closure_order(fintop2)
    ti = interior_order(fintop2)
    assert induced_closure(p, tc) == closure_from_topogenous(induce_pointed(p, tc))
    assert induced_closure(q, tc) == closure_from_topogenous(induce_copointed(q, tc))
    assert induced_interior(p, ti) == interior_from_topogenous(induce_pointed(p, ti))
    assert induced_interior(q, ti) == interior_from_topogenous(induce_copointed(q, ti))


def test_pointed_closure_idempotent_for_interpolative_base(fintop2):
    p = builtin_pointed("t0", fintop2)
    t = closure_order(fintop2)
    c = induced_closure(p, t)
    assert validate_structure(c).ok
    assert is_idempotent(c)


def test_pointed_interior_idempotent_for_interpolative_base(fintop2):
    p = builtin_pointed("t0", fintop2)
    t = interior_order(fintop2)
    i = induced_interior(p, t)
    assert validate_structure(i).ok
    assert p.e_pointed
    assert is_idempotent(i)


def test_induced_closure_needs_meet_preservation(fintop2):
    from topogen.structures import TopogenousOrder

    p = builtin_pointed("t0", fintop2)
    empty = TopogenousOrder(fintop2, tuple(tuple(0 for _ in range(lat.size)) for lat in fintop2.sub))
    with pytest.raises(PreconditionError):
        induced_closure(p, empty)


# ---------------------------------------------------------------------------
# extremality


def test_extremality_family_of_one():
    fib = builtin_fibration("t0_small")
    p = identity_pointed(fib)
    t = discrete_order(fib)   # the largest order: only itself can contain it
    ind = induce_pointed(p, t)
    assert ind == t
    report = check_extremality(ind, FamilySpec(
        fib, "topogenous", unit_constraint(p, t), "least", "identity-setting"))
    assert report.ok
    assert report.checked == 1


def test_pointed_least_order_by_enumeration():
    fib = builtin_fibration("t0_small")
    p = builtin_pointed("t0", fib)
    for kind in ("closure", "interior"):
        t = builtin_order(kind, fib)
        ind = induce_pointed(p, t)
        report = check_extremality(ind, FamilySpec(
            fib, "topogenous", unit_constraint(p, t), "least", kind))
        assert report.ok, report.render()
        assert report.checked >= 1


def test_copointed_largest_order_by_enumeration():
    fib = builtin_fibration("coreflect_small")
    q = builtin_copointed("discrete", fib)
    for kind in ("closure", "interior"):
        t = builtin_order(kind, fib)
        ind = induce_copointed(q, t)
        report = check_extremality(ind, FamilySpec(
            fib, "topogenous", counit_constraint(q, t), "largest", kind))
        assert report.ok, report.render()


def test_closure_extremality_by_enumeration():
    fib = builtin_fibration("t0_small")
    p = builtin_pointed("t0", fib)
    t = builtin_order("closure", fib)
    c = induced_closure(p, t)
    report = check_extremality(c, FamilySpec(
        fib, "closure", unit_constraint(p, closure_from_topogenous(t)),
        "largest", "pointed"))
    assert report.ok, report.render()

    fibc = builtin_fibration("coreflect_small")
    q = builtin_copointed("discrete", fibc)
    tc = builtin_order("closure", fibc)
    cc = induced_closure(q, tc)
    report = check_extremality(cc, FamilySpec(
        fibc, "closure", counit_constraint(q, closure_from_topogenous(tc)),
        "least", "copointed"))
    assert report.ok, report.render()


def test_interior_extremality_by_enumeration():
    fib = builtin_fibration("t0_small")
    p = builtin_pointed("t0", fib)
    t = builtin_order("interior", fib)
    i = induced_interior(p, t)
    report = check_extremality(i, FamilySpec(
        fib, "interior", unit_constraint(p, interior_from_topogenous(t)),
        "least", "pointed"))
    assert report.ok, report.render()

    fibc = builtin_fibration("coreflect_small")
    q = builtin_copointed("discrete", fibc)
    tc = builtin_order("interior", fibc)
    ic = induced_interior(q, tc)
    report = check_extremality(ic, FamilySpec(
        fibc, "interior", counit_constraint(q, interior_from_topogenous(tc)),
        "largest", "copointed"))
    assert report.ok, report.render()


def test_extremality_detects_non_extremal_candidates():
    fib = builtin_fibration("coreflect_small")
    q = builtin_copointed("discrete", fib)
    t = builtin_order("closure", fib)
    smaller = induce_copointed(q, t)
    # feed something that is in the family but not largest: the base order
    report = check_extremality(t, FamilySpec(
        fib, "topogenous", counit_constraint(q, t), "largest", "bogus"))
    assert (t == smaller) or not report.ok


def test_naturality_violation_is_reported(fintop2):
    p = builtin_pointed("t0", fintop2)
    cat = fintop2.category
    # swap the unit at discrete2 for a non-natural morphism of the same type
    x = cat.object_index("discrete2")
    other = cat.morphism_index("discrete2>discrete2:10")
    unit = list(p.unit)
    unit[x] = other
    bad = PointedEndofunctor(fintop2, p.obj_map, p.mor_map, tuple(unit))
    report = validate_pointed(bad)
    assert not report.ok
    assert any(v.law == "unit-naturality" for v in report.violations)
