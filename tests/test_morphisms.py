from dataclasses import replace

import pytest

from topogen.errors import CapabilityError, PreconditionError
from topogen.morphisms import (
    check_class_calculus,
    check_pullback_transfer,
    check_strict_transfer,
    classify,
    closure_classes,
    continuity_equivalents,
    crosscheck_operator_classes,
    interior_classes,
    strict_subobjects,
    weakly_final_formulas,
)
from topogen.site import BcpResult, PullbackSquare, check_bcp, pullback
from topogen.structures import TopogenousOrder, closure_from_topogenous, validate_structure
from topogen.instances.topology import closure_order, interior_order, map_predicates
from topogen.instances.registry import builtin_order


def test_identity_is_in_every_class(fintop2):
    t = closure_order(fintop2)
    cls = classify(fintop2.category.morphism_index("id_sierpinski"), t)
    assert cls.continuous and cls.strict and cls.final
    assert cls.costrict and cls.initial and cls.weakly_final
    assert cls.fstar_available


def test_every_morphism_is_continuous(fintop2):
    for t in (closure_order(fintop2), interior_order(fintop2)):
        for f in range(fintop2.category.n_morphisms):
            assert classify(f, t).continuous


def test_continuity_renderings_agree_on_identity(fintop2):
    t = closure_order(fintop2)
    assert continuity_equivalents(
        fintop2.category.morphism_index("id_discrete2"), t
    ) == (True, True, True)


def _brute_force_renderings(t, f):
    fib = t.fib
    img, pre, fstar = fib.img[f], fib.pre[f], fib.fstar[f]
    x, y = fib.dom(f), fib.cod(f)
    nx, ny = fib.sub[x].size, fib.sub[y].size
    form1 = all(
        not t.holds(y, m, n) or t.holds(x, pre[m], pre[n])
        for m in range(ny) for n in range(ny)
    )
    form2 = all(
        not t.holds(y, m, fstar[n]) or t.holds(x, pre[m], n)
        for m in range(ny) for n in range(nx)
    )
    form3 = all(
        not t.holds(y, img[m], fstar[n]) or t.holds(x, m, n)
        for m in range(nx) for n in range(nx)
    )
    return form1, form2, form3


def test_corrupted_relation_fails_all_renderings(disc2_loop):
    # not a topogenous order on purpose: only {0} related to itself
    rel = [[0, 0, 0, 0]]
    rel[0][0b01] = 1 << 0b01
    bad = TopogenousOrder(disc2_loop, (tuple(rel[0]),))
    assert not validate_structure(bad).ok
    swap = disc2_loop.category.morphism_index("discrete2>discrete2:10")
    oracle = _brute_force_renderings(bad, swap)
    assert oracle == (False, False, False)
    assert continuity_equivalents(swap, bad) == (False, False, False)


def test_continuity_renderings_need_fstar(grp_small):
    t = builtin_order("grp_normal", grp_small)
    f = next(
        f for f in range(grp_small.category.n_morphisms) if grp_small.fstar[f] is None
    )
    with pytest.raises(CapabilityError):
        continuity_equivalents(f, t)


def test_closed_point_embedding_is_strict(fintop2):
    t = closure_order(fintop2)
    closed_point = fintop2.category.morphism_index("pt>sierpinski:0")
    open_point = fintop2.category.morphism_index("pt>sierpinski:1")
    assert map_predicates(fintop2, closed_point).closed
    assert classify(closed_point, t).strict
    assert not map_predicates(fintop2, open_point).closed
    assert not classify(open_point, t).strict


def test_group_surjection_is_final(grp_small):
    t = builtin_order("grp_normal", grp_small)
    cat = grp_small.category
    s3, z2 = cat.object_index("s3"), cat.object_index("z2")
    sign = next(
        f for f in range(cat.n_morphisms)
        if cat.mor_dom[f] == s3 and cat.mor_cod[f] == z2 and len(set(cat.graphs[f])) == 2
    )
    assert classify(sign, t).final


def test_strict_subobjects_on_sierpinski(fintop2):
    x = fintop2.category.object_index("sierpinski")
    closure_strict = strict_subobjects(x, closure_order(fintop2))
    assert set(closure_strict) == {0b00, 0b01, 0b11}   # the closed sets
    interior_strict = strict_subobjects(x, interior_order(fintop2))
    assert set(interior_strict) == {0b00, 0b10, 0b11}  # the open sets


def test_strict_subobjects_under_largest_order(fintop2):
    from topogen.structures import discrete_order

    t = discrete_order(fintop2)
    x = fintop2.category.object_index("discrete2")
    assert strict_subobjects(x, t) == tuple(range(4))


def test_strict_transfer_holds_everywhere(fintop2, grp_small):
    for t in (closure_order(fintop2), interior_order(fintop2)):
        for f in range(fintop2.category.n_morphisms):
            assert check_strict_transfer(f, t).ok
    t = builtin_order("grp_normal", grp_small)
    for f in range(grp_small.category.n_morphisms):
        assert check_strict_transfer(f, t).ok


def test_class_calculus_on_builtins(fintop2, grp_small):
    for t in (closure_order(fintop2), interior_order(fintop2)):
        assert check_class_calculus(fintop2, t).ok
    assert check_class_calculus(grp_small, builtin_order("grp_normal", grp_small)).ok


def test_class_calculus_vacuous_on_one_object_category():
    from topogen.lattice import FiniteLattice
    from topogen.site import FiniteCategory, SubobjectFibration
    from topogen.structures import discrete_order

    cat = FiniteCategory(("x",), (0,), (0,), ("id_x",), (0,), compose_table={(0, 0): 0})
    lat = FiniteLattice.powerset(1)
    ident = tuple(range(lat.size))
    fib = SubobjectFibration(cat, (lat,), (ident,), (ident,), frozenset({0}), frozenset({0}))
    report = check_class_calculus(fib, discrete_order(fib))
    assert report.ok


def test_pullback_transfer_on_identity_square(fintop2):
    i = fintop2.category.morphism_index("id_sierpinski")
    sq = PullbackSquare(fintop2, f_prime=i, p=i, p_prime=i, f=i)
    assert check_pullback_transfer(sq, closure_order(fintop2)).ok


def test_pullback_transfer_requires_bcp(fintop2):
    cat = fintop2.category
    ident = cat.morphism_index("id_pt")
    empty_to_pt = cat.morphism_index("empty>pt:-")
    sq = PullbackSquare(fintop2, f_prime=empty_to_pt, p=ident, p_prime=empty_to_pt, f=ident)
    with pytest.raises(PreconditionError):
        check_pullback_transfer(sq, closure_order(fintop2))


def test_pullback_transfer_rejects_a_given_failed_bcp(fintop2):
    cat = fintop2.category
    # the given result is used as is, even on a square that has the equality
    i = cat.morphism_index("id_sierpinski")
    sq = PullbackSquare(fintop2, f_prime=i, p=i, p_prime=i, f=i)
    with pytest.raises(PreconditionError):
        check_pullback_transfer(
            sq, closure_order(fintop2), bcp=BcpResult(True, False, ("{}", "equality"))
        )
    ident = cat.morphism_index("id_pt")
    empty_to_pt = cat.morphism_index("empty>pt:-")
    sq = PullbackSquare(fintop2, f_prime=empty_to_pt, p=ident, p_prime=empty_to_pt, f=ident)
    with pytest.raises(PreconditionError):
        check_pullback_transfer(sq, closure_order(fintop2), bcp=check_bcp(sq))


def test_pullback_transfer_with_given_bcp_matches_own(fintop2):
    cat = fintop2.category
    squares = []
    for p in sorted(fintop2.eclass | fintop2.mclass):
        for f in cat.morphisms_to[cat.mor_cod[p]]:
            try:
                squares.append(pullback(fintop2, f, p))
            except CapabilityError:
                continue
    violated = 0
    for t in (closure_order(fintop2), interior_order(fintop2)):
        cache = {f: classify(f, t) for f in range(cat.n_morphisms)}
        for sq in squares:
            # f' forced into no class, so that ascent can fail
            forged = dict(cache)
            forged[sq.f_prime] = replace(
                cache[sq.f_prime], strict=False, final=False, costrict=False, initial=False
            )
            for c in (cache, forged):
                own = check_pullback_transfer(sq, t, c)
                given = check_pullback_transfer(sq, t, c, bcp=check_bcp(sq))
                assert given == own
                violated += not own.ok
    assert violated > 0


def test_operator_crosschecks_on_fintop2(fintop2):
    for t in (closure_order(fintop2), interior_order(fintop2)):
        for f in range(fintop2.category.n_morphisms):
            assert crosscheck_operator_classes(f, t).ok


def test_operator_crosschecks_gated_on_join_commuting_preimages(grp_small):
    t = builtin_order("grp_normal", grp_small)
    assert not grp_small.preimage_join_commuting()
    with pytest.raises(PreconditionError):
        crosscheck_operator_classes(0, t)


def test_closure_classes_of_identity(fintop2):
    c = closure_from_topogenous(closure_order(fintop2))
    flags = closure_classes(fintop2.category.morphism_index("id_discrete2"), c)
    assert flags == {"strict": True, "final": True, "costrict": True, "initial": True}


def test_open_map_is_interior_strict(fintop2):
    from topogen.structures import interior_from_topogenous

    i = interior_from_topogenous(interior_order(fintop2))
    for f in range(fintop2.category.n_morphisms):
        assert interior_classes(f, i)["strict"] == map_predicates(fintop2, f).open


def test_weak_finality_formulas_hold_everywhere(fintop2, grp_small):
    for t in (closure_order(fintop2), interior_order(fintop2)):
        for f in range(fintop2.category.n_morphisms):
            assert weakly_final_formulas(f, t).ok
    t = builtin_order("grp_normal", grp_small)
    for f in range(grp_small.category.n_morphisms):
        assert weakly_final_formulas(f, t).ok


def test_weak_finality_examples(fintop2):
    t = closure_order(fintop2)
    surjection = fintop2.category.morphism_index("discrete2>pt:00")
    assert classify(surjection, t).weakly_final
    embedding = fintop2.category.morphism_index("pt>sierpinski:1")
    assert not classify(embedding, t).weakly_final
    # in E, weak finality and finality coincide
    for f in sorted(fintop2.eclass):
        cls = classify(f, t)
        assert cls.weakly_final == cls.final


def test_transfer_on_generated_squares(fintop2):
    from topogen.site import check_bcp

    tcl = closure_order(fintop2)
    tin = interior_order(fintop2)
    cache_cl = {f: classify(f, tcl) for f in range(fintop2.category.n_morphisms)}
    cache_in = {f: classify(f, tin) for f in range(fintop2.category.n_morphisms)}
    cat = fintop2.category
    count = 0
    for p in sorted(fintop2.eclass | fintop2.mclass):
        for f in cat.morphisms_to[cat.mor_cod[p]]:
            try:
                sq = pullback(fintop2, f, p)
            except CapabilityError:
                continue
            assert check_bcp(sq).bcp_equality
            assert check_pullback_transfer(sq, tcl, cache_cl).ok
            assert check_pullback_transfer(sq, tin, cache_in).ok
            count += 1
    assert count > 400
