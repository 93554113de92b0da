import copy
from dataclasses import replace

import pytest

from topogen.constructions import (
    Endofunctor,
    FiberedFunctor,
    check_extremality,
    continuity_between,
    induce_order,
    induced_operator,
    lift_topogenous,
    validate_endofunctor,
    validate_fibered_functor,
)
from topogen.errors import PreconditionError
from topogen.harness.enumeration import EnumerationSpec, enumerate_structures
from topogen.lattice import FiniteLattice
from topogen.reporting import Violation
from topogen.structures import (
    CORRESPONDENCE,
    ClosureOperator,
    InteriorOperator,
    TopogenousOrder,
    closure_from_topogenous,
    discrete_order,
    interior_from_topogenous,
    is_idempotent,
    is_interpolative,
    validate_structure,
)
from topogen.instances.registry import (
    builtin_endofunctor,
    builtin_fibration,
    builtin_functor,
    builtin_order,
)
from topogen.instances.topology import closure_order, interior_order, spaces_of


def identity_endofunctor(fib, side):
    cat = fib.category
    return Endofunctor(
        fib,
        side,
        tuple(range(cat.n_objects)),
        tuple(range(cat.n_morphisms)),
        tuple(cat.identities),
    )


def identity_functor(fib):
    cat = fib.category
    return FiberedFunctor(
        total=fib, base=fib,
        obj_map=tuple(range(cat.n_objects)),
        mor_map=tuple(range(cat.n_morphisms)),
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
    report = validate_fibered_functor(fd)
    assert report.ok
    # the composition law is certified: no pair is walked
    assert report.counts == {"composition_certified": 1, "pairs_walked": 0}
    assert "certified" not in report.render()
    from topogen.instances.topgroups import validate_topgroup

    for tg in fd.total.backend.topgroups:
        assert validate_topgroup(tg).ok


def test_the_total_category_is_certified_closed_once(monkeypatch):
    from topogen import site
    from topogen.instances.topgroups import topgrp_fibration
    from topogen.site import validate_fibration

    # a fresh functor: the built-in one may carry its verdict already
    fd = topgrp_fibration.__wrapped__()
    seen = []
    certificate = site._closure_certificate
    monkeypatch.setattr(site, "_closure_certificate", lambda cat: seen.append(cat) or certificate(cat))
    fibration, functor = validate_fibration(fd.total), validate_fibered_functor(fd)
    assert fibration.ok and functor.ok
    # the functor reads the verdict its total category keeps
    assert len(seen) == 1 and seen[0] is fd.total.category
    assert fibration.counts["functoriality_certified"] == 1
    assert functor.counts == {"composition_certified": 1, "pairs_walked": 0}
    counts = {}
    assert site.composition_closed(fd.total.category, counts) and len(seen) == 1
    assert counts == {key: fibration.counts[key] for key in site._CLOSURE_COUNTS}


def test_topgrp_fibres_are_the_base_lattices():
    fd = builtin_functor("topgrp_le4")
    assert all(lat is fd.base.sub[fx] for lat, fx in zip(fd.total.sub, fd.obj_map))


def _with_total(fd, **tables):
    """``fd`` over a copy of its total fibration with the given attributes
    (``sub``, ``img`` or ``pre``) replaced."""
    total = copy.copy(fd.total)
    for name, value in tables.items():
        setattr(total, name, tuple(value))
    return replace(fd, total=total)


def _with_entry(tables, f, m, size):
    """``tables`` with entry m of f's table moved to the next of ``size``
    elements."""
    row = list(tables[f])
    row[m] = (row[m] + 1) % size
    return [tuple(row) if g == f else t for g, t in enumerate(tables)]


def test_a_fibre_that_is_not_the_base_lattice_is_reported():
    fd = builtin_functor("topgrp_le4")
    tot = fd.total
    good = validate_fibered_functor(fd)
    # the dual of a lattice with two elements or more has the same size and
    # comparable pairs, but another order on the same indices
    x = next(x for x, lat in enumerate(tot.sub) if lat.size > 1)
    lat = tot.sub[x]
    dual = FiniteLattice.from_order(lat.labels, lat.down)
    bad = _with_total(fd, sub=(dual if y == x else s for y, s in enumerate(tot.sub)))
    report = validate_fibered_functor(bad)
    assert report.checked == good.checked
    assert list(report.violations) == [
        Violation("fiber-order", where=tot.category.object_names[x])]


@pytest.mark.parametrize("table, law", [
    ("img", "image-compatibility"),
    ("pre", "preimage-compatibility"),
])
def test_a_table_that_is_not_the_base_table_is_reported(table, law):
    fd = builtin_functor("topgrp_le4")
    tot = fd.total
    good = validate_fibered_functor(fd)
    # the table runs from the domain's lattice (image) or the codomain's
    # (preimage) to the other one, which needs two elements to move into
    source, target = (tot.sub_dom, tot.sub_cod) if table == "img" else (tot.sub_cod, tot.sub_dom)
    f = next(f for f in range(tot.category.n_morphisms) if target(f).size > 1)
    bad = _with_total(fd, **{table: _with_entry(getattr(tot, table), f, 0, target(f).size)})
    report = validate_fibered_functor(bad)
    assert report.checked == good.checked
    assert list(report.violations) == [
        Violation(law, where=tot.category.mor_names[f], witness=(source(f).labels[0],))]


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
                assert bool(lifted.rel[x][a_i] >> b_i & 1) == expected


def _reference_functor_composition(fd, typed):
    """(pairs, functor-composition violations): F(g∘f) against the base
    composite of F g and F f, composed per pair, for typed F g and F f."""
    tcat, bcat, F = fd.total.category, fd.base.category, fd.mor_map
    pairs, violations = 0, []
    for f in range(tcat.n_morphisms):
        for g in tcat.morphisms_from[tcat.mor_cod[f]]:
            pairs += 1
            if typed[g] and typed[f] and F[tcat.compose(g, f)] != bcat.compose(F[g], F[f]):
                violations.append(
                    Violation("functor-composition", witness=(tcat.mor_names[g], tcat.mor_names[f]))
                )
    return pairs, violations


def test_mistyped_functor_map_is_reported_not_raised():
    fd = builtin_functor("topgrp_le4")
    tcat, bcat, tot = fd.total.category, fd.base.category, fd.total
    # send the first non-identity map to a base map out of the same group
    # with another codomain
    f = next(f for f in range(tcat.n_morphisms) if not tcat.is_identity(f))
    bf = fd.mor_map[f]
    wrong = next(
        b for b in bcat.morphisms_from[bcat.mor_dom[bf]] if bcat.mor_cod[b] != bcat.mor_cod[bf]
    )
    bad = replace(fd, mor_map=tuple(wrong if m == f else b for m, b in enumerate(fd.mor_map)))
    report = validate_fibered_functor(bad)
    typed = [m != f for m in range(tcat.n_morphisms)]
    pairs, composition = _reference_functor_composition(bad, typed)
    assert pairs == 26_755
    good = validate_fibered_functor(fd)
    assert good.ok and _reference_functor_composition(fd, [True] * len(typed)) == (pairs, [])
    # f's compatibility checks are skipped; every pair is still counted
    assert report.checked == good.checked - tot.sub_dom(f).size - tot.sub_cod(f).size
    assert list(report.violations) == [
        Violation("functor-typing", where=tcat.mor_names[f]), *composition,
    ]
    assert report.counts == {"composition_certified": 0, "pairs_walked": pairs}


def test_a_map_sent_to_another_graph_goes_through_the_pair_walk():
    from topogen.constructions import _functor_laws

    fd = builtin_functor("topgrp_le4")
    tcat, bcat = fd.total.category, fd.base.category
    # send a map to another homomorphism of its base hom-set: still typed,
    # but no longer with its own graph
    f, other = next(
        (f, b) for f, bf in enumerate(fd.mor_map) if not tcat.is_identity(f)
        for b in bcat.morphisms_from[bcat.mor_dom[bf]]
        if bcat.mor_cod[b] == bcat.mor_cod[bf] and bcat.graphs[b] != bcat.graphs[bf]
    )
    bad = replace(fd, mor_map=tuple(other if m == f else b for m, b in enumerate(fd.mor_map)))
    report = validate_fibered_functor(bad)
    typed, want = _functor_laws("functor", tcat, bcat, bad.obj_map, bad.mor_map)
    assert all(typed) and want
    assert {v.law for v in want} == {"functor-composition"}
    # the walk's violations, then f's tables against its new image's
    assert list(report.violations[:len(want)]) == want
    assert {(v.law[-len("compatibility"):], v.where) for v in report.violations[len(want):]} == {
        ("compatibility", tcat.mor_names[f])}
    assert report.counts == {"composition_certified": 0, "pairs_walked": 26_755}
    assert report.checked == validate_fibered_functor(fd).checked


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
    p = identity_endofunctor(fintop2, "pointed")
    assert validate_endofunctor(p).ok and p.e_pointed
    for t in (closure_order(fintop2), interior_order(fintop2)):
        assert induce_order(p, t) == t


def test_identity_copointed_induces_same_order(fintop2):
    q = identity_endofunctor(fintop2, "copointed")
    assert validate_endofunctor(q).ok
    for t in (closure_order(fintop2), interior_order(fintop2)):
        assert induce_order(q, t) == t


def test_constant_copointed_endofunctor_at_empty_induces_inclusion(fintop2):
    # every object goes to empty and every map to id_empty, with the counit
    # the empty map into x: each counit preimage is the bottom, so the
    # largest order making the counits continuous relates all m <= n
    cat = fintop2.category
    empty = cat.object_index("empty")
    q = Endofunctor(
        fintop2,
        "copointed",
        (empty,) * cat.n_objects,
        (cat.identities[empty],) * cat.n_morphisms,
        tuple(cat.morphism_by_graph(empty, x, ()) for x in range(cat.n_objects)),
    )
    report = validate_endofunctor(q)
    assert report.ok and report.checked == 138
    for t in (closure_order(fintop2), interior_order(fintop2)):
        assert induce_order(q, t).rel == tuple(tuple(lat.up) for lat in fintop2.sub)


def test_induce_pointed_requires_e_pointing(fintop2):
    cat = fintop2.category
    # point the endofunctor with a non-surjective unit at one object
    p = identity_endofunctor(fintop2, "pointed")
    unit = list(p.components)
    empty = cat.object_index("empty")
    pt = cat.object_index("pt")
    bad = Endofunctor(
        fintop2,
        "pointed",
        tuple(pt if x == empty else x for x in range(cat.n_objects)),
        p.mor_map,  # not a real functor, but the E-check fires first
        tuple(cat.morphism_index("empty>pt:-") if x == empty else u
              for x, u in enumerate(unit)),
    )
    with pytest.raises(PreconditionError):
        induce_order(bad, closure_order(fintop2))


def test_reflection_collapses_indiscrete_pairs():
    fib = builtin_fibration("t0_small")
    p = builtin_endofunctor("pointed", "t0", fib)
    t = builtin_order("closure", fib)
    ind = induce_order(p, t)
    x = fib.category.object_index("indiscrete2")
    lat = fib.sub[x]
    # any nonempty proper subset relates only to the whole space
    assert ind.rel[x][0b01] == 1 << 0b11
    assert ind.rel[x][0b10] == 1 << 0b11
    assert ind.rel[x][lat.bottom] == (1 << lat.size) - 1


def test_discretization_order_is_inclusion():
    fib = builtin_fibration("coreflect_small")
    q = builtin_endofunctor("copointed", "discrete", fib)
    t = builtin_order("closure", fib)
    ind = induce_order(q, t)
    for x, lat in enumerate(fib.sub):
        for m in range(lat.size):
            assert ind.rel[x][m] == lat.up[m]


def test_induced_orders_validate_and_inherit_interpolation(fintop2):
    p = builtin_endofunctor("pointed", "t0", fintop2)
    q = builtin_endofunctor("copointed", "discrete", fintop2)
    for t in (closure_order(fintop2), interior_order(fintop2)):
        ind_p = induce_order(p, t)
        ind_q = induce_order(q, t)
        assert validate_structure(ind_p).ok
        assert validate_structure(ind_q).ok
        assert is_interpolative(t)
        assert is_interpolative(ind_p)


def test_unit_continuity_of_induced_order(fintop2):
    p = builtin_endofunctor("pointed", "t0", fintop2)
    t = closure_order(fintop2)
    ind = induce_order(p, t)
    for x in range(fintop2.category.n_objects):
        ok, _ = continuity_between(p.components[x], ind, t)
        assert ok


def test_counit_continuity_of_induced_order(fintop2):
    q = builtin_endofunctor("copointed", "discrete", fintop2)
    t = closure_order(fintop2)
    ind = induce_order(q, t)
    for x in range(fintop2.category.n_objects):
        ok, _ = continuity_between(q.components[x], t, ind)
        assert ok


# ---------------------------------------------------------------------------
# induced operators


def test_identity_endofunctor_induces_same_operators(fintop2):
    p = identity_endofunctor(fintop2, "pointed")
    q = identity_endofunctor(fintop2, "copointed")
    tc = closure_order(fintop2)
    ti = interior_order(fintop2)
    base_c = closure_from_topogenous(tc)
    base_i = interior_from_topogenous(ti)
    assert induced_operator(p, tc, ClosureOperator) == base_c
    assert induced_operator(q, tc, ClosureOperator) == base_c
    assert induced_operator(p, ti, InteriorOperator) == base_i
    assert induced_operator(q, ti, InteriorOperator) == base_i


def test_reflection_order_on_three_point_example(fintop3):
    # the space with opens {}, {0,1}, {0,1,2}: its quotient identifies 0 and 1,
    # every quotient class is dense, so {0} relates only to the whole space
    from topogen.instances.topology import FinTopSpace

    sp = FinTopSpace(3, (0, 0b011, 0b111))
    x = fintop3.backend._object_of(sp)
    p = builtin_endofunctor("pointed", "t0", fintop3)
    t = builtin_order("closure", fintop3)
    ind = induce_order(p, t)
    lat = fintop3.sub[x]
    assert ind.rel[x][0b001] == 1 << 0b111
    c = induced_operator(p, t, ClosureOperator)
    assert c.cmap[x][0b001] == 0b111
    # the quotient itself is a two-point space with one open point
    quotient = spaces_of(fintop3)[p.obj_map[x]]
    assert quotient.n == 2 and len(quotient.opens) == 3


def test_induced_operators_agree_with_conversions(fintop2):
    p = builtin_endofunctor("pointed", "t0", fintop2)
    q = builtin_endofunctor("copointed", "discrete", fintop2)
    tc = closure_order(fintop2)
    ti = interior_order(fintop2)
    for endo in (p, q):
        assert induced_operator(endo, tc, ClosureOperator) == \
            closure_from_topogenous(induce_order(endo, tc))
        assert induced_operator(endo, ti, InteriorOperator) == \
            interior_from_topogenous(induce_order(endo, ti))


def _reference_closure(endo, t):
    """The closure induced from a meet-preserving order, written out:
    u^{-1}(c(u m)) along a unit u, m ∨ e(c(e^{-1} m)) along a counit e."""
    fib = t.fib
    base = closure_from_topogenous(t)
    cmap = []
    for x, lx in enumerate(fib.sub):
        c = endo.components[x]
        img_c, pre_c = fib.img[c], fib.pre[c]
        c_fx = base.cmap[endo.obj_map[x]]
        if endo.pointed:
            cmap.append(tuple(pre_c[c_fx[img_c[m]]] for m in range(lx.size)))
        else:
            cmap.append(tuple(lx.join(m, img_c[c_fx[pre_c[m]]]) for m in range(lx.size)))
    return ClosureOperator(fib, tuple(cmap))


def _reference_interior(endo, t):
    """The interior induced from a join-preserving order, written out:
    u^{-1}(i(u_* m)) along a unit u, m ∧ e_*(i(e^{-1} m)) along a counit e,
    with f_* the right adjoint of f^{-1}."""
    fib = t.fib
    base = interior_from_topogenous(t)
    imap = []
    for x, lx in enumerate(fib.sub):
        c = endo.components[x]
        star, pre_c = fib.fstar[c], fib.pre[c]
        i_fx = base.imap[endo.obj_map[x]]
        if endo.pointed:
            imap.append(tuple(pre_c[i_fx[star[m]]] for m in range(lx.size)))
        else:
            imap.append(tuple(lx.meet(m, star[i_fx[pre_c[m]]]) for m in range(lx.size)))
    return InteriorOperator(fib, tuple(imap))


_REFERENCES = {ClosureOperator: ("meet", _reference_closure),
               InteriorOperator: ("join", _reference_interior)}
_ENDOFUNCTOR_NAMES = {"pointed": "t0", "copointed": "discrete"}


@pytest.mark.parametrize("name,sides,cases", [
    ("fintop1", ("pointed", "copointed"), 8),
    ("t0_small", ("pointed",), 6),
    ("coreflect_small", ("pointed", "copointed"), 24),
    ("disc2_loop", ("pointed", "copointed"), 12),
    ("fintop2", ("pointed", "copointed"), 28),
    ("fintop3", ("pointed", "copointed"), 44),
])
def test_induced_operator_matches_the_reference_formulas(name, sides, cases):
    """On every meet-preserving (closure) and join-preserving (interior)
    order, under each built-in endofunctor the fibration is closed under,
    ``induced_operator`` equals its kind's formula written out on its own
    and the conversion of the induced order."""
    fib = builtin_fibration(name)
    endos = [builtin_endofunctor(side, _ENDOFUNCTOR_NAMES[side], fib) for side in sides]
    seen = 0
    for structure_class, (prop, reference) in _REFERENCES.items():
        convert = CORRESPONDENCE[structure_class][1]
        for t in enumerate_structures(EnumerationSpec(fib, "topogenous", prop_filter=prop)):
            for endo in endos:
                op = induced_operator(endo, t, structure_class)
                assert op == reference(endo, t), (structure_class.kind, endo.side)
                assert op == convert(induce_order(endo, t)), (structure_class.kind, endo.side)
                seen += 1
    assert seen == cases


def test_induced_interior_needs_the_right_adjoint_of_each_unit_preimage(fintop2):
    p = builtin_endofunctor("pointed", "t0", fintop2)
    x = fintop2.category.object_index("indiscrete2")
    unit = p.components[x]
    fib = copy.copy(fintop2)
    fib.fstar = tuple(None if f == unit else star for f, star in enumerate(fintop2.fstar))
    t = TopogenousOrder(fib, interior_order(fintop2).rel)
    p_copy = replace(p, fib=fib)
    with pytest.raises(PreconditionError, match="unit at indiscrete2 has no right adjoint"):
        induced_operator(p_copy, t, InteriorOperator)
    # the closure reads images, which every unit has
    tc = closure_order(fintop2)
    assert induced_operator(p_copy, TopogenousOrder(fib, tc.rel), ClosureOperator).cmap == \
        induced_operator(p, tc, ClosureOperator).cmap


def test_pointed_closure_idempotent_for_interpolative_base(fintop2):
    p = builtin_endofunctor("pointed", "t0", fintop2)
    t = closure_order(fintop2)
    c = induced_operator(p, t, ClosureOperator)
    assert validate_structure(c).ok
    assert is_idempotent(c)


def test_pointed_interior_idempotent_for_interpolative_base(fintop2):
    p = builtin_endofunctor("pointed", "t0", fintop2)
    t = interior_order(fintop2)
    i = induced_operator(p, t, InteriorOperator)
    assert validate_structure(i).ok
    assert p.e_pointed
    assert is_idempotent(i)


def test_induced_closure_needs_meet_preservation(fintop2):
    p = builtin_endofunctor("pointed", "t0", fintop2)
    empty = TopogenousOrder(fintop2, tuple(tuple(0 for _ in range(lat.size)) for lat in fintop2.sub))
    with pytest.raises(PreconditionError):
        induced_operator(p, empty, ClosureOperator)


# ---------------------------------------------------------------------------
# extremality


def test_extremality_family_of_one():
    fib = builtin_fibration("t0_small")
    p = identity_endofunctor(fib, "pointed")
    t = discrete_order(fib)   # the largest order: only itself can contain it
    ind = induce_order(p, t)
    assert ind == t
    report = check_extremality(ind, p, t, "least", "identity-setting")
    assert report.ok
    assert report.checked == 1


def test_pointed_least_order_by_enumeration():
    fib = builtin_fibration("t0_small")
    p = builtin_endofunctor("pointed", "t0", fib)
    for kind in ("closure", "interior"):
        t = builtin_order(kind, fib)
        ind = induce_order(p, t)
        report = check_extremality(ind, p, t, "least", kind)
        assert report.ok, report.render()
        assert report.checked >= 1


def test_copointed_largest_order_by_enumeration():
    fib = builtin_fibration("coreflect_small")
    q = builtin_endofunctor("copointed", "discrete", fib)
    for kind in ("closure", "interior"):
        t = builtin_order(kind, fib)
        ind = induce_order(q, t)
        report = check_extremality(ind, q, t, "largest", kind)
        assert report.ok, report.render()


def test_closure_extremality_by_enumeration():
    fib = builtin_fibration("t0_small")
    p = builtin_endofunctor("pointed", "t0", fib)
    t = builtin_order("closure", fib)
    c = induced_operator(p, t, ClosureOperator)
    report = check_extremality(c, p, closure_from_topogenous(t), "largest", "pointed")
    assert report.ok, report.render()

    fibc = builtin_fibration("coreflect_small")
    q = builtin_endofunctor("copointed", "discrete", fibc)
    tc = builtin_order("closure", fibc)
    cc = induced_operator(q, tc, ClosureOperator)
    report = check_extremality(cc, q, closure_from_topogenous(tc), "least", "copointed")
    assert report.ok, report.render()


def test_interior_extremality_by_enumeration():
    fib = builtin_fibration("t0_small")
    p = builtin_endofunctor("pointed", "t0", fib)
    t = builtin_order("interior", fib)
    i = induced_operator(p, t, InteriorOperator)
    report = check_extremality(i, p, interior_from_topogenous(t), "least", "pointed")
    assert report.ok, report.render()

    fibc = builtin_fibration("coreflect_small")
    q = builtin_endofunctor("copointed", "discrete", fibc)
    tc = builtin_order("interior", fibc)
    ic = induced_operator(q, tc, InteriorOperator)
    report = check_extremality(ic, q, interior_from_topogenous(tc), "largest", "copointed")
    assert report.ok, report.render()


def test_extremality_detects_non_extremal_candidates():
    fib = builtin_fibration("coreflect_small")
    q = builtin_endofunctor("copointed", "discrete", fib)
    t = builtin_order("closure", fib)
    smaller = induce_order(q, t)
    # feed something that is in the family but not largest: the base order
    report = check_extremality(t, q, t, "largest", "bogus")
    assert t != smaller
    # each violator is named by the first entry it has and the candidate
    # lacks, never by its text, which held a memory address
    assert [(v.law, v.witness) for v in report.violations] == [
        ("not-largest", ("sierpinski", "{1}", "{1}"))] * 2
    assert "0x" not in report.render()


def test_naturality_violation_is_reported(fintop2):
    p = builtin_endofunctor("pointed", "t0", fintop2)
    cat = fintop2.category
    # swap the unit at discrete2 for a non-natural morphism of the same type
    x = cat.object_index("discrete2")
    other = cat.morphism_index("discrete2>discrete2:10")
    unit = list(p.components)
    unit[x] = other
    bad = Endofunctor(fintop2, "pointed", p.obj_map, p.mor_map, tuple(unit))
    report = validate_endofunctor(bad)
    assert not report.ok
    assert any(v.law == "unit-naturality" for v in report.violations)
