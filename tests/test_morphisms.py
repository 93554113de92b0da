import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest

from topogen.errors import CapabilityError, InternalConsistencyError, PreconditionError
from topogen.morphisms import (
    FACTS,
    LAWS,
    ROLES,
    MorphismClassification,
    check_class_calculus,
    check_pullback_transfer,
    check_strict_transfer,
    class_flags,
    classifications,
    classify,
    classify_map,
    closure_classes,
    continuity_equivalents,
    crosscheck_operator_classes,
    interior_classes,
    morphism_facts,
    strict_subobjects,
    transfer_laws,
    weakly_final_formulas,
)
from topogen.lattice import mask_iter
from topogen.reporting import Report, Violation
from topogen.site import (
    PullbackSquare, SubobjectFibration, carried, check_bcp, pullback, symmetry,
)
from topogen.structures import (
    TopogenousOrder, closure_from_topogenous, plan_of, validate_structure,
)
from topogen.instances.topology import closure_order, interior_order, map_predicates
from topogen.instances.registry import builtin_fibration, builtin_order
from test_site import _forgeries, _without, composable_pairs
from test_structures import _reference_report


def test_identity_is_in_every_class(fintop2):
    t = closure_order(fintop2)
    cls = classify(fintop2.category.morphism_index("id_sierpinski"), t)
    assert cls.continuous and cls.strict and cls.final
    assert cls.costrict and cls.initial and cls.weakly_final
    assert cls.costrict is not None


def test_every_morphism_is_continuous(fintop2):
    for t in (closure_order(fintop2), interior_order(fintop2)):
        for f in range(fintop2.category.n_morphisms):
            assert classify(f, t).continuous


def test_continuity_renderings_agree_on_identity(fintop2):
    t = closure_order(fintop2)
    assert continuity_equivalents(
        fintop2.category.morphism_index("id_discrete2"), t
    ) == (True, True, True)


def _holds(t, x, m, n):
    """Whether m ⊏ n in sub x under the order t."""
    return bool(t.rel[x][m] >> n & 1)


def _brute_force_renderings(t, f):
    fib = t.fib
    img, pre, fstar = fib.img[f], fib.pre[f], fib.fstar[f]
    x, y = fib.dom(f), fib.cod(f)
    nx, ny = fib.sub[x].size, fib.sub[y].size
    form1 = all(
        not _holds(t, y, m, n) or _holds(t, x, pre[m], pre[n])
        for m in range(ny) for n in range(ny)
    )
    form2 = all(
        not _holds(t, y, m, fstar[n]) or _holds(t, x, pre[m], n)
        for m in range(ny) for n in range(nx)
    )
    form3 = all(
        not _holds(t, y, img[m], fstar[n]) or _holds(t, x, m, n)
        for m in range(nx) for n in range(nx)
    )
    return form1, form2, form3


# Oracles for the row equalities of ``morphisms._classifier``: one hand-written
# double loop per class, sharing no code with it.


def _is_strict(t: TopogenousOrder, f: int) -> bool:
    fib = t.fib
    img, pre = fib.img[f], fib.pre[f]
    relx, rely = t.rel[fib.dom(f)], t.rel[fib.cod(f)]
    for m in range(len(relx)):
        row_y = rely[img[m]]
        row_x = relx[m]
        for p in range(len(rely)):
            if (row_y >> p & 1) != (row_x >> pre[p] & 1):
                return False
    return True


def _is_final(t: TopogenousOrder, f: int) -> bool:
    fib = t.fib
    pre = fib.pre[f]
    relx, rely = t.rel[fib.dom(f)], t.rel[fib.cod(f)]
    for m in range(len(rely)):
        row_x = relx[pre[m]]
        for n in range(len(rely)):
            if (rely[m] >> n & 1) != (row_x >> pre[n] & 1):
                return False
    return True


def _is_costrict(t: TopogenousOrder, f: int) -> bool:
    fib = t.fib
    pre, fstar = fib.pre[f], fib.fstar[f]
    relx, rely = t.rel[fib.dom(f)], t.rel[fib.cod(f)]
    for m in range(len(rely)):
        row_y = rely[m]
        row_x = relx[pre[m]]
        for n in range(len(relx)):
            if (row_y >> fstar[n] & 1) != (row_x >> n & 1):
                return False
    return True


def _is_initial(t: TopogenousOrder, f: int) -> bool:
    fib = t.fib
    img, fstar = fib.img[f], fib.fstar[f]
    relx, rely = t.rel[fib.dom(f)], t.rel[fib.cod(f)]
    for m in range(len(relx)):
        row_y = rely[img[m]]
        row_x = relx[m]
        for n in range(len(relx)):
            if (row_y >> fstar[n] & 1) != (row_x >> n & 1):
                return False
    return True


def _is_weakly_final(t: TopogenousOrder, f: int) -> bool:
    # for m <= n in sub Y, preimages related implies m ⊏ n
    fib = t.fib
    pre = fib.pre[f]
    ly = fib.sub_cod(f)
    relx, rely = t.rel[fib.dom(f)], t.rel[fib.cod(f)]
    for m in range(ly.size):
        row_x = relx[pre[m]]
        for n in mask_iter(ly.up[m]):
            if row_x >> pre[n] & 1 and not rely[m] >> n & 1:
                return False
    return True


def _oracle_classification(t, f):
    has_fstar = t.fib.fstar[f] is not None
    return MorphismClassification(
        continuous=t.law_holds(f),
        strict=_is_strict(t, f),
        final=_is_final(t, f),
        costrict=_is_costrict(t, f) if has_fstar else None,
        initial=_is_initial(t, f) if has_fstar else None,
        weakly_final=_is_weakly_final(t, f),
    )


@pytest.mark.parametrize("fib_name, kinds", [
    ("fintop2", ("closure", "interior", "leq")),
    ("fintop3", ("closure", "interior")),
    ("grp_small", ("grp_normal",)),
    ("grp_le8", ("grp_normal",)),
])
def test_classify_matches_the_per_class_deciders(fib_name, kinds):
    fib = builtin_fibration(fib_name)
    for kind in kinds:
        t = builtin_order(kind, fib)
        for f in range(fib.category.n_morphisms):
            assert classify(f, t) == _oracle_classification(t, f), (kind, f)


def _orders_to_classify(tmp_path):
    """Every topogenous order of the small built-ins, the suite's medium
    orders, the built-in orders of a seeded ``spaces:`` fibration, perturbed
    relations on fintop2, which are mostly not orders, and fintop2's orders
    on a copy with moved image tables."""
    from test_harness import SMALL_FIBRATIONS
    from test_instances import _seeded_spaces_fibration
    from topogen.site import SubobjectFibration

    for name in SMALL_FIBRATIONS:
        fib = builtin_fibration(name)
        for rel in plan_of(fib, TopogenousOrder).orders.tables():
            yield TopogenousOrder(fib, rel)
    for name, kinds in (("fintop3", ("closure", "interior")), ("grp_le8", ("grp_normal",))):
        yield from (builtin_order(kind, builtin_fibration(name)) for kind in kinds)
    seeded = _seeded_spaces_fibration(tmp_path, 7)
    yield from (builtin_order(kind, seeded) for kind in ("closure", "interior", "leq"))
    fib = builtin_fibration("fintop2")
    yield from _perturbed_orders(fib, 100, seed=37)
    # image tables reversed on the maps out of every other object: f_* no
    # longer determines the image, as it does for every space fibration
    moved = SubobjectFibration(
        fib.category, fib.sub,
        [img[::-1] if x % 2 else img for img, x in zip(fib.img, fib.category.mor_dom)],
        fib.pre, fib.eclass, fib.mclass, fstar=fib.fstar, name="moved-images",
    )
    yield from (
        TopogenousOrder(moved, builtin_order(kind, fib).rel) for kind in ("closure", "interior"))


def test_classifications_match_the_oracle_on_every_morphism(tmp_path):
    seen = set()
    for t in _orders_to_classify(tmp_path):
        expected = tuple(_oracle_classification(t, f) for f in range(t.fib.category.n_morphisms))
        assert classifications(t) == expected, t.fib.name
        f = len(expected) // 2
        assert classify(f, t) == expected[f], t.fib.name
        for cls in expected:
            seen.update(enumerate((cls.continuous, *class_flags(cls), cls.weakly_final)))
    # every flag is seen holding and failing, and co-strict and initial not applicable
    assert seen == {(k, b) for k in range(6) for b in (True, False)} | {(3, None), (4, None)}


def test_every_classification_is_the_shared_record_of_its_flags():
    # a classification is a value: classifications, classify and
    # classify_map return the one record of its flags, equal to the oracle's
    from test_harness import SMALL_FIBRATIONS

    records, flags = set(), set()
    for name in SMALL_FIBRATIONS:
        fib = builtin_fibration(name)
        cat = fib.category
        maps = list(zip(cat.mor_dom, cat.mor_cod, cat.graphs))
        for rel in plan_of(fib, TopogenousOrder).orders.tables():
            t = TopogenousOrder(fib, rel)
            for f, (cls, (x, y, graph)) in enumerate(zip(classifications(t), maps)):
                assert cls is classify(f, t) is classify_map(t, x, y, graph), (name, f)
                assert cls == _oracle_classification(t, f), (name, f)
                records.add(id(cls))
                flags.add(cls)
    # one record per flag tuple seen
    assert len(records) == len(flags) > 2


def _untabulated_twin(name):
    """A fresh built-in ``name`` whose maps are not yet tabulated."""
    from topogen.instances import registry

    return registry._untabulated_builtin(name)


def _assert_one_map_path_matches(fib, twin, orders):
    """For every map of ``fib`` and every order, ``classify_map`` on the
    tabulated ``fib`` and on its untabulated ``twin`` equals the map's entry
    of ``classifications``; each of the twin's hom-sets names its maps as
    ``fib`` does, and no other graph; the twin stays untabulated."""
    from topogen.site import FiniteCategory, SubobjectFibration

    cat = fib.category
    maps = list(zip(cat.mor_dom, cat.mor_cod, cat.graphs))
    sizes = [len(cat.graphs[i]) for i in cat.identities]
    for x, y in itertools.product(range(cat.n_objects), repeat=2):
        for graph in itertools.product(range(sizes[y]), repeat=sizes[x]):
            assert twin.category.morphism_name(x, y, graph) == cat.morphism_name(x, y, graph)
    for t in orders:
        on_twin = TopogenousOrder(twin, t.rel)
        for expected, (x, y, graph) in zip(classifications(t), maps):
            assert classify_map(t, x, y, graph) is expected
            assert classify_map(on_twin, x, y, graph) is expected, (fib.name, x, y, graph)
    assert type(twin) is not SubobjectFibration and type(twin.category) is not FiniteCategory


@pytest.mark.parametrize("name, n_orders", [
    ("fintop2", 11), ("grp_small", 31), ("t0_small", 6), ("disc2_loop", 6), ("coreflect_small", 9),
])
def test_one_map_classification_matches_every_order(name, n_orders):
    fib = builtin_fibration(name)
    orders = [TopogenousOrder(fib, rel) for rel in plan_of(fib, TopogenousOrder).orders.tables()]
    assert len(orders) == n_orders
    _assert_one_map_path_matches(fib, _untabulated_twin(name), orders)
    if name == "grp_small":  # the generic f_* is missing on some maps
        assert any(cls.initial is None for cls in classifications(orders[0]))


@pytest.mark.parametrize("seed", [3, 7])
def test_one_map_classification_matches_on_three_space_files(tmp_path, seed):
    from test_instances import _seeded_spaces_fibration

    fib = _seeded_spaces_fibration(tmp_path, seed)
    orders = [builtin_order(kind, fib) for kind in ("closure", "interior")]
    _assert_one_map_path_matches(fib, _seeded_spaces_fibration(tmp_path, seed), orders)


def _perturbed_orders(fib, n, seed):
    """``n`` relations made by flipping one to three random bits of a valid
    order: mostly not topogenous orders, yet close enough that every class
    holds on some morphism."""
    rng = random.Random(seed)
    bases = [builtin_order(kind, fib).rel for kind in ("closure", "interior", "leq")]
    for _ in range(n):
        rel = [list(rows) for rows in rng.choice(bases)]
        for _ in range(rng.randint(1, 3)):
            x = rng.randrange(len(rel))
            size = len(rel[x])
            rel[x][rng.randrange(size)] ^= 1 << rng.randrange(size)
        yield TopogenousOrder(fib, tuple(map(tuple, rel)))


def test_rows_match_the_deciders_and_renderings_off_valid_orders(fintop2):
    seen = set()
    invalid = 0
    for t in _perturbed_orders(fintop2, 300, seed=20):
        invalid += not validate_structure(t).ok
        for f in range(fintop2.category.n_morphisms):
            cls = classify(f, t)
            assert cls == _oracle_classification(t, f), f
            seen.update(enumerate((*class_flags(cls), cls.weakly_final)))
            expected = _brute_force_renderings(t, f)
            try:
                assert continuity_equivalents(f, t) == expected
            except InternalConsistencyError as exc:
                assert str(expected) in str(exc)
    assert invalid > 250
    # every class, and weak finality, is seen both holding and failing
    assert seen >= {(k, b) for k in range(5) for b in (True, False)}


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


def _coarse_rows(lat):
    """The coarsest order on a lattice: m ⊏ n iff m is the bottom or n the top."""
    return tuple(lat.up[m] if m == lat.bottom else 1 << lat.top for m in range(lat.size))


@pytest.mark.parametrize("name,kinds", [
    ("fintop3", ("closure", "interior")), ("grp_le8", ("grp_normal", "leq")),
])
def test_classify_continuity_is_the_law_on_every_morphism(name, kinds):
    # classify reads continuity off the rows it pulls back; the law reads
    # the order's rows bit by bit.  The mixed order, the first order on the
    # even objects and the coarsest on the odd ones, makes maps discontinuous
    fib = builtin_fibration(name)
    first = builtin_order(kinds[0], fib)
    mixed = TopogenousOrder(fib, tuple(
        _coarse_rows(lat) if x % 2 else rows
        for x, (lat, rows) in enumerate(zip(fib.sub, first.rel))
    ))
    seen = set()
    for t in (first, builtin_order(kinds[1], fib), mixed):
        for f in range(fib.category.n_morphisms):
            continuous = classify(f, t).continuous
            assert continuous == t.law_holds(f), fib.category.mor_names[f]
            seen.add(continuous)
    assert seen == {True, False}


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
        assert check_strict_transfer(t).ok
    assert check_strict_transfer(builtin_order("grp_normal", grp_small)).ok


def test_class_calculus_on_builtins(fintop2, grp_small):
    for t in (closure_order(fintop2), interior_order(fintop2)):
        assert check_class_calculus(fintop2, t).ok
    assert check_class_calculus(grp_small, builtin_order("grp_normal", grp_small)).ok


def test_class_calculus_vacuous_on_one_object_category():
    from topogen.lattice import FiniteLattice
    from topogen.site import FiniteCategory, SubobjectFibration
    from topogen.structures import discrete_order

    cat = FiniteCategory(("x",), (0,), (0,), ("id_x",), (0,), graphs=((0,),))
    lat = FiniteLattice.powerset(1)
    ident = tuple(range(lat.size))
    fib = SubobjectFibration(cat, (lat,), (ident,), (ident,), frozenset({0}), frozenset({0}))
    report = check_class_calculus(fib, discrete_order(fib))
    assert report.ok


# The class calculus and pullback transfer as if-chains, one hand-written
# test per law: the reference for the table ``morphisms.LAWS`` and its
# readers.  ``_reference_class_calculus`` takes the classifications as given.

_CLASSES = ("strict", "final", "costrict", "initial")


def _reference_class_calculus(fib, cache):
    cat = fib.category
    violations = []
    checked = 0
    isos = cat.isomorphisms()

    for f in isos:
        cls = cache[f]
        checked += 1
        for kind, flag in zip(_CLASSES, class_flags(cls)):
            if flag is False:
                violations.append(
                    Violation(f"iso-{kind}", where=cat.mor_names[f])
                )

    stable = fib.e_pullback_stable
    for g, f in composable_pairs(cat):
        h = cat.compose(g, f)
        cf, cg, ch = cache[f], cache[g], cache[h]
        pair = (cat.mor_names[g], cat.mor_names[f])
        checked += 1
        for kind, a, b, c in zip(_CLASSES, class_flags(cf), class_flags(cg), class_flags(ch)):
            # composition closure
            if a is True and b is True and c is False:
                violations.append(Violation(f"compose-{kind}", witness=pair))
            # left cancellation: initial fully, the others along M
            if kind == "initial":
                if c is True and a is False:
                    violations.append(Violation("left-cancel-initial", witness=pair))
            elif c is True and g in fib.mclass and a is False:
                violations.append(Violation(f"left-cancel-{kind}-along-m", witness=pair))
            # right cancellation: final fully, the others along stable E
            if kind == "final":
                if c is True and b is False:
                    violations.append(Violation("right-cancel-final", witness=pair))
            elif stable and c is True and f in fib.eclass and b is False:
                violations.append(Violation(f"right-cancel-{kind}-along-e", witness=pair))
        # split pairs: g∘f an identity makes f initial, and g final when g in E
        if cat.is_identity(h):
            if cf.initial is False:
                violations.append(Violation("section-initial", witness=pair))
            if g in fib.eclass and cg.final is False:
                violations.append(Violation("retraction-final", witness=pair))

    for f in range(cat.n_morphisms):
        cls = cache[f]
        name = cat.mor_names[f]
        in_m, in_e = f in fib.mclass, f in fib.eclass
        checked += 1
        if in_m and cls.costrict is True and cls.initial is False:
            violations.append(Violation("costrict-in-m-initial", where=name))
        if stable and in_e and cls.initial is True and cls.costrict is False:
            violations.append(Violation("initial-in-e-costrict", where=name))
        if in_m and cls.strict and cls.initial is False:
            violations.append(Violation("strict-in-m-initial", where=name))
        if stable and in_e and cls.strict and not cls.final:
            violations.append(Violation("strict-in-e-final", where=name))
        if in_m and cls.final and not cls.strict:
            violations.append(Violation("final-in-m-strict", where=name))
        if stable and in_e and cls.costrict is True and not cls.final:
            violations.append(Violation("costrict-in-e-final", where=name))
        # weak finality coincides with finality on stable E
        if stable and in_e and cls.weakly_final != cls.final:
            violations.append(Violation("weak-final-vs-final-in-e", where=name))
    return Report("class-calculus", checked, tuple(violations))


def _reference_transfer_laws(c_f_prime, c_p, c_p_prime, c_f):
    laws = []
    if c_p_prime.initial is True:
        laws.extend(
            f"ascent-{kind}"
            for kind, a, b in zip(_CLASSES, class_flags(c_f), class_flags(c_f_prime))
            if a is True and b is False
        )
    if c_p.final:
        laws.extend(
            f"descent-{kind}"
            for kind, a, b in zip(_CLASSES, class_flags(c_f_prime), class_flags(c_f))
            if a is True and b is False
        )
    return tuple(laws)


_SUITE_ORDERS = (("fintop2", "closure"), ("fintop2", "interior"), ("grp_small", "grp_normal"))


def _forged(classifications):
    """Each class flag flipped on its own stride of morphisms, and co-strict
    and initial made not applicable on every seventh."""
    out = []
    for f, c in enumerate(classifications):
        flips = {
            k: not v for stride, (k, v) in enumerate(zip(_CLASSES, class_flags(c)), 3)
            if f % stride == 1 and v is not None
        }
        c = replace(c, **flips)
        if f % 7 == 2:
            c = replace(c, costrict=None, initial=None)
        out.append(c)
    return out


def _unstable_copy(fib):
    """``fib`` with E declared not pullback-stable: gated and raw E differ."""
    from topogen.site import SubobjectFibration

    return SubobjectFibration(
        fib.category, fib.sub, fib.img, fib.pre, fib.eclass, fib.mclass,
        e_pullback_stable=False, fstar=fib.fstar, backend=fib.backend, name="unstable",
    )


def test_class_calculus_matches_the_reference_if_chains(monkeypatch):
    import topogen.morphisms as morphisms

    laws = set()
    for fib_name, kind in _SUITE_ORDERS:
        fib = builtin_fibration(fib_name)
        t = builtin_order(kind, fib)
        real = [classify(f, t) for f in range(fib.category.n_morphisms)]
        forged = _forged(real)
        # one E-morphism final but not weakly final
        e = min(fib.eclass)
        forged[e] = replace(forged[e], final=True, weakly_final=False)
        for classes in (real, forged):
            monkeypatch.setattr(morphisms, "classifications", lambda t: tuple(classes))
            for fibration in (fib, _unstable_copy(fib)):
                report = check_class_calculus(fibration, t)
                expected = _reference_class_calculus(fibration, classes)
                assert (report.checked, report.violations) == (
                    expected.checked, expected.violations), (fib_name, kind, fibration.name)
                laws.update(v.law for v in report.violations)
    # the forged classifications break every law
    assert laws == {law for scope in ("iso", "pair", "morphism") for law, _, _ in LAWS[scope]}


def test_transfer_laws_match_the_reference_on_every_flag_combination():
    from itertools import product

    base = MorphismClassification(True, True, True, True, True, True)
    roles = [
        replace(base, strict=s, final=f, costrict=c, initial=i)
        for s, f in product((True, False), repeat=2)
        for c, i in (*product((True, False), repeat=2), (None, None))
    ]
    laws = set()
    for classes in product(roles, repeat=4):
        found = transfer_laws(*classes)
        assert found == _reference_transfer_laws(*classes), classes
        laws.update(found)
    assert len(laws) == 8


def _premise_hits(scope, facts_of_roles):
    """How often each law of the scope has every premise True."""
    hits = Counter()
    for facts in facts_of_roles:
        at = dict(zip(ROLES[scope], facts))
        for law, premises, _ in LAWS[scope]:
            hits[law] += all(at[r][FACTS.index(x)] is True for r, x in premises)
    return hits


def test_every_class_calculus_law_has_premises_that_hold():
    hits = Counter()
    for fib_name, kind in _SUITE_ORDERS:
        fib = builtin_fibration(fib_name)
        t = builtin_order(kind, fib)
        cat = fib.category
        facts = [morphism_facts(fib, f, classify(f, t)) for f in range(cat.n_morphisms)]
        hits += _premise_hits("iso", ([facts[f]] for f in cat.isomorphisms()))
        hits += _premise_hits("pair", (
            [facts[f], facts[g], facts[cat.compose(g, f)]] for g, f in composable_pairs(cat)))
        hits += _premise_hits("morphism", ([row] for row in facts))
    laws = {law for scope in ("iso", "pair", "morphism") for law, _, _ in LAWS[scope]}
    assert len(laws) == 25
    assert {law for law in laws if hits[law] == 0} == set()


def test_every_transfer_law_has_premises_that_hold(fintop2):
    cat = fintop2.category
    hits = Counter()
    for t in (closure_order(fintop2), interior_order(fintop2)):
        flags = [class_flags(classify(f, t)) for f in range(cat.n_morphisms)]
        for p in sorted(fintop2.eclass | fintop2.mclass):
            for f in cat.morphisms_to[cat.mor_cod[p]]:
                try:
                    sq = pullback(fintop2, f, p)
                except CapabilityError:
                    continue
                square = (sq.f_prime, sq.p, sq.p_prime, sq.f)
                hits += _premise_hits("square", [[flags[m] for m in square]])
    assert len(LAWS["square"]) == 8
    assert {law for law, _, _ in LAWS["square"] if hits[law] == 0} == set()


def test_pullback_transfer_on_identity_square(fintop2):
    i = fintop2.category.morphism_index("id_sierpinski")
    sq = PullbackSquare(fintop2, f_prime=i, p=i, p_prime=i, f=i)
    assert check_bcp(sq).bcp_equality
    c = classify(i, closure_order(fintop2))
    assert transfer_laws(c, c, c, c) == ()


def test_pullback_transfer_counts_squares_without_the_bcp_equality(fintop2, monkeypatch):
    import topogen.morphisms as morphisms
    from topogen.site import BcpResult

    classifications = _closure_classifications(fintop2)
    real = check_pullback_transfer(fintop2, classifications)
    assert real.ok and real.checked == 505
    # a failed equality is used as is, even on squares that have it: no
    # transfer law is read, and the squares are counted apart from checked
    monkeypatch.setattr(
        morphisms, "check_bcp", lambda sq: BcpResult(True, False, ("{}", "equality"))
    )
    monkeypatch.setattr(morphisms, "transfer_laws", lambda *classes: ("probe",))
    report = check_pullback_transfer(fintop2, classifications)
    assert (report.checked, report.violations) == (0, ())
    assert report.skipped == (
        *real.skipped, "fintop2: 505 squares without the Beck-Chevalley equality")


def test_pullback_transfer_fails_ascent_on_forged_classes(fintop2):
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
        cls = [classify(f, t) for f in range(cat.n_morphisms)]
        for sq in squares:
            c_f_prime, *rest = (cls[m] for m in (sq.f_prime, sq.p, sq.p_prime, sq.f))
            assert transfer_laws(c_f_prime, *rest) == ()
            # f' forced into no class, so that ascent can fail
            forged = replace(c_f_prime, strict=False, final=False, costrict=False, initial=False)
            violated += transfer_laws(forged, *rest) != ()
    assert violated > 0


def _per_square_sweep(fib, classifications):
    """The sweep without memos: check_bcp and transfer_laws per square.  A
    cospan whose fibre relation has more points than the backend's budget is
    refused before anything is built; one whose pullback then raises has a
    corner that is not an object."""
    cat = fib.category
    violations = []
    checked = budget = no_corner = no_bcp = 0
    for p in sorted(fib.eclass | fib.mclass):
        for f in cat.morphisms_to[cat.mor_cod[p]]:
            if len(_fibre_relation(cat, f, p)) > fib.backend.max_points:
                budget += 1
                continue
            try:
                sq = pullback(fib, f, p)
            except CapabilityError:
                no_corner += 1
                continue
            bcp = check_bcp(sq)
            if not bcp.lemma_inequality_holds:
                checked += 1
                violations.append(Violation(
                    "image-preimage-inequality", where=f"{fib.name}:{cat.mor_names[f]}"))
            elif not bcp.bcp_equality:
                no_bcp += 1
            else:
                checked += 1
                for cls in classifications.values():
                    laws = transfer_laws(cls[sq.f_prime], cls[sq.p], cls[sq.p_prime], cls[f])
                    violations.extend(Violation(law, where=sq.name) for law in laws)
    skipped = tuple(f"{fib.name}: {n} squares {cause}" for n, cause in (
        (budget, "beyond point budget"), (no_corner, "whose pullback corner is not an object"),
        (no_bcp, "without the Beck-Chevalley equality"),
    ) if n)
    return checked, tuple(violations), skipped


def test_memoised_sweep_matches_per_square_checks(fintop2):
    cat = fintop2.category
    orders = {"closure": closure_order(fintop2), "interior": interior_order(fintop2)}
    real = {
        kind: tuple(classify(f, t) for f in range(cat.n_morphisms)) for kind, t in orders.items()
    }
    # every fifth morphism forced into no class, so that ascent and descent fail
    forged = {
        kind: tuple(
            replace(c, strict=False, final=False, costrict=False, initial=False)
            if f % 5 == 2 else c
            for f, c in enumerate(cls)
        )
        for kind, cls in real.items()
    }
    # one preimage entry moved, so that some squares lose the Beck-Chevalley
    # inequality and some only the equality
    broken = _moved_preimage(fintop2, "pt>discrete2:0", (0, 0, 0, 1))
    # one preimage entry of a map that is f in some squares moved: a verdict
    # keyed without pre f would give those squares the intact map's verdict
    broken_f = _moved_preimage(fintop2, "sierpinski>indiscrete2:00", (0, 0, 0, 3))
    # every fifth morphism forced into every class in one order, the other
    # order real: a verdict keyed without either order's flags of f, p, f'
    # or p' would miss or invent violations
    promoted = {
        kind: tuple(
            replace(c, strict=True, final=True, costrict=True, initial=True)
            if f % 5 == 2 else c
            for f, c in enumerate(cls)
        )
        for kind, cls in real.items()
    }
    closure_forged = {"closure": promoted["closure"], "interior": real["interior"]}
    interior_forged = {"closure": real["closure"], "interior": promoted["interior"]}
    for fib, classifications, found in (
        (fintop2, real, set()),
        (fintop2, forged, {"ascent", "descent"}),
        (fintop2, closure_forged, {"ascent", "descent"}),
        (fintop2, interior_forged, {"ascent", "descent"}),
        (broken, forged, {"ascent", "descent", "image"}),
        (broken_f, real, {"image"}),
    ):
        checked, violations, skipped = _per_square_sweep(fib, classifications)
        swept = check_pullback_transfer(fib, classifications)
        assert (swept.checked, swept.violations, swept.skipped) == (checked, violations, skipped)
        assert checked > 400
        assert {v.law.split("-")[0] for v in violations} == found
        # only the broken tables lose the equality, on some squares
        assert len(skipped) == 1 + (fib is not fintop2)


def _moved_preimage(fib, name, table):
    """``fib`` with the preimage table of morphism ``name`` replaced."""
    from topogen.site import SubobjectFibration

    pre = list(fib.pre)
    pre[fib.category.morphism_index(name)] = table
    return SubobjectFibration(
        fib.category, fib.sub, fib.img, pre, fib.eclass, fib.mclass,
        fstar=fib.fstar, backend=fib.backend, name="broken",
    )


def test_operator_crosschecks_on_fintop2(fintop2):
    for t in (closure_order(fintop2), interior_order(fintop2)):
        assert crosscheck_operator_classes(t).ok


def test_operator_crosschecks_gated_on_join_commuting_preimages(grp_small):
    t = builtin_order("grp_normal", grp_small)
    assert not grp_small.preimage_join_commuting()
    with pytest.raises(PreconditionError):
        crosscheck_operator_classes(t)


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
        assert weakly_final_formulas(t).ok
    assert weakly_final_formulas(builtin_order("grp_normal", grp_small)).ok


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
    cat = fintop2.category
    count = 0
    for p in sorted(fintop2.eclass | fintop2.mclass):
        for f in cat.morphisms_to[cat.mor_cod[p]]:
            try:
                sq = pullback(fintop2, f, p)
            except CapabilityError:
                continue
            assert check_bcp(sq).bcp_equality
            for t in (tcl, tin):
                square = (sq.f_prime, sq.p, sq.p_prime, sq.f)
                assert transfer_laws(*(classify(m, t) for m in square)) == ()
            count += 1
    assert count > 400


def _sweep_order(fib):
    return sorted(fib.eclass | fib.mclass)


def _fibre_relation(cat, f, p):
    """{(a, b) : f(a) = p(b)}, the carrier of the pullback of f along p."""
    gf, gp = cat.graphs[f], cat.graphs[p]
    return frozenset((a, b) for a, x in enumerate(gf) for b, y in enumerate(gp) if x == y)


def _homeomorphism_classes(fib):
    """Per object of a finite-space fibration, the least object index whose
    space is a relabelling of its own, and the number of relabellings that
    fix its space, by brute force over the point permutations."""
    from topogen.instances.topology import spaces_of

    spaces = spaces_of(fib)
    rep, aut = [], []
    for s in spaces:
        relabellings = [
            tuple(sorted(sum(1 << perm[p] for p in mask_iter(o)) for o in s.opens))
            for perm in itertools.permutations(range(s.n))
        ]
        rep.append(next(b for b, t in enumerate(spaces) if t.n == s.n and t.opens in relabellings))
        aut.append(relabellings.count(s.opens))
    return rep, aut


def _orbit_head(fib, p):
    """Whether p is the least index among the maps β∘p∘α, for α and β
    homeomorphisms of its ends, by brute force over the point permutations."""
    from topogen.instances.topology import spaces_of

    cat, spaces = fib.category, spaces_of(fib)
    x, y, graph = cat.mor_dom[p], cat.mor_cod[p], cat.graphs[p]

    def homeomorphisms(s):
        return [perm for perm in itertools.permutations(range(s.n)) if tuple(sorted(
            sum(1 << perm[q] for q in mask_iter(o)) for o in s.opens)) == s.opens]

    return p == min(
        cat.morphism_by_graph(x, y, tuple(beta[graph[alpha[i]]] for i in range(len(graph))))
        for alpha in homeomorphisms(spaces[x]) for beta in homeomorphisms(spaces[y]))


def _representative_cospans(fib):
    """The cospans (f, p) of the sweep whose three corners are their
    classes' least object indices and whose p heads its orbit under the
    homeomorphisms of its ends, in sweep order."""
    cat = fib.category
    rep, _ = _homeomorphism_classes(fib)
    first = [rep[x] == x for x in range(cat.n_objects)]
    return [
        (f, p) for p in _sweep_order(fib)
        if first[cat.mor_dom[p]] and first[cat.mor_cod[p]] and _orbit_head(fib, p)
        for f in cat.morphisms_to[cat.mor_cod[p]] if first[cat.mor_dom[f]]
    ]


def test_sweep_builds_each_pullback_relation_once(fintop2, monkeypatch):
    import topogen.morphisms as morphisms

    cat = fintop2.category
    # the sweep visits the 194 of the 521 cospans whose corners represent
    # their homeomorphism classes and whose p heads its orbit under the
    # homeomorphisms of its ends, and counts the others
    cospans = _representative_cospans(fintop2)
    shapes = {(cat.mor_dom[p], cat.graphs[p], cat.mor_dom[f], cat.graphs[f]) for f, p in cospans}
    relations = {(cat.mor_dom[p], cat.mor_dom[f], _fibre_relation(cat, f, p)) for f, p in cospans}
    counts = {"legs": 0, "bcp": 0, "square": 0}
    traced_legs, traced_bcp = fintop2.backend.pullback_legs, morphisms.check_bcp
    checked_square = PullbackSquare.__post_init__

    def counted_legs(fib, dom_f, dom_p, relation):
        counts["legs"] += 1
        return traced_legs(fib, dom_f, dom_p, relation)

    def counted_bcp(sq):
        counts["bcp"] += 1
        return traced_bcp(sq)

    def counted_square(sq):
        counts["square"] += 1
        checked_square(sq)

    monkeypatch.setattr(fintop2.backend, "pullback_legs", counted_legs)
    monkeypatch.setattr(morphisms, "check_bcp", counted_bcp)
    monkeypatch.setattr(PullbackSquare, "__post_init__", counted_square)
    classifications = {
        kind: tuple(classify(f, t) for f in range(cat.n_morphisms))
        for kind, t in (("closure", closure_order(fintop2)), ("interior", interior_order(fintop2)))
    }
    report = morphisms.check_pullback_transfer(fintop2, classifications)
    assert report.ok
    # relations beyond the point budget are refused by their point count,
    # with no backend call
    budget = fintop2.backend.max_points
    over = {r for r in relations if len(r[2]) > budget}
    assert len(cospans) == report.counts["cospans"] == 194
    assert len(relations) == 77 and len(over) == 9 and len(shapes) == 102
    assert counts["legs"] == report.counts["legs"] == len(relations) - len(over) == 68
    # legs are read off the relation: one square per Beck-Chevalley memo
    # miss, none per built pullback or per cospan
    assert counts["square"] == counts["bcp"] == report.counts["check_bcp"] < len(cospans)
    assert report.checked == 505


def test_sweep_without_orders_checks_beck_chevalley_alone(fintop2):
    report = check_pullback_transfer(fintop2, {})
    assert report.ok and report.checked == 505


def test_memoised_legs_match_fresh_pullbacks(fintop2, fintop3, monkeypatch):
    import topogen.morphisms as morphisms
    from topogen.site import BcpResult, SubobjectFibration

    # every square has the Beck-Chevalley equality and breaks one probe law,
    # so the sweep visits every cospan with singleton classes and names the
    # square [f',p,p',f] of each cospan it checks
    monkeypatch.setattr(morphisms, "check_bcp", lambda sq: BcpResult(True, True))
    monkeypatch.setattr(morphisms, "transfer_laws", lambda *classes: ("probe",))
    for fib, ps in ((fintop2, _sweep_order(fintop2)), (fintop3, _sweep_order(fintop3)[::13])):
        cat = fib.category
        cospans = skipped = 0
        shapes, relations, squares = set(), set(), []
        for p in ps:
            for f in cat.morphisms_to[cat.mor_cod[p]]:
                cospans += 1
                shapes.add((cat.mor_dom[p], cat.graphs[p], cat.mor_dom[f], cat.graphs[f]))
                relations.add((cat.mor_dom[p], cat.mor_dom[f], _fibre_relation(cat, f, p)))
                try:
                    squares.append(pullback(fib, f, p).name)
                except CapabilityError:
                    skipped += 1
        # the sweep over p in ps alone; naming each violation builds its
        # square, which runs the per-cospan alignment and commutation check
        sliced = SubobjectFibration(
            cat, fib.sub, fib.img, fib.pre, frozenset(ps), frozenset(),
            fstar=fib.fstar, backend=fib.backend, name=fib.name,
        )
        t = closure_order(fib)
        report = morphisms.check_pullback_transfer(
            sliced, {"closure": tuple(classify(f, t) for f in range(cat.n_morphisms))})
        assert [(v.law, v.where) for v in report.violations] == [("probe", sq) for sq in squares]
        assert report.skipped == (f"{fib.name}: {skipped} squares beyond point budget",)
        # some cospans share their (dom p, graph p, dom f, graph f), and some
        # of those a relation, so legs are shared across graph pairs too
        assert skipped > 0 and len(relations) < len(shapes) < cospans


def _as_masks(pairs, n_points):
    """A relation {(a, b)} as the mask of its points b for each a < n_points."""
    return tuple(sum(1 << b for a2, b in pairs if a2 == a) for a in range(n_points))


def test_sweep_reads_each_relation_from_its_graph_pair(fintop2, fintop3, monkeypatch):
    import topogen.morphisms as morphisms
    from topogen.site import BcpResult, SubobjectFibration

    # every checked square breaks one probe law, so the sweep leaves the
    # classes at the first violation, visits every cospan with singleton
    # classes, and names the square [f',p,p',f] of each cospan it checks;
    # its relation rows serve both passes
    monkeypatch.setattr(morphisms, "check_bcp", lambda sq: BcpResult(True, True))
    monkeypatch.setattr(morphisms, "transfer_laws", lambda *classes: ("probe",))
    fills = Counter()
    fibre_masks = morphisms.fibre_masks

    def counted_masks(graph_p, graph_f):
        fills[graph_p, graph_f] += 1
        return fibre_masks(graph_p, graph_f)

    monkeypatch.setattr(morphisms, "fibre_masks", counted_masks)
    for fib, ps in ((fintop2, _sweep_order(fintop2)), (fintop3, _sweep_order(fintop3)[::13])):
        cat = fib.category
        cospans = [(f, p) for p in ps for f in cat.morphisms_to[cat.mor_cod[p]]]
        within = [(f, p) for f, p in cospans
                  if len(_fibre_relation(cat, f, p)) <= fib.backend.max_points]
        sliced = SubobjectFibration(
            cat, fib.sub, fib.img, fib.pre, frozenset(ps), frozenset(),
            fstar=fib.fstar, backend=fib.backend, name=fib.name,
        )
        fills.clear()
        report = morphisms.check_pullback_transfer(sliced, _closure_classifications(fib))
        # one fill per distinct pair of graphs, none per cospan or per block
        pairs = {(cat.graphs[p], cat.graphs[f]) for f, p in cospans}
        assert fills == Counter(dict.fromkeys(pairs, 1)) and len(pairs) < len(cospans)
        # the relation each checked cospan's legs were read off, read back
        # from the legs as {(p'(c), f'(c))}, is the cospan's fibre relation
        read = []
        for v in report.violations:
            f_prime, p, p_prime, f = map(cat.morphism_index, v.where[len("square["):-1].split(","))
            legs = set(zip(cat.graphs[p_prime], cat.graphs[f_prime]))
            read.append((f, p, _as_masks(legs, len(cat.graphs[f]))))
        assert read == [
            (f, p, _as_masks(_fibre_relation(cat, f, p), len(cat.graphs[f]))) for f, p in within]
        assert report.skipped == (
            f"{fib.name}: {len(cospans) - len(within)} squares beyond point budget",)


def _closure_classifications(fib):
    t = closure_order(fib)
    return {"closure": tuple(classify(f, t) for f in range(fib.category.n_morphisms))}


@pytest.mark.parametrize("spaces, budget, no_corner, checked", [
    # corners of at most one point are not objects, and no carrier of
    # exactly three points is refused
    ("sierpinski discrete2 discrete3", 108, 78, 529),
    # here some carriers of exactly three points have a corner that is not
    # an object
    ("discrete2 t3_01", 8, 48, 81),
])
def test_sweep_counts_corners_that_are_not_objects_apart_from_the_budget(
    spaces, budget, no_corner, checked
):
    from topogen.instances.topology import (
        SIERPINSKI, discrete, enumerate_topologies, fintop_fibration,
    )

    named = {"sierpinski": SIERPINSKI, "discrete2": discrete(2), "discrete3": discrete(3),
             "t3_01": enumerate_topologies(3)[1]}
    fib = fintop_fibration([named[name] for name in spaces.split()])
    cat = fib.category
    refused = Counter()
    for p in _sweep_order(fib):
        for f in cat.morphisms_to[cat.mor_cod[p]]:
            try:
                pullback(fib, f, p)
            except CapabilityError:
                refused[len(_fibre_relation(cat, f, p)) > 3] += 1
    assert (refused[True], refused[False]) == (budget, no_corner)
    report = check_pullback_transfer(fib, _closure_classifications(fib))
    assert report.ok and report.checked == checked
    assert report.skipped == (
        f"fintop: {budget} squares beyond point budget",
        f"fintop: {no_corner} squares whose pullback corner is not an object",
    )


def test_sweep_refuses_legs_that_do_not_commute(fintop2, monkeypatch):
    from topogen.errors import DomainError
    cat = fintop2.category
    legs = fintop2.backend.pullback_legs

    def constant_p_prime(fib, dom_f, dom_p, relation):
        # aligned legs, but p' sends every corner point to the first point of X
        f_prime, p_prime = legs(fib, dom_f, dom_p, relation)
        corner = cat.mor_dom[p_prime]
        return f_prime, cat.morphism_by_graph(corner, dom_f, (0,) * len(cat.graphs[p_prime]))

    classifications = _closure_classifications(fintop2)
    monkeypatch.setattr(fintop2.backend, "pullback_legs", constant_p_prime)
    with pytest.raises(DomainError, match="do not commute"):
        check_pullback_transfer(fintop2, classifications)


# ---------------------------------------------------------------------------
# the sweep counts squares by the isomorphism classes of their corners


@pytest.mark.parametrize("name, n_classes", [("fintop1", 2), ("fintop2", 5), ("fintop3", 14)])
def test_isomorphism_classes_of_the_space_catalogs(name, n_classes):
    from math import factorial

    fib = builtin_fibration(name)
    cat = fib.category
    rep, aut = _homeomorphism_classes(fib)
    isos = cat.isomorphisms()
    # the category's isos are the homeomorphisms, and every relabelling of
    # a space is exactly one object: |class|·|Aut| = n!
    ends = Counter((cat.mor_dom[u], cat.mor_cod[u]) for u in isos)
    assert set(ends) == {(a, b) for a, r in enumerate(rep) for b, s in enumerate(rep) if r == s}
    assert [ends[a, a] for a in range(cat.n_objects)] == aut
    sizes = Counter(rep)
    assert len(sizes) == n_classes
    assert all(sizes[r] * aut[r] == factorial(len(cat.identity_graph(r))) for r in sizes)


def _singleton_classes(monkeypatch):
    """Send the sweep to singleton classes, as when its hypothesis fails."""
    import topogen.morphisms as morphisms

    monkeypatch.setattr(morphisms, "_class_weights", lambda fib, *ids: (
        (1,) * fib.category.n_objects, (1,) * fib.category.n_morphisms))


def _both_classifications(fib):
    return {kind: classifications(order(fib))
            for kind, order in (("closure", closure_order), ("interior", interior_order))}


def test_representative_sweep_equals_singleton_classes_on_fintop2(fintop2, monkeypatch):
    both = _both_classifications(fintop2)
    report = check_pullback_transfer(fintop2, both)
    _singleton_classes(monkeypatch)
    exhaustive = check_pullback_transfer(fintop2, both)
    assert (report.checked, report.violations, report.skipped) == (
        exhaustive.checked, exhaustive.violations, exhaustive.skipped)
    assert (report.counts["classes"], report.counts["p_orbits"], report.counts["cospans"]) == (
        5, 19, 194)
    assert (exhaustive.counts["classes"], exhaustive.counts["cospans"]) == (6, 521)


def test_sweep_counters_on_fintop3_and_singleton_classes(fintop3, monkeypatch):
    import topogen.morphisms as morphisms

    both = _both_classifications(fintop3)
    calls = Counter()
    legs, bcp = fintop3.backend.pullback_legs, morphisms.check_bcp
    monkeypatch.setattr(fintop3.backend, "pullback_legs",
                        lambda *args: calls.update(("legs",)) or legs(*args))
    monkeypatch.setattr(morphisms, "check_bcp", lambda sq: calls.update(("bcp",)) or bcp(sq))
    report = check_pullback_transfer(fintop3, both)
    # the deterministic counters of the sweep over the 14 classes and the
    # 154 orbits of p: a change to the sweep moves them here
    assert report.counts == {
        "classes": 14, "p_orbits": 154, "cospans": 17_146, "relations": 101, "legs": 3_451,
        "verdicts": 3_874, "check_bcp": 548,
    }
    assert len(_representative_cospans(fintop3)) == report.counts["cospans"]
    assert (calls["legs"], calls["bcp"]) == (report.counts["legs"], report.counts["check_bcp"])
    assert report.ok and report.checked == 672_077
    assert report.skipped == ("fintop3: 53595 squares beyond point budget",)
    _singleton_classes(monkeypatch)
    exhaustive = check_pullback_transfer(fintop3, both)
    assert (exhaustive.checked, exhaustive.violations, exhaustive.skipped) == (
        report.checked, report.violations, report.skipped)
    assert (exhaustive.counts["classes"], exhaustive.counts["cospans"]) == (35, 725_672)


def _with_flags(real, forge):
    """Each order's classifications, with ``forge(f, c)`` for the flags c of
    morphism f."""
    return {kind: tuple(map(forge, range(len(cls)), cls)) for kind, cls in real.items()}


def test_representative_sweep_matches_per_square_checks_on_iso_invariant_flags(fintop2):
    cat = fintop2.category
    real = _both_classifications(fintop2)
    into_two = {f for f, y in enumerate(cat.mor_cod) if len(cat.identity_graph(y)) == 2}
    # flags that composing with isos keeps: the maps into a 2-point space
    # forced into no class, so that ascent fails; every map forced into
    # every class, so that nothing fails
    no_class = _with_flags(real, lambda f, c: replace(
        c, strict=False, final=False, costrict=False, initial=False)
        if f in into_two else c)
    every_class = _with_flags(real, lambda f, c: replace(
        c, strict=True, final=True, costrict=True, initial=True))
    # one preimage table moved on a map between representatives, whose
    # twin under the swap of discrete2 keeps its table
    broken = _moved_preimage(fintop2, "pt>discrete2:0", (0, 0, 0, 1))
    for fib, classes, found in (
        (fintop2, no_class, {"ascent"}),
        (fintop2, every_class, set()),
        (broken, real, {"image"}),
    ):
        checked, violations, skipped = _per_square_sweep(fib, classes)
        report = check_pullback_transfer(fib, classes)
        # the classes are taken first; a violation sends the sweep over
        # every cospan, so each failing square is named in sweep order.  The
        # moved table is off the set-level ones, which the letters'
        # hypothesis needs, so that sweep takes singleton classes at once
        assert report.counts["classes"] == (6 if fib is broken else 5)
        assert (report.checked, report.violations, report.skipped) == (checked, violations, skipped)
        assert {v.law.split("-")[0] for v in violations} == found


@pytest.mark.parametrize("point", [0, 1])
def test_flags_that_postcomposition_moves_take_singleton_classes(fintop2, monkeypatch, point):
    cat = fintop2.category
    real = _both_classifications(fintop2)
    # the maps into discrete2 constant at one point forced into no class:
    # isos between classes and automorphisms of the domain keep them, but
    # the swap of discrete2 after them does not.  At point 1 the orbits'
    # heads, constant at point 0, keep their flags, and an orbit sweep
    # would meet no violation
    d2 = cat.object_index("discrete2")
    constant = {f for f, (y, graph) in enumerate(zip(cat.mor_cod, cat.graphs))
                if y == d2 and set(graph) == {point}}
    forged = _with_flags(real, lambda f, c: replace(
        c, strict=False, final=False, costrict=False, initial=False) if f in constant else c)
    report = check_pullback_transfer(fintop2, forged)
    assert report.counts["classes"] == cat.n_objects
    assert report.counts["p_orbits"] == len(fintop2.eclass | fintop2.mclass)
    assert not report.ok
    assert (report.checked, report.violations, report.skipped) == _per_square_sweep(fintop2, forged)
    _singleton_classes(monkeypatch)
    exhaustive = check_pullback_transfer(fintop2, forged)
    assert (report.checked, report.violations, report.skipped) == (
        exhaustive.checked, exhaustive.violations, exhaustive.skipped)


def _space_fibration(names):
    from topogen.instances.topology import (
        SIERPINSKI, SIERPINSKI_OP, discrete, enumerate_topologies, fintop_fibration,
    )

    named = {"sierpinski": SIERPINSKI, "sierpinski_op": SIERPINSKI_OP, "discrete2": discrete(2),
             "discrete3": discrete(3), "pt": discrete(1)}
    t3 = enumerate_topologies(3)
    return fintop_fibration([named[n] if n in named else t3[int(n[3:])] for n in names.split()])


def test_representative_sweep_on_a_relabelling_closed_catalog_in_any_order(monkeypatch):
    # t3_01 and its five relabellings, both Sierpinski spaces, discrete2 and
    # pt, out of order; some pullback corners are not objects
    fib = _space_fibration(
        "discrete2 sierpinski_op t3_15 t3_07 t3_01 t3_12 t3_02 t3_04 pt sierpinski")
    rep, aut = _homeomorphism_classes(fib)
    assert len(set(rep)) == 4 and sorted(aut) == [1] * 9 + [2]
    classes = _both_classifications(fib)
    report = check_pullback_transfer(fib, classes)
    assert report.counts["classes"] == 4 and report.counts["cospans"] < report.checked
    # the swap of discrete2 folds the maps p between representatives
    cat = fib.category
    between = [p for p in fib.eclass | fib.mclass
               if rep[cat.mor_dom[p]] == cat.mor_dom[p] and rep[cat.mor_cod[p]] == cat.mor_cod[p]]
    assert report.counts["p_orbits"] < len(between)
    _singleton_classes(monkeypatch)
    exhaustive = check_pullback_transfer(fib, classes)
    assert (report.checked, report.violations, report.skipped) == (
        exhaustive.checked, exhaustive.violations, exhaustive.skipped)
    # square by square, a relation over the point budget is refused before
    # any pullback is built, and a refused pullback has no corner
    assert (report.checked, report.violations, report.skipped) == _per_square_sweep(fib, classes)
    assert report.skipped == (
        "fintop: 1917 squares beyond point budget",
        "fintop: 1212 squares whose pullback corner is not an object",
    )


def test_inputs_off_the_hypothesis_take_singleton_classes(fintop2, fintop3, monkeypatch):
    cat = fintop2.category
    real = _both_classifications(fintop2)
    # flags that composing with isos changes: every fifth map in no class
    fifth = _with_flags(real, lambda f, c: replace(
        c, strict=False, final=False, costrict=False, initial=False)
        if f % 5 == 2 else c)
    # one map between singleton classes with its strictness flipped, but
    # not its composite with the swap of its domain discrete2
    swapped = cat.morphism_index("discrete2>indiscrete2:01")
    assert cat.compose(swapped, cat.morphism_index("discrete2>discrete2:10")) != swapped
    one_map = _with_flags(real, lambda f, c: replace(c, strict=not c.strict) if f == swapped else c)
    # one preimage table moved on a map out of sierpinski, which is not
    # its class's first object
    broken = _moved_preimage(fintop2, "sierpinski>indiscrete2:00", (0, 0, 0, 3))
    # E∪M cut to every 13th map, so that some transported maps leave it
    ps = frozenset(_sweep_order(fintop3)[::13])
    sliced = SubobjectFibration(
        fintop3.category, fintop3.sub, fintop3.img, fintop3.pre, ps, frozenset(),
        fstar=fintop3.fstar, backend=fintop3.backend, name="sliced")
    # catalogs without every relabelling of their spaces; in the second,
    # the Sierpinski class has both its members
    partial = _space_fibration("sierpinski discrete2 discrete3")
    unclosed = _space_fibration("sierpinski sierpinski_op t3_01")
    # fibrations off site.carried, each classified under its own orders
    forged = [(fib, _forged_classifications(fib)) for fib in _forgeries(fintop2)]
    swept = []
    for fib, classes in (
        (fintop2, fifth), (fintop2, one_map), (broken, real),
        (sliced, _closure_classifications(fintop3)),
        (partial, _both_classifications(partial)), (unclosed, _both_classifications(unclosed)),
        *forged,
    ):
        report = check_pullback_transfer(fib, classes)
        assert report.counts["classes"] == fib.category.n_objects, fib.name
        if fib.category.n_objects == 3:
            assert (report.checked, report.violations, report.skipped) == _per_square_sweep(
                fib, classes)
        swept.append((fib, classes, report))
    assert check_pullback_transfer(unclosed, _both_classifications(unclosed)).skipped == (
        "fintop: 56 squares beyond point budget",
        "fintop: 22 squares whose pullback corner is not an object",
    )
    # without discrete2>indiscrete2:10 the orbits are singletons, and the
    # sweep counts the cospans by the classes of their corners alone
    cut = _without(fintop2, cat.morphism_index("discrete2>indiscrete2:10"))
    cut_classes = _both_classifications(cut)
    report = check_pullback_transfer(cut, cut_classes)
    assert report.counts["classes"] < cut.category.n_objects
    swept.append((cut, cut_classes, report))
    _singleton_classes(monkeypatch)
    for fib, classes, report in swept:
        exhaustive = check_pullback_transfer(fib, classes)
        assert (report.checked, report.violations, report.skipped) == (
            exhaustive.checked, exhaustive.violations, exhaustive.skipped), fib.name


# ---------------------------------------------------------------------------
# classifications decided once per isomorphism class of a map's ends


def _per_map_classifications(t):
    """Every morphism's classes from a fresh classifier, one call per map."""
    from topogen.morphisms import _classifier

    fib = t.fib
    cat = fib.category
    return tuple(map(_classifier(t), cat.mor_dom, cat.mor_cod, fib.pre, fib.img, fib.fstar))


def _transported_orders(name):
    """The enumerated orders of the built-in ``name``; a fixed stride of
    grp_le8's 11,653."""
    fib = builtin_fibration(name)
    tables = plan_of(fib, TopogenousOrder).orders.tables()
    return [TopogenousOrder(fib, rel) for rel in (tables[::1000] if name == "grp_le8" else tables)]


@pytest.mark.parametrize("name, n_orders", [
    ("fintop1", 6), ("fintop2", 11), ("disc2_loop", 6), ("t0_small", 6), ("coreflect_small", 9),
    ("grp_small", 31), ("grp_le4", 15), ("topgrp_le4", 115), ("fintop3", 17), ("grp_le8", 12),
])
def test_transported_classifications_equal_the_per_map_classifier(name, n_orders):
    from topogen.morphisms import class_transport

    orders = _transported_orders(name)
    assert len(orders) == n_orders
    head = symmetry(orders[0].fib.category).head
    for t in orders:
        assert classifications(t) == _per_map_classifications(t), name
        # the fibration and every order are carried along the isos and the
        # letters, so each map reads the classes of the head of the orbit of
        # its map between representatives
        assert class_transport(t) is head, name


@pytest.mark.parametrize("name, between, maps", [
    ("fintop2", 44, 69), ("fintop3", 1_476, 11_345), ("topgrp_le4", 318, 538),
    ("grp_le8", 1_852, 1_852),
])
def test_the_record_counts_the_maps_between_representatives(name, between, maps):
    cat = builtin_fibration(name).category
    sym = symmetry(cat)
    assert (len(set(sym.moved)), cat.n_morphisms) == (between, maps)
    assert all(sym.rep[x] == x and sym.rep[y] == y for x, y in zip(
        map(cat.mor_dom.__getitem__, sym.moved), map(cat.mor_cod.__getitem__, sym.moved)))
    assert symmetry(cat) is sym


@pytest.mark.parametrize("name", ["fintop2", "fintop3", "topgrp_le4"])
def test_the_record_moves_each_map_along_the_least_isos(name):
    cat = builtin_fibration(name).category
    classes = symmetry(cat)
    isos = classes.isomorphisms
    assert isos == cat.isomorphisms()
    inverse = {u: v for u in isos for v in isos if cat.mor_dom[v] == cat.mor_cod[u]
               and cat.compose(v, u) == cat.identities[cat.mor_dom[u]]}
    for a, (r, i) in enumerate(zip(classes.rep, classes.iota)):
        into = sorted(u for u in isos if cat.mor_cod[u] == a)
        assert (r, i) == (cat.mor_dom[into[0]], into[0])
    if name != "topgrp_le4":
        assert list(classes.rep) == _homeomorphism_classes(builtin_fibration(name))[0]
    for f, g in enumerate(classes.moved):
        x, y = cat.mor_dom[f], cat.mor_cod[f]
        expected = cat.compose(inverse[classes.iota[y]], cat.compose(f, classes.iota[x]))
        assert g == expected, (name, cat.mor_names[f])


def _fallback(t):
    """Assert that t's classifications are the per-map classifier's, read
    with every map its own representative."""
    from topogen.morphisms import class_transport

    assert class_transport(t) == tuple(range(t.fib.category.n_morphisms))
    assert classifications(t) == _per_map_classifications(t)


def test_an_order_off_transport_is_classified_map_by_map(fintop2):
    cat = fintop2.category
    classes = symmetry(cat)
    t = closure_order(fintop2)
    a = cat.object_index("sierpinski")
    assert classes.rep[a] != a
    # one row of the non-representative object moved: {0} ⊏ {0} dropped
    rel = list(t.rel)
    rel[a] = (rel[a][0], rel[a][1] & ~0b10, *rel[a][2:])
    moved = TopogenousOrder(fintop2, tuple(rel))
    _fallback(moved)
    # read through f~, some map would take classes that are not its own
    expected = _per_map_classifications(moved)
    assert tuple(map(expected.__getitem__, classes.moved)) != expected


def _forged_orders(fib):
    """The orders of a forged fibration by name: fintop2's closure and
    interior orders, or every order on a catalog of its own."""
    if fib.category.n_objects == 2:
        tables = plan_of(fib, TopogenousOrder).orders.tables()
        return {f"t{i}": TopogenousOrder(fib, rel) for i, rel in enumerate(tables)}
    fintop2 = builtin_fibration("fintop2")
    return {kind: TopogenousOrder(fib, order(fintop2).rel)
            for kind, order in (("closure", closure_order), ("interior", interior_order))}


def _forged_classifications(fib):
    return {kind: classifications(t) for kind, t in _forged_orders(fib).items()}


def test_a_fibration_off_transport_is_classified_map_by_map(fintop2):
    cat = fintop2.category
    classes = symmetry(cat)
    assert carried(fintop2)
    # one preimage table moved on a map out of sierpinski, which is not its
    # class's representative
    broken = _moved_preimage(fintop2, "sierpinski>indiscrete2:00", (0, 0, 0, 3))
    # f_* dropped on one map into sierpinski, its image and preimage kept
    f = cat.morphism_index("discrete2>sierpinski:01")
    assert classes.moved[f] != f and fintop2.fstar[f] is not None
    no_adjoint = SubobjectFibration(
        cat, fintop2.sub, fintop2.img, fintop2.pre, fintop2.eclass, fintop2.mclass,
        fstar=[None if g == f else table for g, table in enumerate(fintop2.fstar)],
        backend=fintop2.backend, name="no-adjoint")
    for fib in (broken, no_adjoint):
        assert not carried(fib), fib.name
        for order in (closure_order, interior_order):
            t = TopogenousOrder(fib, order(fintop2).rel)
            _fallback(t)
            expected = _per_map_classifications(t)
            assert tuple(map(expected.__getitem__, classes.moved)) != expected, fib.name
    # each clause of site.carried broken alone: every map is classified, and
    # every structure validated, on its own
    for fib in _forgeries(fintop2):
        assert not carried(fib), fib.name
        for kind, t in _forged_orders(fib).items():
            _fallback(t)
            structures = [t, closure_from_topogenous(t)] if kind == "closure" else [t]
            for s in structures:
                assert validate_structure(s) == _reference_report(s), (fib.name, s.kind)


def _off_the_letters(t):
    """Assert that t's classifications are the per-map classifier's, each
    map read on its own: the heads of the orbits would give some map
    classes that are not its own, though the isos between classes carry
    t and its fibration."""
    _fallback(t)
    expected = _per_map_classifications(t)
    cat = t.fib.category
    assert tuple(map(expected.__getitem__, symmetry(cat).head)) != expected
    assert tuple(map(expected.__getitem__, symmetry(cat).moved)) == expected


def test_an_order_off_the_letters_reads_f_tilde(fintop2):
    cat = fintop2.category
    a = cat.object_index("discrete2")
    assert symmetry(cat).rep[a] == a
    # {0} ⊏ {0} dropped at discrete2, and not {1} ⊏ {1}: its swap moves it
    t = closure_order(fintop2)
    rel = list(t.rel)
    rel[a] = (rel[a][0], rel[a][1] & ~0b10, *rel[a][2:])
    _off_the_letters(TopogenousOrder(fintop2, tuple(rel)))


def test_a_fibration_off_the_letters_reads_f_tilde(fintop2):
    # f_* dropped on one map between representatives, and not on its twin
    # under the swap of discrete2
    cat = fintop2.category
    f = cat.morphism_index("discrete2>indiscrete2:01")
    forged = SubobjectFibration(
        cat, fintop2.sub, fintop2.img, fintop2.pre, fintop2.eclass, fintop2.mclass,
        fstar=[None if g == f else table for g, table in enumerate(fintop2.fstar)],
        backend=fintop2.backend, name="forged-fstar", subsets=fintop2.subsets)
    assert not carried(forged)
    _off_the_letters(TopogenousOrder(forged, closure_order(fintop2).rel))


def test_a_catalog_without_every_relabelling_is_classified_per_automorphism_orbit():
    from topogen.morphisms import class_transport

    # every object is its own class, but discrete2 and discrete3 have
    # automorphisms: each map reads the head of its orbit under them
    fib = _space_fibration("sierpinski discrete2 discrete3")
    orbits = symmetry(fib.category)
    assert orbits.moved == tuple(range(fib.category.n_morphisms))
    assert any(orbits.letters)
    assert len(set(orbits.head)) < fib.category.n_morphisms
    for order in (closure_order, interior_order):
        t = order(fib)
        assert class_transport(t) is orbits.head
        assert classifications(t) == _per_map_classifications(t)


def test_one_map_classification_builds_no_record():
    # classify and classify_map, the CLI's paths, decide one map from its
    # own tables and never read the isomorphism classes
    twin = _untabulated_twin("fintop2")
    t = TopogenousOrder(twin, closure_order(builtin_fibration("fintop2")).rel)
    classify_map(t, 2, 4, (0, 1))
    fib = _space_fibration("sierpinski discrete2 pt")
    classify(fib.category.n_morphisms - 1, closure_order(fib))
    for cat in (twin.category, fib.category):
        assert getattr(cat, "_symmetry", None) is None
