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
    classify,
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
from topogen.site import PullbackSquare, check_bcp, pullback
from topogen.structures import TopogenousOrder, closure_from_topogenous, validate_structure
from topogen.instances.topology import closure_order, interior_order, map_predicates
from topogen.instances.registry import builtin_fibration, builtin_order
from test_site import composable_pairs


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


# Oracles for the row equalities in ``morphisms.classify``: one hand-written
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
        morphism=f,
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
    for c in classifications:
        flips = {
            k: not v for stride, (k, v) in enumerate(zip(_CLASSES, class_flags(c)), 3)
            if c.morphism % stride == 1 and v is not None
        }
        c = replace(c, **flips)
        if c.morphism % 7 == 2:
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
            monkeypatch.setattr(morphisms, "classify", lambda f, t: classes[f])
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

    base = MorphismClassification(0, True, True, True, True, True, True)
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
        facts = [morphism_facts(fib, classify(f, t)) for f in range(cat.n_morphisms)]
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
    assert check_pullback_transfer(sq, closure_order(fintop2)).ok


def test_pullback_transfer_requires_bcp(fintop2):
    cat = fintop2.category
    ident = cat.morphism_index("id_pt")
    empty_to_pt = cat.morphism_index("empty>pt:-")
    sq = PullbackSquare(fintop2, f_prime=empty_to_pt, p=ident, p_prime=empty_to_pt, f=ident)
    with pytest.raises(PreconditionError):
        check_pullback_transfer(sq, closure_order(fintop2))


def test_pullback_transfer_rejects_a_given_failed_bcp(fintop2, monkeypatch):
    import topogen.morphisms as morphisms
    from topogen.site import BcpResult

    # a failed verdict is used as is, even on a square that has the equality
    i = fintop2.category.morphism_index("id_sierpinski")
    sq = PullbackSquare(fintop2, f_prime=i, p=i, p_prime=i, f=i)
    assert check_bcp(sq).bcp_equality
    monkeypatch.setattr(
        morphisms, "check_bcp", lambda sq: BcpResult(True, False, ("{}", "equality"))
    )
    with pytest.raises(PreconditionError):
        check_pullback_transfer(sq, closure_order(fintop2))


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
    """The sweep without memos: check_bcp and transfer_laws per square."""
    cat = fib.category
    violations = []
    checked = skipped = 0
    for p in sorted(fib.eclass | fib.mclass):
        for f in cat.morphisms_to[cat.mor_cod[p]]:
            try:
                sq = pullback(fib, f, p)
            except CapabilityError:
                skipped += 1
                continue
            checked += 1
            bcp = check_bcp(sq)
            if not bcp.lemma_inequality_holds:
                violations.append(Violation(
                    "image-preimage-inequality", where=f"{fib.name}:{cat.mor_names[f]}"))
                continue
            if not bcp.bcp_equality:
                continue
            for cls in classifications.values():
                laws = transfer_laws(cls[sq.f_prime], cls[sq.p], cls[sq.p_prime], cls[f])
                violations.extend(Violation(law, where=sq.name) for law in laws)
    return checked, tuple(violations), (f"{fib.name}: {skipped} squares beyond point budget",)


def test_memoised_sweep_matches_per_square_checks(fintop2):
    from topogen.harness.suite import sweep_pullback_transfer

    cat = fintop2.category
    orders = {"closure": closure_order(fintop2), "interior": interior_order(fintop2)}
    real = {
        kind: tuple(classify(f, t) for f in range(cat.n_morphisms)) for kind, t in orders.items()
    }
    # every fifth morphism forced into no class, so that ascent and descent fail
    forged = {
        kind: tuple(
            replace(c, strict=False, final=False, costrict=False, initial=False)
            if c.morphism % 5 == 2 else c
            for c in cls
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
            if c.morphism % 5 == 2 else c
            for c in cls
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
        swept = sweep_pullback_transfer(fib, classifications)
        assert (swept.checked, swept.violations, swept.skipped) == (checked, violations, skipped)
        assert checked > 400
        assert {v.law.split("-")[0] for v in violations} == found


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
            assert check_pullback_transfer(sq, tcl).ok
            assert check_pullback_transfer(sq, tin).ok
            count += 1
    assert count > 400


def _sweep_order(fib):
    return sorted(fib.eclass | fib.mclass)


def _fibre_relation(cat, f, p):
    """{(a, b) : f(a) = p(b)}, the carrier of the pullback of f along p."""
    gf, gp = cat.graphs[f], cat.graphs[p]
    return frozenset((a, b) for a, x in enumerate(gf) for b, y in enumerate(gp) if x == y)


def test_sweep_builds_each_pullback_relation_once(fintop2, monkeypatch):
    import topogen.harness.suite as suite

    cat = fintop2.category
    cospans = [(f, p) for p in _sweep_order(fintop2) for f in cat.morphisms_to[cat.mor_cod[p]]]
    shapes = {(cat.mor_dom[p], cat.graphs[p], cat.mor_dom[f], cat.graphs[f]) for f, p in cospans}
    relations = {(cat.mor_dom[p], cat.mor_dom[f], _fibre_relation(cat, f, p)) for f, p in cospans}
    counts = {"legs": 0, "bcp": 0, "square": 0}
    traced_legs, traced_bcp = fintop2.backend.pullback_legs, suite.check_bcp
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
    monkeypatch.setattr(suite, "check_bcp", counted_bcp)
    monkeypatch.setattr(PullbackSquare, "__post_init__", counted_square)
    classifications = {
        kind: tuple(classify(f, t) for f in range(cat.n_morphisms))
        for kind, t in (("closure", closure_order(fintop2)), ("interior", interior_order(fintop2)))
    }
    report = suite.sweep_pullback_transfer(fintop2, classifications)
    assert report.ok
    # relations beyond the point budget are refused by their point count,
    # with no backend call
    budget = fintop2.backend.max_points
    over = {r for r in relations if len(r[2]) > budget}
    assert len(relations) == 121 and len(over) == 16 and len(shapes) == 233
    assert counts["legs"] == len(relations) - len(over) == 105
    # legs are read off the relation: one square per Beck-Chevalley memo
    # miss, none per built pullback or per cospan
    assert counts["square"] == counts["bcp"] < report.checked == 505


def test_sweep_without_orders_checks_beck_chevalley_alone(fintop2):
    from topogen.harness.suite import sweep_pullback_transfer

    report = sweep_pullback_transfer(fintop2, {})
    assert report.ok and report.checked == 505


def test_memoised_legs_match_fresh_pullbacks(fintop2, fintop3, monkeypatch):
    import topogen.harness.suite as suite
    from topogen.site import BcpResult, SubobjectFibration

    # every square has the Beck-Chevalley equality and breaks one probe law,
    # so the sweep names the square [f',p,p',f] of each cospan it checks
    monkeypatch.setattr(suite, "check_bcp", lambda sq: BcpResult(True, True))
    monkeypatch.setattr(suite, "transfer_laws", lambda *classes: ("probe",))
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
        report = suite.sweep_pullback_transfer(
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
    import topogen.harness.suite as suite
    from topogen.site import BcpResult, SubobjectFibration

    # every checked square breaks one probe law, so the sweep names the
    # square [f',p,p',f] of each cospan it checks
    monkeypatch.setattr(suite, "check_bcp", lambda sq: BcpResult(True, True))
    monkeypatch.setattr(suite, "transfer_laws", lambda *classes: ("probe",))
    fills = Counter()
    fibre_masks = suite.fibre_masks

    def counted_masks(graph_p, graph_f):
        fills[graph_p, graph_f] += 1
        return fibre_masks(graph_p, graph_f)

    monkeypatch.setattr(suite, "fibre_masks", counted_masks)
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
        report = suite.sweep_pullback_transfer(sliced, _closure_classifications(fib))
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
    from topogen.harness.suite import sweep_pullback_transfer
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
    report = sweep_pullback_transfer(fib, _closure_classifications(fib))
    assert report.ok and report.checked == checked
    assert report.skipped == (
        f"fintop: {budget} squares beyond point budget",
        f"fintop: {no_corner} squares whose pullback corner is not an object",
    )


def test_sweep_refuses_legs_that_do_not_commute(fintop2, monkeypatch):
    from topogen.errors import DomainError
    from topogen.harness.suite import sweep_pullback_transfer

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
        sweep_pullback_transfer(fintop2, classifications)
