import collections
import functools
import itertools

import pytest

from topogen import site
from topogen.errors import CapabilityError, DomainError, InternalConsistencyError, PreconditionError
from topogen.lattice import FiniteLattice, MonotoneMap, mask_iter
from topogen.site import (
    FiniteCategory,
    PullbackSquare,
    SubobjectFibration,
    check_bcp,
    factorize,
    pullback,
    validate_category,
    validate_fibration,
)
from topogen.instances.registry import FIBRATION_NAMES
from topogen.instances.topology import spaces_of
from topogen.reporting import Violation


def one_object_category():
    return FiniteCategory(
        object_names=("x",),
        mor_dom=(0,),
        mor_cod=(0,),
        mor_names=("id_x",),
        identities=(0,),
        graphs=((0,),),
    )


def trivial_fibration(lat=None):
    cat = one_object_category()
    lat = lat or FiniteLattice.powerset(1)
    ident = tuple(range(lat.size))
    return SubobjectFibration(
        category=cat,
        sub=(lat,),
        img=(ident,),
        pre=(ident,),
        eclass=frozenset({0}),
        mclass=frozenset({0}),
        name="trivial",
    )


def test_one_object_identity_fibration_validates():
    fib = trivial_fibration(FiniteLattice.powerset(2))
    assert validate_category(fib.category).ok
    assert validate_fibration(fib).ok


def test_single_space_fibration_validates():
    from topogen.instances.topology import SIERPINSKI, fintop_fibration

    fib = fintop_fibration([SIERPINSKI], name="sier_only")
    assert fib.category.n_morphisms == 3
    assert validate_category(fib.category).ok
    assert validate_fibration(fib).ok


def test_builtin_fibrations_validate(fintop2, grp_small, disc2_loop):
    for fib in (fintop2, grp_small, disc2_loop):
        assert validate_category(fib.category).ok
        assert validate_fibration(fib).ok


def composable_pairs(cat):
    """Every (g, f) with cod f == dom g, f outer and g over the morphisms
    out of cod f: the order of ``FiniteCategory.composites``, enumerated
    without it."""
    for f in range(cat.n_morphisms):
        for g in cat.morphisms_from[cat.mor_cod[f]]:
            yield g, f


def _reference_category(cat):
    """(checked, violations) of identity typing and neutrality over every
    pair, and associativity recomputed over every composable triple."""
    violations = []
    checked = 0
    for x in range(cat.n_objects):
        i = cat.identities[x]
        checked += 1
        if cat.mor_dom[i] != x or cat.mor_cod[i] != x:
            violations.append(Violation("identity-endo", where=cat.object_names[x]))
    for g, f in composable_pairs(cat):
        checked += 1
        h = cat.compose(g, f)
        if cat.is_identity(g) and h != f:
            violations.append(Violation("identity-neutral-left", witness=(cat.mor_names[f],)))
        if cat.is_identity(f) and h != g:
            violations.append(Violation("identity-neutral-right", witness=(cat.mor_names[g],)))
    for g, f in composable_pairs(cat):
        for h in cat.morphisms_from[cat.mor_cod[g]]:
            checked += 1
            if cat.compose(cat.compose(h, g), f) != cat.compose(h, cat.compose(g, f)):
                violations.append(
                    Violation(
                        "associativity",
                        witness=(cat.mor_names[h], cat.mor_names[g], cat.mor_names[f]),
                    )
                )
    return checked, violations


@pytest.mark.parametrize("name", [n for n in FIBRATION_NAMES if n not in ("fintop3", "grp_le8")])
def test_category_counts_the_triples_the_oracle_recomputes(name):
    from topogen.instances.registry import builtin_fibration

    cat = builtin_fibration(name).category
    report = validate_category(cat)
    assert (report.checked, list(report.violations)) == _reference_category(cat)
    assert report.ok


def _reference_morphism_laws(fib):
    """(checked, violations) of the per-morphism laws, morphism by morphism,
    and of the identity adjoints: ``validate_fibration`` without the
    functoriality laws."""
    cat = fib.category
    violations = []
    checked = 0
    for f in range(cat.n_morphisms):
        lx, ly = fib.sub_dom(f), fib.sub_cod(f)
        img, pre = fib.img[f], fib.pre[f]
        name = cat.mor_names[f]
        if len(img) != lx.size or len(pre) != ly.size:
            violations.append(Violation("table-size", where=name))
            continue
        out_of_range = [
            f"{what}[{source.labels[i]}]={v}"
            for what, table, source, target in (("img", img, lx, ly), ("pre", pre, ly, lx))
            for i, v in enumerate(table) if not 0 <= v < target.size
        ]
        if out_of_range:
            violations.append(Violation("table-range", where=name, witness=(out_of_range[0],)))
            continue
        for i in range(lx.size):
            for j in mask_iter(lx.up[i]):
                checked += 1
                if not ly.leq(img[i], img[j]):
                    violations.append(
                        Violation("image-monotone", where=name, witness=(lx.labels[i], lx.labels[j]))
                    )
        for i in range(ly.size):
            for j in mask_iter(ly.up[i]):
                checked += 1
                if not lx.leq(pre[i], pre[j]):
                    violations.append(
                        Violation("preimage-monotone", where=name, witness=(ly.labels[i], ly.labels[j]))
                    )
        for m in range(lx.size):
            for n in range(ly.size):
                checked += 1
                if ly.leq(img[m], n) != lx.leq(m, pre[n]):
                    violations.append(
                        Violation("adjunction", where=name, witness=(lx.labels[m], ly.labels[n]))
                    )
                    break
            else:
                continue
            break
        if f in fib.mclass:
            for m in range(lx.size):
                checked += 1
                if pre[img[m]] != m:
                    violations.append(
                        Violation("m-preimage-section", where=name, witness=(lx.labels[m],))
                    )
        if f in fib.eclass and fib.e_pullback_stable:
            for n in range(ly.size):
                checked += 1
                if img[pre[n]] != n:
                    violations.append(
                        Violation("e-image-retraction", where=name, witness=(ly.labels[n],))
                    )
    for x in range(cat.n_objects):
        i = cat.identities[x]
        checked += 1
        ident = tuple(range(fib.sub[x].size))
        if fib.img[i] != ident or fib.pre[i] != ident:
            violations.append(Violation("identity-adjoints", where=cat.object_names[x]))
    return checked, violations


def _pair_count(cat):
    return sum(len(cat.morphisms_from[y]) for y in cat.mor_cod)


def _morphism_laws(report, cat):
    """``report``'s checked count and violations without functoriality: the
    composable pairs it counts and the ``-functorial`` violations."""
    violations = [v for v in report.violations if not v.law.endswith("-functorial")]
    return report.checked - _pair_count(cat), violations


def _assert_morphism_laws_match_reference(fib):
    """``validate_fibration``'s per-morphism laws equal the oracle's; a
    fibration that breaks one went through the per-key scan, and one that
    breaks none (every one passed here) was certified without it."""
    report = validate_fibration(fib)
    got = _morphism_laws(report, fib.category)
    assert got == _reference_morphism_laws(fib)
    certified, scanned = report.counts["laws_certified"], report.counts["law_keys_scanned"]
    assert (certified, scanned > 0) == ((0, True) if got[1] else (1, False))
    return tuple(got[1])


@pytest.mark.parametrize(
    "name",
    [
        "fintop2", "grp_small", "disc2_loop", "t0_small", "coreflect_small", "fintop3",
        "topgrp_le4", "grp_le8",
    ],
)
def test_per_key_laws_match_the_per_morphism_oracle(name):
    from topogen.instances.registry import builtin_fibration

    assert _assert_morphism_laws_match_reference(builtin_fibration(name)) == ()


def test_per_key_laws_name_only_the_corrupted_morphism(monkeypatch, fintop3):
    # the corrupted table fails the functoriality certificate; the pair scan
    # over fintop3's 3.58 M composable pairs would take seconds, and its
    # violations are filtered out below
    monkeypatch.setattr(site, "_functoriality_violations", lambda fib, unusable: [])
    cat = fintop3.category
    lattices = {id(lat): i for i, lat in enumerate(fintop3.sub)}

    def key(f):
        return (
            lattices[id(fintop3.sub_dom(f))], lattices[id(fintop3.sub_cod(f))],
            fintop3.img[f], fintop3.pre[f], f in fintop3.mclass, f in fintop3.eclass,
        )

    shared = collections.Counter(map(key, range(cat.n_morphisms)))
    target = next(
        f for f in range(cat.n_morphisms)
        if not cat.is_identity(f) and shared[key(f)] > 100 and fintop3.img[f][-1] != 0
    )
    bad = _corrupt(fintop3, "img", target, -1, 0)  # the top goes below smaller images
    violations = _assert_morphism_laws_match_reference(bad)
    assert violations
    assert {v.where for v in violations} == {cat.mor_names[target]}


def test_per_key_laws_report_a_non_mono_added_to_m(fintop2):
    cat = fintop2.category
    const = cat.morphism_index("discrete2>pt:00")
    assert const not in fintop2.mclass
    bad = SubobjectFibration(
        cat, fintop2.sub, fintop2.img, fintop2.pre, eclass=fintop2.eclass,
        mclass=fintop2.mclass | {const}, fstar=fintop2.fstar, name="broken",
        subsets=fintop2.subsets,
    )
    violations = _assert_morphism_laws_match_reference(bad)
    assert {(v.law, v.where) for v in violations} == {("m-preimage-section", cat.mor_names[const])}


def test_a_lattice_not_ordered_by_inclusion_goes_through_the_scan(fintop2):
    # discrete2's lattice reversed: the subsets and set-level tables are
    # kept, but a subset now lies below the subsets inside it
    cat = fintop2.category
    x = cat.object_index("discrete2")
    dual = FiniteLattice.from_order(fintop2.sub[x].labels, fintop2.sub[x].down)
    bad = SubobjectFibration(
        cat, [dual if y == x else lat for y, lat in enumerate(fintop2.sub)], fintop2.img,
        fintop2.pre, eclass=fintop2.eclass, mclass=fintop2.mclass, fstar=fintop2.fstar,
        name="reversed", subsets=fintop2.subsets,
    )
    violations = _assert_morphism_laws_match_reference(bad)
    assert {v.law for v in violations} >= {"image-monotone", "preimage-monotone"}


def test_subsets_not_closed_under_images_go_through_the_scan(fintop2):
    # discrete2 keeps only its empty and whole subsets, ordered by
    # inclusion; the image of a point in it is missing from the list
    cat = fintop2.category
    x = cat.object_index("discrete2")
    subsets = [(0b00, 0b11) if y == x else masks for y, masks in enumerate(fintop2.subsets)]
    sub = [FiniteLattice.powerset(1) if y == x else lat for y, lat in enumerate(fintop2.sub)]
    img, pre = site.set_level_tables(cat, subsets)
    assert any(-1 in table for table in img)
    bad = SubobjectFibration(
        cat, sub, img, pre, eclass=fintop2.eclass, mclass=fintop2.mclass,
        fstar=[None] * cat.n_morphisms, name="coarse", subsets=subsets,
    )
    violations = _assert_morphism_laws_match_reference(bad)
    assert {v.law for v in violations} == {"table-range"}
    assert cat.mor_names[cat.morphism_by_graph(cat.object_index("pt"), x, (0,))] in {
        v.where for v in violations}


def test_an_e_map_that_is_not_onto_goes_through_the_scan(fintop2):
    cat = fintop2.category
    into = cat.morphism_index("pt>discrete2:0")
    assert into not in fintop2.eclass
    bad = SubobjectFibration(
        cat, fintop2.sub, fintop2.img, fintop2.pre, eclass=fintop2.eclass | {into},
        mclass=fintop2.mclass, fstar=fintop2.fstar, name="broken", subsets=fintop2.subsets,
    )
    violations = _assert_morphism_laws_match_reference(bad)
    assert {(v.law, v.where) for v in violations} == {("e-image-retraction", "pt>discrete2:0")}


@pytest.mark.parametrize(
    "law, row",
    [("table-size", lambda row: row[:2]), ("table-range", lambda row: (*row[:-1], 7))],
)
def test_a_malformed_table_is_reported_not_raised(fintop2, law, row):
    cat = fintop2.category
    target = next(
        f for f in range(cat.n_morphisms)
        if not cat.is_identity(f) and len(fintop2.img[f]) == 4 == fintop2.sub_cod(f).size
    )
    img = list(fintop2.img)
    img[target] = row(img[target])
    bad = _with_tables(fintop2, img=img)
    # the table fails the certificate, so the pair scan runs; it skips the
    # pairs that would index the malformed table, and still counts them
    report = validate_fibration(bad)
    assert [(v.law, v.where) for v in report.violations] == [(law, cat.mor_names[target])]
    assert _morphism_laws(report, cat) == _reference_morphism_laws(bad)
    assert report.counts["laws_certified"] == 0 and report.counts["law_keys_scanned"] > 0


def test_corrupt_image_table_is_reported(fintop2):
    target = next(
        f for f in range(fintop2.category.n_morphisms)
        if not fintop2.category.is_identity(f) and len(fintop2.img[f]) == 4
    )
    img = list(fintop2.img)
    broken = list(img[target])
    broken[3] = 0  # send the top below the image of smaller subobjects
    img[target] = tuple(broken)
    bad = SubobjectFibration(
        category=fintop2.category,
        sub=fintop2.sub,
        img=img,
        pre=fintop2.pre,
        eclass=fintop2.eclass,
        mclass=fintop2.mclass,
        fstar=fintop2.fstar,
        name="broken",
    )
    _, violations = _morphism_laws(validate_fibration(bad), fintop2.category)
    name = fintop2.category.mor_names[target]
    assert any(
        v.where == name and v.law in ("image-monotone", "adjunction")
        for v in violations
    )


def _monotone(source, target, table):
    return all(
        target.leq(table[i], table[j]) for i in range(source.size) for j in mask_iter(source.up[i])
    )


def _unit_and_counit(lx, ly, img, pre):
    """Whether m <= pre[img[m]] for every m, and img[pre[n]] <= n for every n."""
    return (
        all(lx.leq(m, pre[img[m]]) for m in range(lx.size)),
        all(ly.leq(img[pre[n]], n) for n in range(ly.size)),
    )


def test_adjunction_by_unit_and_counit_matches_the_scan_oracle(fintop2):
    # monotone tables of one morphism between 2-point spaces that break only
    # the unit or only the counit: between monotone maps each breaks the
    # adjunction, and the (m, n) scan must name its first mismatch as
    # witness and count its checks up to it
    cat = fintop2.category
    target = next(
        f for f in range(cat.n_morphisms)
        if not cat.is_identity(f) and fintop2.sub_dom(f).size == 4 == fintop2.sub_cod(f).size
        and len(set(cat.graphs[f])) == 2
    )
    lx, ly = fintop2.sub_dom(target), fintop2.sub_cod(target)
    img, pre = fintop2.img[target], fintop2.pre[target]
    pairs = [  # the constant tables at bottom and at top
        (tuple(bound for _ in img), pre) for bound in (0, ly.size - 1)
    ] + [(img, tuple(bound for _ in pre)) for bound in (0, lx.size - 1)]
    for i, value in itertools.product(range(4), range(4)):  # one entry changed
        pairs.append((img[:i] + (value,) + img[i + 1:], pre))
        pairs.append((img, pre[:i] + (value,) + pre[i + 1:]))
    broken = collections.Counter()
    for bad_img, bad_pre in pairs:
        if (bad_img, bad_pre) == (img, pre):
            continue
        if not (_monotone(lx, ly, bad_img) and _monotone(ly, lx, bad_pre)):
            continue
        unit, counit = _unit_and_counit(lx, ly, bad_img, bad_pre)
        broken[unit, counit] += 1
        bad = _with_tables(
            fintop2,
            img=fintop2.img[:target] + (bad_img,) + fintop2.img[target + 1:],
            pre=fintop2.pre[:target] + (bad_pre,) + fintop2.pre[target + 1:],
        )
        violations = _assert_morphism_laws_match_reference(bad)
        assert ("adjunction", cat.mor_names[target]) in {(v.law, v.where) for v in violations}
    assert broken[False, True] >= 2 and broken[True, False] >= 2


def test_fstar_tables_match_generic_right_adjoint(fintop2):
    from topogen.lattice import right_adjoint_of

    for f in range(fintop2.category.n_morphisms):
        adj = right_adjoint_of(fintop2.pre_map(f))
        assert adj is not None and adj.table == fintop2.fstar[f]


@pytest.mark.parametrize("moved, error", [
    ((0b00, 0b01, 0b11), DomainError),          # wrong size
    ((0b00, 0b01, 0b10, 4), DomainError),       # out of range
    ((0b00, 0b01, 0b10, -1), DomainError),      # negative
    ((0b00, 0b01, 0b10, 0b00), PreconditionError),  # not monotone
])
def test_constructor_rejects_a_malformed_preimage_table_without_fstar(fintop2, moved, error):
    f = fintop2.category.morphism_index("discrete2>discrete2:10")
    _assert_rejected_as_a_monotone_map(fintop2, f, moved, error)


def test_constructor_rejects_a_non_monotone_subgroup_preimage_table(grp_small):
    f = next(
        f for f in sorted(grp_small.mclass)
        if grp_small.sub_dom(f).size >= 2 and grp_small.sub_cod(f).size >= 3
    )
    # an injection pulls back the image of its domain to the whole domain;
    # send the whole codomain to the trivial subgroup instead
    moved = list(grp_small.pre[f])
    moved[grp_small.sub_cod(f).top] = grp_small.sub_dom(f).bottom
    _assert_rejected_as_a_monotone_map(grp_small, f, tuple(moved), PreconditionError)


def _assert_rejected_as_a_monotone_map(fib, f, moved, error):
    """Without fstar, the constructor raises what ``MonotoneMap`` raises on
    the moved table: the same type, message and witness."""
    with pytest.raises(error) as expected:
        MonotoneMap(fib.sub_cod(f), fib.sub_dom(f), moved)
    with pytest.raises(error) as got:
        SubobjectFibration(
            category=fib.category, sub=fib.sub, img=fib.img,
            pre=fib.pre[:f] + (moved,) + fib.pre[f + 1:], eclass=fib.eclass, mclass=fib.mclass,
        )
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
    assert getattr(got.value, "witness", None) == getattr(expected.value, "witness", None)


def _with_tables(fib, img=None, pre=None, keep_subsets=True):
    """``fib`` with the given tables; set-level subsets only if kept."""
    return SubobjectFibration(
        category=fib.category,
        sub=fib.sub,
        img=img if img is not None else fib.img,
        pre=pre if pre is not None else fib.pre,
        eclass=fib.eclass,
        mclass=fib.mclass,
        fstar=fib.fstar,
        name="broken",
        subsets=fib.subsets if keep_subsets else None,
    )


@pytest.mark.parametrize("table, law", [("img", "image-functorial"), ("pre", "preimage-functorial")])
def test_corrupt_composite_table_breaks_functoriality(fintop2, table, law):
    cat = fintop2.category
    g, f = next(
        (g, f) for g, f in composable_pairs(cat)
        if cat.graphs[f] and cat.compose(g, f) not in (g, f)
        and not any(cat.is_identity(m) for m in (g, f, cat.compose(g, f)))
    )
    h = cat.compose(g, f)
    tables = list(getattr(fintop2, table))
    broken = list(tables[h])
    assert broken[-1] != 0  # the whole (nonempty) space goes to a nonempty set
    broken[-1] = 0
    tables[h] = tuple(broken)
    report = validate_fibration(_with_tables(fintop2, **{table: tables}))
    assert report.counts["functoriality_certified"] == 0
    hits = [v.where for v in report.violations if v.law.endswith("-functorial")]
    assert f"{cat.mor_names[g]} o {cat.mor_names[f]}" in hits
    assert all(v.law == law for v in report.violations if v.law.endswith("-functorial"))
    # every reported pair has the corrupted morphism as a factor or composite
    for where in hits:
        left, right = map(cat.morphism_index, where.split(" o "))
        assert h in (left, right, cat.compose(left, right))


def _reference_functoriality(fib):
    """The per-pair scan: compose every composable pair and compare tables."""
    cat = fib.category
    img, pre, names = fib.img, fib.pre, cat.mor_names
    checked = 0
    violations = []
    for g, f in composable_pairs(cat):
        checked += 1
        h = cat.compose(g, f)
        if tuple(map(img[g].__getitem__, img[f])) != img[h]:
            violations.append(Violation("image-functorial", where=f"{names[g]} o {names[f]}"))
        if tuple(map(pre[f].__getitem__, pre[g])) != pre[h]:
            violations.append(Violation("preimage-functorial", where=f"{names[g]} o {names[f]}"))
    return checked, violations


def _assert_functoriality_matches_reference(fib):
    full = validate_fibration(fib)
    checked = full.checked - _reference_morphism_laws(fib)[0]
    got = [v for v in full.violations if v.law.endswith("-functorial")]
    assert (checked, got) == _reference_functoriality(fib)
    return got


def _corrupt(fib, table, m, i, value):
    tables = list(getattr(fib, table))
    row = list(tables[m])
    assert row[i] != value
    row[i] = value
    tables[m] = tuple(row)
    return _with_tables(fib, **{table: tables})


def test_functoriality_scan_matches_per_pair_reference(fintop2, grp_small):
    from test_harness import loop_fibration

    for fib in (fintop2, grp_small):
        assert _assert_functoriality_matches_reference(fib) == []
    # a Cayley-graph category; the images of its constant loops are not functorial
    loop = loop_fibration(FiniteLattice.powerset(1), extra_pre_tables=((0, 0), (1, 1)))
    assert _assert_functoriality_matches_reference(loop)


def _scan_must_not_run(fib, unusable):
    raise AssertionError(f"the per-pair functoriality scan ran on {fib.name}")


# every built-in fibration but the two in test_functoriality_exhaustive_at_scale
@pytest.mark.parametrize("name", [n for n in FIBRATION_NAMES if n not in ("fintop3", "grp_le8")])
def test_intact_fibrations_are_certified_without_the_scan(monkeypatch, name):
    from topogen.instances.registry import builtin_fibration

    fib = builtin_fibration(name)
    assert site._functoriality_violations(fib, set()) == []
    monkeypatch.setattr(site, "_functoriality_violations", _scan_must_not_run)
    assert _assert_functoriality_matches_reference(fib) == []


@pytest.mark.parametrize(
    "name", ["fintop2", "grp_small", "disc2_loop", "t0_small", "coreflect_small", "topgrp_le4"],
)
def test_the_plain_scan_and_walk_give_the_certified_report(name):
    from topogen.instances.registry import builtin_fibration

    # without subsets nothing is certified: the per-key laws are scanned
    # and every composable pair is walked, to the same count and verdict
    fib = builtin_fibration(name)
    certified = validate_fibration(fib)
    assert certified.counts["laws_certified"] == 1 == certified.counts["functoriality_certified"]
    plain = validate_fibration(_with_tables(fib, keep_subsets=False))
    assert (plain.checked, plain.violations) == (certified.checked, ())
    assert plain.counts["laws_certified"] == 0 == plain.counts["functoriality_certified"]
    assert plain.counts["law_keys_scanned"] > 0


def test_functorial_tables_off_the_set_level_ones_go_through_the_scan(monkeypatch, fintop2):
    # relabel discrete2's subobjects by the lattice automorphism swapping {0}
    # and {1}: every table is conjugated, so no pair law breaks, yet the
    # tables at discrete2 are no longer the set-level image and preimage
    cat = fintop2.category
    swap = [tuple(range(lat.size)) for lat in fintop2.sub]
    swap[cat.object_index("discrete2")] = (0, 2, 1, 3)
    dom, cod = cat.mor_dom, cat.mor_cod
    img = [
        tuple(swap[cod[f]][t[swap[dom[f]][i]]] for i in range(len(t)))
        for f, t in enumerate(fintop2.img)
    ]
    pre = [
        tuple(swap[dom[f]][t[swap[cod[f]][j]]] for j in range(len(t)))
        for f, t in enumerate(fintop2.pre)
    ]
    assert img != list(fintop2.img) and pre != list(fintop2.pre)
    relabelled = _with_tables(fintop2, img=img, pre=pre)
    scan = site._functoriality_violations
    scanned = []
    monkeypatch.setattr(
        site, "_functoriality_violations",
        lambda fib, unusable: scanned.append(fib.name) or scan(fib, unusable),
    )
    assert _assert_functoriality_matches_reference(relabelled) == []
    assert scanned == ["broken"]
    report = validate_fibration(relabelled)
    assert report.ok and report.counts["functoriality_certified"] == 0


def test_functoriality_scan_matches_reference_on_corrupted_tables(fintop2):
    cat = fintop2.category
    plain = [
        m for m in range(cat.n_morphisms)
        if not cat.is_identity(m) and len(fintop2.img[m]) == 4 == len(fintop2.pre[m])
    ]
    # a morphism with a twin out of its object: same graph, same image table
    twin = next(
        g for g in plain for h in cat.morphisms_from[cat.mor_dom[g]]
        if h != g and cat.graphs[h] == cat.graphs[g] and fintop2.img[h] == fintop2.img[g]
    )
    composite = plain[len(plain) // 2]
    factor = plain[-1]
    both = _corrupt(_corrupt(fintop2, "img", composite, 3, 0), "pre", composite, 3, 0)
    for fib, m in (
        (_corrupt(fintop2, "img", composite, 3, 0), composite),
        (_corrupt(fintop2, "pre", factor, 3, 0), factor),
        (_corrupt(fintop2, "img", twin, 3, 0), twin),
        (both, composite),  # one pair breaks both laws, image first
    ):
        got = _assert_functoriality_matches_reference(fib)
        assert any(cat.mor_names[m] in v.where for v in got)
    assert len({v.law for v in got}) == 2


def _reference_violations(fib, unusable):
    """The pairs of ``composites`` compared only where g, f or g∘f has
    tables off the set-level ones (every pair without ``subsets``) and none
    is in ``unusable``: pairs of set-level tables compose as direct images
    and preimages do, so ``site._functoriality_violations``, which compares
    every pair, must report exactly these."""
    cat = fib.category
    img, pre, names = fib.img, fib.pre, cat.mor_names
    off = set(range(cat.n_morphisms))
    if fib.subsets is not None:
        tables = zip(*site.set_level_tables(cat, fib.subsets))
        off = {f for f, t in enumerate(tables) if t != (img[f], pre[f])}
    found = []
    for g, f, h in cat.composites():
        if not (g in off or f in off or h in off) or g in unusable or f in unusable or h in unusable:
            continue
        if tuple(map(img[g].__getitem__, img[f])) != img[h]:
            found.append(Violation("image-functorial", where=f"{names[g]} o {names[f]}"))
        if tuple(map(pre[f].__getitem__, pre[g])) != pre[h]:
            found.append(Violation("preimage-functorial", where=f"{names[g]} o {names[f]}"))
    return found


def _walk_outcome(walk, fib, unusable=frozenset()):
    """The walk's violations, or the message of the error it raises."""
    try:
        return walk(fib, unusable)
    except InternalConsistencyError as error:
        return str(error)


def _moved_last_entry(fib, table, m):
    """``fib`` with the last entry of morphism m's ``table`` moved to another
    element of its lattice, or None when that lattice has one element."""
    size = len(fib.pre[m] if table == "img" else fib.img[m])
    row = getattr(fib, table)[m]
    return _corrupt(fib, table, m, -1, (row[-1] + 1) % size) if size > 1 else None


@pytest.mark.parametrize("name", ["fintop2", "grp_small"])
def test_functoriality_violations_match_the_full_walk(name):
    from topogen.instances.registry import builtin_fibration

    fib = builtin_fibration(name)
    cat = fib.category
    found = 0
    # one table moved at a time, on every third morphism
    for m in range(0, cat.n_morphisms, 3):
        for table in ("img", "pre"):
            moved = _moved_last_entry(fib, table, m)
            if moved is not None:
                want = _walk_outcome(_reference_violations, moved)
                assert _walk_outcome(site._functoriality_violations, moved) == want
                found += len(want)
    # a table of the wrong size, skipped with every pair through it
    plain = next(m for m in range(cat.n_morphisms) if not cat.is_identity(m))
    short = _with_tables(fib, img=[t[:-1] if m == plain else t for m, t in enumerate(fib.img)])
    want = _walk_outcome(_reference_violations, short, {plain})
    assert _walk_outcome(site._functoriality_violations, short, {plain}) == want
    # every single-morphism cut, one table moved too: a cut that is not
    # closed raises the walk's first missing composite
    raised = 0
    for drop in range(cat.n_morphisms):
        if cat.is_identity(drop):
            continue
        cut = _without(fib, drop)
        for case in (cut, _moved_last_entry(cut, "img", drop % cut.category.n_morphisms)):
            if case is not None:
                want = _walk_outcome(_reference_violations, case)
                assert _walk_outcome(site._functoriality_violations, case) == want
                raised += isinstance(want, str)
    assert found and raised
    assert _walk_outcome(site._functoriality_violations, fib) == []


def _without(fib, drop, keep_subsets=True):
    """The fibration on the category left after dropping morphism ``drop``,
    with the other morphisms' tables; set-level subsets only if kept."""
    cat = fib.category
    keep = [m for m in range(cat.n_morphisms) if m != drop]
    new = {m: i for i, m in enumerate(keep)}
    cut = FiniteCategory(
        cat.object_names,
        [cat.mor_dom[m] for m in keep],
        [cat.mor_cod[m] for m in keep],
        [cat.mor_names[m] for m in keep],
        [new[i] for i in cat.identities],
        graphs=[cat.graphs[m] for m in keep],
    )
    return SubobjectFibration(
        cut, fib.sub, [fib.img[m] for m in keep], [fib.pre[m] for m in keep],
        eclass=frozenset(new[m] for m in fib.eclass if m != drop),
        mclass=frozenset(new[m] for m in fib.mclass if m != drop),
        fstar=[fib.fstar[m] for m in keep], backend=fib.backend, name="cut",
        subsets=fib.subsets if keep_subsets else None,
    )


@pytest.mark.parametrize("kind", ["graphs", "graphs+subsets"])
def test_functoriality_scan_reports_a_missing_composite_like_compose(kind):
    from topogen.instances.topology import fintop_fibration
    from topogen.instances.registry import builtin_space

    # the constant endomap 0 of Sierpinski space factors only through the
    # point; the point's own constant map has the same graph, so the
    # composite check must compare codomains, not graphs alone
    fib = fintop_fibration([builtin_space("pt"), builtin_space("sierpinski")])
    fib = _without(
        fib, fib.category.morphism_index("sierpinski>sierpinski:00"),
        keep_subsets=kind == "graphs+subsets",
    )
    cut = fib.category
    with pytest.raises(InternalConsistencyError) as want:
        _reference_functoriality(fib)
    with pytest.raises(InternalConsistencyError) as got:
        validate_fibration(fib)
    assert str(got.value) == str(want.value)
    assert "not closed under composition" in str(got.value)
    # the category check composes the same missing pair before any triple
    with pytest.raises(InternalConsistencyError) as want:
        _reference_category(cut)
    with pytest.raises(InternalConsistencyError) as got:
        validate_category(cut)
    assert str(got.value) == str(want.value)


# -- the composition walk and isomorphisms by graph, against compose ----------


@pytest.mark.parametrize("name", FIBRATION_NAMES)
def test_composites_match_compose_per_pair(name):
    from topogen.instances.registry import builtin_fibration

    cat = builtin_fibration(name).category
    step = 13 if name == "fintop3" else 1  # every 13th f of fintop3's 11 345
    want = (
        (g, f, cat.compose(g, f))
        for f in range(0, cat.n_morphisms, step) for g in cat.morphisms_from[cat.mor_cod[f]]
    )
    got = (triple for triple in cat.composites() if triple[1] % step == 0)
    walked = 0
    for pair in itertools.zip_longest(got, want):
        assert pair[0] == pair[1]
        walked += 1
    if step == 1:
        assert walked == _pair_count(cat)


def _reference_isomorphisms(cat):
    """The f with some g: cod f -> dom f such that g∘f and f∘g are the
    identities, probed with ``compose``."""
    return frozenset(
        f for f in range(cat.n_morphisms)
        if any(
            cat.mor_cod[g] == cat.mor_dom[f]
            and cat.compose(g, f) == cat.identities[cat.mor_dom[f]]
            and cat.compose(f, g) == cat.identities[cat.mor_cod[f]]
            for g in cat.morphisms_from[cat.mor_cod[f]]
        )
    )


@pytest.mark.parametrize("name", FIBRATION_NAMES)
def test_isomorphisms_by_graph_match_the_compose_probe(name):
    from topogen.instances.registry import builtin_fibration

    cat = builtin_fibration(name).category
    isos = cat.isomorphisms()
    assert isos == _reference_isomorphisms(cat)
    assert isos >= set(cat.identities)


def test_isomorphisms_are_the_point_swaps_on_fintop2(fintop2):
    cat = fintop2.category
    names = {cat.mor_names[f] for f in cat.isomorphisms() if not cat.is_identity(f)}
    # the identity on points discrete2 -> sierpinski is a bijection whose
    # inverse is not continuous, so it is no iso
    assert names == {
        "discrete2>discrete2:10", "indiscrete2>indiscrete2:10",
        "sierpinski>sierpinski_op:10", "sierpinski_op>sierpinski:10",
    }


def test_composites_raise_like_compose_at_the_first_missing_composite():
    from topogen.instances.topology import fintop_fibration
    from topogen.instances.registry import builtin_space

    fib = fintop_fibration([builtin_space("pt"), builtin_space("sierpinski")])
    cut = _without(fib, fib.category.morphism_index("sierpinski>sierpinski:00")).category
    composed = []
    with pytest.raises(InternalConsistencyError) as want:
        for g, f in composable_pairs(cut):
            composed.append((g, f, cut.compose(g, f)))
    walked = []
    with pytest.raises(InternalConsistencyError) as got:
        for triple in cut.composites():
            walked.append(triple)
    assert str(got.value) == str(want.value)
    assert "not closed under composition" in str(got.value)
    assert walked == composed


def test_morphism_by_graph(fintop2, grp_small):
    cat = fintop2.category
    for f in range(cat.n_morphisms):
        assert cat.morphism_by_graph(cat.mor_dom[f], cat.mor_cod[f], cat.graphs[f]) == f
    pt = cat.object_index("pt")
    assert cat.morphism_by_graph(pt, pt, (1,)) is None
    s3 = grp_small.category.object_index("s3")
    assert grp_small.category.morphism_by_graph(s3, s3, tuple(range(6))) == (
        grp_small.category.identities[s3]
    )


# ---------------------------------------------------------------------------
# factorization


def test_factorize_identity(fintop2):
    ident = fintop2.category.morphism_index("id_sierpinski")
    e, m = factorize(fintop2, ident)
    assert e == ident and m == ident


def test_factorize_constant_surjection(fintop2):
    f = fintop2.category.morphism_index("discrete2>pt:00")
    e, m = factorize(fintop2, f)
    assert e == f
    assert m == fintop2.category.morphism_index("id_pt")
    assert e in fintop2.eclass and m in fintop2.mclass


def test_factorize_through_image_subspace(fintop2):
    f = fintop2.category.morphism_index("pt>sierpinski:1")
    e, m = factorize(fintop2, f)
    cat = fintop2.category
    assert cat.compose(m, e) == f
    assert e in fintop2.eclass and m in fintop2.mclass
    # the middle object is the open singleton subspace, i.e. a point
    assert cat.object_names[cat.mor_cod[e]] == "pt"


def test_factorize_group_sign_map(grp_small):
    cat = grp_small.category
    s3, z2 = cat.object_index("s3"), cat.object_index("z2")
    sign = next(
        f for f in range(cat.n_morphisms)
        if cat.mor_dom[f] == s3 and cat.mor_cod[f] == z2 and len(set(cat.graphs[f])) == 2
    )
    e, m = factorize(grp_small, sign)
    assert e == sign
    assert m == cat.identities[z2]


def test_factorize_unsupported_backend():
    fib = trivial_fibration()
    with pytest.raises(CapabilityError):
        factorize(fib, 0)


# ---------------------------------------------------------------------------
# pullbacks


def test_pullback_along_identity(fintop2):
    cat = fintop2.category
    f = cat.morphism_index("discrete2>pt:00")
    p = cat.morphism_index("id_pt")
    sq = pullback(fintop2, f, p)
    assert sq.f == f and sq.p == p
    assert sq.f_prime == f or cat.graphs[sq.f_prime] == cat.graphs[f]
    assert cat.is_identity(sq.p_prime)


def test_pullback_of_constant_along_point(fintop2):
    cat = fintop2.category
    f = cat.morphism_index("discrete2>pt:00")
    sq = pullback(fintop2, f, cat.morphism_index("id_pt"))
    corner = cat.mor_dom[sq.f_prime]
    assert cat.object_names[corner] == "discrete2"


def test_pullback_with_empty_corner(fintop2):
    cat = fintop2.category
    f = cat.morphism_index("pt>sierpinski:1")
    p = cat.morphism_index("pt>sierpinski:0")
    sq = pullback(fintop2, f, p)
    assert cat.object_names[cat.mor_dom[sq.f_prime]] == "empty"


def test_pullback_needs_a_cospan(fintop2):
    cat = fintop2.category
    with pytest.raises(DomainError):
        pullback(fintop2, cat.morphism_index("id_pt"), cat.morphism_index("id_empty"))


def _carrier(cat, f, p):
    """The set fibre product {(a, b) : f(a) = p(b)} of the cospan f, p, in
    lexicographic order."""
    gf, gp = cat.graphs[f], cat.graphs[p]
    return tuple((a, b) for a, x in enumerate(gf) for b, y in enumerate(gp) if x == y)


def _box_union_corner(sx, syp, carrier):
    """Reference pullback corner over the given carrier: the (n, opens) of
    the subspace of the product topology of sx x syp, built as the unions
    of open boxes folded to a fixpoint."""
    # the box U x V meets the carrier in (points over U) & (points over V)
    over_x = [sum(1 << i for i, (a, _) in enumerate(carrier) if u >> a & 1) for u in sx.opens]
    over_y = [sum(1 << i for i, (_, b) in enumerate(carrier) if v >> b & 1) for v in syp.opens]
    boxes = {mu & mv for mu in over_x for mv in over_y}
    opens = set(boxes)
    frontier = set(boxes)
    while frontier:
        frontier = {a | b for a in frontier for b in boxes} - opens
        opens |= frontier
    return len(carrier), tuple(sorted(opens))


def _assert_corners_match_box_unions(fib, cospans):
    """Check each cospan's pullback against the box-union corner.  The
    reference corner is a function of (dom p, dom f, carrier), so it is
    computed once per such key."""
    cat = fib.category
    spaces = spaces_of(fib)
    max_points = max(s.n for s in spaces)
    corners = {}
    built = 0
    for f, p in cospans:
        carrier = _carrier(cat, f, p)
        if len(carrier) > max_points:
            with pytest.raises(CapabilityError):
                pullback(fib, f, p)
            continue
        key = (cat.mor_dom[p], cat.mor_dom[f], carrier)
        if key not in corners:
            corners[key] = _box_union_corner(spaces[key[1]], spaces[key[0]], carrier)
        sq = pullback(fib, f, p)
        corner = spaces[cat.mor_dom[sq.f_prime]]
        assert (corner.n, corner.opens) == corners[key]
        assert cat.graphs[sq.p_prime] == tuple(a for a, _ in carrier)
        assert cat.graphs[sq.f_prime] == tuple(b for _, b in carrier)
        built += 1
    # one memo entry per corner topology at most
    assert len(fib.backend.corners) <= cat.n_objects
    return built


def _sweep_cospans(fib):
    """The cospans (f, p) of the E∪M pullback-transfer sweep, in its order."""
    cat = fib.category
    return (
        (f, p) for p in sorted(fib.eclass | fib.mclass) for f in cat.morphisms_to[cat.mor_cod[p]]
    )


def test_pullback_corners_match_box_unions_on_fintop2(fintop2):
    cat = fintop2.category
    cospans = [
        (f, p) for p in range(cat.n_morphisms) for f in cat.morphisms_to[cat.mor_cod[p]]
    ]
    # both branches: corners built, and carriers beyond two points refused
    assert 0 < _assert_corners_match_box_unions(fintop2, cospans) < len(cospans)


def test_pullback_corners_match_box_unions_on_fintop3_slice(fintop3):
    swept = _sweep_cospans(fintop3)
    built = _assert_corners_match_box_unions(fintop3, itertools.islice(swept, 0, None, 13))
    assert built > 50_000


@functools.lru_cache(maxsize=None)
def _relation_representatives(fib):
    """One sweep cospan per (dom p, dom f, carrier) key, the key of the
    sweep's relation memo."""
    cat = fib.category
    shapes = {}
    for f, p in _sweep_cospans(fib):
        shapes.setdefault((cat.mor_dom[p], cat.graphs[p], cat.mor_dom[f], cat.graphs[f]), (f, p))
    representatives = {}
    for f, p in shapes.values():
        representatives.setdefault((cat.mor_dom[p], cat.mor_dom[f], _carrier(cat, f, p)), (f, p))
    return tuple(representatives.values())


def test_pullback_corners_match_box_unions_on_every_fintop3_relation(fintop3):
    # the sweep builds one pullback per (dom p, dom f, carrier) key, so one
    # representative cospan per key proves every corner it builds
    representatives = _relation_representatives(fintop3)
    assert len(representatives) == 47_095
    built = _assert_corners_match_box_unions(fintop3, representatives)
    assert 0 < built < len(representatives)


def _reference_pullback(fib, f, p):
    """The carrier-scan pullback: R listed pair by pair from both graphs,
    each point's neighbourhood in the corner read off the carrier, and the
    corner and both legs looked up in the fibration."""
    from topogen.instances.topology import space_of_neighbourhoods

    backend, cat = fib.backend, fib.category
    xf, yp = cat.mor_dom[f], cat.mor_dom[p]
    gf, gp = cat.graphs[f], cat.graphs[p]
    nx, nyp = backend.nbhds[xf], backend.nbhds[yp]
    carrier = [(a, b) for a in range(len(gf)) for b in range(len(gp)) if gf[a] == gp[b]]
    if len(carrier) > backend.max_points:
        raise CapabilityError(
            f"pullback carrier has {len(carrier)} points, beyond this fibration's scale"
        )
    key = []
    for a, b in carrier:
        u, v = nx[a], nyp[b]
        nbhd = 0
        for i, (c, d) in enumerate(carrier):
            if u >> c & 1 and v >> d & 1:
                nbhd |= 1 << i
        key.append(nbhd)
    corner = backend._object_of(space_of_neighbourhoods(tuple(key)))
    p_prime = backend._morphism_of(fib, corner, xf, tuple(a for a, _ in carrier))
    f_prime = backend._morphism_of(fib, corner, yp, tuple(b for _, b in carrier))
    return PullbackSquare(fib, f_prime=f_prime, p=p, p_prime=p_prime, f=f)


def _outcome(build, fib, f, p):
    """The legs of a pullback, or the message of its ``CapabilityError``."""
    try:
        sq = build(fib, f, p)
    except CapabilityError as exc:
        return str(exc)
    return sq.f_prime, sq.p_prime


def _assert_pullbacks_match_reference(fib, cospans):
    """``pullback`` against the carrier scan: equal legs, or the same
    refusal.  Returns the number of each outcome kind."""
    kinds = collections.Counter()
    for f, p in cospans:
        got = _outcome(pullback, fib, f, p)
        assert got == _outcome(_reference_pullback, fib, f, p), (f, p)
        kinds[got if isinstance(got, str) else "built"] += 1
    return kinds


def test_pullbacks_match_the_carrier_scan_on_fintop2(fintop2):
    kinds = _assert_pullbacks_match_reference(fintop2, _sweep_cospans(fintop2))
    assert kinds["built"] == 505 and kinds[
        "pullback carrier has 4 points, beyond this fibration's scale"] == 16


def test_pullbacks_match_the_carrier_scan_on_every_fintop3_relation(fintop3):
    kinds = _assert_pullbacks_match_reference(fintop3, _relation_representatives(fintop3))
    assert kinds["built"] == 27_997 and sum(kinds.values()) == 47_095


def test_pullbacks_match_the_carrier_scan_where_corners_are_not_objects():
    from topogen.instances.topology import SIERPINSKI, discrete, fintop_fibration

    fib = fintop_fibration([SIERPINSKI, discrete(2), discrete(3)])
    cat = fib.category
    cospans = [(f, p) for p in range(cat.n_morphisms) for f in cat.morphisms_to[cat.mor_cod[p]]]
    kinds = _assert_pullbacks_match_reference(fib, cospans)
    # both refusals occur: carriers beyond three points, and corners of
    # at most one point, which are not objects
    assert kinds["built"] > 0
    assert kinds["required 0-point space is not an object of this fibration"] > 0
    assert kinds["required 1-point space is not an object of this fibration"] > 0
    assert kinds["pullback carrier has 4 points, beyond this fibration's scale"] > 0


def test_bcp_on_identity_square(fintop2):
    cat = fintop2.category
    i = cat.morphism_index("id_sierpinski")
    sq = PullbackSquare(fintop2, f_prime=i, p=i, p_prime=i, f=i)
    result = check_bcp(sq)
    assert result.lemma_inequality_holds and result.bcp_equality


def test_commuting_non_pullback_square_fails_equality(fintop2):
    cat = fintop2.category
    ident = cat.morphism_index("id_pt")
    empty_to_pt = cat.morphism_index("empty>pt:-")
    sq = PullbackSquare(fintop2, f_prime=empty_to_pt, p=ident, p_prime=empty_to_pt, f=ident)
    result = check_bcp(sq)
    assert result.lemma_inequality_holds
    assert not result.bcp_equality
    assert result.witness == ("{0}", "equality")


def test_non_commuting_square_is_rejected(fintop2):
    cat = fintop2.category
    swap = cat.morphism_index("discrete2>discrete2:10")
    ident = cat.morphism_index("id_discrete2")
    const = cat.morphism_index("discrete2>discrete2:00")
    with pytest.raises(DomainError):
        PullbackSquare(fintop2, f_prime=swap, p=ident, p_prime=ident, f=const)


def test_generated_pullback_squares_satisfy_bcp(fintop2):
    cat = fintop2.category
    squares = 0
    for p in sorted(fintop2.eclass | fintop2.mclass):
        for f in cat.morphisms_to[cat.mor_cod[p]]:
            try:
                sq = pullback(fintop2, f, p)
            except CapabilityError:
                continue
            squares += 1
            result = check_bcp(sq)
            assert result.lemma_inequality_holds
            assert result.bcp_equality
    assert squares > 400


def test_lemma_inequality_on_all_commuting_squares(fintop2):
    # quantifies over every commuting square of the category, pullback or not
    cat = fintop2.category
    checked = 0
    for f_prime in range(cat.n_morphisms):
        x_prime, y_prime = cat.mor_dom[f_prime], cat.mor_cod[f_prime]
        for p in cat.morphisms_from[y_prime]:
            top = cat.compose(p, f_prime)
            for p_prime in cat.morphisms_from[x_prime]:
                for f in cat.morphisms_from[cat.mor_cod[p_prime]]:
                    if cat.mor_cod[f] != cat.mor_cod[p]:
                        continue
                    if cat.compose(f, p_prime) != top:
                        continue
                    sq = PullbackSquare(fintop2, f_prime=f_prime, p=p, p_prime=p_prime, f=f)
                    assert check_bcp(sq).lemma_inequality_holds
                    checked += 1
    assert checked > 1000


def test_certificate_rejects_one_corrupted_preimage_entry(fintop3):
    # the last morphism whose (subsets, subsets, graph) key came up before
    # reads the memoised set-level tables, and must still be compared
    cat = fintop3.category
    subsets, dom, cod = fintop3.subsets, cat.mor_dom, cat.mor_cod
    seen = set()
    for f in range(cat.n_morphisms):
        key = (subsets[dom[f]], subsets[cod[f]], cat.graphs[f])
        if key in seen and fintop3.pre[f][-1] != 0:
            target = f
        seen.add(key)
    assert site._set_level_keys(fintop3) is not None and _reference_set_level(fintop3)
    assert site.composition_closed(cat) == _reference_closed(cat) is True
    # the set-level tables are memoised per category, and fintop3's tables
    # are the memo's own objects; the corrupted copy shares the category
    assert subsets in cat._set_level
    assert site.set_level_tables(cat, subsets)[1][target] is fintop3.pre[target]
    # the preimage of the whole codomain becomes empty
    bad = _corrupt(fintop3, "pre", target, -1, 0)
    assert bad.category is cat and bad.subsets == subsets
    assert site._set_level_keys(bad) is None and not _reference_set_level(bad)


def test_the_set_level_tables_go_with_their_category():
    import gc
    import weakref

    from topogen.instances.topology import SIERPINSKI, discrete, fintop_fibration

    # the memo is the category's own: no module-level table keeps an entry
    # (or, keyed by id(), hands it to a later category at the same address)
    fib = fintop_fibration([discrete(2), SIERPINSKI], name="collected")
    assert validate_fibration(fib).ok
    cat = fib.category
    assert list(cat._set_level) == [fib.subsets]
    gone = weakref.ref(cat)
    del fib, cat
    gc.collect()
    assert gone() is None


def test_functoriality_exhaustive_at_scale(monkeypatch, fintop3):
    from topogen.instances.registry import builtin_fibration

    # both are certified per morphism: the per-pair scan never runs
    monkeypatch.setattr(site, "_functoriality_violations", _scan_must_not_run)
    report = validate_fibration(fintop3)
    assert report.ok
    # (x, γ) pairs, their orbits under the permutation letters, restrictions
    # over all (Y, S) merges, and lookups; the per-morphism laws are
    # certified, no key scanned
    assert report.counts == {
        "domain_graphs": 823, "orbits": 648, "merged_restrictions": 901, "lookups": 7885,
        "laws_certified": 1, "functoriality_certified": 1, "law_keys_scanned": 0}
    # C2^3's 168 automorphisms fold its 512 graphs out into few orbits
    report = validate_fibration(builtin_fibration("grp_le8"))
    assert report.ok
    assert report.counts == {
        "domain_graphs": 934, "orbits": 194, "merged_restrictions": 1458, "lookups": 8383,
        "laws_certified": 1, "functoriality_certified": 1, "law_keys_scanned": 0}


def _reference_set_level(fib):
    """The set-level half of ``validate_fibration``'s functoriality
    certificate: ``fib`` has subsets, and every table is the set-level one."""
    if fib.subsets is None:
        return False
    img, pre = site.set_level_tables(fib.category, fib.subsets)
    return tuple(img) == fib.img and tuple(pre) == fib.pre


def _reference_closed(cat):
    """The closure half: ``site.composition_closed`` checked per (graph into
    y, graph out of y) pair, where every codomain of a graph out of y needs
    a morphism with the composed graph from every domain of a graph into y."""
    graphs, dom, cod = cat.graphs, cat.mor_dom, cat.mor_cod
    cods = [{} for _ in range(cat.n_objects)]
    for h, graph in enumerate(graphs):
        cods[dom[h]].setdefault(graph, set()).add(cod[h])
    for y in range(cat.n_objects):
        outs = {}
        for g in cat.morphisms_from[y]:
            outs.setdefault(graphs[g], set()).add(cod[g])
        ins = {}
        for f in cat.morphisms_to[y]:
            ins.setdefault(graphs[f], []).append(cods[dom[f]])
        for graph_f, sources in ins.items():
            for graph_g, targets in outs.items():
                composed = tuple(map(graph_g.__getitem__, graph_f))
                for reached in sources:
                    if not targets <= reached.get(composed, frozenset()):
                        return False
    return True


@pytest.mark.parametrize("name", FIBRATION_NAMES)
def test_closure_by_image_restriction_matches_the_pair_oracle(name):
    from topogen.instances.registry import builtin_fibration

    fib = builtin_fibration(name)
    assert site.composition_closed(fib.category) == _reference_closed(fib.category) is True
    assert (site._set_level_keys(fib) is not None) == _reference_set_level(fib) is True


# -- the per-morphism subset fibration, kept as the reference ------------------


def _reference_unions(masks, parts, index):
    """Per mask, the index in ``index`` of the union of ``parts[p]`` over its
    points p, or -1: from the mask without its lowest point when that came
    earlier in ``masks``, else gathered point by point."""
    unions = {0: 0}
    out = []
    for mask in masks:
        rest = mask & (mask - 1)
        if mask and rest in unions:
            union = unions[rest] | parts[(mask ^ rest).bit_length() - 1]
        else:
            union = 0
            for p in mask_iter(mask):
                union |= parts[p]
        unions[mask] = union
        out.append(index.get(union, -1))
    return tuple(out)


def _reference_set_level_tables(cat, subsets):
    """Per morphism, the image and preimage tables, one dict lookup per mask,
    memoised per (subsets of dom, subsets of cod, graph)."""
    index = [{mask: i for i, mask in enumerate(masks)} for masks in subsets]
    sets, _ = site.intern(subsets)
    tables = {}
    img, pre = [], []
    for f, graph in enumerate(cat.graphs):
        x, y = cat.mor_dom[f], cat.mor_cod[f]
        key = (sets[x], sets[y], graph)
        if key not in tables:
            fibres = [0] * len(cat.graphs[cat.identities[y]])
            for e, ge in enumerate(graph):
                fibres[ge] |= 1 << e
            tables[key] = (
                _reference_unions(subsets[x], [1 << ge for ge in graph], index[y]),
                _reference_unions(subsets[y], fibres, index[x]),
            )
        img.append(tables[key][0])
        pre.append(tables[key][1])
    return img, pre


def _reference_complement_formula(img, pre):
    """A goes to Y minus f(X minus A), reading ``img`` at X minus A."""
    full_x, full_y = len(img) - 1, len(pre) - 1
    return tuple(full_y ^ img[full_x ^ a] for a in range(full_x + 1))


def _reference_subset_fibration(fib, fstar_formula):
    """``site.subset_fibration`` on ``fib``'s category, lattices, subsets and
    M, morphism by morphism: the formula runs once per pair of table
    objects, keyed by their ids, and E is read off each graph."""
    cat = fib.category
    img, pre = _reference_set_level_tables(cat, fib.subsets)
    fstar = None
    if fstar_formula is not None:
        adjoints = {}
        fstar = []
        for tables in zip(img, pre):
            key = tuple(map(id, tables))
            if key not in adjoints:
                adjoints[key] = fstar_formula(*tables)
            fstar.append(adjoints[key])
    graphs, ids, cod = cat.graphs, cat.identities, cat.mor_cod
    eclass = frozenset(
        f for f, graph in enumerate(graphs) if len(set(graph)) == len(graphs[ids[cod[f]]])
    )
    return SubobjectFibration(
        cat, fib.sub, img, pre, eclass, fib.mclass, fstar=fstar, subsets=fib.subsets,
    )


def _assert_subset_fibration_matches_reference(fib):
    from topogen.instances.topology import _FinTopBackend

    formula = _reference_complement_formula if isinstance(fib.backend, _FinTopBackend) else None
    ref = _reference_subset_fibration(fib, formula)
    assert fib.img == ref.img and fib.pre == ref.pre
    assert fib.fstar == ref.fstar
    assert (fib.eclass, fib.mclass) == (ref.eclass, ref.mclass)
    assert site.set_level_tables(fib.category, fib.subsets) == (ref.img, ref.pre)


@pytest.mark.parametrize("name", FIBRATION_NAMES)
def test_subset_fibration_matches_the_per_morphism_reference(name):
    from topogen.instances.registry import builtin_fibration

    _assert_subset_fibration_matches_reference(builtin_fibration(name))


@pytest.mark.parametrize("seed", range(1, 6))
def test_seeded_spaces_fibrations_match_the_per_morphism_reference(tmp_path, seed):
    import random

    from topogen.cli import _Environment
    from topogen.instances.topology import enumerate_topologies

    spaces = random.Random(seed).sample(enumerate_topologies(4), 3)
    doc = tmp_path / "spaces.topo"
    doc.write_text("".join(
        f"space s{i}: points=4; opens="
        + ",".join("{" + ",".join(map(str, mask_iter(o))) + "}" for o in s.opens) + "\n"
        for i, s in enumerate(spaces)
    ))
    fib = _Environment([doc]).fibration("spaces:s0,s1,s2")
    assert [s.opens for s in spaces_of(fib)] == [s.opens for s in spaces]
    _assert_subset_fibration_matches_reference(fib)


def test_fibrations_with_the_empty_space_match_the_per_morphism_reference():
    from topogen.instances.topology import SIERPINSKI, FinTopSpace, discrete, fintop_fibration

    empty = FinTopSpace(0, (0,))
    for spaces in ([empty], [empty, discrete(2), SIERPINSKI], [SIERPINSKI, empty], []):
        fib = fintop_fibration(spaces, name="with_empty")
        _assert_subset_fibration_matches_reference(fib)
    assert fib.category.n_morphisms == 0


def test_subsets_out_of_counting_order_match_the_per_morphism_reference(fintop2):
    # object 0 keeps counting order, the others list their subsets reversed
    # or rotated, so tables run between dense and listed subsets both ways
    cat = fintop2.category
    subsets, sub = [], []
    for x, lat in enumerate(fintop2.sub):
        masks = tuple(range(lat.size))
        if x % 3 == 1:
            masks = masks[::-1]
        elif x % 3 == 2:
            masks = masks[1:] + masks[:1]
        subsets.append(masks)
        sub.append(FiniteLattice.from_order(
            [lat.labels[m] for m in masks],
            [sum(1 << j for j, t in enumerate(masks) if s & ~t == 0) for s in masks],
        ))
    fib = site.subset_fibration(cat, sub, subsets, fintop2.mclass, name="permuted")
    assert any(masks != tuple(range(len(masks))) for masks in subsets)
    _assert_subset_fibration_matches_reference(fib)
    assert validate_fibration(fib).ok


def _missing_composites(cat):
    """The composable pairs whose composite graph no morphism carries."""
    return [
        (g, f) for g, f in composable_pairs(cat)
        if cat.morphism_by_graph(
            cat.mor_dom[f], cat.mor_cod[g], tuple(map(cat.graphs[g].__getitem__, cat.graphs[f]))
        ) is None
    ]


@pytest.mark.parametrize("name", ["fintop2", "grp_small", "grp_le4"])
def test_closure_certificate_matches_the_pair_oracle_on_every_cut(name):
    from topogen.instances.registry import builtin_fibration

    fib = builtin_fibration(name)
    cat = fib.category
    shapes = collections.Counter()
    for drop in range(cat.n_morphisms):
        if cat.is_identity(drop):
            continue
        cut = _without(fib, drop)
        want = _reference_closed(cut.category)
        assert site.composition_closed(cut.category) == want, cat.mor_names[drop]
        # a cut keeps the set-level tables of the morphisms it keeps
        assert (site._set_level_keys(cut) is not None) == _reference_set_level(cut) is True
        # classify the cut by the factors f of its missing composites g∘f
        missing = _missing_composites(cut.category)
        assert want == (not missing)
        graphs, ids, cods = cut.category.graphs, cut.category.identities, cut.category.mor_cod
        onto = {len(set(graphs[f])) == len(graphs[ids[cods[f]]]) for _, f in missing}
        shapes["closed" if not missing else "f onto" if onto == {True} else
               "f never onto" if onto == {False} else "mixed"] += 1
    # cuts that stay closed, and cuts whose every missing composite has an
    # f that is not surjective, so g∘f reads g on a proper restriction only
    assert shapes["closed"] and shapes["f never onto"] and shapes["f onto"]


def test_closure_certificate_matches_the_pair_oracle_on_every_topgrp_le4_cut():
    # the oracle alone: walking every composable pair of each of the 525
    # cuts for its missing composites would take seconds
    from topogen.instances.registry import builtin_fibration

    fib = builtin_fibration("topgrp_le4")
    cat = fib.category
    verdicts = collections.Counter()
    for drop in range(cat.n_morphisms):
        if not cat.is_identity(drop):
            cut = _without(fib, drop)
            want = _reference_closed(cut.category)
            assert site.composition_closed(cut.category) == want, cat.mor_names[drop]
            assert (site._set_level_keys(cut) is not None) == _reference_set_level(cut) is True
            verdicts[want] += 1
    assert verdicts[True] and verdicts[False]


def test_closure_orbits_run_over_permutation_letters_only():
    # x has two points, its identity and the constant endomap c = (0, 0);
    # c also goes to y, and y's map q to z has no composite q∘c from x.
    # The orbit of the identity under c would hold c, with the identity's
    # image and codomains, and hide the pair (q, c): only permutations
    # keep an orbit's image and codomains
    cat = FiniteCategory(
        ("x", "y", "z"), (0, 0, 0, 1, 1, 2), (0, 0, 1, 1, 2, 2),
        ("id_x", "c", "p", "id_y", "q", "id_z"), (0, 3, 5),
        ((0, 1), (0, 0), (0, 0), (0,), (0,), (0,)),
    )
    assert _missing_composites(cat) == [(4, 2)]
    assert site.composition_closed(cat) is _reference_closed(cat) is False


@pytest.mark.parametrize("name", ["grp_le4", "grp_le8", "fintop3"])
def test_permutation_letters_generate_every_automorphism(name):
    from topogen.instances.registry import builtin_fibration

    # each object's letters generate, by tuple composition, the graphs of
    # all its automorphisms; more letters than generators may be kept
    cat = builtin_fibration(name).category
    automorphisms = _automorphisms(cat)
    sizes = []
    for x in range(cat.n_objects):
        letters = site._permutation_letters(cat, x)
        words, frontier = set(), {cat.graphs[cat.identities[x]]}
        while frontier:
            words |= frontier
            frontier = {
                tuple(word[i] for i in letter) for word in frontier for letter in letters} - words
        assert words == {cat.graphs[u] for u in automorphisms[x]}
        # no letter is a word in the letters kept after it
        for i, letter in enumerate(letters):
            assert letter not in _words(letters[i + 1:]), (name, x)
        sizes.append((len(words), len(letters)))
    if name == "grp_le8":
        # GL(3, 2), the automorphisms of C2^3, from 3 letters of the 5
        # that the kept-before rule alone keeps
        assert max(sizes) == (168, 3)


def _words(letters):
    """Every nonempty word in ``letters`` under tuple composition."""
    words, frontier = set(), set(letters)
    while frontier:
        words |= frontier
        frontier = {
            tuple(word[i] for i in letter) for word in frontier for letter in letters} - words
    return words


def test_closure_certificate_merges_the_codomains_that_share_a_graph(fintop2):
    # without discrete2>sierpinski_op:01, the composite of the swap (1, 0)
    # of discrete2 with discrete2>sierpinski_op:10 has no morphism.  The
    # graph (1, 0) out of discrete2 lands in four codomains Y, and the maps
    # out of them with the restriction (1, 0) reach sierpinski_op from
    # some, but not from indiscrete2, the last: only the codomains merged
    # over all of Y show the missing composite
    cut = _without(fintop2, fintop2.category.morphism_index("discrete2>sierpinski_op:01"))
    cat = cut.category
    x, target = cat.object_index("discrete2"), cat.object_index("sierpinski_op")
    swap = (1, 0)
    ys = sorted({cat.mor_cod[f] for f in cat.morphisms_from[x] if cat.graphs[f] == swap})
    reach = {y: {cat.mor_cod[g] for g in cat.morphisms_from[y] if cat.graphs[g] == swap} for y in ys}
    assert len(ys) == 4 and target in reach[ys[0]] and target not in reach[ys[-1]]
    assert cat.morphism_by_graph(x, target, (0, 1)) is None
    assert _missing_composites(cat)
    assert site.composition_closed(cat) is _reference_closed(cat) is False
    assert (site._set_level_keys(cut) is not None) is _reference_set_level(cut) is True



def test_concrete_keys_read_every_split_of_a_name():
    # object names holding ">" make "a>b>b:0" two keys, which the CLI leaves
    # to the lookup among every morphism
    names = ("a", "b", "a>b", "b>b")
    sizes = (1, 1, 1, 2)
    cat = site.concrete_category(
        names, sizes, lambda x, y: itertools.product(range(sizes[y]), repeat=sizes[x]))
    assert site.concrete_keys(cat, "a>b>b:0") == [(0, 3, (0,)), (2, 1, (0,))]
    assert site.concrete_keys(cat, "id_b>b") == [(3, 3, (0, 1))]
    assert site.concrete_keys(cat, "a>b:-") == [(0, 1, ())]
    for unread in ("a>b", "a>b:x", "a>c:0", "id_c", "a>b:²", ""):
        assert site.concrete_keys(cat, unread) == [], unread
    # read before and after the category tabulates its morphisms
    assert type(cat) is not FiniteCategory
    assert cat.n_morphisms and type(cat) is FiniteCategory
    assert site.concrete_keys(cat, "id_b>b") == [(3, 3, (0, 1))]


# ---------------------------------------------------------------------------
# each map between representatives up to the automorphisms of its ends


def _automorphisms(cat):
    """Per object x, the isos x -> x, the identity among them."""
    found = [[] for _ in range(cat.n_objects)]
    for u in sorted(cat.isomorphisms()):
        if cat.mor_dom[u] == cat.mor_cod[u]:
            found[cat.mor_dom[u]].append(u)
    return found


def _orbit_by_every_automorphism(cat, automorphisms, g):
    """The maps β∘g∘α for α, β automorphisms of the ends of g, reached by
    composing with every automorphism (not only the letters) until none is
    new."""
    before, after = automorphisms[cat.mor_dom[g]], automorphisms[cat.mor_cod[g]]
    orbit, frontier = set(), {g}
    while frontier:
        orbit |= frontier
        frontier = {cat.compose(m, a) for m in frontier for a in before} | {
            cat.compose(b, m) for m in frontier for b in after}
        frontier -= orbit
    return orbit


def _topgrp_total():
    from topogen.instances.topgroups import topgrp_fibration

    return topgrp_fibration().total


@pytest.mark.parametrize("name, heads, between", [
    ("fintop2", 31, 44), ("grp_small", 57, 102), ("grp_le4", 37, 60), ("topgrp_le4", 201, 318),
    ("fintop3", 661, 1_476), ("grp_le8", 394, 1_852),
])
def test_orbit_heads_are_the_least_maps_of_every_automorphism_orbit(name, heads, between):
    from topogen.instances.registry import builtin_fibration

    # the counts do not depend on which letters generate each Aut A
    fib = _topgrp_total() if name == "topgrp_le4" else builtin_fibration(name)
    cat = fib.category
    sym = site.symmetry(cat)
    assert (len(set(sym.head)), len(set(sym.moved))) == (heads, between)
    assert site.symmetry(cat) is sym
    assert site.carried(fib)
    found, automorphisms = {}, _automorphisms(cat)
    for g in sorted(set(sym.moved)):
        if g not in found:
            orbit = _orbit_by_every_automorphism(cat, automorphisms, g)
            found.update(dict.fromkeys(orbit, (min(orbit), len(orbit))))
    for f, g in enumerate(sym.moved):
        assert (sym.head[f], sym.size[f]) == found[g], (name, cat.mor_names[f])
    # the moves are the letters' steps: m∘a and b∘m, each a morphism
    for a, after, maps, composites in sym.moves:
        assert a in sym.letters[cat.mor_cod[maps[0]] if after else cat.mor_dom[maps[0]]]
        for m, h in zip(maps, composites):
            assert h == (cat.compose(a, m) if after else cat.compose(m, a))


def test_a_missing_composite_leaves_singleton_orbits(fintop2):
    # without discrete2>indiscrete2:10, the swap of discrete2 moves
    # discrete2>indiscrete2:01 to no morphism: no object keeps its letters,
    # and each map's head is its f~
    cat = fintop2.category
    cut = _without(fintop2, cat.morphism_index("discrete2>indiscrete2:10"))
    sym = site.symmetry(cut.category)
    assert any(site.symmetry(fintop2.category).letters)
    assert sym.letters == ((),) * cut.category.n_objects and sym.moves == ()
    assert sym.head is sym.moved and set(sym.size) == {1}
    assert sym.moved != tuple(range(cut.category.n_morphisms))
    # the isos between classes still carry the tables, and there is no
    # letter to carry them along
    assert list(sym.generators()) == [
        (u, r, a) for a, (r, u) in enumerate(zip(sym.rep, sym.iota)) if r != a]
    assert site.carried(cut) and site.carried(fintop2)


def _forged(fib, name, **fields):
    """``fib`` with the given fields replaced, its backend kept, so that
    orders and pullbacks read it."""
    kept = dict(
        category=fib.category, sub=fib.sub, img=fib.img, pre=fib.pre, eclass=fib.eclass,
        mclass=fib.mclass, fstar=fib.fstar, backend=fib.backend, subsets=fib.subsets)
    return SubobjectFibration(**{**kept, **fields}, name=name)


def _unlisted_subsets():
    """discrete2 and indiscrete2 with the subsets {} and {0, 1} of the
    latter alone: set-level images of a singleton into it are -1."""
    from topogen.instances.topology import discrete, fintop_fibration, indiscrete

    fib = fintop_fibration([discrete(2), indiscrete(2)])
    return site.subset_fibration(
        fib.category, (fib.sub[0], FiniteLattice.powerset(1)), ((0, 1, 2, 3), (0, 3)),
        fib.mclass, backend=fib.backend, name="unlisted")


def _forgeries(fintop2):
    """Fibrations off ``site.carried``, one clause each, with the backend
    of fintop2 (or of their own catalog) kept."""
    cat = fintop2.category
    swap = cat.morphism_index("discrete2>discrete2:10")
    a = cat.object_index("sierpinski")
    assert site.symmetry(cat).rep[a] != a
    # the lattice of sierpinski made a chain: the image table of its ι is
    # still a bijection, but not a lattice isomorphism
    sub = list(fintop2.sub)
    sub[a] = FiniteLattice.from_order(sub[a].labels, (0b1111, 0b1110, 0b1100, 0b1000))
    # one letter's image table made the identity: a lattice automorphism,
    # but not the set-level table
    img = list(fintop2.img)
    img[swap] = tuple(range(len(img[swap])))

    def fstar_moved(name):
        fstar = list(fintop2.fstar)
        f = cat.morphism_index(name)
        fstar[f] = tuple(reversed(fstar[f]))
        return fstar

    return [
        _forged(fintop2, "unit-not-a-lattice-isomorphism", sub=sub),
        _forged(fintop2, "letter-identity", img=img),
        # f_* moved on one map into sierpinski, whose f~ keeps its table
        _forged(fintop2, "fstar-off-an-iso", fstar=fstar_moved("discrete2>sierpinski:01")),
        # f_* moved on one map between representatives, off its twin under
        # the swap of discrete2; the isos between classes do not see it
        _forged(fintop2, "fstar-off-a-move", fstar=fstar_moved("discrete2>indiscrete2:01")),
        _forged(fintop2, "no-subsets", subsets=None),
        _unlisted_subsets(),
    ]


def test_orbit_transport_needs_set_level_tables_and_lattice_automorphisms(fintop2):
    # site.carried needs set-level tables without a -1 entry, lattice
    # isomorphisms along the generators and f_* carried along each f -> f~
    # and each move
    cat = fintop2.category
    swap = cat.morphism_index("discrete2>discrete2:10")
    assert swap in site.symmetry(cat).letters[cat.mor_dom[swap]]
    assert site.carried(fintop2)
    forgeries = _forgeries(fintop2)
    assert any(-1 in table for table in forgeries[-1].img)
    for fib in forgeries:
        assert not site.carried(fib), fib.name
