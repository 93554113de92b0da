import itertools

import pytest

from topogen.errors import CapabilityError, DomainError
from topogen.lattice import FiniteLattice
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


def one_object_category():
    return FiniteCategory(
        object_names=("x",),
        mor_dom=(0,),
        mor_cod=(0,),
        mor_names=("id_x",),
        identities=(0,),
        compose_table={(0, 0): 0},
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
    report = validate_fibration(bad, functoriality=False)
    assert not report.ok
    name = fintop2.category.mor_names[target]
    assert any(
        v.where == name and v.law in ("image-monotone", "adjunction")
        for v in report.violations
    )


def test_fstar_tables_match_generic_right_adjoint(fintop2):
    from topogen.lattice import right_adjoint_of

    for f in range(fintop2.category.n_morphisms):
        adj = right_adjoint_of(fintop2.pre_map(f))
        assert adj is not None and adj.table == fintop2.fstar[f]


def _with_tables(fib, img=None, pre=None):
    return SubobjectFibration(
        category=fib.category,
        sub=fib.sub,
        img=img if img is not None else fib.img,
        pre=pre if pre is not None else fib.pre,
        eclass=fib.eclass,
        mclass=fib.mclass,
        fstar=fib.fstar,
        name="broken",
    )


@pytest.mark.parametrize("table, law", [("img", "image-functorial"), ("pre", "preimage-functorial")])
def test_corrupt_composite_table_breaks_functoriality(fintop2, table, law):
    cat = fintop2.category
    g, f = next(
        (g, f) for g, f in cat.composable_pairs()
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
    hits = [v.where for v in report.violations if v.law.endswith("-functorial")]
    assert f"{cat.mor_names[g]} o {cat.mor_names[f]}" in hits
    assert all(v.law == law for v in report.violations if v.law.endswith("-functorial"))
    # every reported pair has the corrupted morphism as a factor or composite
    for where in hits:
        left, right = map(cat.morphism_index, where.split(" o "))
        assert h in (left, right, cat.compose(left, right))


def test_morphism_by_graph(fintop2, grp_small):
    cat = fintop2.category
    for f in range(cat.n_morphisms):
        assert cat.morphism_by_graph(cat.mor_dom[f], cat.mor_cod[f], cat.graphs[f]) == f
    pt = cat.object_index("pt")
    assert cat.morphism_by_graph(pt, pt, (1,)) is None
    assert one_object_category().morphism_by_graph(0, 0, (0,)) is None
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


def _box_union_corner(fib, f, p):
    """Reference pullback corner of the cospan f, p of a space fibration: the
    carrier, and the (n, opens) of the subspace of the product topology,
    built as the unions of open boxes folded to a fixpoint."""
    cat = fib.category
    gf, gp = cat.graphs[f], cat.graphs[p]
    sx, syp = fib.spaces[cat.mor_dom[f]], fib.spaces[cat.mor_dom[p]]
    carrier = [(a, b) for a in range(sx.n) for b in range(syp.n) if gf[a] == gp[b]]
    boxes = {
        sum(1 << i for i, (a, b) in enumerate(carrier) if u >> a & 1 and v >> b & 1)
        for u in sx.opens
        for v in syp.opens
    }
    opens = set(boxes)
    frontier = set(boxes)
    while frontier:
        frontier = {a | b for a in frontier for b in boxes} - opens
        opens |= frontier
    return carrier, (len(carrier), tuple(sorted(opens)))


def _assert_corners_match_box_unions(fib, cospans):
    cat = fib.category
    max_points = max(s.n for s in fib.spaces)
    built = 0
    for f, p in cospans:
        carrier, shape = _box_union_corner(fib, f, p)
        if len(carrier) > max_points:
            with pytest.raises(CapabilityError):
                pullback(fib, f, p)
            continue
        sq = pullback(fib, f, p)
        corner = fib.spaces[cat.mor_dom[sq.f_prime]]
        assert (corner.n, corner.opens) == shape
        assert cat.graphs[sq.p_prime] == tuple(a for a, _ in carrier)
        assert cat.graphs[sq.f_prime] == tuple(b for _, b in carrier)
        built += 1
    # one memo entry per corner topology at most
    assert len(fib.backend.corners) <= cat.n_objects
    return built


def test_pullback_corners_match_box_unions_on_fintop2(fintop2):
    cat = fintop2.category
    cospans = [
        (f, p) for p in range(cat.n_morphisms) for f in cat.morphisms_to[cat.mor_cod[p]]
    ]
    # both branches: corners built, and carriers beyond two points refused
    assert 0 < _assert_corners_match_box_unions(fintop2, cospans) < len(cospans)


def test_pullback_corners_match_box_unions_on_fintop3_slice(fintop3):
    cat = fintop3.category
    swept = (
        (f, p) for p in sorted(fintop3.eclass | fintop3.mclass)
        for f in cat.morphisms_to[cat.mor_cod[p]]
    )
    built = _assert_corners_match_box_unions(fintop3, itertools.islice(swept, 0, None, 13))
    assert built > 50_000


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


def test_functoriality_exhaustive_at_scale(fintop3):
    from topogen.instances.registry import builtin_fibration

    assert validate_fibration(fintop3, functoriality=True).ok
    assert validate_fibration(builtin_fibration("grp_le8"), functoriality=True).ok
