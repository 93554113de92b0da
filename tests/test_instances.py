import itertools

import pytest

from topogen.instances.groups import (
    catalog,
    closure_of,
    cyclic,
    generating_set,
    groups_of,
    homs,
    is_normal,
    normal_preservation,
    normal_subgroups,
    subgroup_label,
    subgroups_of,
    symmetric3,
    validate_group,
)
from topogen.instances.topology import (
    FinTopSpace,
    SIERPINSKI,
    continuous_maps,
    discrete,
    enumerate_topologies,
    enumerate_topologies_via_preorders,
    indiscrete,
    is_continuous,
    map_predicates,
    minimal_neighbourhoods,
    spaces_of,
    t0_quotient_classes,
)
from topogen.instances.registry import (
    FIBRATION_NAMES,
    builtin_endofunctor,
    builtin_fibration,
    builtin_order,
    builtin_space,
)
from topogen.lattice import mask_iter
from topogen.site import factorize


LABELLED_TOPOLOGY_COUNTS = {0: 1, 1: 1, 2: 4, 3: 29}


def test_topology_counts_match_both_enumerators():
    for n, expected in LABELLED_TOPOLOGY_COUNTS.items():
        fast = enumerate_topologies(n)
        slow = enumerate_topologies_via_preorders(n)
        assert len(fast) == expected
        assert set(fast) == set(slow)


def test_continuous_map_count_against_brute_force(fintop2):
    # independent continuity test over plain frozensets, no masks
    spaces = spaces_of(fintop2)

    def opens_as_sets(s):
        return [frozenset(p for p in range(s.n) if o >> p & 1) for o in s.opens]

    total = 0
    for xs in spaces:
        for ys in spaces:
            ys_opens = opens_as_sets(ys)
            xs_opens = set(map(frozenset, opens_as_sets(xs)))
            for graph in itertools.product(range(ys.n), repeat=xs.n):
                continuous = all(
                    frozenset(x for x in range(xs.n) if graph[x] in o) in xs_opens
                    for o in ys_opens
                )
                total += continuous
    assert total == fintop2.category.n_morphisms == 69


def _product_filter(dom, cod):
    """The hom-set the naive way: every graph, in ``itertools.product``
    order, filtered by the open-set test of continuity."""
    return [
        graph for graph in itertools.product(range(cod.n), repeat=dom.n)
        if is_continuous(graph, dom, cod)
    ]


def test_continuous_maps_match_the_product_filter():
    small = [s for n in range(4) for s in enumerate_topologies(n)]
    assert small[0] == FinTopSpace(0, (0,))
    pairs = list(itertools.product(small, repeat=2))
    # a fixed slice of the 126,025 ordered pairs of 4-point topologies
    pairs += list(itertools.product(enumerate_topologies(4), repeat=2))[::97]
    for dom, cod in pairs:
        graphs = continuous_maps(minimal_neighbourhoods(dom), minimal_neighbourhoods(cod))
        assert list(graphs) == _product_filter(dom, cod), (dom.opens, cod.opens)


@pytest.mark.parametrize(
    "name", ["fintop2", "fintop3", "t0_small", "disc2_loop", "coreflect_small"]
)
def test_builtin_space_categories_match_a_product_filter_rebuild(name):
    from topogen.site import concrete_category

    fib = builtin_fibration(name)
    cat, spaces = fib.category, spaces_of(fib)
    rebuilt = concrete_category(
        cat.object_names, [s.n for s in spaces],
        lambda x, y: _product_filter(spaces[x], spaces[y]),
    )
    assert rebuilt.graphs == cat.graphs
    assert rebuilt.mor_names == cat.mor_names
    assert (rebuilt.mor_dom, rebuilt.mor_cod) == (cat.mor_dom, cat.mor_cod)


def test_one_point_space_category_is_a_single_identity():
    from topogen.instances.topology import fintop_fibration

    fib = fintop_fibration([discrete(1)], name="pt_only")
    assert fib.category.n_morphisms == 1
    assert fib.category.mor_names == ("id_pt",)


def test_morphism_caps_name_what_they_count(monkeypatch):
    from topogen.errors import ResourceCapError
    from topogen.instances import groups, topology

    # discrete2 has four continuous self-maps, z2 two endomorphisms; a cap
    # raises on the first read of a morphism field, and on every read after
    monkeypatch.setattr(topology, "MAX_MORPHISMS", 4)
    assert topology.fintop_fibration([discrete(2)]).category.n_morphisms == 4
    monkeypatch.setattr(topology, "MAX_MORPHISMS", 3)
    fib = topology.fintop_fibration([discrete(2)])
    for _ in range(2):
        with pytest.raises(ResourceCapError, match="^more than 3 continuous maps$"):
            fib.category.n_morphisms
    monkeypatch.setattr(groups, "MAX_MORPHISMS", 2)
    assert groups.fingrp_fibration([cyclic(2)]).category.n_morphisms == 2
    monkeypatch.setattr(groups, "MAX_MORPHISMS", 1)
    fib = groups.fingrp_fibration([cyclic(2)])
    for _ in range(2):
        with pytest.raises(ResourceCapError, match="^more than 1 homomorphisms$"):
            fib.category.n_morphisms


def test_space_validation_rejects_non_topologies():
    from topogen.errors import PreconditionError

    with pytest.raises(PreconditionError):
        FinTopSpace(2, (0, 1, 2))  # missing the union {0,1}
    with pytest.raises(PreconditionError, match="names a point >= 2"):
        FinTopSpace(2, (0, 0b11, 0b100000, 0b100011))  # {5} on two points


def test_group_catalog_is_verified_and_distinct():
    groups = catalog()
    assert len(groups) == 14
    assert [g.order for g in groups] == [1, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8, 8, 8, 8]
    for g in groups:
        assert validate_group(g).ok
    # the multiset of element orders separates every pair in the catalog
    def element_orders(g):
        out = []
        for a in range(g.order):
            k, acc = 1, a
            while acc != g.identity:
                acc = g.mul[acc][a]
                k += 1
            out.append(k)
        return tuple(sorted(out))

    signatures = {}
    for g in groups:
        signatures.setdefault((g.order, element_orders(g)), []).append(g.name)
    assert all(len(names) == 1 for names in signatures.values()), signatures


EXPECTED_SUBGROUP_COUNTS = {
    "z1": 1, "z2": 2, "z3": 2, "z4": 3, "z2xz2": 5, "z5": 2, "z6": 4,
    "s3": 6, "z7": 2, "z8": 4, "z4xz2": 8, "z2xz2xz2": 16, "d4": 10, "q8": 6,
}


def test_subgroup_counts():
    for g in catalog():
        subs = subgroups_of(g)
        assert len(subs) == EXPECTED_SUBGROUP_COUNTS[g.name]
        # each reported subgroup really is closed under the operation
        for mask in subs:
            members = [e for e in range(g.order) if mask >> e & 1]
            assert g.identity in members
            assert all(mask >> g.mul[a][b] & 1 for a in members for b in members)


def test_s3_normal_subgroups():
    s3 = symmetric3()
    normals = normal_subgroups(s3)
    labels = {subgroup_label(s3, m) for m in normals}
    assert labels == {"{e}", "{e,(012),(021)}", "{e,(01),(02),(12),(021),(012)}"} or len(normals) == 3
    sizes = sorted(bin(m).count("1") for m in normals)
    assert sizes == [1, 3, 6]


def test_q8_has_only_normal_subgroups():
    q8 = next(g for g in catalog() if g.name == "q8")
    assert all(is_normal(q8, m) for m in subgroups_of(q8))


def brute_homs(g, h):
    out = []
    for graph in itertools.product(range(h.order), repeat=g.order):
        if graph[g.identity] != h.identity:
            continue
        if all(
            graph[g.mul[a][b]] == h.mul[graph[a]][graph[b]]
            for a in range(g.order) for b in range(g.order)
        ):
            out.append(graph)
    return sorted(out)


def test_hom_enumeration_against_brute_force():
    by = {g.name: g for g in catalog()}
    for a, b in (("z2", "z2"), ("z4", "z2"), ("z2", "z4"), ("s3", "z2"),
                 ("s3", "s3"), ("z2xz2", "z4"), ("z6", "s3")):
        assert list(homs(by[a], by[b])) == brute_homs(by[a], by[b])


def _reference_closure_of(g, seed):
    """All-pairs growth: multiply every member by every member until stable."""
    members = seed | 1 << g.identity
    while True:
        new = members
        for a in range(g.order):
            for b in range(g.order):
                if members >> a & 1 and members >> b & 1:
                    new |= 1 << g.mul[a][b]
        if new == members:
            return members
        members = new


def _reference_subgroups_of(g):
    """The closure of every seed mask."""
    found = {_reference_closure_of(g, seed) for seed in range(1 << g.order)}
    return tuple(sorted(found, key=lambda m: (bin(m).count("1"), m)))


def _reference_extend_hom(g, h, gens, images):
    """Grow the partial map gens -> images under products until stable."""
    table = [None] * g.order
    table[g.identity] = h.identity
    for a, b in zip(gens, images):
        if table[a] is not None and table[a] != b:
            return None
        table[a] = b
    changed = True
    while changed:
        changed = False
        known = [i for i in range(g.order) if table[i] is not None]
        for a in known:
            for b in known:
                c, v = g.mul[a][b], h.mul[table[a]][table[b]]
                if table[c] is None:
                    table[c] = v
                    changed = True
                elif table[c] != v:
                    return None
    return None if None in table else tuple(table)


def _reference_homs(g, h):
    """``_reference_extend_hom`` over every image tuple of the generators."""
    gens = generating_set(g)
    tables = (
        _reference_extend_hom(g, h, gens, images)
        for images in itertools.product(range(h.order), repeat=len(gens))
    )
    return tuple(sorted({t for t in tables if t is not None}))


def _reference_factorize(fib, f):
    """The first catalog object, and the first image tuple of its generators
    in product order, whose homomorphism onto the image makes both legs."""
    cat = fib.category
    groups = groups_of(fib)
    graph = cat.graphs[f]
    x, y = cat.mor_dom[f], cat.mor_cod[f]
    image = sorted(set(graph))
    for mid, gm in enumerate(groups):
        if gm.order != len(image):
            continue
        gens = generating_set(gm)
        for images in itertools.product(image, repeat=len(gens)):
            table = _reference_extend_hom(gm, groups[y], gens, images)
            if table is None or sorted(set(table)) != image:
                continue
            inv = {v: i for i, v in enumerate(table)}
            e = cat.morphism_by_graph(x, mid, tuple(inv[v] for v in graph))
            m = cat.morphism_by_graph(mid, y, table)
            if e is not None and m is not None:
                return e, m
    return None


def test_closure_of_matches_all_pairs_growth_on_every_seed():
    for g in catalog():
        for seed in range(1 << g.order):
            assert closure_of(g, seed) == _reference_closure_of(g, seed), (g.name, seed)


def test_subgroups_of_matches_the_closure_of_every_seed():
    for g in catalog():
        assert subgroups_of(g) == _reference_subgroups_of(g), g.name


def test_homs_match_extension_over_every_image_tuple():
    total = 0
    for g, h in itertools.product(catalog(), repeat=2):
        assert homs(g, h) == _reference_homs(g, h), (g.name, h.name)
        total += len(homs(g, h))
    assert total == 1852


@pytest.mark.parametrize("name", ["grp_small", "grp_le4"])
def test_factorize_matches_the_reference_search(name):
    fib = builtin_fibration(name)
    for f in range(fib.category.n_morphisms):
        assert factorize(fib, f) == _reference_factorize(fib, f), fib.category.mor_names[f]


def test_sign_map_exists_and_preserves_normals(grp_small):
    cat = grp_small.category
    s3, z2 = cat.object_index("s3"), cat.object_index("z2")
    signs = [
        f for f in range(cat.n_morphisms)
        if cat.mor_dom[f] == s3 and cat.mor_cod[f] == z2 and len(set(cat.graphs[f])) == 2
    ]
    assert len(signs) == 1
    assert _preserves_normal_subgroups(grp_small, signs[0])
    assert normal_preservation(grp_small)[signs[0]]


def _preserves_normal_subgroups(fib, f):
    """Set-level: the image of each normal subgroup of dom f is normal in
    cod f."""
    groups = groups_of(fib)
    cat = fib.category
    graph = cat.graphs[f]
    gx, gy = groups[cat.mor_dom[f]], groups[cat.mor_cod[f]]
    for nmask in normal_subgroups(gx):
        out = 0
        for e in mask_iter(nmask):
            out |= 1 << graph[e]
        if not is_normal(gy, out):
            return False
    return True


@pytest.mark.parametrize("name", ["grp_small", "grp_le4", "grp_le8"])
def test_normal_preservation_off_the_image_tables_matches_the_set_level_check(name):
    fib = builtin_fibration(name)
    cat = fib.category
    preserving = normal_preservation(fib)
    assert len(preserving) == cat.n_morphisms
    for f in range(cat.n_morphisms):
        assert preserving[f] == _preserves_normal_subgroups(fib, f), cat.mor_names[f]
    # both verdicts occur, except on grp_le4, whose groups are all abelian:
    # there every subgroup is normal, and so is every image
    assert 0 < sum(preserving) <= cat.n_morphisms
    assert (sum(preserving) == cat.n_morphisms) == (name == "grp_le4")


def _normal_by_conjugation(g, mask):
    """Uncached: every conjugate x h x^-1 of a member h lies in ``mask``."""
    members = [h for h in range(g.order) if mask >> h & 1]
    return all(
        mask >> g.mul[g.mul[x][h]][g.inv(x)] & 1 for x in range(g.order) for h in members
    )


def test_preserves_normal_subgroups_matches_an_uncached_loop():
    fib = builtin_fibration("grp_le8")
    cat = fib.category
    groups = groups_of(fib)
    preserving = 0
    for f in range(cat.n_morphisms):
        gx, gy = groups[cat.mor_dom[f]], groups[cat.mor_cod[f]]
        graph = cat.graphs[f]
        expected = True
        for n in subgroups_of(gx):
            if _normal_by_conjugation(gx, n):
                image = 0
                for e in range(gx.order):
                    if n >> e & 1:
                        image |= 1 << graph[e]
                expected = expected and _normal_by_conjugation(gy, image)
        assert _preserves_normal_subgroups(fib, f) == expected, cat.mor_names[f]
        preserving += expected
    # both verdicts occur
    assert 0 < preserving < cat.n_morphisms


def test_normal_interval_order_on_s3(grp_small):
    t = builtin_order("grp_normal", grp_small)
    x = grp_small.category.object_index("s3")
    s3 = groups_of(grp_small)[x]
    subs = subgroups_of(s3)
    swap_group = next(
        i for i, m in enumerate(subs)
        if bin(m).count("1") == 2 and m >> s3.elems.index("(01)") & 1
    )
    top = len(subs) - 1
    # a transposition subgroup relates only to the whole group
    assert t.rel[x][swap_group] == 1 << top


# ---------------------------------------------------------------------------
# set-level predicates


def test_map_predicates_identity(fintop2):
    mp = map_predicates(fintop2, fintop2.category.morphism_index("id_sierpinski"))
    assert mp.open and mp.closed and mp.initial_topology and mp.hereditary_quotient


def test_map_predicates_constant_from_discrete(fintop2):
    mp = map_predicates(fintop2, fintop2.category.morphism_index("discrete2>pt:00"))
    assert mp.open and mp.closed and mp.hereditary_quotient
    assert not mp.initial_topology


def test_map_predicates_open_point_embedding(fintop2):
    mp = map_predicates(fintop2, fintop2.category.morphism_index("pt>sierpinski:1"))
    assert mp.open
    assert not mp.closed


def test_initial_topology_matches_open_set_characterization(fintop2):
    spaces = spaces_of(fintop2)
    cat = fintop2.category
    for f in range(cat.n_morphisms):
        dom, cod = spaces[cat.mor_dom[f]], spaces[cat.mor_cod[f]]
        graph = cat.graphs[f]
        pulled = {
            sum(1 << x for x in range(dom.n) if o >> graph[x] & 1)
            for o in cod.opens
        }
        assert map_predicates(fintop2, f).initial_topology == (set(dom.opens) == pulled)


def test_hereditary_quotient_matches_closed_image_characterization(fintop2):
    # surjective, and images of closures of preimages are closed
    spaces = spaces_of(fintop2)
    cat = fintop2.category

    def image(graph, mask):
        out = 0
        for x in range(len(graph)):
            if mask >> x & 1:
                out |= 1 << graph[x]
        return out

    for f in range(cat.n_morphisms):
        dom, cod = spaces[cat.mor_dom[f]], spaces[cat.mor_cod[f]]
        graph = cat.graphs[f]
        surjective = f in fintop2.eclass
        alt = surjective
        if surjective:
            for b in range(1 << cod.n):
                pre = sum(1 << x for x in range(dom.n) if b >> graph[x] & 1)
                img = image(graph, dom.closure(pre))
                if cod.closure(img) != img:
                    alt = False
                    break
        assert map_predicates(fintop2, f).hereditary_quotient == alt


def _reference_image_mask(f, mask):
    """The image walked over the mask's points through ``mask_iter``."""
    from topogen.lattice import mask_iter

    out = 0
    for x in mask_iter(mask):
        out |= 1 << f[x]
    return out


@pytest.mark.parametrize("name", ["fintop2", "fintop3"])
def test_image_mask_matches_a_walk_over_the_points(name):
    from topogen.instances.topology import image_mask

    for graph in set(builtin_fibration(name).category.graphs):
        for mask in range(1 << len(graph)):
            assert image_mask(graph, mask) == _reference_image_mask(graph, mask), (graph, mask)


def _reference_map_predicates(fib, f):
    """``map_predicates`` with every closure and subspace computed afresh
    from the opens, per call."""
    from topogen.instances.topology import MapPredicates, image_mask, preimage_mask
    from topogen.lattice import mask_iter

    spaces = spaces_of(fib)
    cat = fib.category
    graph = cat.graphs[f]
    dom, cod = spaces[cat.mor_dom[f]], spaces[cat.mor_cod[f]]
    is_open = all(cod.is_open(image_mask(graph, u)) for u in dom.opens)
    closed_sets_dom = [dom.full & ~u for u in dom.opens]
    is_closed = all(
        cod.closure(image_mask(graph, c)) == image_mask(graph, c) for c in closed_sets_dom
    )
    initial = all(
        dom.closure(a) == preimage_mask(graph, cod.closure(image_mask(graph, a)))
        for a in range(1 << dom.n)
    )
    surjective = image_mask(graph, dom.full) == cod.full
    hered = surjective
    if surjective:
        for a_mask in range(1 << cod.n):
            s_mask = preimage_mask(graph, a_mask)
            sub_dom = dom.subspace(s_mask)
            sub_cod = cod.subspace(a_mask)
            dom_points = list(mask_iter(s_mask))
            cod_points = {p: i for i, p in enumerate(mask_iter(a_mask))}
            restricted = tuple(cod_points[graph[p]] for p in dom_points)
            quotient_opens = tuple(sorted(
                v for v in range(1 << sub_cod.n)
                if sub_dom.is_open(preimage_mask(restricted, v))
            ))
            if quotient_opens != sub_cod.opens:
                hered = False
                break
    return MapPredicates(is_open, is_closed, initial, hered)


def _seeded_spaces_fibration(tmp_path, seed):
    """The ``spaces:`` fibration of a parsed document of three 4-point
    spaces drawn with this seed."""
    import random

    from topogen.cli import _Environment
    from topogen.lattice import mask_iter

    spaces = random.Random(seed).sample(enumerate_topologies(4), 3)
    doc = tmp_path / "spaces.topo"
    doc.write_text("".join(
        f"space s{i}: points=4; opens="
        + ",".join("{" + ",".join(map(str, mask_iter(o))) + "}" for o in s.opens) + "\n"
        for i, s in enumerate(spaces)
    ))
    return _Environment([doc]).fibration("spaces:s0,s1,s2")


def test_map_predicates_match_the_per_call_reference(fintop2, fintop3, tmp_path):
    seeded = _seeded_spaces_fibration(tmp_path, 7)
    for fib in (fintop2, fintop3, seeded):
        for f in range(fib.category.n_morphisms):
            assert map_predicates(fib, f) == _reference_map_predicates(fib, f), (fib.name, f)
    # the seeded maps reach every predicate both ways
    found = {map_predicates(seeded, f) for f in range(seeded.category.n_morphisms)}
    for field in ("open", "closed", "initial_topology", "hereditary_quotient"):
        assert {getattr(mp, field) for mp in found} == {False, True}


def test_transported_map_predicates_equal_every_maps_own(fintop2, fintop3):
    from topogen.instances.topology import predicate_transport
    from topogen.site import symmetry

    for fib in (fintop2, fintop3):
        moved = predicate_transport(fib)
        assert moved is symmetry(fib.category).head
        direct = [map_predicates(fib, f) for f in range(fib.category.n_morphisms)]
        assert [map_predicates(fib, g) for g in moved] == direct, fib.name


def test_predicates_off_a_homeomorphism_are_read_map_by_map(fintop2):
    # the space of sierpinski, not its class's representative, swapped for
    # the discrete one under the same category: its least iso from
    # sierpinski_op no longer carries opens onto opens
    from topogen.instances.topology import _FinTopBackend, predicate_transport
    from topogen.site import SubobjectFibration, symmetry

    cat = fintop2.category
    a = cat.object_index("sierpinski")
    spaces = list(spaces_of(fintop2))
    spaces[a] = discrete(2)
    forged = SubobjectFibration(
        cat, fintop2.sub, fintop2.img, fintop2.pre, fintop2.eclass, fintop2.mclass,
        fstar=fintop2.fstar, backend=_FinTopBackend(tuple(spaces), 2), name="forged")
    assert predicate_transport(forged) == tuple(range(cat.n_morphisms))
    direct = [map_predicates(forged, f) for f in range(cat.n_morphisms)]
    assert [direct[g] for g in symmetry(cat).moved] != direct


def test_predicates_off_a_homeomorphic_letter_are_read_through_f_tilde(fintop2):
    # the space of discrete2, its own class, swapped for the Sierpinski
    # space under the same category: the swap of discrete2, its letter, no
    # longer carries opens onto opens, so every map is read on its own,
    # though the isos between classes still carry them
    from topogen.instances.topology import _FinTopBackend, predicate_transport
    from topogen.site import SubobjectFibration, symmetry

    cat = fintop2.category
    a = cat.object_index("discrete2")
    assert symmetry(cat).letters[a]
    spaces = list(spaces_of(fintop2))
    spaces[a] = SIERPINSKI
    forged = SubobjectFibration(
        cat, fintop2.sub, fintop2.img, fintop2.pre, fintop2.eclass, fintop2.mclass,
        fstar=fintop2.fstar, backend=_FinTopBackend(tuple(spaces), 2), name="forged")
    moved = predicate_transport(forged)
    assert moved == tuple(range(cat.n_morphisms))
    direct = [map_predicates(forged, f) for f in range(cat.n_morphisms)]
    assert [map_predicates(forged, g) for g in moved] == direct
    assert [direct[g] for g in symmetry(cat).moved] == direct
    assert [direct[g] for g in symmetry(cat).head] != direct


def test_mask_tables_match_image_and_preimage_masks(fintop2, fintop3, tmp_path):
    from topogen.instances.topology import image_mask, preimage_mask

    for fib in (fintop2, fintop3, _seeded_spaces_fibration(tmp_path, 7)):
        cat, spaces = fib.category, spaces_of(fib)
        for graph, n in {(g, spaces[y].n) for g, y in zip(cat.graphs, cat.mor_cod)}:
            img, pre = fib.backend.mask_tables(graph, n)
            assert img == tuple(image_mask(graph, a) for a in range(1 << len(graph))), graph
            assert pre == tuple(preimage_mask(graph, v) for v in range(1 << n)), (graph, n)


def test_the_per_table_memos_die_with_their_fibration():
    import gc
    import weakref

    from topogen.instances.topology import closure_order, fintop_fibration
    from topogen.morphisms import check_pullback_transfer, classifications

    fib = fintop_fibration(
        [discrete(1), SIERPINSKI, indiscrete(2), discrete(2), FinTopSpace(3, (0, 1, 3, 7))],
        name="memos")
    t = closure_order(fib)
    assert check_pullback_transfer(fib, {"closure": classifications(t)}).checked
    assert [map_predicates(fib, f) for f in range(fib.category.n_morphisms)]
    backend = fib.backend
    assert backend.masks and backend.quotients and backend.points and backend.sides
    alive = weakref.ref(fib)
    del fib, t, backend
    gc.collect()
    assert alive() is None


def test_space_tables_are_per_instance_and_invisible():
    from topogen.instances.topology import SIERPINSKI

    space = FinTopSpace(3, (0, 1, 3, 7))
    twin = FinTopSpace(3, (0, 1, 3, 7))
    before = (repr(space), hash(space))
    assert space.closures == tuple(space.closure(m) for m in range(8))
    assert space.subspaces == tuple(space.subspace(m) for m in range(8))
    # tables take no part in equality, hashing or repr
    assert (repr(space), hash(space)) == before
    assert space == twin and hash(space) == hash(twin) and repr(space) == repr(twin)
    assert "closures" not in repr(space) and space != SIERPINSKI
    # an equal space built apart has no table until it asks, then its own
    assert "closures" not in vars(twin) and "subspaces" not in vars(twin)
    assert twin.closures == space.closures and twin.closures is not space.closures
    assert twin.subspaces == space.subspaces and twin.subspaces is not space.subspaces


# ---------------------------------------------------------------------------
# reflection / coreflection instances


def test_t0_classes():
    assert t0_quotient_classes(SIERPINSKI) == [0b01, 0b10]
    assert t0_quotient_classes(indiscrete(2)) == [0b11]
    x = FinTopSpace(3, (0, 0b011, 0b111))
    assert t0_quotient_classes(x) == [0b011, 0b100]


def test_t0_reflection_fixes_t0_spaces(fintop2):
    p = builtin_endofunctor("pointed", "t0", fintop2)
    cat = fintop2.category
    for name in ("empty", "pt", "sierpinski", "discrete2"):
        x = cat.object_index(name)
        assert p.obj_map[x] == x
        assert cat.is_identity(p.components[x])
    ind = cat.object_index("indiscrete2")
    assert cat.object_names[p.obj_map[ind]] == "pt"


def test_t0_reflection_matches_the_per_morphism_formula(fintop3):
    # the oracle recomputes the T0 classes of both ends of every morphism
    from topogen.instances.topology import t0_reflection

    fib = fintop3
    cat, backend = fib.category, fib.backend
    spaces = spaces_of(fib)

    def class_of(x):
        classes = t0_quotient_classes(spaces[x])
        return tuple(next(ci for ci, c in enumerate(classes) if c >> pnt & 1)
                     for pnt in range(spaces[x].n)), len(classes)

    obj_map, unit = [], []
    for x, s in enumerate(spaces):
        eta, n_classes = class_of(x)
        opens = tuple(
            v for v in range(1 << n_classes)
            if s.is_open(sum(1 << pnt for pnt in range(s.n) if v >> eta[pnt] & 1))
        )
        obj_map.append(backend._object_of(FinTopSpace(n_classes, opens)))
        unit.append(cat.morphism_by_graph(x, obj_map[x], eta))
    mor_map = []
    for f in range(cat.n_morphisms):
        x, y = cat.mor_dom[f], cat.mor_cod[f]
        (eta_x, n_classes), (eta_y, _) = class_of(x), class_of(y)
        graph = [0] * n_classes
        for pnt, q in enumerate(cat.graphs[f]):
            graph[eta_x[pnt]] = eta_y[q]
        mor_map.append(cat.morphism_by_graph(obj_map[x], obj_map[y], tuple(graph)))
    p = t0_reflection(fib)
    assert p.obj_map == tuple(obj_map)
    assert p.components == tuple(unit)
    assert p.mor_map == tuple(mor_map)
    assert len(set(p.obj_map)) < cat.n_objects  # some spaces are not T0


def test_discrete_coreflection_structure(fintop2):
    q = builtin_endofunctor("copointed", "discrete", fintop2)
    cat = fintop2.category
    d2 = cat.object_index("discrete2")
    sier = cat.object_index("sierpinski")
    assert q.obj_map[sier] == d2
    assert cat.is_identity(q.components[d2])
    counit = q.components[sier]
    assert cat.graphs[counit] == (0, 1)
    assert not map_predicates(fintop2, counit).open


def test_reflection_requires_quotient_closure():
    from topogen.errors import PreconditionError
    from topogen.instances.topology import fintop_fibration, t0_reflection, discrete_coreflection

    missing_quotient = fintop_fibration([indiscrete(2)], name="ind_only")
    with pytest.raises(PreconditionError):
        t0_reflection(missing_quotient)
    missing_discrete = fintop_fibration([SIERPINSKI], name="sier_only2")
    with pytest.raises(PreconditionError):
        discrete_coreflection(missing_discrete)


def test_builtin_space_names():
    # 3-point spaces rank by their sorted open-mask tuples: discrete first
    assert builtin_space("sierpinski") == SIERPINSKI
    assert builtin_space("discrete2") == discrete(2)
    assert builtin_space("t3_00") == discrete(3)
    assert builtin_space("t3_28") == indiscrete(3)


def test_space_names_are_ranks_of_an_independent_enumeration(fintop3):
    from topogen.instances.topology import fintop_fibration

    for name, space in zip(fintop3.category.object_names, spaces_of(fintop3)):
        if space.n == 3:
            assert builtin_space(name) == space
    ranked = enumerate_topologies_via_preorders(4)
    picks = (0, 17, 200, len(ranked) - 1)
    fib = fintop_fibration([ranked[i] for i in picks])
    assert fib.category.object_names == tuple(f"t4_{i:02d}" for i in picks)


def test_five_point_spaces_are_named_by_their_opens(monkeypatch):
    from topogen.instances import topology

    ranked = topology.enumerate_topologies

    def ranks_up_to_four_points(n):
        if n >= 5:
            raise AssertionError(f"enumerate_topologies({n}) walks 2^{2 ** n - 2} open families")
        return ranked(n)

    monkeypatch.setattr(topology, "enumerate_topologies", ranks_up_to_four_points)
    fib = topology.fintop_fibration([FinTopSpace(5, (0, 1, 2, 3, 7, 11, 15, 31))])
    assert fib.category.object_names == ("s5_0.1.2.3.7.11.15.31",)


def test_topgroups_over_z2():
    from topogen.instances.topgroups import topgroups_of

    tgs = topgroups_of((cyclic(2),))
    assert len(tgs) == 2  # indiscrete and discrete coset topologies
    names = {tg.name for tg in tgs}
    assert names == {"z2.n0", "z2.n1"}
    sizes = sorted(len(tg.topology.opens) for tg in tgs)
    assert sizes == [2, 4]


def test_sierpinski_closure_order_rows(fintop2):
    t = builtin_order("closure", fintop2)
    x = fintop2.category.object_index("sierpinski")
    # the dense open point relates only to the whole space
    assert t.rel[x][0b10] == 1 << 0b11
    # the closed point relates to every superset
    assert t.rel[x][0b01] == fintop2.sub[x].up[0b01]


def test_sierpinski_interior_order_rows(fintop2):
    t = builtin_order("interior", fintop2)
    x = fintop2.category.object_index("sierpinski")
    # subsets relate to the open point iff they sit inside it
    related_to_open_point = [m for m in range(4) if t.rel[x][m] >> 0b10 & 1]
    assert related_to_open_point == [0b00, 0b10]


def test_every_concrete_builder_sets_subsets(tmp_path):
    from topogen.cli import _Environment
    from topogen.instances.groups import fingrp_fibration, small_catalog
    from topogen.instances.topgroups import topgrp_fibration
    from topogen.instances.topology import fintop_fibration

    doc = tmp_path / "in.topo"
    doc.write_text(
        "space two: points=2; opens={},{0},{0,1}\n"
        "space one: points=1; opens={},{0}\n"
    )
    for fib in (
        fintop_fibration([SIERPINSKI, discrete(2)]),
        _Environment([doc]).fibration("spaces:two,one"),
        fingrp_fibration(small_catalog()),
        topgrp_fibration().total,
    ):
        assert fib.subsets is not None, fib.name
        assert [len(masks) for masks in fib.subsets] == [lat.size for lat in fib.sub]


def _brute_force_tables(fib, f):
    """The image and preimage tables of f from Python sets of points: the
    index of each image/preimage among the subobjects, or -1."""
    cat = fib.category
    x, y = cat.mor_dom[f], cat.mor_cod[f]
    graph = cat.graphs[f]

    def members(z):
        n = len(cat.graphs[cat.identities[z]])
        return [frozenset(p for p in range(n) if mask >> p & 1) for mask in fib.subsets[z]]

    def position(subobjects, s):
        return subobjects.index(s) if s in subobjects else -1

    sx, sy = members(x), members(y)
    img = tuple(position(sy, frozenset(graph[e] for e in a)) for a in sx)
    pre = tuple(
        position(sx, frozenset(e for e, v in enumerate(graph) if v in b)) for b in sy
    )
    return img, pre


@pytest.mark.parametrize("name", [
    "fintop2", "grp_small", "grp_le8", "topgrp_le4", "spaces:two,one,three",
    "spaces:four_a,four_b,four_c",
])
def test_set_level_tables_and_e_match_a_brute_force_oracle(tmp_path, name):
    from topogen.cli import _Environment

    doc = tmp_path / "in.topo"
    doc.write_text(
        "space two: points=2; opens={},{0},{0,1}\n"
        "space one: points=1; opens={},{0}\n"
        "space three: points=3; opens={},{2},{1,2},{0,1,2}\n"
        "space four_a: points=4; opens={},{0},{1,2},{0,1,2},{0,3},{0,1,2,3}\n"
        "space four_b: points=4; opens={},{1},{3},{0,3},{1,3},{0,1,3},{1,2,3},{0,1,2,3}\n"
        "space four_c: points=4; opens={},{1,2},{0,1,2},{3},{1,2,3},{0,1,2,3}\n"
    )
    fib = _Environment([doc]).fibration(name)
    cat = fib.category
    for f in range(cat.n_morphisms):
        assert (fib.img[f], fib.pre[f]) == _brute_force_tables(fib, f), cat.mor_names[f]
    surjective = {
        f for f, graph in enumerate(cat.graphs)
        if set(graph) == set(cat.graphs[cat.identities[cat.mor_cod[f]]])
    }
    assert fib.eclass == surjective


@pytest.mark.parametrize("name", FIBRATION_NAMES)
def test_isos_lie_in_e_and_m_and_e_and_m_are_closed_under_isos(name):
    # the standing (E, M) hypothesis the pullback sweep's counting by
    # isomorphism classes rests on: an iso is in E and in M, and composing
    # with an iso on either side keeps a map in E, or out of it, and in M
    fib = builtin_fibration(name)
    cat = fib.category
    isos = cat.isomorphisms()
    assert isos and isos <= fib.eclass & fib.mclass
    side = {f: (f in fib.eclass, f in fib.mclass) for f in range(cat.n_morphisms)}
    for u in isos:
        for f in cat.morphisms_to[cat.mor_dom[u]]:
            assert side[cat.compose(u, f)] == side[f], (cat.mor_names[u], cat.mor_names[f])
        for g in cat.morphisms_from[cat.mor_cod[u]]:
            assert side[cat.compose(g, u)] == side[g], (cat.mor_names[g], cat.mor_names[u])
