import dataclasses
import itertools
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from topogen.errors import PreconditionError
from topogen.instances.registry import FIBRATION_NAMES, builtin_fibration
from topogen.lattice import (
    FiniteLattice,
    MonotoneMap,
    mask_iter,
    right_adjoint_of,
    validate_order_candidate,
)


def preserves_all_joins(m: MonotoneMap) -> bool:
    """The bottom and every binary join are preserved."""
    src, tgt = m.source, m.target
    if m.table[src.bottom] != tgt.bottom:
        return False
    for i in range(src.size):
        for j in range(src.size):
            if m.table[src.join(i, j)] != tgt.join(m.table[i], m.table[j]):
                return False
    return True


def preserves_all_meets(m: MonotoneMap) -> bool:
    """The top and every binary meet are preserved."""
    src, tgt = m.source, m.target
    if m.table[src.top] != tgt.top:
        return False
    for i in range(src.size):
        for j in range(src.size):
            if m.table[src.meet(i, j)] != tgt.meet(m.table[i], m.table[j]):
                return False
    return True


def chain(n):
    return FiniteLattice.from_order(
        [str(i) for i in range(n)],
        [sum(1 << j for j in range(i, n)) for i in range(n)],
    )


def test_singleton_is_a_lattice():
    report = validate_order_candidate(("a",), (1,))
    assert report.ok


def test_two_chain_is_a_lattice():
    lat = chain(2)
    assert lat.bottom == 0 and lat.top == 1
    assert lat.meet(0, 1) == 0 and lat.join(0, 1) == 1


def test_vee_shape_has_no_meet():
    # a <= c, b <= c, nothing else: {a, b} has no lower bound at all
    labels = ("a", "b", "c")
    up = (0b101, 0b110, 0b100)
    report = validate_order_candidate(labels, up)
    assert not report.ok
    laws = {v.law for v in report.violations}
    assert "meet-exists" in laws
    witnesses = {v.witness for v in report.violations if v.law == "meet-exists"}
    assert ("a", "b") in witnesses
    with pytest.raises(PreconditionError):
        FiniteLattice.from_order(labels, up)


def test_broken_transitivity_reports_witness():
    # a <= b, b <= c but not a <= c
    report = validate_order_candidate(("a", "b", "c"), (0b011, 0b110, 0b100))
    assert any(v.law == "transitivity" for v in report.violations)


def test_powerset_meet_join_are_set_operations():
    lat = FiniteLattice.powerset(2)
    a, b = 0b01, 0b10
    assert lat.meet(a, b) == 0
    assert lat.join(a, b) == 0b11
    assert (lat.bottom, lat.top) == (0, 0b11)
    assert lat.labels[0] == "{}" and lat.labels[3] == "{0,1}"


@pytest.mark.parametrize("name", FIBRATION_NAMES)
def test_index_of_finds_each_label_and_names_an_unknown_one(name):
    from topogen.errors import DomainError

    for lat in builtin_fibration(name).sub:
        assert [lat.index_of(label) for label in lat.labels] == list(range(lat.size))
    with pytest.raises(DomainError, match=r"^no element labelled '\{9\}'$"):
        lat.index_of("{9}")


@pytest.mark.parametrize("n_points", range(5))
def test_powerset_in_closed_form_equals_the_validated_order(n_points):
    closed = FiniteLattice.powerset(n_points)
    elems = range(1 << n_points)
    assert all(closed.leq(s, t) == (s & ~t == 0) for s in elems for t in elems)
    validated = FiniteLattice.from_order(closed.labels, closed.up)
    for field in dataclasses.fields(FiniteLattice):
        assert getattr(closed, field.name) == getattr(validated, field.name), field.name


def test_powerset_keeps_the_lattice_size_cap():
    with pytest.raises(PreconditionError, match="exceeds cap"):
        FiniteLattice.powerset(9)


def _generated_subgroup(group, seed):
    # independent of the instances module: grow a subset until closed
    members = set(seed) | {group.identity}
    while True:
        new = {group.mul[a][b] for a in members for b in members} | members
        if new == members:
            return frozenset(members)
        members = new


def test_subgroup_join_is_generated_subgroup():
    from topogen.instances.groups import subgroup_lattice, subgroups_of, symmetric3

    s3 = symmetric3()
    lat = subgroup_lattice(s3)
    masks = subgroups_of(s3)
    swap = s3.elems.index("(01)")
    rot = s3.elems.index("(012)")
    a = masks.index(next(m for m in masks if m == sum(1 << e for e in _generated_subgroup(s3, {swap}))))
    b = masks.index(next(m for m in masks if m == sum(1 << e for e in _generated_subgroup(s3, {rot}))))
    joined = lat.join(a, b)
    expected = sum(1 << e for e in _generated_subgroup(s3, {swap, rot}))
    assert masks[joined] == expected == (1 << s3.order) - 1


def test_lattice_laws_on_builtin_lattices():
    from topogen.instances.groups import dihedral4, subgroup_lattice, symmetric3

    for lat in (chain(4), FiniteLattice.powerset(2), FiniteLattice.powerset(3),
                subgroup_lattice(symmetric3()), subgroup_lattice(dihedral4())):
        n = lat.size
        for i in range(n):
            assert lat.meet(i, i) == i and lat.join(i, i) == i
            for j in range(n):
                assert lat.meet(i, j) == lat.meet(j, i)
                assert lat.join(i, j) == lat.join(j, i)
                assert lat.meet(i, lat.join(i, j)) == i
                assert lat.join(i, lat.meet(i, j)) == i
                for k in range(n):
                    assert lat.meet(lat.meet(i, j), k) == lat.meet(i, lat.meet(j, k))
                    assert lat.join(lat.join(i, j), k) == lat.join(i, lat.join(j, k))


# ---------------------------------------------------------------------------
# adjunctions


def _image_preimage_pair(n_src, n_tgt, func):
    src, tgt = FiniteLattice.powerset(n_src), FiniteLattice.powerset(n_tgt)
    img = []
    for mask in range(1 << n_src):
        out = 0
        for x in mask_iter(mask):
            out |= 1 << func[x]
        img.append(out)
    pre = []
    for mask in range(1 << n_tgt):
        out = 0
        for x in range(n_src):
            if mask >> func[x] & 1:
                out |= 1 << x
        pre.append(out)
    return MonotoneMap(src, tgt, tuple(img)), MonotoneMap(tgt, src, tuple(pre))


def _is_adjunction(lower, upper):
    """lower(m) <= n iff m <= upper(n), on every pair."""
    lx, ly = lower.source, lower.target
    return all(
        ly.leq(lower.table[m], n) == lx.leq(m, upper.table[n])
        for m in range(lx.size) for n in range(ly.size)
    )


def test_identity_adjunction():
    lower, upper = _image_preimage_pair(2, 2, (0, 1))
    assert lower.table == upper.table == tuple(range(4))
    assert _is_adjunction(lower, upper)
    # the constant map onto the top is not left adjoint to itself
    const_top = MonotoneMap(chain(2), chain(2), (1, 1))
    assert not _is_adjunction(const_top, const_top)


def test_constant_map_adjunction():
    assert _is_adjunction(*_image_preimage_pair(2, 1, (0, 0)))


@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_function_adjunctions_preserve_joins_and_meets(n_src, n_tgt, data):
    func = tuple(
        data.draw(st.integers(0, n_tgt - 1), label=f"f({x})") for x in range(n_src)
    )
    lower, upper = _image_preimage_pair(n_src, n_tgt, func)
    assert _is_adjunction(lower, upper)
    assert preserves_all_joins(lower)
    assert preserves_all_meets(upper)
    # powerset preimages preserve joins, so the right adjoint always exists
    assert right_adjoint_of(upper) is not None


def _all_monotone_maps(src, tgt):
    for table in itertools.product(range(tgt.size), repeat=src.size):
        try:
            yield MonotoneMap(src, tgt, table)
        except PreconditionError:
            continue


def test_right_adjoint_exists_iff_joins_preserved():
    two, b2 = chain(2), FiniteLattice.powerset(2)
    for src, tgt in ((two, b2), (b2, two), (b2, b2)):
        for m in _all_monotone_maps(src, tgt):
            adj = right_adjoint_of(m)
            assert (adj is not None) == preserves_all_joins(m)
            if adj is not None:
                for a in range(src.size):
                    for b in range(tgt.size):
                        assert tgt.leq(m.table[a], b) == src.leq(a, adj.table[b])


def test_right_adjoint_of_identity_preimage():
    lat = FiniteLattice.powerset(2)
    ident = MonotoneMap(lat, lat, tuple(range(lat.size)))
    adj = right_adjoint_of(ident)
    assert adj is not None and adj.table == ident.table


def test_right_adjoint_matches_complement_formula():
    # bijective two-point map: the adjoint is complement-image-complement
    lower, upper = _image_preimage_pair(2, 2, (0, 1))
    adj = right_adjoint_of(upper)
    assert adj is not None
    full = 0b11
    for a in range(4):
        complement_formula = full & ~lower.table[full & ~a]
        assert adj.table[a] == complement_formula


def test_subgroup_inclusion_preimage_has_no_right_adjoint():
    fib = builtin_fibration("grp_small")
    cat = fib.category
    z2 = cat.object_index("z2")
    s3 = cat.object_index("s3")
    embeddings = [
        f for f in range(cat.n_morphisms)
        if cat.mor_dom[f] == z2 and cat.mor_cod[f] == s3 and len(set(cat.graphs[f])) == 2
    ]
    assert embeddings
    for f in embeddings:
        assert right_adjoint_of(fib.pre_map(f)) is None
        assert fib.fstar[f] is None


def _reference_right_adjoint(upper: MonotoneMap):
    """The join-formula candidate n |-> join{p : upper(p) <= n}, returned
    only if it is monotone and the adjunction verifies on all pairs."""
    ly, lx = upper.source, upper.target
    table = []
    for n in range(lx.size):
        below = [p for p in range(ly.size) if lx.leq(upper.table[p], n)]
        table.append(reduce(ly.join, below, ly.bottom))
    try:
        cand = MonotoneMap(lx, ly, tuple(table))
    except PreconditionError:
        return None
    for m in range(ly.size):
        for n in range(lx.size):
            if lx.leq(upper.table[m], n) != ly.leq(m, cand.table[n]):
                return None
    return cand


def _diamond_m3():
    # bottom 0, atoms 1..3, top 4
    return FiniteLattice.from_order("01234", [0b11111, 0b10010, 0b10100, 0b11000, 0b10000])


def _pentagon_n5():
    # bottom 0 < a 1 < b 2 < top 4, and 0 < c 3 < top 4
    return FiniteLattice.from_order("0abct", [0b11111, 0b10110, 0b10100, 0b11000, 0b10000])


def test_right_adjoint_of_matches_the_join_formula_oracle():
    m3, n5 = _diamond_m3(), _pentagon_n5()
    lattices = [chain(1), chain(2), chain(3), FiniteLattice.powerset(2), m3, n5]
    for src, tgt in itertools.product(lattices, repeat=2):
        outcomes = set()
        for m in _all_monotone_maps(src, tgt):
            got, want = right_adjoint_of(m), _reference_right_adjoint(m)
            assert (got and got.table) == (want and want.table), (src.labels, tgt.labels, m.table)
            outcomes.add(got is None)
        if (src in (m3, n5) or tgt in (m3, n5)) and min(src.size, tgt.size) > 1:
            # non-distributive: some monotone maps have an adjoint, some not
            assert outcomes == {True, False}


@pytest.mark.parametrize("name", FIBRATION_NAMES)
def test_fstar_matches_the_join_formula_oracle_on_builtin_fibrations(name):
    fib = builtin_fibration(name)
    for f in range(fib.category.n_morphisms):
        want = _reference_right_adjoint(fib.pre_map(f))
        assert fib.fstar[f] == (want and want.table)
        got = right_adjoint_of(fib.pre_map(f))
        assert (got and got.table) == (want and want.table)


def test_monotone_map_rejects_non_monotone_table():
    lat = chain(2)
    with pytest.raises(PreconditionError):
        MonotoneMap(lat, lat, (1, 0))
