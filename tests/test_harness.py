import itertools
import time
from functools import lru_cache, reduce

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
from topogen.structures import ClosureOperator, TopogenousOrder, validate_structure
from topogen.harness import fileformat
from topogen.harness.enumeration import (
    KINDS,
    EnumerationSpec,
    enumerate_structures,
    local_candidates,
)
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


@lru_cache(maxsize=None)
def relation_candidates(lat):
    """Every relation below the order, antitone in the first argument and
    up-closed in the second (the object-local axioms of topogenous orders
    and neighbourhood assignments), by backtracking without any law; sorted."""
    upsets = lat.upsets()
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
        for u in upsets:
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
    import topogen.harness.enumeration as enumeration

    def no_generation(*args):
        raise AssertionError("candidates generated")

    for name in ("_tables", "local_candidates"):
        monkeypatch.setattr(enumeration, name, no_generation)


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
    # endomorphisms of their objects: a memo keyed on less than (kind, lattice,
    # endomorphism tables) hands some object another object's rows
    from topogen.instances.topology import FinTopSpace, enumerate_topologies, fintop_fibration

    discrete = FinTopSpace(3, tuple(range(8)))
    sierpinski_like = FinTopSpace(3, (0, 1, 7))
    oracle = {}
    for a in (discrete, sierpinski_like):
        for c in enumerate_topologies(3):
            fib = fintop_fibration([a, c], object_names=("a", "c"))
            for x, space in enumerate((a, c)):
                for structure_class in KINDS.values():
                    key = (structure_class, space.opens)
                    if key not in oracle:
                        oracle[key] = _fresh_local_rows(structure_class, fib, x)
                    assert list(local_candidates(structure_class, fib, x)) == oracle[key]
    # the endomorphisms prune differently, so the test can tell keys apart
    for structure_class in KINDS.values():
        assert oracle[structure_class, discrete.opens] != oracle[structure_class, sierpinski_like.opens]


@pytest.mark.parametrize("name", ["fintop2", "grp_small", "grp_le8"])
def test_local_rows_under_the_laws_match_a_fresh_filter(name):
    # subgroup lattices are not powersets, and their preimage tables are not
    # those of a map of points.  The law-free candidates of a lattice of more
    # than 8 elements are too many to filter (381,944 rows for d4), so there
    # the laws along every second endomorphism are placed in the search and
    # the filter runs along all of them
    from topogen.harness.enumeration import _laws, _tables
    from topogen.instances.registry import builtin_fibration

    fib = builtin_fibration(name)
    cat = fib.category
    for x, lat in enumerate(fib.sub):
        endos = [f for f in cat.morphisms_from[x] if cat.mor_cod[f] == x]
        for structure_class in KINDS.values():
            rows = list(local_candidates(structure_class, fib, x))
            if lat.size <= 8:
                assert rows == _fresh_local_rows(structure_class, fib, x), cat.object_names[x]
                continue
            checks = [
                (a, b, fails)
                for _, _, pairs, fails in _laws(structure_class, fib, endos[::2])
                for a, b in pairs
            ]
            kind = structure_class.kind
            kept = [
                r for r in _tables(lat, kind, checks)
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
    assert list(enumerate_structures(EnumerationSpec(fintop2, "topogenous")))
    monkeypatch.setenv("TOPOGEN_MAX_CANDIDATES", "1")
    with pytest.raises(ResourceCapError):
        next(iter(enumerate_structures(EnumerationSpec(fintop2, "topogenous"))))
    monkeypatch.setenv("TOPOGEN_MAX_CANDIDATES", "abc")
    with pytest.raises(DomainError):
        next(iter(enumerate_structures(EnumerationSpec(fintop2, "topogenous"))))
    # the local memo is keyed by the values of the lattice and the tables,
    # not by the identity of the fibration
    first = loop_fibration(FiniteLattice.powerset(3))
    second = loop_fibration(FiniteLattice.powerset(3))
    assert first.sub[0] is not second.sub[0]
    for structure_class in (TopogenousOrder, ClosureOperator):
        rows = local_candidates(structure_class, first, 0)
        assert isinstance(rows, tuple)
        assert local_candidates(structure_class, second, 0) is rows


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
