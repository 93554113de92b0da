import itertools

import pytest

from topogen.errors import (
    DomainError,
    FormatError,
    InternalConsistencyError,
    PreconditionError,
    ResourceCapError,
)
from topogen.lattice import FiniteLattice
from topogen.site import FiniteCategory, SubobjectFibration
from topogen.structures import TopogenousOrder, validate_structure
from topogen.harness import fileformat
from topogen.harness.enumeration import (
    EnumerationSpec,
    count_structures,
    enumerate_structures,
    operator_candidates,
    relation_candidates,
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
            img.append(lat.meet_all(above))
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
        compose_table=compose,
    )
    return SubobjectFibration(
        cat, (lat,), imgs, [tuple(p) for p in pres],
        eclass=frozenset({0}), mclass=frozenset({0}), name="loop",
    )


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
    assert count_structures(EnumerationSpec(fib, "topogenous")) == 2


def test_two_chain_identity_only_counts():
    lat = FiniteLattice.from_order(("0", "1"), (0b11, 0b10))
    fib = loop_fibration(lat)
    expected = brute_force_topogenous_count(fib)
    assert expected == 5
    assert count_structures(EnumerationSpec(fib, "topogenous")) == 5


def test_extra_endomorphism_prunes_orders():
    lat = FiniteLattice.from_order(("0", "1"), (0b11, 0b10))
    # the collapse-to-top preimage (adjoint pair with constant-bottom image)
    fib = loop_fibration(lat, extra_pre_tables=((1, 1),))
    expected = brute_force_topogenous_count(fib)
    assert expected == 3
    assert count_structures(EnumerationSpec(fib, "topogenous")) == 3


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


def test_enumeration_cap_fires_before_generation(fintop2):
    spec = EnumerationSpec(fintop2, "topogenous", max_candidates=1)
    with pytest.raises(ResourceCapError):
        next(iter(enumerate_structures(spec)))


def test_enumeration_cap_env_override(disc2_loop, monkeypatch):
    monkeypatch.setenv("TOPOGEN_MAX_CANDIDATES", "1")
    with pytest.raises(ResourceCapError):
        next(iter(enumerate_structures(EnumerationSpec(disc2_loop, "topogenous"))))


def test_lattice_size_cap():
    fib = loop_fibration(FiniteLattice.powerset(2))
    with pytest.raises(ResourceCapError):
        next(iter(enumerate_structures(EnumerationSpec(fib, "topogenous", max_lattice=2))))


def test_unknown_kind_rejected(disc2_loop):
    with pytest.raises(PreconditionError):
        next(iter(enumerate_structures(EnumerationSpec(disc2_loop, "nonsense"))))


@pytest.mark.parametrize("kind,prop", [
    ("closure", "meet"), ("interior", "join"), ("neighbourhood", "interpolative"),
    ("topogenous", "nonsense"),
])
def test_bad_property_filter_rejected_before_generation(fintop2, monkeypatch, kind, prop):
    import topogen.harness.enumeration as enumeration

    def no_generation(*args):
        raise AssertionError("candidates generated")

    monkeypatch.setattr(enumeration, "relation_candidates", no_generation)
    monkeypatch.setattr(enumeration, "operator_candidates", no_generation)
    with pytest.raises(DomainError):
        next(iter(enumerate_structures(EnumerationSpec(fintop2, kind, prop_filter=prop))))


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


def test_endofunctor_record_roundtrip():
    from topogen.instances.registry import builtin_fibration, builtin_pointed, builtin_copointed

    fib = builtin_fibration("t0_small")
    p = builtin_pointed("t0", fib)
    record = fileformat.endofunctor_record_of("reflect", p)
    doc = fileformat.parse_document(fileformat.serialize_record(record) + "\n")
    assert doc.records[0] == record
    resolved = fileformat.resolve_endofunctor(doc.records[0], fib)
    assert resolved.obj_map == p.obj_map
    assert resolved.mor_map == p.mor_map
    assert resolved.unit == p.unit

    fibc = builtin_fibration("coreflect_small")
    q = builtin_copointed("discrete", fibc)
    record = fileformat.endofunctor_record_of("discretize", q)
    doc = fileformat.parse_document(fileformat.serialize_record(record) + "\n")
    resolved = fileformat.resolve_endofunctor(doc.records[0], fibc)
    assert resolved.counit == q.counit


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


def test_suite_unknown_target():
    report = run_suite("small", targets=["no-such-check"])
    assert report.entries[0].skipped == ("unknown proposition id",)
    assert report.ok


def test_suite_single_target():
    report = run_suite("small", targets=["conversion-bijections"])
    assert len(report.entries) == 1
    assert report.ok
