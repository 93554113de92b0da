import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from topogen import cli
from topogen.cli import main
from topogen.instances.topology import FinTopSpace


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_identity(capsys):
    code, out, _ = run(capsys, "classify", "--order", "closure", "--map", "id_sierpinski")
    assert code == 0
    assert "strict=true" in out and "initial=true" in out and "costrict=true" in out


def test_classify_reports_not_applicable(capsys, tmp_path):
    code, out, _ = run(
        capsys, "classify", "--fibration", "grp_small", "--order", "grp_normal",
        "--map", "z2>s3:01",
    )
    assert code == 0
    assert "costrict=n/a" in out and "initial=n/a" in out


def test_predicates_of_map(capsys):
    code, out, _ = run(capsys, "predicates", "--map", "discrete2>pt:00")
    assert code == 0
    assert "open=true" in out and "initial_topology=false" in out
    assert "hereditary_quotient=true" in out


def test_predicates_of_order(capsys):
    code, out, _ = run(capsys, "predicates", "--order", "interior")
    assert code == 0
    assert "join_preserving=true" in out and "interpolative=true" in out


def test_strict_subs(capsys):
    code, out, _ = run(
        capsys, "strict-subs", "--order", "interior", "--object", "sierpinski")
    assert code == 0
    assert out.strip().endswith("{}, {1}, {0,1}")


def test_convert_to_closure(capsys):
    code, out, _ = run(capsys, "convert", "--from", "topogenous", "--to", "closure",
                       "--order", "closure")
    assert code == 0
    assert out.startswith("operator closure_closure:")


def test_convert_non_meet_preserving_fails_with_witness(capsys, tmp_path):
    doc = tmp_path / "in.topo"
    doc.write_text(
        "space two: points=2; opens={},{0},{0,1}\n"
        "order flat: fibration=spaces:two; kind=explicit; rel=\n"
    )
    code, _, err = run(capsys, "convert", "--from", "topogenous", "--to", "closure",
                       "--order", "flat", "--fibration", "spaces:two", str(doc))
    assert code == 1
    assert "not meet-preserving" in err
    assert "witness" in err


# a topogenous order on the three-point chain space {},{0},{0,1},{0,1,2}
# whose least failing families are pairs, under meets and under joins
PINCHED = (
    "space chain: points=3; opens={},{0},{0,1},{0,1,2}\n"
    "order pinched: fibration=spaces:chain; kind=explicit; rel=chain["
    "({},{}),({},{0}),({},{1}),({},{0,1}),({},{2}),({},{0,2}),({},{1,2}),({},{0,1,2}),"
    "({0},{0}),({0},{0,1}),({0},{0,2}),({0},{0,1,2}),({1},{0,1}),({1},{1,2}),({1},{0,1,2}),"
    "({0,1},{0,1}),({0,1},{0,1,2}),({2},{2}),({2},{0,2}),({2},{1,2}),({2},{0,1,2}),"
    "({0,2},{0,1,2}),({1,2},{1,2}),({1,2},{0,1,2}),({0,1,2},{0,1,2})]\n"
)


@pytest.mark.parametrize("target, failure, witness", [
    ("closure", "order is not meet-preserving", "('chain', '{1}', ('{0,1}', '{1,2}'))"),
    ("interior", "order is not join-preserving", "('chain', '{0,2}', ('{0}', '{2}'))"),
])
def test_convert_names_the_least_failing_pair(capsys, tmp_path, target, failure, witness):
    doc = tmp_path / "in.topo"
    doc.write_text(PINCHED)
    code, out, err = run(capsys, "convert", "--from", "topogenous", "--to", target,
                         "--order", "pinched", "--fibration", "spaces:chain", str(doc))
    assert (code, out) == (1, "")
    assert err == f"failure: {failure}\nwitness: {witness}\n"


FIVE = FinTopSpace(5, (0b0, 0b1, 0b10, 0b11, 0b111, 0b1011, 0b1111, 0b11111))
FIVE_DOC = "space five: points=5; opens={},{0},{1},{0,1},{0,1,2},{0,1,3},{0,1,2,3},{0,1,2,3,4}\n"


@pytest.mark.parametrize("order, holds", [("closure", "meet_preserving"),
                                          ("interior", "join_preserving")])
def test_predicates_of_an_order_on_a_five_point_space(capsys, tmp_path, order, holds):
    # 32-element subobject lattices
    doc = tmp_path / "five.topo"
    doc.write_text(FIVE_DOC)
    code, out, _ = run(capsys, "predicates", "--order", order,
                       "--fibration", "spaces:five", str(doc))
    assert code == 0
    assert f"  {holds}=true" in out.splitlines()


def test_convert_to_closure_on_a_five_point_space(capsys, tmp_path):
    doc = tmp_path / "five.topo"
    doc.write_text(FIVE_DOC)
    code, out, _ = run(capsys, "convert", "--from", "topogenous", "--to", "closure",
                       "--order", "closure", "--fibration", "spaces:five", str(doc))
    assert code == 0

    def label(mask):
        return "{" + ",".join(str(p) for p in range(5) if mask >> p & 1) + "}"

    table = dict(re.findall(r"(\{[0-9,]*\})=>(\{[0-9,]*\})", out))
    assert table == {label(m): label(FIVE.closure(m)) for m in range(32)}


def test_open_set_naming_a_point_outside_the_space_is_a_parse_error(capsys, tmp_path):
    doc = tmp_path / "in.topo"
    doc.write_text("# two points\nspace s: points=2; opens={},{0,1},{5},{0,1,5}\n")
    for argv in (("validate",), ("convert", "--from", "topogenous", "--to", "closure",
                                 "--order", "closure", "--fibration", "spaces:s")):
        code, out, err = run(capsys, *argv, str(doc))
        assert (code, out) == (2, "")
        assert err == "parse error: invalid topology: an open set names a point >= 2 (line 2)\n"


def test_a_nine_point_space_is_a_parse_error(capsys, tmp_path):
    # 8 points is the largest carrier whose subsets form a lattice
    doc = tmp_path / "in.topo"
    doc.write_text("space s: points=9; opens={},{0,1,2,3,4,5,6,7,8}\n")
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out) == (2, "")
    assert err == "parse error: point count 9 is not in 0..8 (line 1)\n"


def test_validate_mixed_file(capsys, tmp_path):
    doc = tmp_path / "in.topo"
    doc.write_text(
        "space two: points=2; opens={},{0},{0,1}\n"
        "map loop: from=two; to=two; graph=0,0\n"
        "order inc: fibration=spaces:two; kind=leq\n"
    )
    code, out, _ = run(capsys, "validate", str(doc))
    assert code == 0
    assert out.count("ok ") == 3


def test_validate_discontinuous_map(capsys, tmp_path):
    doc = tmp_path / "in.topo"
    doc.write_text(
        "space two: points=2; opens={},{0},{0,1}\n"
        "map bad: from=two; to=two; graph=1,0\n"
    )
    code, out, _ = run(capsys, "validate", str(doc))
    assert code == 1
    assert "not continuous" in out


@pytest.mark.parametrize("graph, problem", [
    ("0", "length 1, but a has 2 points"),
    ("0,1,0", "length 3, but a has 2 points"),
    ("0,-1", "-1 is not a point of a"),
    ("0,400000000", "400000000 is not a point of a"),
])
def test_validate_names_a_malformed_graph(capsys, tmp_path, graph, problem):
    # a is indiscrete, so every function into it is continuous
    doc = tmp_path / "in.topo"
    doc.write_text(f"space a: points=2; opens={{}},{{0,1}}\nmap m: from=a; to=a; graph={graph}\n")
    code, out, _ = run(capsys, "validate", str(doc))
    assert (code, out) == (1, f"ok {doc}:space a\nFAIL {doc}:map m: malformed graph: {problem}\n")


def test_parse_error_exit_code(capsys, tmp_path):
    doc = tmp_path / "broken.topo"
    doc.write_text("space x points=1\n")
    code, _, err = run(capsys, "validate", str(doc))
    assert code == 2
    assert "parse error" in err


def test_unknown_builtin_exit_code(capsys):
    code, _, err = run(capsys, "classify", "--fibration", "nope",
                       "--order", "closure", "--map", "id_pt")
    assert code == 2
    assert "unknown built-in" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify"])  # missing required flags
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("predicates", "--order", "nosuch"),
    ("classify", "--order", "nosuch", "--map", "id_pt"),
    ("strict-subs", "--order", "nosuch", "--object", "pt"),
    ("convert", "--from", "topogenous", "--to", "closure", "--order", "nosuch"),
    ("induce", "--pointed", "t0", "--order", "nosuch", "--fibration", "t0_small"),
    ("lift", "--order", "nosuch"),
])
def test_unknown_order_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown order kind 'nosuch'")


def test_a_repeated_space_name_is_a_usage_error(capsys, tmp_path):
    doc = tmp_path / "in.topo"
    doc.write_text("space a: points=2; opens={},{0},{0,1}\n")
    code, out, err = run(
        capsys, "predicates", "--fibration", "spaces:a, a", "--order", "closure", str(doc))
    assert code == 2
    assert out == ""
    assert err == "error: space 'a' named twice in fibration 'spaces:a, a'\n"


def test_unknown_order_kind_in_a_file_is_a_parse_error(capsys, tmp_path):
    doc = tmp_path / "in.topo"
    doc.write_text(
        "space two: points=2; opens={},{0},{0,1}\n"
        "order e: fibration=spaces:two; kind=nosuch\n"
        "order inc: fibration=spaces:two; kind=leq\n"
    )
    code, out, err = run(capsys, "validate", str(doc))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: order kind must be ")
    assert err.rstrip().endswith("got 'nosuch' (line 2)")


def test_unknown_operator_kind_in_a_file_is_a_parse_error(capsys, tmp_path):
    doc = tmp_path / "in.topo"
    doc.write_text("operator c: fibration=fintop2; kind=bogus; table=pt[{}=>{}]\n")
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out) == (2, "")
    assert err == "parse error: operator kind must be closure|interior, got 'bogus' (line 1)\n"


def test_unknown_endofunctor_kind_is_reported_before_its_fields(capsys, tmp_path):
    doc = tmp_path / "in.topo"
    doc.write_text(
        "endofunctor e: fibration=t0_small; kind=bogus; obj=pt=>pt; mor=id_pt=>id_pt; "
        "unit=pt=>id_pt\n"
    )
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out) == (2, "")
    assert err == (
        "parse error: endofunctor kind must be pointed|copointed, got 'bogus' (line 1)\n"
    )


@pytest.mark.parametrize("target", ["closure", "interior", "neighbourhood"])
def test_converted_record_validates_in_its_document(capsys, tmp_path, target):
    # convert writes the file form of a `spaces:` fibration; validate must read it back
    doc = tmp_path / "in.topo"
    doc.write_text(
        "space a: points=2; opens={},{0},{0,1}\n"
        "space b: points=1; opens={},{0}\n"
    )
    code, record, _ = run(capsys, "convert", "--from", "topogenous", "--to", target,
                          "--order", "closure", "--fibration", "spaces:a,b", str(doc))
    assert code == 0 and "fibration=spaces:a,b;" in record
    doc.write_text(doc.read_text() + record)
    code, out, _ = run(capsys, "validate", str(doc))
    assert code == 0
    assert out.count("ok ") == 3
    # operator records are checked against their kind's axioms, not only parsed
    assert "syntax only" not in out


def test_validate_checks_operator_axioms(capsys, tmp_path):
    doc = tmp_path / "in.topo"
    doc.write_text("operator c: fibration=fintop1; kind=closure; table=pt[{}=>{0},{0}=>{}]\n")
    code, out, _ = run(capsys, "validate", str(doc))
    assert code == 1
    assert out.startswith(f"FAIL {doc}:operator c\n")
    assert "violation: extensive; at pt; witness {0}" in out


def _builtin_record_line(endofunctor_record, side, name, fib_name):
    from topogen.harness import fileformat
    from topogen.instances.registry import builtin_endofunctor, builtin_fibration

    endo = builtin_endofunctor(side, name, builtin_fibration(fib_name))
    return fileformat.serialize_record(endofunctor_record(name, endo))


def _t0_record_line(endofunctor_record):
    line = _builtin_record_line(endofunctor_record, "pointed", "t0", "t0_small")
    assert "obj=pt=>pt,indiscrete2=>pt;" in line and "unit=pt=>id_pt," in line
    return line


def test_validate_checks_endofunctor_laws(capsys, tmp_path, endofunctor_record):
    from topogen.harness import fileformat
    from topogen.instances.registry import builtin_endofunctor, builtin_fibration

    doc = tmp_path / "endo.topo"
    copointed = endofunctor_record(
        "d", builtin_endofunctor("copointed", "discrete", builtin_fibration("coreflect_small")))
    doc.write_text(_t0_record_line(endofunctor_record) + "\n"
                   + fileformat.serialize_record(copointed) + "\n")
    code, out, _ = run(capsys, "validate", str(doc))
    assert (code, out) == (0, f"ok {doc}:endofunctor t0\nok {doc}:endofunctor d\n")
    # both objects sent to indiscrete2: identities, morphisms and the unit are mistyped
    doc.write_text(_t0_record_line(endofunctor_record).replace(
        "obj=pt=>pt,indiscrete2=>pt;", "obj=pt=>indiscrete2,indiscrete2=>indiscrete2;") + "\n")
    code, out, _ = run(capsys, "validate", str(doc))
    assert code == 1
    assert out.startswith(f"FAIL {doc}:endofunctor t0\n")
    laws = set(re.findall(r"violation: ([\w-]+);", out))
    assert laws == {"endofunctor-identity", "endofunctor-typing", "unit-typing"}


# a built-in endofunctor record with one component given the wrong ends:
# (side, name, fibration, the component as serialized, its replacement,
# the report line); its naturality squares cannot be composed
MISTYPED_COMPONENTS = [
    ("pointed", "t0", "t0_small", "indiscrete2=>indiscrete2>pt:00",
     "indiscrete2=>indiscrete2>indiscrete2:00",
     "FAIL pointed-endofunctor checked=16\n  violation: unit-typing; at indiscrete2\n"),
    ("copointed", "discrete", "coreflect_small", "sierpinski=>discrete2>sierpinski:01",
     "sierpinski=>id_discrete2",
     "FAIL copointed-endofunctor checked=26\n  violation: counit-typing; at sierpinski\n"),
]


@pytest.mark.parametrize("side, name, fib_name, component, mistyped, report",
                         MISTYPED_COMPONENTS)
def test_validate_reports_a_mistyped_component_and_the_records_after_it(
        capsys, tmp_path, endofunctor_record, side, name, fib_name, component, mistyped, report):
    line = _builtin_record_line(endofunctor_record, side, name, fib_name)
    assert component in line
    doc = tmp_path / "endo.topo"
    doc.write_text(line.replace(component, mistyped) + "\n"
                   + "space two: points=2; opens={},{0},{0,1}\n")
    code, out, _ = run(capsys, "validate", str(doc))
    assert (code, out) == (1, f"FAIL {doc}:endofunctor {name}\n{report}ok {doc}:space two\n")
    # induce validates the record first and refuses it
    code, out, err = run(capsys, "induce", f"--{side}", name, "--order", "closure",
                         "--fibration", fib_name, str(doc))
    assert (code, out) == (1, "")
    assert report.splitlines()[1].strip() in err


def test_induce_refuses_an_invalid_endofunctor_before_inducing(
        capsys, tmp_path, endofunctor_record):
    doc = tmp_path / "endo.topo"
    doc.write_text(_t0_record_line(endofunctor_record).replace(
        "obj=pt=>pt,indiscrete2=>pt;", "obj=pt=>indiscrete2,indiscrete2=>indiscrete2;") + "\n")
    code, out, err = run(capsys, "induce", "--pointed", "t0", "--order", "closure",
                         "--fibration", "t0_small", str(doc))
    assert (code, out) == (1, "")
    assert "violation: endofunctor-identity; at pt" in err and "Traceback" not in err


@pytest.mark.parametrize("old,new", [
    ("obj=pt=>pt,indiscrete2=>pt;", "obj=pt=>pt;"),
    ("mor=id_pt=>id_pt,", "mor="),
    ("unit=pt=>id_pt,", "unit="),
])
def test_endofunctor_record_with_unmapped_entries_is_a_parse_error(
        capsys, tmp_path, endofunctor_record, old, new):
    doc = tmp_path / "endo.topo"
    doc.write_text(_t0_record_line(endofunctor_record).replace(old, new) + "\n")
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out, err) == (2, "", "parse error: endofunctor 't0' leaves entries unassigned\n")


@pytest.mark.parametrize("fib,table,error", [
    ("fintop1", "pt[{}=>{0}]", "operator 'c' has 1 entries for 'pt', expected 2"),
    ("fintop1", "pt[{}=>{},{0}=>{0},{}=>{}]", "operator 'c' has 3 entries for 'pt', expected 2"),
    ("fintop1", "pt[{}=>{},{}=>{0}]", "operator 'c' leaves entries unassigned"),
    ("fintop2", "empty[{}=>{}]", "operator 'c' leaves entries unassigned"),
])
def test_operator_table_of_the_wrong_size_is_a_parse_error(capsys, tmp_path, fib, table, error):
    doc = tmp_path / "in.topo"
    doc.write_text(f"operator c: fibration={fib}; kind=interior; table={table}\n")
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out, err) == (2, "", f"parse error: {error}\n")


@pytest.mark.parametrize("argv", [
    ("predicates",),
    ("predicates", "--map", "discrete2>pt:00", "--order", "closure"),
])
def test_predicates_takes_exactly_one_of_map_and_order(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("kind", ["closure", "interior", "neighbourhood"])
def test_property_filter_on_another_kind_is_a_usage_error(capsys, kind):
    code, out, err = run(capsys, "enumerate", "--builtin", "fintop2",
                         "--kind", kind, "--filter", "meet")
    assert code == 2
    assert out == ""
    assert err == "error: property filters apply to topogenous enumeration\n"


def test_enumerate_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--builtin", "disc2_loop",
                       "--kind", "topogenous", "--count-only")
    assert code == 0
    assert out.strip() == "# 6 topogenous structures on disc2_loop"


def test_enumerate_records_resolve_back(capsys):
    from topogen.harness import fileformat
    from topogen.instances.registry import builtin_fibration
    from topogen.structures import validate_structure

    code, out, _ = run(capsys, "enumerate", "--builtin", "disc2_loop",
                       "--kind", "topogenous")
    assert code == 0
    body = "\n".join(line for line in out.splitlines() if not line.startswith("#"))
    doc = fileformat.parse_document(body + "\n")
    fib = builtin_fibration("disc2_loop")
    assert len(doc.records) == 6
    for record in doc.records:
        assert validate_structure(fileformat.resolve_order(record, fib)).ok


def test_enumeration_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("TOPOGEN_MAX_CANDIDATES", "1")
    code, _, err = run(capsys, "enumerate", "--builtin", "disc2_loop",
                       "--kind", "topogenous", "--count-only")
    assert code == 3
    assert "resource cap" in err


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_bad_candidate_budget_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("TOPOGEN_MAX_CANDIDATES", value)
    code, out, err = run(capsys, "enumerate", "--builtin", "fintop2",
                         "--kind", "closure")
    assert code == 2
    assert out == ""
    assert err.startswith("error: TOPOGEN_MAX_CANDIDATES=")
    assert "resource cap" not in err


def test_lift_command(capsys):
    code, out, _ = run(capsys, "lift", "--fibration", "topgrp_le4",
                       "--order", "grp_normal")
    assert code == 0
    assert out.startswith("order grp_normal_lifted:")


def test_induce_command(capsys):
    code, out, _ = run(capsys, "induce", "--pointed", "t0", "--order", "closure",
                       "--fibration", "t0_small")
    assert code == 0
    assert out.startswith("order closure_via_t0:")


def test_induce_reads_an_endofunctor_record(capsys, tmp_path, endofunctor_record):
    doc = tmp_path / "endo.topo"
    doc.write_text(_t0_record_line(endofunctor_record) + "\n")
    argv = ("induce", "--pointed", "t0", "--order", "closure", "--fibration", "t0_small")
    code, builtin_out, _ = run(capsys, *argv)
    assert code == 0
    code, file_out, err = run(capsys, *argv, str(doc))
    assert code == 0
    assert file_out == builtin_out
    assert "warning: file endofunctor 't0' overrides the built-in" in err
    # a record of the other kind is a usage error
    code, out, err = run(capsys, "induce", "--copointed", "t0", "--order", "closure",
                         "--fibration", "t0_small", str(doc))
    assert code == 2
    assert out == ""
    assert "endofunctor 't0' is pointed, not copointed" in err


def test_convert_starts_only_from_topogenous_orders(capsys):
    for source in ("closure", "interior"):
        with pytest.raises(SystemExit) as exc:
            main(["convert", "--from", source, "--to", "closure", "--order", "closure"])
        assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_convert_to_neighbourhood_writes_the_order_record(capsys):
    from topogen.harness import fileformat
    from topogen.instances.registry import builtin_fibration, builtin_order

    code, out, _ = run(capsys, "convert", "--from", "topogenous", "--to", "neighbourhood",
                       "--order", "closure", "--fibration", "t0_small")
    assert code == 0
    # neighbourhoods of m are the n with m related to n: the order's own table
    order = builtin_order("closure", builtin_fibration("t0_small"))
    record = fileformat.order_record_of("closure_as_nbhd", order)
    assert out == fileformat.serialize_record(record) + "\n"


def test_suite_targets_and_output(capsys, tmp_path):
    out_file = tmp_path / "report.txt"
    json_file = tmp_path / "report.json"
    code, _, err = run(capsys, "suite", "--scale", "small",
                       "--targets", "format-roundtrip",
                       "-o", str(out_file), "--json", str(json_file))
    assert code == 0
    text = out_file.read_text()
    assert "check format-roundtrip" in text and "status=pass" in text
    assert '"status": "pass"' in json_file.read_text()
    assert "timing format-roundtrip" in err


def test_suite_byte_identical_outputs(capsys, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    targets = "conversion-bijections,format-roundtrip"
    assert run(capsys, "suite", "--targets", targets, "-o", str(a))[0] == 0
    assert run(capsys, "suite", "--targets", targets, "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_file_order_overrides_builtin_with_warning(capsys, tmp_path):
    doc = tmp_path / "in.topo"
    doc.write_text(
        "space two: points=2; opens={},{0},{0,1}\n"
        "order closure: fibration=spaces:two; kind=leq\n"
    )
    code, out, err = run(capsys, "predicates", "--order", "closure",
                         "--fibration", "spaces:two", str(doc))
    assert code == 0
    assert "overrides the built-in" in err
    # a file map named like a fibration morphism warns too; a fresh name does not
    doc.write_text(
        "space two: points=2; opens={},{0},{0,1}\n"
        "map id_two: from=two; to=two; graph=0,1\n"
        "map loop: from=two; to=two; graph=0,0\n"
    )
    for name, warned in (("id_two", True), ("loop", False)):
        code, out, err = run(capsys, "classify", "--order", "closure", "--map", name,
                             "--fibration", "spaces:two", str(doc))
        assert code == 0
        assert ("warning: file map 'id_two' overrides a fibration morphism" in err) == warned
        assert "strict=" in out


# {0} relates to {} although {0} is not below {}: not a topogenous order
NOT_TOPOGENOUS = (
    "space a: points=2; opens={},{0},{0,1}\n"
    "order bad: fibration=spaces:a; kind=explicit; rel=a[({0},{})]\n"
    "map m: from=a; to=a; graph=0,0\n"
)


@pytest.mark.parametrize("argv", [
    ("classify", "--order", "bad", "--map", "m"),
    ("strict-subs", "--order", "bad", "--object", "a"),
    ("predicates", "--order", "bad"),
    ("convert", "--from", "topogenous", "--to", "closure", "--order", "bad"),
    ("induce", "--copointed", "discrete", "--order", "bad"),
])
def test_file_order_that_is_not_topogenous_fails_every_command(capsys, tmp_path, argv):
    doc = tmp_path / "in.topo"
    doc.write_text(NOT_TOPOGENOUS)
    code, out, err = run(capsys, *argv, "--fibration", "spaces:a", str(doc))
    assert (code, out) == (1, "")
    assert err.startswith("FAIL topogenous-order checked=17\n")
    assert "violation: below-order; at a; witness {0}, {}" in err
    assert err.endswith("failure: order 'bad' is not topogenous\n")
    # the same record is refused by validate
    code, out, _ = run(capsys, "validate", str(doc))
    assert code == 1 and "FAIL " + str(doc) + ":order bad" in out


@pytest.mark.parametrize("targets, bad", [
    ("pullback-transfr", "'pullback-transfr'"),
    (",", "''"),
    ("format-roundtrip,", "''"),
    ("", "''"),
])
def test_suite_refuses_an_unknown_or_empty_target_before_any_check(
    capsys, monkeypatch, targets, bad
):
    import topogen.cli as cli

    def must_not_run(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "run_suite", must_not_run)
    code, out, err = run(capsys, "suite", "--targets", targets)
    assert (code, out) == (2, "")
    assert err == f"error: unknown check id {bad} (known: {', '.join(sorted(cli.CHECKS))})\n"


def test_commands_in_one_process_answer_as_each_alone(capsys, monkeypatch):
    # main parses with one parser per process; each command must still
    # print and exit as it does in a process of its own
    commands = [
        ("classify", "--order", "closure", "--map", "id_sierpinski"),
        ("strict-subs", "--order", "interior", "--object", "nowhere"),
        ("predicates", "--order", "interior"),
        ("classify", "--order", "interior", "--map", "id_sierpinski"),
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    alone = []
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "topogen.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        alone.append((proc.returncode, proc.stdout))
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    together = [run(capsys, *argv)[:2] for argv in commands]
    assert together == alone
    assert [code for code, _ in together] == [0, 2, 0, 0]
    assert len(built) == 1


def test_validate_builds_each_named_fibration_once(capsys, tmp_path, monkeypatch):
    doc = tmp_path / "orders.topo"
    lines = [
        "space a: points=2; opens={},{0},{0,1}",
        "space b: points=1; opens={},{0}",
        "space c: points=3; opens={},{2},{1,2},{0,1,2}",
    ]
    for i in range(20):
        kind = ("closure", "interior")[i % 2]
        lines.append(f"order o{i}: fibration=spaces:a,b,c; kind={kind}")
    lines.append("order p: fibration=spaces:a,b; kind=closure")
    doc.write_text("\n".join(lines) + "\n")
    built = []

    def counting(spaces, name="fintop", **kwargs):
        built.append(name)
        return fintop_fibration(spaces, name=name, **kwargs)

    from topogen.instances.topology import fintop_fibration

    monkeypatch.setattr(cli, "fintop_fibration", counting)
    memoised = run(capsys, "validate", str(doc))
    assert sorted(built) == ["spaces:a,b", "spaces:a,b,c"]
    # the next command builds its own
    built.clear()
    assert run(capsys, "validate", str(doc)) == memoised
    assert sorted(built) == ["spaces:a,b", "spaces:a,b,c"]
    # one build per record, as each lookup built afresh before
    built.clear()
    monkeypatch.setattr(cli._Environment, "fibration", cli._Environment._build_fibration)
    assert run(capsys, "validate", str(doc)) == memoised
    assert len(built) == 21
    code, out, _ = memoised
    assert code == 0 and out.count("ok ") == 24
