import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from topogen import cli
from topogen.cli import main
from topogen.instances.topology import FinTopSpace
from topogen.site import SubobjectFibration


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


@pytest.mark.parametrize("fibration, kind, backend", [
    ("fintop2", "grp_normal", "finite-group"), ("grp_small", "closure", "finite-space"),
])
def test_validate_a_builtin_order_on_the_wrong_fibration_is_a_usage_error(
    capsys, tmp_path, fibration, kind, backend
):
    doc = tmp_path / "in.topo"
    doc.write_text(f"order o: fibration={fibration}; kind={kind}\n")
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out, err) == (2, "", f"error: not a {backend} fibration\n")


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


@pytest.mark.parametrize("text, field, message", [
    ("order o: fibration=fintop1; kind=explicit; rel=pt[(a)]", "rel=",
     "pair needs two entries: '(a)'"),
    ("space a: points=1; opens={},{0; broken", "opens=", "unbalanced brackets"),
])
def test_an_error_below_the_field_split_names_its_field(capsys, tmp_path, text, field, message):
    doc = tmp_path / "broken.topo"
    doc.write_text(text + "\n")
    column = text.index(field) + 1
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out) == (2, "")
    assert err == f"parse error: {message} (line 1, column {column})\n"


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
    ("fintop1", "pt[{}=>{},{}=>{0}]", "operator 'c' at 'pt' repeats the label '{}'"),
    ("fintop2", "empty[{}=>{}]", "operator 'c' leaves entries unassigned"),
])
def test_operator_table_of_the_wrong_size_is_a_parse_error(capsys, tmp_path, fib, table, error):
    doc = tmp_path / "in.topo"
    doc.write_text(f"operator c: fibration={fib}; kind=interior; table={table}\n")
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out, err) == (2, "", f"parse error: {error}\n")


# each record spelled canonically, and with the blanks that send it through
# the general scanner
SPELLINGS = [lambda line: line, lambda line: line.replace("; ", " ;  ")]

OPERATOR_TWICE = [
    ("table=a[{}=>{},{0}=>{0,1},{1}=>{1},{0,1}=>{0,1}]|a[{}=>{},{0}=>{0},{1}=>{1},{0,1}=>{0,1}]",
     "operator 'c' repeats the block of 'a'"),
    ("table=a[{}=>{},{0}=>{0,1},{0}=>{0},{0,1}=>{0,1}]",
     "operator 'c' at 'a' repeats the label '{0}'"),
]


@pytest.mark.parametrize("spell", SPELLINGS, ids=["canonical", "scanned"])
@pytest.mark.parametrize("table, error", OPERATOR_TWICE, ids=["block", "label"])
def test_an_operator_record_stating_a_block_or_label_twice_is_a_parse_error(
        capsys, tmp_path, spell, table, error):
    doc = tmp_path / "in.topo"
    doc.write_text("space a: points=2; opens={},{1},{0,1}\n"
                   + spell(f"operator c: fibration=spaces:a; kind=closure; {table}") + "\n")
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out, err) == (2, f"ok {doc}:space a\n", f"parse error: {error}\n")


@pytest.mark.parametrize("record, error", [
    ("order o: fibration=spaces:a; kind=explicit; rel=nope[({},{})]",
     "order 'o' names unknown object 'nope'"),
    ("operator c: fibration=spaces:a; kind=closure; table=nope[{}=>{}]",
     "operator 'c' names unknown object 'nope'"),
], ids=["order", "operator"])
def test_a_block_for_an_unknown_object_is_a_parse_error_naming_the_record(
        capsys, tmp_path, record, error):
    doc = tmp_path / "in.topo"
    doc.write_text("space a: points=1; opens={},{0}\n" + record + "\n")
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out, err) == (2, f"ok {doc}:space a\n", f"parse error: {error}\n")


@pytest.mark.parametrize("spell", SPELLINGS, ids=["canonical", "scanned"])
@pytest.mark.parametrize("record, error", [
    ("order o: fibration=fintop1; kind=explicit; rel=pt[({},nope)]",
     "order 'o' at 'pt' names unknown label 'nope'"),
    ("operator c: fibration=fintop1; kind=closure; table=pt[{}=>{},nope=>{0}]",
     "operator 'c' at 'pt' names unknown label 'nope'"),
], ids=["order", "operator"])
def test_an_unknown_label_in_a_block_is_a_parse_error_naming_the_record(
        capsys, tmp_path, spell, record, error):
    doc = tmp_path / "in.topo"
    doc.write_text(spell(record) + "\n")
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out, err) == (2, "", f"parse error: {error}\n")


@pytest.mark.parametrize("old, new, unknown", [
    ("obj=pt=>pt,", "obj=nope=>pt,", "object 'nope'"),
    ("mor=id_pt=>id_pt,", "mor=nope=>id_pt,", "morphism 'nope'"),
    ("unit=pt=>id_pt,", "unit=pt=>nope,", "morphism 'nope'"),
], ids=["obj", "mor", "unit"])
def test_an_unknown_name_in_an_endofunctor_record_is_a_parse_error_naming_the_record(
        capsys, tmp_path, endofunctor_record, old, new, unknown):
    doc = tmp_path / "endo.topo"
    doc.write_text(_t0_record_line(endofunctor_record).replace(old, new, 1) + "\n")
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out, err) == (2, "", f"parse error: endofunctor 't0' names unknown {unknown}\n")


@pytest.mark.parametrize("spell", SPELLINGS, ids=["canonical", "scanned"])
@pytest.mark.parametrize("argv", [
    ("validate",),
    ("convert", "--from", "topogenous", "--to", "closure", "--order", "o", "--fibration", "fintop1"),
], ids=["validate", "convert"])
def test_an_order_record_with_two_blocks_for_one_object_is_a_parse_error(
        capsys, tmp_path, spell, argv):
    doc = tmp_path / "in.topo"
    doc.write_text(spell("order o: fibration=fintop1; kind=explicit; "
                         "rel=pt[({},{}),({},{0}),({0},{0})]|pt[({},{0})]") + "\n")
    code, out, err = run(capsys, *argv, str(doc))
    assert (code, out, err) == (2, "", "parse error: order 'o' repeats the block of 'pt'\n")


@pytest.mark.parametrize("old, new, twice", [
    ("obj=pt=>pt,", "obj=pt=>pt,pt=>pt,", "pt"),
    ("mor=id_pt=>id_pt,", "mor=id_pt=>id_pt,id_pt=>id_pt,", "id_pt"),
    ("unit=pt=>id_pt,", "unit=pt=>id_pt,pt=>id_pt,", "pt"),
], ids=["obj", "mor", "unit"])
def test_an_endofunctor_record_mapping_an_entry_twice_is_a_parse_error(
        capsys, tmp_path, endofunctor_record, old, new, twice):
    doc = tmp_path / "endo.topo"
    doc.write_text(_t0_record_line(endofunctor_record).replace(old, new) + "\n")
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out, err) == (
        2, "", f"parse error: endofunctor 't0' repeats the entry of {twice!r}\n")


def test_a_group_record_listing_an_element_twice_is_a_parse_error(capsys, tmp_path):
    doc = tmp_path / "in.topo"
    doc.write_text("group g: elements=e,e; identity=e; table=e,e|e,e\n")
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out, err) == (2, "", "parse error: group 'g' repeats element 'e' (line 1)\n")


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


def test_enumerate_records_resolve_back(capsys, tmp_path):
    # each kind's records resolve to structures that validate, by hand and
    # under ``topogen validate``
    from topogen.harness import fileformat
    from topogen.instances.registry import builtin_fibration
    from topogen.structures import validate_structure

    resolvers = {
        "topogenous": fileformat.resolve_order,
        "closure": fileformat.resolve_operator,
        "interior": fileformat.resolve_operator,
    }
    for name in ("disc2_loop", "fintop2", "grp_small"):
        fib = builtin_fibration(name)
        for kind, resolve in resolvers.items():
            code, out, _ = run(capsys, "enumerate", "--builtin", name, "--kind", kind)
            assert code == 0
            summary = out.splitlines()[-1]
            count = int(summary.split()[1])
            assert summary == f"# {count} {kind} structures on {name}" and count > 0
            body = "\n".join(line for line in out.splitlines() if not line.startswith("#"))
            doc = fileformat.parse_document(body + "\n")
            assert len(doc.records) == count
            for record in doc.records:
                assert validate_structure(resolve(record, fib)).ok
            path = tmp_path / f"{name}-{kind}.topo"
            path.write_text(out)
            code, out, err = run(capsys, "validate", str(path))
            assert (code, err) == (0, "")
            assert out.splitlines() == [
                f"ok {path}:{type(record).__name__[:-6].lower()} {record.name}"
                for record in doc.records
            ]


def test_enumerate_fintop3_within_the_default_budget(capsys):
    # the backtracking product's candidate space on fintop3 and on grp_le8
    # exceeded 2^24 (exit 3); their orders are counted before any is built,
    # and the count builds no record
    for name, count in (("fintop3", 17), ("grp_le8", 11_653)):
        code, out, err = run(capsys, "enumerate", "--builtin", name,
                             "--kind", "topogenous", "--count-only")
        assert (code, out, err) == (0, f"# {count} topogenous structures on {name}\n", "")


def test_enumerate_fintop3_closures_within_the_default_budget(capsys):
    # the closures are read from fintop3's 17 orders, though the product of
    # the per-object candidate counts is about 2^80
    code, out, err = run(capsys, "enumerate", "--builtin", "fintop3",
                         "--kind", "closure", "--count-only")
    assert (code, out, err) == (0, "# 11 closure structures on fintop3\n", "")


# the sha256 of `topogen enumerate --builtin <name> --kind <kind>` stdout,
# recorded from a per-object operator search, so the conversion of orders
# must reproduce that search's bytes; the record names <kind>_NNNN pin the
# order of the structures too
OPERATOR_RECORDS = {
    ("fintop1", "closure"): "764297e4df55f319c9f4a558b62a9ec37cf1b65e3be3cd9213e4cd29941f8291",
    ("fintop1", "interior"): "96872303d7d190e0446cfee7057dec5e8a551111f49df4a57bd019e0066bfa5a",
    ("fintop2", "closure"): "34fc58844cbd19311d6c03c4181c3d79ccc44330bbd6de6e2f9cf9fb26e28769",
    ("fintop2", "interior"): "a69533dd34665b5ac7c9becaa488b8d133d362c78ef02fe7dfdb4bed99a0ffc7",
    ("fintop3", "closure"): "4ad5484515b9d881396328f5f9a196969ebce0e512969ed29032060ad491b8e3",
    ("fintop3", "interior"): "f0ffb3ed4be95e7a3d5c28f4bd510f5bedb91e4281bfa0103a2d109614ee541c",
    ("disc2_loop", "closure"): "3382994422502259ce894a23875514ed60cdc9e1841567e841fc57f1d1625d1b",
    ("disc2_loop", "interior"): "635d8de3ed800c686ee5a6e208fa13bbad8054aac5737fb0f321005508af1751",
    ("t0_small", "closure"): "8d116c3322fcaac5067696081cbdfbf9c645d40af6e9aa44fc9bf9262f43dfde",
    ("t0_small", "interior"): "69bf8e7fdb3e211bf5605bfa4fdee12143048c8e4a6f435df66d1864b446f473",
    ("coreflect_small", "closure"): "366fbaabbf780ae6a5b5e6946a9a45a573b2b0571c81c9679a294af289967744",
    ("coreflect_small", "interior"): "a5cde94584c22af955037e3cb904a1e71abed60a825c98fbd9e6b24dbffc765d",
    ("grp_small", "closure"): "d0f7c777a1cb7b3e615da2fe94920eb0e084a0ac8152970b9118c13be21f7818",
    ("grp_small", "interior"): "28b89a8e6d7520c5a03ad3b4daaa4862c1a42ecf0db989d8ea17a3160d2647bd",
    ("grp_le4", "closure"): "6dedc2069fca09da49d85a799c4f19ea5c79a57bae3aeee2de26a401cebd47d3",
    ("grp_le4", "interior"): "c1301a16c83739493abc13f756c012682c00e855a340934829629a1300317e9f",
    ("grp_le8", "closure"): "366b2c8a371c76f89056258d1e4fa840b78668972cc4dc9a91654d2730f565d5",
    ("grp_le8", "interior"): "a926e68db8301405962966466fbfe4f1b705f2afa2311635edc904fc369b00c1",
    ("topgrp_le4", "closure"): "1081b6584dbe29562eb3918544e25cb707aeb3b4769c3239d997903e68861e79",
    ("topgrp_le4", "interior"): "9eba34a934d6b593f027de240650e4a5bcad5f47a1b31e7daf9dd675a6adc46b",
}


@pytest.mark.parametrize("name, kind", OPERATOR_RECORDS)
def test_enumerated_operator_records_keep_their_bytes(capsys, name, kind):
    code, out, err = run(capsys, "enumerate", "--builtin", name, "--kind", kind)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == OPERATOR_RECORDS[name, kind]


# per target kind, for each of fintop2's 11 enumerated topogenous orders in
# turn, what `topogen convert` gives: its exit code, the sha256 of its
# stdout, and its stderr; an order the target's correspondence does not
# pick is refused with the least unclosed family as witness
CONVERTED = {
    "closure": (
        (1, "", "failure: order is not meet-preserving\nwitness: ('empty', '{}', ())\n"),
        (1, "", "failure: order is not meet-preserving\nwitness: ('pt', '{}', ())\n"),
        (1, "", "failure: order is not meet-preserving\nwitness: ('pt', '{0}', ())\n"),
        (0, "873649591f5b744250900389a0b02ed9997437e207fc21c9d20d62411f749806", ""),
        (1, "", "failure: order is not meet-preserving\nwitness: ('pt', '{0}', ())\n"),
        (0, "6d7e05c3899b591c2c684f6dfcaa26023c5aaacd7940f7eab7248e028e9584e6", ""),
        (0, "8d6bb11967bf7dffb6b466dabad9a0afdd9dfbd1260b4c48a46dbec7bef08d94", ""),
        (0, "629a8fcce31eb16dfc9419ce45341f3c6c195ab142e08ea8944aca1e9b412f87", ""),
        (0, "7b8aa340799c9663774a2fd73b6123131bc15687a021c12246be2f75ba35467f", ""),
        (0, "f708079a3e69904f133384f6b75ec42e4b7ba62a18e67dde939e2d0851a6f620", ""),
        (0, "7faae3f0aa89489a39cdd60199cccb5e77363f37bda8af76622fa2acb2df6914", ""),
    ),
    "interior": (
        (1, "", "failure: order is not join-preserving\nwitness: ('empty', '{}', ())\n"),
        (1, "", "failure: order is not join-preserving\nwitness: ('pt', '{}', ())\n"),
        (1, "", "failure: order is not join-preserving\nwitness: ('pt', '{}', ())\n"),
        (1, "", "failure: order is not join-preserving\nwitness: ('pt', '{}', ())\n"),
        (0, "8b2d31ced4d7590a8ef4185fa5badf501ccc88d2450344e70e666dab9f422a4a", ""),
        (0, "295d384b152665c5a36ef1b3c300095f7e3c4d6add60efc6091e94a10d47e657", ""),
        (0, "f6f1c8c28a30c7a6eb9f46c94797cde1075d90c4668ad03a284d9cea82814bda", ""),
        (0, "1526ed36a539a144fc73e7163e1b7aa878d5ae2fd8a58f05dcf5a4528281a573", ""),
        (0, "af7278c9380759fea43ce82271ce8fb7a1dcac31943f784eadf55a38fd611572", ""),
        (0, "54185d81550a5166949d276a955da4bfcae23db1040eace453240b2b29470f14", ""),
        (0, "763377e37c1f47429a92e9e9be819851b24f700083ea2415f808a982f9dfb8d7", ""),
    ),
    "neighbourhood": (
        (0, "dd8c863a1d87496fbb89b0c15cd64e76ff300ee1fe60e9a4cf25e2a4806491c9", ""),
        (0, "25121af8b710dbc527db25ad5ab351f13ed4f780bc7a58c4a05c3153564d66a1", ""),
        (0, "8c9c0c2b38a0d0139f9a2811ed11a86d4c73514dc448df28f37230b17741ef1b", ""),
        (0, "6e510a8743890630086e663794368a912fce68135acd4e8539377bfa1c7649bd", ""),
        (0, "761d33cfaf9afdae6b0dde00cd4df06a6532562f0c81e121046a734b38d99186", ""),
        (0, "ce866d9b46215f1687183e2052311edec7ef4daaa83fc0e7c378634ecc5289ec", ""),
        (0, "e6589bae2df4f3fef188d837ae53cb52822c4c9cf743d6fbddfa7dfec41805d0", ""),
        (0, "90fa404db57d4c34e49a9e374049c52455cb58e68248e8c3417942b87f94198f", ""),
        (0, "719aa0e883e94343dfb2f061b8ddcf8e4132002bdf7d304d7c2dc3bd0be79b1b", ""),
        (0, "0572c44c14deb12f5b3e18cde3722a859a3759ea90456a32ccd82a6746ff114a", ""),
        (0, "da3e245d42a8ae0f12cb755d64d0beba3caf3966ce30508b1ab53c079f99e575", ""),
    ),
}


@pytest.mark.parametrize("target", CONVERTED)
def test_converting_each_enumerated_order_keeps_its_bytes(capsys, tmp_path, target):
    orders = tmp_path / "orders.topo"
    code, _, err = run(capsys, "enumerate", "--builtin", "fintop2", "--kind", "topogenous",
                       "-o", str(orders))
    assert (code, err) == (0, "")
    found = []
    for k in range(len(CONVERTED[target])):
        code, out, err = run(capsys, "convert", "--from", "topogenous", "--to", target,
                             "--order", f"topogenous_{k:04d}", str(orders))
        found.append((code, hashlib.sha256(out.encode()).hexdigest() if out else "", err))
    assert tuple(found) == CONVERTED[target]


def test_a_refused_operator_search_prints_nothing(capsys, monkeypatch):
    # fintop2's closures are read from its 11 topogenous orders, counted
    # before any structure is built
    monkeypatch.setenv("TOPOGEN_MAX_CANDIDATES", "10")
    code, out, err = run(capsys, "enumerate", "--builtin", "fintop2", "--kind", "closure")
    assert (code, out) == (3, "")
    assert err == "resource cap: 11 topogenous structures exceed 10\n"


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
    code, out, err = run(capsys, "lift", "--fibration", "topgrp_le4",
                         "--order", "grp_normal")
    assert (code, err) == (0, "")
    assert out.startswith("order grp_normal_lifted:")
    # every object's lifted block, byte for byte
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "288937c394f7dc1895ae72b3d43e4da9e8c0fd0503b41def2971d406a19ddb91")


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
    from topogen.harness import fileformat

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
        "map two>two: from=two; to=two; graph=1,1\n"
        "map loop: from=two; to=two; graph=0,0\n"
    )
    for name, warned in (("id_two", True), ("two>two", False), ("loop", False)):
        code, out, err = run(capsys, "classify", "--order", "closure", "--map", name,
                             "--fibration", "spaces:two", str(doc))
        assert code == 0
        assert ("warning: file map" in err) == warned
        assert err == (f"warning: file map {name!r} overrides a fibration morphism\n" if warned else "")
        assert "strict=" in out
    # a record's name ends at its first ':', so only a document built in
    # memory names a map like the fibration's two>two:00
    env = cli._Environment([doc])
    env.documents.append(fileformat.Document((fileformat.MapRecord("two>two:00", "two", "two", (1, 1)),)))
    assert env.morphism("two>two:00", env.fibration("spaces:two")) == ("two>two:11", 0, 0, (1, 1))
    assert capsys.readouterr().err == "warning: file map 'two>two:00' overrides a fibration morphism\n"


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


_THREE_SPACES = (
    "space a: points=2; opens={},{0},{0,1}\n"
    "space b: points=1; opens={},{0}\n"
    "space c: points=3; opens={},{2},{1,2},{0,1,2}\n"
    "map m: from=b; to=a; graph=0\n"
    "order o: fibration=spaces:a,b,c; kind=closure\n"
)
# the commands that read only objects, orders and lattices
_MAP_FREE = [
    ("predicates", "--order", "closure"),
    ("convert", "--from", "topogenous", "--to", "interior", "--order", "interior"),
    ("strict-subs", "--order", "closure", "--object", "c"),
]
# the commands that read one file map
_ONE_MAP = [
    ("classify", "--order", "closure", "--map", "m"),
    ("predicates", "--map", "m"),
]
# a morphism given by its concrete name is looked up in its own hom-set
_BY_NAME = ("classify", "--order", "closure", "--map", "id_a")


def test_only_commands_that_read_a_map_enumerate_hom_sets(capsys, tmp_path, monkeypatch):
    from topogen.instances import topology

    doc = tmp_path / "three.topo"
    doc.write_text(_THREE_SPACES)
    calls = []
    continuous_maps = topology.continuous_maps
    monkeypatch.setattr(
        topology, "continuous_maps", lambda *ends: calls.append(ends) or continuous_maps(*ends)
    )
    built = []
    build = cli._Environment._build_fibration
    monkeypatch.setattr(
        cli._Environment, "_build_fibration", lambda env, name: built.append(build(env, name)) or built[-1]
    )
    counted = []
    for argv in (*_MAP_FREE, *_ONE_MAP, _BY_NAME, ("validate",)):
        calls.clear()
        built.clear()
        fibration = ("--fibration", "spaces:a,b,c") if argv != ("validate",) else ()
        code, _, _ = run(capsys, *argv, *fibration, str(doc))
        tabulated = any(type(fib) is SubobjectFibration for fib in built)
        counted.append((argv[0], code, len(calls), tabulated))
    # a file map is checked against its one hom-set b -> a, and id_a against
    # a -> a; validate enumerates each of the 3 x 3 hom-sets once, and only
    # validate tabulates the fibration's tables
    assert counted == [
        ("predicates", 0, 0, False), ("convert", 0, 0, False), ("strict-subs", 0, 0, False),
        ("classify", 0, 1, False), ("predicates", 0, 1, False),
        ("classify", 0, 1, False), ("validate", 0, 9, True),
    ]
    # a file map named like a fibration morphism: the override warning
    # reads the one hom-set s1 -> s1 its name could come from, and the map
    # is checked in its own, the same one; no other hom-set is enumerated
    calls.clear()
    code, out, err = run(capsys, "classify", "--order", "closure", "--map", "id_s1",
                         "--fibration", "spaces:s0,s1,s2", str(PINNED_DOCUMENT))
    assert (code, err) == (0, "warning: file map 'id_s1' overrides a fibration morphism\n")
    assert out.startswith("morphism id_s1\n") and len(calls) == 2
    assert len(set(calls)) == 1


def test_a_morphism_cap_stops_only_the_commands_that_read_a_map(capsys, tmp_path, monkeypatch):
    from topogen.instances import topology

    doc = tmp_path / "three.topo"
    doc.write_text(_THREE_SPACES)
    argvs = [
        (*argv, "--fibration", "spaces:a,b,c", str(doc)) for argv in (*_MAP_FREE, *_ONE_MAP, _BY_NAME)
    ] + [("validate", str(doc))]
    uncapped = [run(capsys, *argv) for argv in argvs]
    assert [code for code, _, _ in uncapped] == [0] * 7
    n_maps = cli._Environment([doc]).fibration("spaces:a,b,c").category.n_morphisms
    monkeypatch.setattr(topology, "MAX_MORPHISMS", n_maps - 1)
    capped = [run(capsys, *argv) for argv in argvs]
    # a file map, or a concrete name, reads one hom-set, far below the cap
    assert capped[:6] == uncapped[:6]
    # validate tabulates every map when it reaches the order record
    code, out, err = capped[6]
    assert (code, err) == (3, f"resource cap: more than {n_maps - 1} continuous maps\n")
    assert uncapped[6][1].startswith(out) and "order o" not in out


PINNED_DOCUMENT = Path(__file__).parent / "data" / "three_spaces.topo"
PINNED_RUNS = Path(__file__).parent / "data" / "map_commands.json"


def _map_command_runs(run_one):
    """[argv without the document, exit code, stdout, stderr] of classify
    under both built-in orders and predicates --map, for every map record of
    ``PINNED_DOCUMENT``, each run by ``run_one(argv)``."""
    from topogen.harness import fileformat

    doc = fileformat.parse_document(PINNED_DOCUMENT.read_text(encoding="utf-8"))
    runs = []
    for rec in doc.records:
        if not isinstance(rec, fileformat.MapRecord):
            continue
        for argv in (
            ("classify", "--order", "closure", "--map", rec.name),
            ("classify", "--order", "interior", "--map", rec.name),
            ("predicates", "--map", rec.name),
        ):
            argv = [*argv, "--fibration", "spaces:s0,s1,s2"]
            runs.append([argv, *run_one([*argv, str(PINNED_DOCUMENT)])])
    return runs


def test_map_commands_keep_their_output_on_every_map_of_a_file(capsys):
    # recorded when every map command tabulated the whole fibration; the
    # maps bad (not continuous) and short (a 2-point graph) are no morphisms
    runs = _map_command_runs(lambda argv: run(capsys, *argv))
    assert runs == json.loads(PINNED_RUNS.read_text(encoding="utf-8"))
    refused = {argv[argv.index("--map") + 1] for argv, code, _, _ in runs if code == 2}
    assert refused == {"bad", "short"}
    assert all(err.endswith("is not a morphism of the fibration\n")
               for _, code, _, err in runs if code == 2)


PINNED_ORDER_RUNS = Path(__file__).parent / "data" / "order_commands.json"


def _order_command_runs(run_one):
    """[argv without the document, exit code, stdout, stderr] of
    ``predicates --order`` and of ``convert`` to each kind, for the closure
    and interior orders of ``PINNED_DOCUMENT``, each run by ``run_one(argv)``."""
    runs = []
    for order in ("closure", "interior"):
        argvs = [("predicates", "--order", order)] + [
            ("convert", "--from", "topogenous", "--to", kind, "--order", order)
            for kind in ("closure", "interior", "neighbourhood")
        ]
        for argv in argvs:
            argv = [*argv, "--fibration", "spaces:s0,s1,s2"]
            runs.append([argv, *run_one([*argv, str(PINNED_DOCUMENT)])])
    return runs


def test_order_commands_keep_their_output_on_a_file(capsys):
    # recorded when the closure and interior orders were built with a fresh
    # lattice per fibration and without row facts
    runs = _order_command_runs(lambda argv: run(capsys, *argv))
    assert runs == json.loads(PINNED_ORDER_RUNS.read_text(encoding="utf-8"))
    assert [code for _, code, _, _ in runs] == [0] * 8


def test_a_concrete_name_reads_only_its_own_hom_set(capsys, tmp_path, monkeypatch):
    # every morphism of the file's fibration, named without a file map,
    # resolves as the tabulated fibration names it, and no name tabulates it
    from topogen.instances import topology
    from topogen.site import FiniteCategory

    spaces = tmp_path / "spaces.topo"
    spaces.write_text("".join(
        line for line in PINNED_DOCUMENT.read_text(encoding="utf-8").splitlines(keepends=True)
        if line.startswith("space ")))
    env = cli._Environment([spaces])
    cat = env.fibration("spaces:s0,s1,s2").category
    tabulated = cli._Environment([PINNED_DOCUMENT]).fibration("spaces:s0,s1,s2").category
    calls = []
    continuous_maps = topology.continuous_maps
    monkeypatch.setattr(
        topology, "continuous_maps", lambda *ends: calls.append(ends) or continuous_maps(*ends)
    )
    for f, name in enumerate(tabulated.mor_names):
        calls.clear()
        key = (tabulated.mor_dom[f], tabulated.mor_cod[f], tabulated.graphs[f])
        assert env.morphism(name, env.fibration("spaces:s0,s1,s2")) == (name, *key)
        assert len(calls) == 1
    assert type(cat) is not FiniteCategory
    # names that read as no morphism keep the lookup among every map
    for name in ("s0>s1:0123", "s0>s1:01", "s0>s9:0000", "id_s9", "s0>s1:-", "nosuch"):
        code, out, err = run(capsys, "classify", "--order", "closure", "--map", name,
                             "--fibration", "spaces:s0,s1,s2", str(PINNED_DOCUMENT))
        assert (code, out, err) == (2, "", f"error: no morphism named {name!r}\n"), name


if __name__ == "__main__":
    # regenerate only when the output of a map or order command is meant to
    # change: PYTHONPATH=src python tests/test_cli.py
    import contextlib
    import io

    def _captured(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    PINNED_RUNS.write_text(json.dumps(_map_command_runs(_captured), indent=1) + "\n", encoding="utf-8")
    PINNED_ORDER_RUNS.write_text(
        json.dumps(_order_command_runs(_captured), indent=1) + "\n", encoding="utf-8")
