import pytest

from topogen.cli import main


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


def test_induce_reads_an_endofunctor_record(capsys, tmp_path):
    from topogen.harness import fileformat
    from topogen.instances.registry import builtin_fibration, builtin_pointed

    record = fileformat.endofunctor_record_of(
        "t0", builtin_pointed("t0", builtin_fibration("t0_small")))
    doc = tmp_path / "endo.topo"
    doc.write_text(fileformat.serialize_record(record) + "\n")
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
