"""Endofunctor reports and `induce` output pinned to recorded values.

The validator reports below (checked count, then each violation as law,
place and witness, in report order) and the `induce` stdout digests were
recorded before pointed and copointed endofunctors shared one record type;
they must not move.  Each corruption changes one entry of a built-in or of
the identity endofunctor and is one the validator reports without raising.
"""

import hashlib
from dataclasses import replace

import pytest

from topogen.cli import main
from topogen.constructions import Endofunctor, validate_endofunctor
from topogen.instances.registry import builtin_endofunctor, builtin_fibration

BUILTIN = {"pointed": "t0", "copointed": "discrete"}

# (side, fibration, start, corrupted table, at, new value, checked, violations)
REPORTS = [
    ("pointed", "t0_small", "builtin", None, None, None, 16, []),
    ("pointed", "t0_small", "builtin", "obj_map", "pt", "indiscrete2", 16, [
        ("endofunctor-identity", "pt", ()),
        ("endofunctor-typing", "id_pt", ()),
        ("endofunctor-typing", "pt>indiscrete2:0", ()),
        ("endofunctor-typing", "pt>indiscrete2:1", ()),
        ("endofunctor-typing", "indiscrete2>pt:00", ()),
        ("unit-typing", "pt", ()),
    ]),
    ("pointed", "t0_small", "identity", "mor_map", "id_indiscrete2", "indiscrete2>indiscrete2:10", 16, [
        ("endofunctor-identity", "indiscrete2", ()),
        ("endofunctor-composition", "", ("id_indiscrete2", "pt>indiscrete2:0")),
        ("endofunctor-composition", "", ("id_indiscrete2", "pt>indiscrete2:1")),
        ("endofunctor-composition", "", ("id_indiscrete2", "indiscrete2>indiscrete2:00")),
        ("endofunctor-composition", "", ("id_indiscrete2", "id_indiscrete2")),
        ("endofunctor-composition", "", ("indiscrete2>indiscrete2:10", "id_indiscrete2")),
        ("endofunctor-composition", "", ("id_indiscrete2", "indiscrete2>indiscrete2:10")),
        ("endofunctor-composition", "", ("indiscrete2>indiscrete2:10", "indiscrete2>indiscrete2:10")),
        ("endofunctor-composition", "", ("id_indiscrete2", "indiscrete2>indiscrete2:11")),
        ("unit-naturality", "id_indiscrete2", ()),
    ]),
    ("pointed", "t0_small", "identity", "mor_map", "pt>indiscrete2:0", "pt>indiscrete2:1", 16, [
        ("endofunctor-composition", "", ("indiscrete2>indiscrete2:00", "pt>indiscrete2:0")),
        ("endofunctor-composition", "", ("indiscrete2>indiscrete2:10", "pt>indiscrete2:0")),
        ("endofunctor-composition", "", ("indiscrete2>indiscrete2:00", "pt>indiscrete2:1")),
        ("endofunctor-composition", "", ("indiscrete2>indiscrete2:10", "pt>indiscrete2:1")),
        ("endofunctor-composition", "", ("pt>indiscrete2:0", "indiscrete2>pt:00")),
        ("unit-naturality", "pt>indiscrete2:0", ()),
    ]),
    ("pointed", "t0_small", "identity", "components", "indiscrete2", "indiscrete2>indiscrete2:00", 16, [
        ("unit-naturality", "pt>indiscrete2:1", ()),
        ("unit-naturality", "indiscrete2>indiscrete2:10", ()),
        ("unit-naturality", "indiscrete2>indiscrete2:11", ()),
    ]),
    ("copointed", "coreflect_small", "builtin", None, None, None, 26, []),
    ("copointed", "coreflect_small", "builtin", "obj_map", "sierpinski", "sierpinski", 26, [
        ("endofunctor-identity", "sierpinski", ()),
        ("endofunctor-typing", "sierpinski>sierpinski:00", ()),
        ("endofunctor-typing", "id_sierpinski", ()),
        ("endofunctor-typing", "sierpinski>sierpinski:11", ()),
        ("endofunctor-typing", "sierpinski>discrete2:00", ()),
        ("endofunctor-typing", "sierpinski>discrete2:11", ()),
        ("endofunctor-typing", "discrete2>sierpinski:00", ()),
        ("endofunctor-typing", "discrete2>sierpinski:01", ()),
        ("endofunctor-typing", "discrete2>sierpinski:10", ()),
        ("endofunctor-typing", "discrete2>sierpinski:11", ()),
        ("counit-typing", "sierpinski", ()),
    ]),
    ("copointed", "coreflect_small", "builtin", "mor_map", "id_sierpinski", "discrete2>discrete2:10", 26, [
        ("endofunctor-identity", "sierpinski", ()),
        ("endofunctor-composition", "", ("id_sierpinski", "sierpinski>sierpinski:00")),
        ("endofunctor-composition", "", ("id_sierpinski", "id_sierpinski")),
        ("endofunctor-composition", "", ("id_sierpinski", "sierpinski>sierpinski:11")),
        ("endofunctor-composition", "", ("id_sierpinski", "discrete2>sierpinski:00")),
        ("endofunctor-composition", "", ("id_sierpinski", "discrete2>sierpinski:01")),
        ("endofunctor-composition", "", ("id_sierpinski", "discrete2>sierpinski:10")),
        ("endofunctor-composition", "", ("id_sierpinski", "discrete2>sierpinski:11")),
        ("counit-naturality", "id_sierpinski", ()),
    ]),
    ("copointed", "coreflect_small", "builtin", "mor_map", "sierpinski>discrete2:00", "id_discrete2", 26, [
        ("endofunctor-composition", "", ("sierpinski>discrete2:00", "sierpinski>sierpinski:00")),
        ("endofunctor-composition", "", ("sierpinski>discrete2:00", "sierpinski>sierpinski:11")),
        ("endofunctor-composition", "", ("discrete2>sierpinski:01", "sierpinski>discrete2:00")),
        ("endofunctor-composition", "", ("discrete2>sierpinski:10", "sierpinski>discrete2:00")),
        ("endofunctor-composition", "", ("discrete2>discrete2:00", "sierpinski>discrete2:00")),
        ("endofunctor-composition", "", ("discrete2>discrete2:10", "sierpinski>discrete2:00")),
        ("endofunctor-composition", "", ("discrete2>discrete2:00", "sierpinski>discrete2:11")),
        ("endofunctor-composition", "", ("discrete2>discrete2:10", "sierpinski>discrete2:11")),
        ("endofunctor-composition", "", ("sierpinski>discrete2:00", "discrete2>sierpinski:01")),
        ("endofunctor-composition", "", ("sierpinski>discrete2:00", "discrete2>sierpinski:10")),
        ("endofunctor-composition", "", ("sierpinski>discrete2:00", "discrete2>sierpinski:11")),
        ("counit-naturality", "sierpinski>discrete2:00", ()),
    ]),
    ("copointed", "coreflect_small", "builtin", "components", "sierpinski", "discrete2>sierpinski:00", 26, [
        ("counit-naturality", "sierpinski>sierpinski:11", ()),
        ("counit-naturality", "discrete2>sierpinski:01", ()),
        ("counit-naturality", "discrete2>sierpinski:10", ()),
        ("counit-naturality", "discrete2>sierpinski:11", ()),
    ]),
]


def _endofunctor(side, fib_name, start, table, at, value):
    fib = builtin_fibration(fib_name)
    cat = fib.category
    if start == "builtin":
        endo = builtin_endofunctor(side, BUILTIN[side], fib)
    else:
        endo = Endofunctor(fib, side, tuple(range(cat.n_objects)),
                           tuple(range(cat.n_morphisms)), tuple(cat.identities))
    if table is None:
        return endo
    entries = list(getattr(endo, table))
    if table == "mor_map":
        entries[cat.morphism_index(at)] = cat.morphism_index(value)
    elif table == "obj_map":
        entries[cat.object_index(at)] = cat.object_index(value)
    else:
        entries[cat.object_index(at)] = cat.morphism_index(value)
    return replace(endo, **{table: tuple(entries)})


@pytest.mark.parametrize("side, fib_name, start, table, at, value, checked, violations", REPORTS)
def test_endofunctor_reports_are_pinned(side, fib_name, start, table, at, value, checked, violations):
    endo = _endofunctor(side, fib_name, start, table, at, value)
    report = validate_endofunctor(endo)
    assert report.subject == f"{side}-endofunctor"
    assert report.checked == checked
    assert [(v.law, v.where, v.witness) for v in report.violations] == violations


def test_every_violation_kind_is_pinned_on_both_sides():
    for side, component in (("pointed", "unit"), ("copointed", "counit")):
        laws = {v[0] for row in REPORTS if row[0] == side for v in row[7]}
        assert laws == {
            "endofunctor-identity", "endofunctor-typing", "endofunctor-composition",
            f"{component}-typing", f"{component}-naturality",
        }


# (flag, endofunctor, fibration, order, exit code, sha256 of stdout)
INDUCE = [
    ("--pointed", "t0", "t0_small", "closure", 0,
     "66f78a3244870d26088206408fc98d07ff2baa883c529415b1caa444f311e545"),
    ("--pointed", "t0", "t0_small", "interior", 0,
     "9b3a119e39708f3b6b584d00a16abe85a2e8776e6e141c657995a6ac8c069071"),
    ("--pointed", "t0", "coreflect_small", "closure", 0,
     "25536b33acc3bf1d59f79d6387d37412e28f9ff49e073c5e59d4faea4012036f"),
    ("--pointed", "t0", "coreflect_small", "interior", 0,
     "ac642eed9b59a06b8fa2eab88d4b500fd999506015a58616ae4a206c2428a807"),
    ("--pointed", "t0", "fintop2", "closure", 0,
     "ebcb90322d54a50296dac37d8a673b876d5a634dada59b4b64a791719c96c0e9"),
    ("--pointed", "t0", "fintop2", "interior", 0,
     "1b365708ff33d73185e5fe08a75d93c9b93288b170222986316d57bf5465ec92"),
    # t0_small has no discrete 2-point space: a failure, nothing on stdout
    ("--copointed", "discrete", "t0_small", "closure", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("--copointed", "discrete", "t0_small", "interior", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("--copointed", "discrete", "coreflect_small", "closure", 0,
     "99674e602fc0c4b08a55ecfee6604dd695a58b2884eb85b88a79b286032d15e5"),
    ("--copointed", "discrete", "coreflect_small", "interior", 0,
     "4abc95100e036d33b500eba212e427313f13d136772ab2a4498b0c197e9d790a"),
    ("--copointed", "discrete", "fintop2", "closure", 0,
     "f7edce64495a9e0389e4728e9f970b59cf88aeacd62c8f9f42a68ef86ac9dbcb"),
    ("--copointed", "discrete", "fintop2", "interior", 0,
     "f005e70837b519d7e21129064396ba73ae96d6b32a9f262ac4282359a781798a"),
]


@pytest.mark.parametrize("flag, endo, fib_name, order, code, digest", INDUCE)
def test_induce_output_is_pinned(capsys, flag, endo, fib_name, order, code, digest):
    got = main(["induce", flag, endo, "--order", order, "--fibration", fib_name])
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
