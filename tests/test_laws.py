"""Pinned behaviour of the per-kind continuity laws.

The validator reports and enumeration counts below were recorded before the
four cross-object laws were merged into one table; they must not move.
"""

import pytest

from topogen.constructions import continuity_between, counit_constraint, unit_constraint
from topogen.harness.enumeration import EnumerationSpec, count_structures, enumerate_structures
from topogen.instances.registry import builtin_copointed, builtin_fibration, builtin_pointed
from topogen.instances.topology import closure_order
from topogen.structures import (
    ClosureOperator,
    InteriorOperator,
    NeighbourhoodOperator,
    TopogenousOrder,
    closure_from_topogenous,
    interior_from_topogenous,
    validate_structure,
)


def _corrupt(fib, table, obj, label, change):
    """A copy of ``table`` whose entry at (obj, label) is ``change(lat, entry)``."""
    x = fib.category.object_index(obj)
    lat = fib.sub[x]
    rows = [list(r) for r in table]
    rows[x][lat.index_of(label)] = change(lat, rows[x][lat.index_of(label)])
    return tuple(map(tuple, rows))


def _drop(label):
    return lambda lat, row: row & ~(1 << lat.index_of(label))


def _add(label):
    return lambda lat, row: row | 1 << lat.index_of(label)


def _set(label):
    return lambda lat, _: lat.index_of(label)


def _structure(fib, kind):
    t = closure_order(fib)
    return {
        "topogenous": (TopogenousOrder, t.rel),
        "closure": (ClosureOperator, closure_from_topogenous(t).cmap),
        "interior": (InteriorOperator, interior_from_topogenous(t).imap),
        "neighbourhood": (NeighbourhoodOperator, t.rel),
    }[kind]


_D2_MAPS = ("discrete2>discrete2:10", "discrete2>sierpinski_op:10", "discrete2>sierpinski:01")

# (kind, corrupted entry, checked, violations in report order)
PINNED_REPORTS = [
    # one cross-object entry per kind: locally valid, only the law fails
    ("topogenous", ("discrete2", "{0}", _drop("{0}")), 590, [
        ("preimage-stability", _D2_MAPS[0], ("{1}", "{1}")),
        ("preimage-stability", _D2_MAPS[1], ("{1}", "{1}")),
        ("preimage-stability", _D2_MAPS[2], ("{0}", "{0}")),
    ]),
    ("closure", ("discrete2", "{0}", _set("{0,1}")), 299, [
        ("image-continuity", _D2_MAPS[0], ("{0}",)),
        ("image-continuity", _D2_MAPS[1], ("{0}",)),
        ("image-continuity", _D2_MAPS[2], ("{0}",)),
    ]),
    ("interior", ("discrete2", "{0}", _set("{}")), 320, [
        ("preimage-continuity", _D2_MAPS[0], ("{1}",)),
        ("preimage-continuity", _D2_MAPS[1], ("{1}",)),
        ("preimage-continuity", _D2_MAPS[2], ("{0}",)),
    ]),
    ("neighbourhood", ("discrete2", "{0}", _drop("{0}")), 575, [
        ("continuity", _D2_MAPS[0], ("{0}", "{1}")),
        ("continuity", _D2_MAPS[1], ("{0}", "{1}")),
        ("continuity", _D2_MAPS[2], ("{0}", "{0}")),
    ]),
    # entries that break local axioms too: local violations come first
    ("topogenous", ("sierpinski", "{0,1}", _add("{}")), 620, [
        ("below-order", "sierpinski", ("{0,1}", "{}")),
        ("order-compatibility", "sierpinski", ("{0}", "{0,1}", "{}")),
        ("order-compatibility", "sierpinski", ("{1}", "{0,1}", "{}")),
        ("order-compatibility", "sierpinski", ("{0,1}", "{}", "{0}")),
        *(("preimage-stability", f, ("{0,1}", "{}")) for f in (
            "pt>sierpinski:0", "pt>sierpinski:1",
            "discrete2>sierpinski:00", "discrete2>sierpinski:01",
            "discrete2>sierpinski:10", "discrete2>sierpinski:11",
            "sierpinski_op>sierpinski:00", "sierpinski_op>sierpinski:10",
            "sierpinski_op>sierpinski:11",
            "indiscrete2>sierpinski:00", "indiscrete2>sierpinski:11",
        )),
    ]),
    ("neighbourhood", ("sierpinski", "{0,1}", _add("{}")), 596, [
        ("neighbourhood-above", "sierpinski", ("{0,1}", "{}")),
        ("antitone", "sierpinski", ("{0}", "{0,1}", "{}")),
        ("antitone", "sierpinski", ("{1}", "{0,1}", "{}")),
        ("up-closed", "sierpinski", ("{0,1}", "{}", "{0}")),
        ("continuity", "discrete2>sierpinski:01", ("{0,1}", "{}")),
        ("continuity", "discrete2>sierpinski:10", ("{0,1}", "{}")),
        ("continuity", "sierpinski_op>sierpinski:10", ("{0,1}", "{}")),
    ]),
    ("closure", ("discrete2", "{0,1}", _set("{0}")), 299, [
        ("monotone", "discrete2", ("{1}", "{0,1}")),
        ("extensive", "discrete2", ("{0,1}",)),
        ("image-continuity", "discrete2>discrete2:10", ("{0,1}",)),
    ]),
    ("interior", ("discrete2", "{}", _set("{0}")), 320, [
        ("contractive", "discrete2", ("{}",)),
        ("monotone", "discrete2", ("{}", "{1}")),
        *(("preimage-continuity", f, ("{}",)) for f in (
            "pt>discrete2:0", "discrete2>discrete2:00", "discrete2>discrete2:10",
            "sierpinski_op>discrete2:00", "sierpinski>discrete2:00",
            "indiscrete2>discrete2:00",
        )),
    ]),
]


@pytest.mark.parametrize(
    "kind,entry,checked,violations", PINNED_REPORTS,
    ids=[f"{kind}-{entry[0]}-{entry[1]}" for kind, entry, _, _ in PINNED_REPORTS],
)
def test_validator_reports_are_pinned(fintop2, kind, entry, checked, violations):
    cls, table = _structure(fintop2, kind)
    report = validate_structure(cls(fintop2, _corrupt(fintop2, table, *entry)))
    assert report.checked == checked
    assert [(v.law, v.where, v.witness) for v in report.violations] == violations


# (fibration, kind, filter) -> count_structures
PINNED_COUNTS = {
    "disc2_loop": (6, 3, 3, 6, 3, 3),
    "t0_small": (6, 3, 3, 6, 3, 3),
    "coreflect_small": (9, 6, 6, 9, 6, 6),
    "fintop2": (11, 7, 7, 11, 7, 7),
}
_COUNTED = (
    ("topogenous", None), ("closure", None), ("interior", None),
    ("neighbourhood", None), ("topogenous", "meet"), ("topogenous", "join"),
)


@pytest.mark.parametrize(
    "name,kind,prop,count",
    [(name, kind, prop, n)
     for name, counts in PINNED_COUNTS.items()
     for (kind, prop), n in zip(_COUNTED, counts)],
)
def test_enumeration_counts_are_pinned(name, kind, prop, count):
    spec = EnumerationSpec(builtin_fibration(name), kind, prop_filter=prop)
    assert count_structures(spec) == count


@pytest.mark.parametrize("name,side", [
    ("t0_small", "pointed"), ("coreflect_small", "pointed"), ("coreflect_small", "copointed"),
])
def test_order_law_constraints_agree_with_continuity_between(name, side):
    """The unit/counit constraint reads the order's preimage-stability law;
    continuity_between reads the neighbourhood law.  On locally valid orders
    the two agree, here for every pair of enumerated orders."""
    fib = builtin_fibration(name)
    orders = list(enumerate_structures(EnumerationSpec(fib, "topogenous")))
    verdicts = set()
    for base in orders:
        for candidate in orders:
            if side == "pointed":
                p = builtin_pointed("t0", fib)
                by_constraint = unit_constraint(p, base)(candidate)
                by_neighbourhood_law = all(
                    continuity_between(u, candidate, base)[0] for u in p.unit
                )
            else:
                q = builtin_copointed("discrete", fib)
                by_constraint = counit_constraint(q, base)(candidate)
                by_neighbourhood_law = all(
                    continuity_between(e, base, candidate)[0] for e in q.counit
                )
            assert by_constraint == by_neighbourhood_law
            verdicts.add(by_constraint)
    assert verdicts == {True, False}
