"""Every built-in fibration's tables are pinned by a sha256, and so are those
of fibrations built by ``fintop_fibration`` directly, whose tables are
computed on their first read.

A faster construction must build the same category, lattices, tables and
classes.  Regenerate the recorded hashes only when a table is meant to
change: ``PYTHONPATH=src python tests/test_fingerprints.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from topogen.instances.registry import FIBRATION_NAMES, builtin_fibration, builtin_order
from topogen.instances.topology import enumerate_topologies, fintop_fibration, spaces_of
from topogen.morphisms import classify_map
from topogen.site import FiniteCategory, SubobjectFibration
from topogen.structures import predicates

RECORD = Path(__file__).parent / "data" / "fibration_fingerprints.json"
# recorded name -> the spaces fintop_fibration is built on
DIRECT = {
    "fintop_fibration:fintop2": lambda: [*enumerate_topologies(0), *enumerate_topologies(1),
                                         *enumerate_topologies(2)],
    "fintop_fibration:t4_50,t4_100,t4_300": lambda: [enumerate_topologies(4)[i]
                                                     for i in (50, 100, 300)],
}


def fingerprint(fib) -> str:
    """sha256 of (morphism names, graphs, img, pre, fstar, sorted E, sorted M,
    lattice labels)."""
    cat = fib.category
    tables = [
        cat.mor_names, cat.graphs, fib.img, fib.pre, fib.fstar,
        sorted(fib.eclass), sorted(fib.mclass), [lat.labels for lat in fib.sub],
    ]
    return hashlib.sha256(json.dumps(tables, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("name", FIBRATION_NAMES)
def test_builtin_fibration_tables_match_the_record(name):
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    assert fingerprint(builtin_fibration(name)) == recorded[name]


def test_a_builtin_is_tabulated_before_it_is_cached():
    # every consumer of a built-in reads its maps, so a set-up that builds
    # the built-ins pays for them
    fib = builtin_fibration.__wrapped__("disc2_loop")
    assert type(fib) is SubobjectFibration and type(fib.category) is FiniteCategory


@pytest.mark.parametrize("name", DIRECT)
def test_tables_tabulated_after_an_object_only_read_match_the_record(name):
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    fib = fintop_fibration(DIRECT[name](), name=name)
    order = builtin_order("closure", fib)
    predicates(order)
    # one map is classified from its own hom-set and tables
    last = len(fib.sub) - 1
    identity = tuple(range(spaces_of(fib)[last].n))
    assert fib.category.morphism_name(last, last, identity).startswith("id_")
    assert classify_map(order, last, last, identity).strict
    # the closure order, its predicates and the one-map classification read
    # no other map, and only a morphism field's name tabulates
    for obj in (fib, fib.category):
        with pytest.raises(AttributeError, match="no attribute 'n_maps'"):
            obj.n_maps
    assert type(fib) is not SubobjectFibration and type(fib.category) is not FiniteCategory
    assert fingerprint(fib) == recorded[name]
    # the first read of a map left plain objects behind
    assert type(fib) is SubobjectFibration and type(fib.category) is FiniteCategory


if __name__ == "__main__":
    hashes = {name: fingerprint(builtin_fibration(name)) for name in FIBRATION_NAMES}
    hashes.update({name: fingerprint(fintop_fibration(spaces())) for name, spaces in DIRECT.items()})
    RECORD.write_text(json.dumps(hashes, indent=2) + "\n", encoding="utf-8")
