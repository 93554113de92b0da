"""Every built-in fibration's tables are pinned by a sha256.

A faster construction must build the same category, lattices, tables and
classes.  Regenerate the recorded hashes only when a table is meant to
change: ``PYTHONPATH=src python tests/test_fingerprints.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from topogen.instances.registry import FIBRATION_NAMES, builtin_fibration

RECORD = Path(__file__).parent / "data" / "fibration_fingerprints.json"


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


if __name__ == "__main__":
    hashes = {name: fingerprint(builtin_fibration(name)) for name in FIBRATION_NAMES}
    RECORD.write_text(json.dumps(hashes, indent=2) + "\n", encoding="utf-8")
