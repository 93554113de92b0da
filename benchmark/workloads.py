"""The three benchmark workloads: set-up, timed pass and correctness oracles.

Each workload is a class with

* ``setup()``: after ``import_program()``, build what the timed part reuses;
* ``run(manifest)``: the timed part, returning raw outputs only;
* ``check(manifest, raw)``: the oracles, run after the timed part; returns
  ``(attempted ops, {failed op: [failed oracle names]})``;
* ``details(raw)``: per-pass numbers reported next to the layer metrics.

Nothing here imports ``topogen`` at module level, so the worker can time
the import as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time
from pathlib import Path

from inputs import render_set

REFERENCE = Path(__file__).resolve().parent / "reference" / "suite_medium.json"

# Built-in fibrations the medium suite uses, pre-built through the cached
# registry so the timed part starts from warm caches.
SUITE_PREBUILT = (
    "fintop2", "fintop3", "grp_small", "grp_le8", "disc2_loop", "t0_small",
    "coreflect_small", "topgrp_le4",
)


def import_program():
    """Import every topogen module (``topogen.cli`` pulls in the whole package)."""
    import topogen.cli  # noqa: F401


class SuiteMedium:
    """``run_suite("medium")``: all 16 checks over the fixed built-in catalog."""

    name = "suite-medium"

    def setup(self):
        from topogen.instances import registry

        for name in SUITE_PREBUILT:
            registry.builtin_fibration(name)

    def run(self, manifest):
        from topogen.harness import suite

        return suite.run_suite("medium")

    def check(self, manifest, report):
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        want = {c["id"]: c for c in reference["checks"]}
        got = {e.check_id: e for e in report.entries}
        failed = {}
        for check_id, ref in want.items():
            entry = got.get(check_id)
            if entry is None:
                failed[check_id] = ["missing-check"]
                continue
            names = []
            if entry.failures:
                names.append("check-failures")
            if entry.instances != ref["instances"]:
                names.append(f"instances={entry.instances}-want-{ref['instances']}")
            if list(entry.skipped) != ref["notes"]:
                names.append("notes-differ")
            if names:
                failed[check_id] = names
        for check_id in got.keys() - want.keys():
            failed[check_id] = ["unexpected-check"]
        if not report.ok and not failed:
            failed["summary"] = ["status-fail"]
        return len(want), failed

    @staticmethod
    def details(report):
        return {"check_walls": {e.check_id: e.wall for e in report.entries},
                "instances": sum(e.instances for e in report.entries)}


class UserQueries:
    """CLI commands answered in-process on one generated instance document.

    Every command re-parses the file and rebuilds the ``spaces:`` fibration,
    as a user's command does.
    """

    name = "user-queries"

    def setup(self):
        pass

    @staticmethod
    def commands(manifest):
        fib = "spaces:" + ",".join(manifest["names"])
        doc = manifest["document"]
        out = [
            ["predicates", "--order", "closure", "--fibration", fib, doc],
            ["predicates", "--order", "interior", "--fibration", fib, doc],
            ["convert", "--from", "topogenous", "--to", "closure", "--order", "closure",
             "--fibration", fib, doc],
            ["convert", "--from", "topogenous", "--to", "interior", "--order", "interior",
             "--fibration", fib, doc],
        ]
        for name, *_ in manifest["maps"]:
            for order in ("closure", "interior"):
                out.append(["classify", "--order", order, "--map", name,
                            "--fibration", fib, doc])
        for obj in manifest["names"]:
            out.append(["strict-subs", "--order", "closure", "--object", obj,
                        "--fibration", fib, doc])
        return out

    def run(self, manifest):
        from topogen import cli

        results = []
        for argv in self.commands(manifest):
            out, err = io.StringIO(), io.StringIO()
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                error = None
            except Exception as exc:  # a crash is a failed op, not a crashed pass
                code, error = None, f"{type(exc).__name__}: {exc}"
            results.append({
                "argv": argv, "code": code, "error": error, "stdout": out.getvalue(),
                "ms": (time.perf_counter() - started) * 1e3,
            })
        return results

    def check(self, manifest, results):
        from topogen.instances.topology import FinTopSpace, fintop_fibration, map_predicates

        spaces = [FinTopSpace(4, tuple(opens)) for opens in manifest["spaces"]]
        names = manifest["names"]
        failed = {}

        def fail(i, oracle):
            failed.setdefault(f"{i}:{' '.join(results[i]['argv'][:3])}", []).append(oracle)

        classified = {}
        for i, res in enumerate(results):
            argv, text = res["argv"], res["stdout"]
            if res["code"] != 0:
                fail(i, f"exit={res['code']}" + (f" {res['error']}" if res["error"] else ""))
                continue
            command, order = argv[0], argv[2]
            if command == "predicates":
                want = "meet_preserving" if order == "closure" else "join_preserving"
                if f"  {want}=true" not in text.splitlines():
                    fail(i, f"{order}-order-not-{want}")
            elif command == "convert":
                target = argv[4]
                table = _operator_table(text)
                for name, space in zip(names, spaces):
                    op = space.closure if target == "closure" else space.interior
                    want = {render_set(m): render_set(op(m)) for m in range(16)}
                    if table.get(name) != want:
                        fail(i, f"{target}-table-differs-at-{name}")
            elif command == "classify":
                head, *rows = text.splitlines() or [""]
                flags = dict(row.strip().partition("=")[::2] for row in rows)
                classified[(argv[4], order)] = (i, head.partition(" ")[2], flags)

        fib = fintop_fibration(spaces, name="oracle", object_names=names)
        for name, src, tgt, graph in manifest["maps"]:
            if (name, "closure") not in classified or (name, "interior") not in classified:
                continue
            mor_name = f"{names[src]}>{names[tgt]}:{''.join(map(str, graph))}"
            i_cl, shown_cl, cl = classified[(name, "closure")]
            i_in, shown_in, inn = classified[(name, "interior")]
            for i, shown in ((i_cl, shown_cl), (i_in, shown_in)):
                if shown != mor_name:
                    fail(i, f"classified-{shown}-not-{mor_name}")
            mp = map_predicates(fib, fib.category.morphism_index(mor_name))
            pairs = (
                ("open-vs-interior-strict", mp.open, inn.get("strict"), i_in),
                ("closed-vs-closure-strict", mp.closed, cl.get("strict"), i_cl),
                ("initial-vs-closure-initial", mp.initial_topology, cl.get("initial"), i_cl),
                ("initial-vs-interior-initial", mp.initial_topology, inn.get("initial"), i_in),
                ("hq-vs-closure-final", mp.hereditary_quotient, cl.get("final"), i_cl),
                ("hq-vs-interior-final", mp.hereditary_quotient, inn.get("final"), i_in),
            )
            for label, want, shown, i in pairs:
                if shown != ("true" if want else "false"):
                    fail(i, f"{label}:{name}")
        return len(results), failed

    @staticmethod
    def details(results):
        command_ms = {}
        for res in results:
            command_ms.setdefault(res["argv"][0], []).append(res["ms"])
        return {"command_ms": command_ms}


_TABLE_ENTRY = re.compile(r"(\{[0-9,]*\})=>(\{[0-9,]*\})")


def _operator_table(text: str) -> dict:
    """{object: {label: label}} from a serialized operator record."""
    _, _, table = text.strip().partition("; table=")
    out = {}
    for block in table.split("|"):
        obj, _, body = block.partition("[")
        out[obj] = dict(_TABLE_ENTRY.findall(body))
    return out


SWEEP = (
    ("topogenous", None), ("closure", None), ("interior", None),
    ("neighbourhood", None), ("topogenous", "meet"), ("topogenous", "join"),
)


class EnumerateSweep:
    """Exhaustive enumeration on generated four-object space fibrations.

    Each fibration is built, enumerated for every kind and both property
    filters, every structure is validated, and everything is written as
    records and parsed back.
    """

    name = "enumerate-sweep"

    def setup(self):
        pass

    def run(self, manifest):
        from topogen.harness import enumeration, fileformat
        from topogen.instances import topology
        from topogen import structures

        names = ("p", "a", "b", "c")
        fib_name = f"spaces({','.join(names)})"
        out = []
        for opens_lists in manifest["fibrations"]:
            # the full mask is the largest open set, so its bit length is n
            spaces = [topology.FinTopSpace(max(o).bit_length(), tuple(o))
                      for o in opens_lists]
            fib = topology.fintop_fibration(spaces, name=fib_name, object_names=names)
            found, errors, reports = {}, {}, {}
            records = [fileformat.SpaceRecord(n, s) for n, s in zip(names, spaces)]
            for kind, prop in SWEEP:
                op = f"{kind}/{prop or 'all'}"
                try:
                    items = list(enumeration.enumerate_structures(
                        enumeration.EnumerationSpec(fib, kind, prop_filter=prop)))
                except Exception as exc:  # a raised enumeration is a failed op
                    errors[op] = f"{type(exc).__name__}: {exc}"
                    continue
                found[op] = len(items)
                reports[op] = [structures.validate_structure(s) for s in items]
                for k, s in enumerate(items):
                    rec_name = f"{kind}_{prop or 'all'}_{k}"
                    if kind in ("closure", "interior"):
                        records.append(fileformat.operator_record_of(rec_name, s, kind))
                    else:
                        order = s if kind == "topogenous" else \
                            structures.topogenous_from_nbhd(s)
                        records.append(fileformat.order_record_of(rec_name, order))
            doc = fileformat.Document(tuple(records))
            back = fileformat.parse_document(fileformat.serialize_document(doc))
            out.append({"found": found, "errors": errors, "reports": reports,
                        "doc": doc, "back": back})
        return out

    def check(self, manifest, results):
        failed = {}
        for i, res in enumerate(results):
            def fail(op, oracle):
                failed.setdefault(f"{i}:{op}", []).append(oracle)

            for op, error in res["errors"].items():
                fail(op, f"raised {error}")
            found = res["found"]
            for op, reports in res["reports"].items():
                n_invalid = sum(not r.ok for r in reports)
                if n_invalid:
                    fail(op, f"{n_invalid}-structures-invalid")
            for left, right, label in (
                ("topogenous/all", "neighbourhood/all", "count-orders-vs-neighbourhoods"),
                ("topogenous/meet", "closure/all", "count-meet-orders-vs-closures"),
                ("topogenous/join", "interior/all", "count-join-orders-vs-interiors"),
            ):
                if left in found and right in found and found[left] != found[right]:
                    fail(right, f"{label}={found[left]}/{found[right]}")
            if res["back"] != res["doc"]:
                for kind, prop in SWEEP:
                    fail(f"{kind}/{prop or 'all'}", "parse-serialize-roundtrip")
        return len(results) * len(SWEEP), failed

    @staticmethod
    def details(results):
        return {}


WORKLOADS = {w.name: w for w in (SuiteMedium(), UserQueries(), EnumerateSweep())}
