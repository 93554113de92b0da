"""Command-line front end.

Every command is a thin shim over the library modules: argument handling,
name resolution, delegation, exit code.  Exit codes: 0 success / all checks
pass, 1 validation or theorem failure, 2 usage or parse error, 3 resource
cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from functools import lru_cache

from .errors import (
    CapabilityError,
    DomainError,
    FormatError,
    PreconditionError,
    ResourceCapError,
    TopogenError,
)
from .harness import fileformat
from .harness.enumeration import KINDS, EnumerationSpec, enumerate_structures
from .harness.suite import CHECKS, SCALES, run_suite
from .instances import registry
from .instances.groups import validate_group
from .instances.topology import fintop_fibration, is_continuous, map_predicates
from .morphisms import classify, strict_subobjects
from .constructions import induce_order, lift_topogenous, validate_endofunctor
from .structures import (
    closure_from_topogenous,
    interior_from_topogenous,
    nbhd_from_topogenous,
    predicates,
    validate_structure,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class _Environment:
    """Named entities from input files, layered over the built-ins."""

    def __init__(self, paths):
        self.documents = []
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                self.documents.append(fileformat.parse_document(handle.read()))
        # each fibration named in this command, built once
        self._fibrations = {}

    def _find(self, kind, name):
        for doc in self.documents:
            rec = doc.find(kind, name)
            if rec is not None:
                return rec
        return None

    def fibration(self, name: str):
        if name not in self._fibrations:
            self._fibrations[name] = self._build_fibration(name)
        return self._fibrations[name]

    def _build_fibration(self, name: str):
        if name.startswith("spaces:"):
            spaces = []
            labels = []
            for space_name in name[len("spaces:"):].split(","):
                rec = self._find(fileformat.SpaceRecord, space_name.strip())
                if rec is None:
                    raise DomainError(f"no space record named {space_name.strip()!r}")
                if rec.name in labels:
                    raise DomainError(f"space {rec.name!r} named twice in fibration {name!r}")
                spaces.append(rec.space)
                labels.append(rec.name)
            return fintop_fibration(spaces, name=name, object_names=labels)
        return registry.builtin_fibration(name)

    def order(self, name: str, fib):
        """The named order; a file order is validated once, here, and one
        that is not topogenous prints its report and fails the command."""
        rec = self._find(fileformat.OrderRecord, name)
        if rec is None:
            return registry.builtin_order(name, fib)
        if name in registry.ORDER_KINDS:
            print(f"warning: file order {name!r} overrides the built-in kind",
                  file=sys.stderr)
        order = fileformat.resolve_order(rec, fib)
        rep = validate_structure(order)
        if not rep.ok:
            print(rep.render(), file=sys.stderr)
            raise PreconditionError(f"order {name!r} is not topogenous")
        return order

    def morphism(self, name: str, fib) -> int:
        rec = self._find(fileformat.MapRecord, name)
        if rec is not None:
            cat = fib.category
            if name in cat.mor_names:
                print(f"warning: file map {name!r} overrides a fibration morphism",
                      file=sys.stderr)
            dom = cat.object_index(rec.source)
            cod = cat.object_index(rec.target)
            f = cat.morphism_by_graph(dom, cod, rec.graph)
            if f is None:
                raise DomainError(f"map {name!r} is not a morphism of the fibration")
            return f
        return fib.category.morphism_index(name)

    def endofunctor(self, side: str, name: str, fib):
        """The ``side`` ("pointed" or "copointed") endofunctor ``name``."""
        rec = self._find(fileformat.EndofunctorRecord, name)
        if rec is None:
            return registry.builtin_endofunctor(side, name, fib)
        if rec.kind != side:
            raise DomainError(f"endofunctor {name!r} is {rec.kind}, not {side}")
        if (side, name) in registry.ENDOFUNCTORS:
            print(f"warning: file endofunctor {name!r} overrides the built-in",
                  file=sys.stderr)
        return fileformat.resolve_endofunctor(rec, fib)


_SHOWN = {True: "true", False: "false", None: "n/a"}


def _flag_text(head: str, result) -> str:
    """``head``, then ``  <field>=true|false|n/a`` for each flag field of the
    dataclass ``result`` (every field but a classification's morphism id)."""
    lines = [head]
    lines += (f"  {f.name}={_SHOWN[getattr(result, f.name)]}"
              for f in fields(result) if f.name != "morphism")
    return "\n".join(lines) + "\n"


def _emit(text: str, output):
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


# per record type: how it resolves over its fibration, and its validator
_RESOLVERS = {
    fileformat.OrderRecord: (fileformat.resolve_order, validate_structure),
    fileformat.OperatorRecord: (fileformat.resolve_operator, validate_structure),
    fileformat.EndofunctorRecord: (fileformat.resolve_endofunctor, validate_endofunctor),
}


def _map_problem(rec, env):
    """Why a map record is not a continuous map between its spaces, or None."""
    src = env._find(fileformat.SpaceRecord, rec.source)
    tgt = env._find(fileformat.SpaceRecord, rec.target)
    if src is None or tgt is None:
        return "unknown endpoint space"
    if len(rec.graph) != src.space.n:
        return f"malformed graph: length {len(rec.graph)}, but {rec.source} has {src.space.n} points"
    outside = [v for v in rec.graph if not 0 <= v < tgt.space.n]
    if outside:
        return f"malformed graph: {outside[0]} is not a point of {rec.target}"
    return None if is_continuous(rec.graph, src.space, tgt.space) else "not continuous"


def _cmd_validate(args) -> int:
    env = _Environment(args.files)
    failures = 0
    for path, doc in zip(args.files, env.documents):
        for rec in doc.records:
            label = f"{path}:{type(rec).__name__[:-6].lower()} {rec.name}"
            if isinstance(rec, fileformat.SpaceRecord):
                print(f"ok {label}")
            elif isinstance(rec, fileformat.GroupRecord):
                rep = validate_group(rec.group)
                failures += not rep.ok
                print(("ok " if rep.ok else "FAIL ") + label)
                if not rep.ok:
                    print(rep.render())
            elif isinstance(rec, fileformat.MapRecord):
                problem = _map_problem(rec, env)
                failures += problem is not None
                print(f"ok {label}" if problem is None else f"FAIL {label}: {problem}")
            else:
                resolve, validate = _RESOLVERS[type(rec)]
                rep = validate(resolve(rec, env.fibration(rec.fibration)))
                failures += not rep.ok
                print(("ok " if rep.ok else "FAIL ") + label)
                if not rep.ok:
                    print(rep.render())
    return EXIT_FAILURE if failures else EXIT_OK


_CONVERTERS = {
    "closure": closure_from_topogenous,
    "interior": interior_from_topogenous,
    "neighbourhood": nbhd_from_topogenous,
}


def _cmd_convert(args) -> int:
    env = _Environment(args.files)
    fib = env.fibration(args.fibration)
    order = env.order(args.order, fib)
    result = _CONVERTERS[args.target_kind](order)
    if args.target_kind == "neighbourhood":
        record = fileformat.order_record_of(f"{args.order}_as_nbhd", result)
    else:
        record = fileformat.operator_record_of(f"{args.order}_{args.target_kind}", result, args.target_kind)
    _emit(fileformat.serialize_record(record) + "\n", args.output)
    return EXIT_OK


def _cmd_classify(args) -> int:
    env = _Environment(args.files)
    fib = env.fibration(args.fibration)
    order = env.order(args.order, fib)
    f = env.morphism(args.map, fib)
    _emit(_flag_text(f"morphism {fib.category.mor_names[f]}", classify(f, order)), args.output)
    return EXIT_OK


def _cmd_strict_subs(args) -> int:
    env = _Environment(args.files)
    fib = env.fibration(args.fibration)
    order = env.order(args.order, fib)
    x = fib.category.object_index(args.object)
    subs = strict_subobjects(x, order)
    labels = [fib.sub[x].labels[m] for m in subs]
    _emit(f"strict subobjects of {args.object}: {', '.join(labels) or '(none)'}\n",
          args.output)
    return EXIT_OK


def _cmd_predicates(args) -> int:
    env = _Environment(args.files)
    fib = env.fibration(args.fibration)
    if args.map is not None:
        f = env.morphism(args.map, fib)
        _emit(_flag_text(f"map {fib.category.mor_names[f]}", map_predicates(fib, f)), args.output)
        return EXIT_OK
    order = env.order(args.order, fib)
    _emit(_flag_text(f"order {args.order}", predicates(order)), args.output)
    return EXIT_OK


def _cmd_lift(args) -> int:
    fd = registry.builtin_functor(args.fibration)
    base_order = registry.builtin_order(args.order, fd.base)
    lifted = lift_topogenous(fd, base_order)
    rep = validate_structure(lifted)
    record = fileformat.order_record_of(f"{args.order}_lifted", lifted)
    _emit(fileformat.serialize_record(record) + "\n", args.output)
    if not rep.ok:
        print(rep.render(), file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_induce(args) -> int:
    env = _Environment(args.files)
    fib = env.fibration(args.fibration)
    order = env.order(args.order, fib)
    endo_name = args.pointed or args.copointed
    endo = env.endofunctor("pointed" if args.pointed else "copointed", endo_name, fib)
    rep = validate_endofunctor(endo)
    if not rep.ok:
        print(rep.render(), file=sys.stderr)
        return EXIT_FAILURE
    induced = induce_order(endo, order)
    name = f"{args.order}_via_{endo_name}"
    vrep = validate_structure(induced)
    record = fileformat.order_record_of(name, induced)
    _emit(fileformat.serialize_record(record) + "\n", args.output)
    if not vrep.ok:
        print(vrep.render(), file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    fib = registry.builtin_fibration(args.builtin)
    spec = EnumerationSpec(fib, args.kind, prop_filter=args.filter)
    count = 0
    lines = []
    for structure in enumerate_structures(spec):
        name = f"{args.kind}_{count:04d}"
        if args.kind in ("topogenous", "neighbourhood"):
            record = fileformat.order_record_of(name, structure)
        else:
            record = fileformat.operator_record_of(name, structure, args.kind)
        lines.append(fileformat.serialize_record(record))
        count += 1
    summary = f"# {count} {args.kind} structures on {args.builtin}"
    body = summary + "\n" if args.count_only else "\n".join([*lines, summary]) + "\n"
    _emit(body, args.output)
    return EXIT_OK


def _cmd_suite(args) -> int:
    targets = args.targets.split(",") if args.targets is not None else None
    for check_id in targets or ():
        if check_id not in CHECKS:
            raise DomainError(
                f"unknown check id {check_id!r} (known: {', '.join(sorted(CHECKS))})")
    report = run_suite(args.scale, targets)
    _emit(report.render_text(), args.output)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.render_json())
    for entry in report.entries:
        print(f"timing {entry.check_id} {entry.wall:.3f}s", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_FAILURE


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topogen",
        description="Topogenous structures on finite concrete categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate records in instance files")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("convert", help="convert between structure kinds")
    p.add_argument("--from", dest="source_kind", required=True, choices=("topogenous",))
    p.add_argument("--to", dest="target_kind", required=True, choices=tuple(_CONVERTERS))
    p.add_argument("--order", required=True)
    p.add_argument("--fibration", default="fintop2")
    p.add_argument("-o", "--output")
    p.add_argument("files", nargs="*")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("classify", help="classify a morphism against an order")
    p.add_argument("--order", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--fibration", default="fintop2")
    p.add_argument("-o", "--output")
    p.add_argument("files", nargs="*")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("strict-subs", help="strict subobjects of an object")
    p.add_argument("--order", required=True)
    p.add_argument("--object", required=True)
    p.add_argument("--fibration", default="fintop2")
    p.add_argument("-o", "--output")
    p.add_argument("files", nargs="*")
    p.set_defaults(fn=_cmd_strict_subs)

    p = sub.add_parser("predicates", help="predicates of a map or an order")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--map")
    group.add_argument("--order")
    p.add_argument("--fibration", default="fintop2")
    p.add_argument("-o", "--output")
    p.add_argument("files", nargs="*")
    p.set_defaults(fn=_cmd_predicates)

    p = sub.add_parser("lift", help="lift a base order along a fibered functor")
    p.add_argument("--fibration", default="topgrp_le4")
    p.add_argument("--order", default="grp_normal")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("induce", help="order induced by a (co)pointed endofunctor")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pointed")
    group.add_argument("--copointed")
    p.add_argument("--order", required=True)
    p.add_argument("--fibration", default="fintop2")
    p.add_argument("-o", "--output")
    p.add_argument("files", nargs="*")
    p.set_defaults(fn=_cmd_induce)

    p = sub.add_parser("enumerate", help="enumerate structures on a built-in fibration")
    p.add_argument("--builtin", required=True)
    p.add_argument("--kind", required=True, choices=tuple(KINDS))
    p.add_argument("--filter", choices=("meet", "join", "interpolative"))
    p.add_argument("--count-only", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("suite", help="run the theorem suite")
    p.add_argument("--scale", default="small", choices=SCALES)
    p.add_argument("--targets", help="comma-separated check ids "
                   f"(known: {', '.join(sorted(CHECKS))})")
    p.add_argument("-o", "--output")
    p.add_argument("--json")
    p.set_defaults(fn=_cmd_suite)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing keeps no state in it, and a parser
    left per command is cyclic garbage."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PreconditionError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(f"witness: {exc.witness}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TopogenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
