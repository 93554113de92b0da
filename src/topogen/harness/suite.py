"""The theorem-suite runner.

Each check sweeps one verified statement over built-in instances and returns
a merged report; the suite aggregates them into a deterministic text report
(and a JSON twin).  Wall times are tracked on the in-memory report but kept
out of the serialized bytes so identical runs serialize identically.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import lru_cache, partial

from ..constructions import (
    FamilySpec,
    check_extremality,
    continuity_between,
    counit_constraint,
    induce_copointed,
    induce_pointed,
    induced_closure,
    induced_interior,
    lift_topogenous,
    unit_constraint,
    validate_copointed,
    validate_fibered_functor,
    validate_pointed,
)
from ..errors import CapabilityError, PreconditionError, ResourceCapError, TopogenError
from ..lattice import right_adjoint_of
from ..morphisms import (
    check_class_calculus,
    check_strict_transfer,
    class_flags,
    classify,
    continuity_equivalents,
    crosscheck_operator_classes,
    transfer_laws,
    weakly_final_formulas,
)
from ..reporting import Report, Violation, merge
from ..site import (
    PullbackSquare,
    check_bcp,
    intern,
    pullback,
    validate_category,
    validate_fibration,
)
from ..structures import (
    closure_from_topogenous,
    interior_from_topogenous,
    is_idempotent,
    is_interpolative,
    nbhd_from_topogenous,
    predicates,
    topogenous_from_closure,
    topogenous_from_interior,
    topogenous_from_nbhd,
    validate_structure,
)
from ..instances import registry
from ..instances.groups import groups_of, preserves_normal_subgroups, validate_group
from ..instances.topgroups import topgrp_fibration, validate_topgroup
from ..instances.topology import (
    enumerate_topologies,
    enumerate_topologies_via_preorders,
    map_predicates,
)
from . import fileformat
from .enumeration import EnumerationSpec, enumerate_structures

SCALES = ("small", "medium")


@lru_cache(maxsize=None)
def _fib(name: str):
    return registry.builtin_fibration(name)


@lru_cache(maxsize=None)
def _order(fib_name: str, kind: str):
    return registry.builtin_order(kind, _fib(fib_name))


@lru_cache(maxsize=None)
def _classifications(fib_name: str, kind: str):
    t = _order(fib_name, kind)
    return tuple(classify(f, t) for f in range(t.fib.category.n_morphisms))


# ---------------------------------------------------------------------------
# individual checks; each returns a Report


def check_instance_validity(scale: str) -> Report:
    reports = []
    for name in ("disc2_loop", "fintop2", "t0_small", "coreflect_small", "grp_small"):
        fib = _fib(name)
        reports.append(validate_category(fib.category))
        reports.append(validate_fibration(fib))
    for g in groups_of(_fib("grp_small")):
        reports.append(validate_group(g))
    fd = topgrp_fibration(4)
    for tg in fd.total.backend.topgroups:
        reports.append(validate_topgroup(tg))
    reports.append(validate_fibration(fd.total))
    reports.append(validate_fibered_functor(fd))
    # the complement formula used for space fibrations must agree with the
    # generically verified right adjoint
    fib = _fib("fintop2")
    cat = fib.category
    mismatched = []
    for f in range(cat.n_morphisms):
        try:
            adjoint = right_adjoint_of(fib.pre_map(f))
        except PreconditionError:  # a non-monotone preimage table, reported above
            adjoint = None
        if adjoint is None or adjoint.table != fib.fstar[f]:
            mismatched.append(Violation("fstar-differs-from-right-adjoint", where=cat.mor_names[f]))
    reports.append(Report("fstar-formula", cat.n_morphisms, tuple(mismatched)))
    if scale == "medium":
        fib3 = _fib("fintop3")
        reports.append(validate_fibration(fib3, functoriality=True))
        reports.append(validate_fibration(_fib("grp_le8"), functoriality=True))
    return merge("instance-validity", reports)


def check_conversion_bijections(scale: str) -> Report:
    violations = []
    checked = 0
    for name in ("disc2_loop", "fintop2"):
        fib = _fib(name)
        torders = list(enumerate_structures(EnumerationSpec(fib, "topogenous")))
        closures = list(enumerate_structures(EnumerationSpec(fib, "closure")))
        interiors = list(enumerate_structures(EnumerationSpec(fib, "interior")))
        nbhds = list(enumerate_structures(EnumerationSpec(fib, "neighbourhood")))
        checked += len(torders) + len(closures) + len(interiors) + len(nbhds)
        for group in (torders, closures, interiors, nbhds):
            for s in group:
                if not validate_structure(s).ok:
                    violations.append(Violation("enumerated-structure-invalid", where=name))
        if len({t.rel for t in torders}) != len(torders):
            violations.append(Violation("duplicate-structures", where=name))
        meet = [t for t in torders if predicates(t).meet_preserving]
        join = [t for t in torders if predicates(t).join_preserving]
        if len(torders) != len(nbhds):
            violations.append(Violation(
                "count-orders-vs-neighbourhoods", where=name,
                witness=(str(len(torders)), str(len(nbhds)))))
        if len(meet) != len(closures):
            violations.append(Violation(
                "count-meet-orders-vs-closures", where=name,
                witness=(str(len(meet)), str(len(closures)))))
        if len(join) != len(interiors):
            violations.append(Violation(
                "count-join-orders-vs-interiors", where=name,
                witness=(str(len(join)), str(len(interiors)))))
        if any(topogenous_from_nbhd(nbhd_from_topogenous(t)) != t for t in torders):
            violations.append(Violation("roundtrip-order-nbhd", where=name))
        if any(nbhd_from_topogenous(topogenous_from_nbhd(nu)) != nu for nu in nbhds):
            violations.append(Violation("roundtrip-nbhd-order", where=name))
        if any(topogenous_from_closure(closure_from_topogenous(t)) != t for t in meet):
            violations.append(Violation("roundtrip-order-closure", where=name))
        if any(closure_from_topogenous(topogenous_from_closure(c)) != c for c in closures):
            violations.append(Violation("roundtrip-closure-order", where=name))
        if any(topogenous_from_interior(interior_from_topogenous(t)) != t for t in join):
            violations.append(Violation("roundtrip-order-interior", where=name))
        if any(interior_from_topogenous(topogenous_from_interior(i)) != i for i in interiors):
            violations.append(Violation("roundtrip-interior-order", where=name))
    return Report("conversion-bijections", checked, tuple(violations))


def _fintop2_orders():
    return (("fintop2", "closure"), ("fintop2", "interior"))


def check_continuity_renderings(scale: str) -> Report:
    violations = []
    checked = 0
    for fib_name, kind in (*_fintop2_orders(), ("grp_small", "grp_normal")):
        t = _order(fib_name, kind)
        fib = t.fib
        for f in range(fib.category.n_morphisms):
            if fib.fstar[f] is None:
                continue
            checked += 1
            forms = continuity_equivalents(f, t)
            if forms != (True, True, True):
                violations.append(Violation(
                    "continuity-rendering-false", where=fib.category.mor_names[f]))
    return Report("continuity-renderings", checked, tuple(violations))


def check_strict_transfer_suite(scale: str) -> Report:
    reports = []
    for fib_name, kind in (*_fintop2_orders(), ("grp_small", "grp_normal")):
        t = _order(fib_name, kind)
        for f in range(t.fib.category.n_morphisms):
            reports.append(check_strict_transfer(f, t))
    return merge("strict-subobject-transfer", reports)


def check_class_calculus_suite(scale: str) -> Report:
    reports = []
    for fib_name, kind in (*_fintop2_orders(), ("grp_small", "grp_normal")):
        t = _order(fib_name, kind)
        reports.append(check_class_calculus(t.fib, t))
    return merge("class-calculus", reports)


def swept_squares(fib, ps):
    """Each cospan (f, p) with p in ``ps`` and its pullback square, or None
    for a square beyond the point budget, in sweep order.

    Legs are shared between the cospans of one shape within one block of
    consecutive ``p`` with the same domain (see ``sweep_pullback_transfer``);
    every square is still built as a ``PullbackSquare``.
    """
    cat = fib.category
    shape_id, _ = intern(zip(cat.mor_dom, cat.graphs))
    block = None
    for p in ps:
        if cat.mor_dom[p] != block:
            block, memo = cat.mor_dom[p], {}
        legs_of = memo.setdefault(shape_id[p], {})
        for f in cat.morphisms_to[cat.mor_cod[p]]:
            shape = shape_id[f]
            if shape in legs_of:
                legs = legs_of[shape]
                sq = None if legs is None else PullbackSquare(fib, legs[0], p, legs[1], f)
            else:
                try:
                    sq = pullback(fib, f, p)
                    legs_of[shape] = (sq.f_prime, sq.p_prime)
                except CapabilityError:
                    sq = legs_of[shape] = None
            yield f, p, sq


def sweep_pullback_transfer(fib, classifications) -> Report:
    """Beck-Chevalley and pullback transfer over every pullback along E or M.

    ``classifications`` maps each order kind to the classifications of all
    morphisms.  A square's ``check_bcp`` result is a pure function of four
    tables and two lattices, and its transfer laws of four classifications'
    flags, so both are memoised for this call on interned ids of those
    inputs.  Lattices are keyed by identity: objects of one size share one.

    The pullback of f: X->Y along p: Y'->Y is the fibre product of the
    graphs with the subspace topology of X x Y', so its legs f', p' depend
    on the shape (dom p, graph p, dom f, graph f) alone, never on Y: the
    medium sweep has 726,193 cospans but 208,252 shapes.  ``swept_squares``
    builds each shape once (or records it as beyond the point budget) and
    the square of any other cospan of that shape from the shared legs.  Its
    memo holds one block of ``p`` with the same domain, the blocks being
    contiguous in index order, and is dropped when the domain changes: one
    memo over the whole medium sweep raises its peak RSS from 31 MB to 49 MB.
    """
    cat = fib.category
    names = cat.mor_names
    img_id, _ = intern(fib.img)
    pre_id, _ = intern(fib.pre)
    sub_id, _ = intern(map(id, fib.sub))
    bcps = {}
    transfers = [
        (cls, intern(map(class_flags, cls))[0], {}) for cls in classifications.values()
    ]
    violations = []
    checked = n_skip = 0
    for f, p, sq in swept_squares(fib, sorted(fib.eclass | fib.mclass)):
        if sq is None:
            n_skip += 1
            continue
        checked += 1
        f_prime, p_prime = sq.f_prime, sq.p_prime
        key = (
            img_id[p_prime], pre_id[f_prime], img_id[p], pre_id[f],
            sub_id[cat.mor_cod[f_prime]], sub_id[cat.mor_cod[p_prime]],
        )
        bcp = bcps.get(key)
        if bcp is None:
            bcp = bcps[key] = check_bcp(sq)
        if not bcp.lemma_inequality_holds:
            violations.append(Violation(
                "image-preimage-inequality", where=f"{fib.name}:{names[f]}"))
            continue
        if not bcp.bcp_equality:
            continue
        for cls, flag_id, memo in transfers:
            key = (flag_id[f_prime], flag_id[p], flag_id[p_prime], flag_id[f])
            laws = memo.get(key)
            if laws is None:
                laws = memo[key] = transfer_laws(cls[f_prime], cls[p], cls[p_prime], cls[f])
            if laws:
                where = sq.name
                violations.extend(Violation(law, where=where) for law in laws)
    skipped = (f"{fib.name}: {n_skip} squares beyond point budget",) if n_skip else ()
    return Report(f"pullback-transfer {fib.name}", checked, tuple(violations), skipped)


def check_pullback_transfer_suite(scale: str) -> Report:
    fib_names = ("fintop2",) if scale == "small" else ("fintop2", "fintop3")
    return merge("pullback-transfer", [
        sweep_pullback_transfer(
            _fib(name), {kind: _classifications(name, kind) for kind in ("closure", "interior")})
        for name in fib_names
    ])


def check_operator_crosschecks(scale: str) -> Report:
    reports = []
    for fib_name, kind in _fintop2_orders():
        t = _order(fib_name, kind)
        for f in range(t.fib.category.n_morphisms):
            reports.append(crosscheck_operator_classes(f, t))
    return merge("operator-crosschecks", reports)


def check_weak_finality(scale: str) -> Report:
    reports = []
    for fib_name, kind in (*_fintop2_orders(), ("grp_small", "grp_normal")):
        t = _order(fib_name, kind)
        for f in range(t.fib.category.n_morphisms):
            reports.append(weakly_final_formulas(f, t))
    return merge("weak-finality-formulas", reports)


def check_fibration_lift(scale: str) -> Report:
    violations = []
    fd = topgrp_fibration(4)
    t_base = registry.builtin_order("grp_normal", fd.base)
    lifted = lift_topogenous(fd, t_base)
    rep = validate_structure(lifted)
    checked = rep.checked
    violations.extend(rep.violations)
    if is_interpolative(t_base) and not is_interpolative(lifted):
        violations.append(Violation("lift-interpolation-inheritance"))
    c_base = closure_from_topogenous(t_base)
    i_base = interior_from_topogenous(t_base)
    for x in range(fd.total.category.n_objects):
        fx = fd.obj_map[x]
        lat = fd.total.sub[x]
        g = fd.gamma[x]
        base_lat = fd.base.sub[fx]
        for m in range(lat.size):
            for n in range(lat.size):
                checked += 1
                want = bool(lifted.rel[x][m] >> n & 1)
                if base_lat.leq(c_base.cmap[fx][g[m]], g[n]) != want:
                    violations.append(Violation(
                        "lift-closure-characterization",
                        where=fd.total.category.object_names[x],
                        witness=(lat.labels[m], lat.labels[n])))
                if base_lat.leq(g[m], i_base.imap[fx][g[n]]) != want:
                    violations.append(Violation(
                        "lift-interior-characterization",
                        where=fd.total.category.object_names[x],
                        witness=(lat.labels[m], lat.labels[n])))
    return Report("fibration-lift", checked, tuple(violations))


def check_pointed_induced_order(scale: str) -> Report:
    violations = []
    checked = 0
    # extremality on the two-object instance
    fib = _fib("t0_small")
    p = registry.builtin_pointed("t0", fib)
    rep = validate_pointed(p)
    violations.extend(rep.violations)
    for kind in ("closure", "interior"):
        t = _order("t0_small", kind)
        ind = induce_pointed(p, t)
        v = validate_structure(ind)
        checked += v.checked
        violations.extend(v.violations)
        if not all(
            continuity_between(p.unit[x], ind, t)[0]
            for x in range(fib.category.n_objects)
        ):
            violations.append(Violation("unit-not-continuous", where=kind))
        if is_interpolative(t) and not is_interpolative(ind):
            violations.append(Violation("interpolation-inheritance", where=kind))
        r = check_extremality(ind, FamilySpec(
            fib, "topogenous", unit_constraint(p, t), "least",
            f"pointed-order-{kind}"))
        checked += r.checked
        violations.extend(r.violations)
    # the reflection formula on the bigger fibration
    big = "fintop2" if scale == "small" else "fintop3"
    fib2 = _fib(big)
    p2 = registry.builtin_pointed("t0", fib2)
    t2 = _order(big, "closure")
    ind2 = induce_pointed(p2, t2)
    v = validate_structure(ind2)
    checked += v.checked
    violations.extend(v.violations)
    c2 = closure_from_topogenous(t2)
    for x in range(fib2.category.n_objects):
        u = p2.unit[x]
        img_u, pre_u = fib2.img[u], fib2.pre[u]
        fx = p2.obj_map[x]
        lat = fib2.sub[x]
        for m in range(lat.size):
            checked += 1
            if ind2.rel[x][m] != lat.up[pre_u[c2.cmap[fx][img_u[m]]]]:
                violations.append(Violation(
                    "reflection-order-formula", where=fib2.category.object_names[x],
                    witness=(lat.labels[m],)))
    return Report("pointed-induced-order", checked, tuple(violations))


def check_copointed_induced_order(scale: str) -> Report:
    violations = []
    checked = 0
    fib = _fib("coreflect_small")
    q = registry.builtin_copointed("discrete", fib)
    rep = validate_copointed(q)
    violations.extend(rep.violations)
    for kind in ("closure", "interior"):
        t = _order("coreflect_small", kind)
        ind = induce_copointed(q, t)
        v = validate_structure(ind)
        checked += v.checked
        violations.extend(v.violations)
        if not all(
            continuity_between(q.counit[x], t, ind)[0]
            for x in range(fib.category.n_objects)
        ):
            violations.append(Violation("counit-not-continuous", where=kind))
        r = check_extremality(ind, FamilySpec(
            fib, "topogenous", counit_constraint(q, t), "largest",
            f"copointed-order-{kind}"))
        checked += r.checked
        violations.extend(r.violations)
    # discretization turns the closure order into plain inclusion
    t = _order("coreflect_small", "closure")
    ind = induce_copointed(q, t)
    for x, lat in enumerate(fib.sub):
        for m in range(lat.size):
            checked += 1
            if ind.rel[x][m] != lat.up[m]:
                violations.append(Violation(
                    "discretization-order-is-inclusion",
                    where=fib.category.object_names[x], witness=(lat.labels[m],)))
    return Report("copointed-induced-order", checked, tuple(violations))


# (side, instance, its built-in endofunctor, the order it induces, and the
# continuity constraint of its unit or counit)
_ENDOFUNCTORS = (
    ("pointed", "t0_small", registry.POINTED["t0"], induce_pointed, unit_constraint),
    ("copointed", "coreflect_small", registry.COPOINTED["discrete"], induce_copointed,
     counit_constraint),
)

# per operator kind: the induced operator, the conversion from orders, and
# per side the extreme the operator must be
_INDUCED_OPERATORS = {
    "closure": (induced_closure, closure_from_topogenous,
                {"pointed": "largest", "copointed": "least"}),
    "interior": (induced_interior, interior_from_topogenous,
                 {"pointed": "least", "copointed": "largest"}),
}


def check_induced_operator(kind: str, scale: str) -> Report:
    """The closure or interior operator induced by each built-in (co)pointed
    endofunctor: valid, equal to the converted induced order, extremal in
    its family, and (pointed side) idempotent when the order is
    interpolative and, for interiors, every unit is in E."""
    induced, convert, extremes = _INDUCED_OPERATORS[kind]
    violations = []
    checked = 0
    for side, fib_name, endofunctor, induce, constraint in _ENDOFUNCTORS:
        fib = _fib(fib_name)
        endo = endofunctor(fib)
        t = _order(fib_name, kind)
        op = induced(endo, t)
        v = validate_structure(op)
        checked += v.checked
        violations.extend(v.violations)
        if op != convert(induce(endo, t)):
            violations.append(Violation(f"{side}-{kind}-vs-conversion"))
        if (
            side == "pointed"
            and is_interpolative(t)
            and (kind == "closure" or endo.e_pointed)
            and not is_idempotent(op)
        ):
            violations.append(Violation(f"pointed-{kind}-idempotence"))
        r = check_extremality(op, FamilySpec(
            fib, kind, constraint(endo, convert(t)), extremes[side], f"{side}-{kind}"))
        checked += r.checked
        violations.extend(r.violations)

    # agreement also on the larger reflection instance
    fib2 = _fib("fintop2")
    t2 = _order("fintop2", kind)
    for side, _, endofunctor, induce, _ in _ENDOFUNCTORS:
        endo = endofunctor(fib2)
        if induced(endo, t2) != convert(induce(endo, t2)):
            violations.append(Violation(f"{side}-{kind}-vs-conversion", where="fintop2"))
    checked += 2
    return Report(f"induced-{kind}", checked, tuple(violations))


def check_top_map_classes(scale: str) -> Report:
    name = "fintop2" if scale == "small" else "fintop3"
    violations = []
    n = int(name[-1])
    counts = {k: len(enumerate_topologies(k)) for k in range(n + 1)}
    counts_again = {k: len(enumerate_topologies_via_preorders(k)) for k in range(n + 1)}
    checked = sum(counts.values())
    if counts != counts_again:
        violations.append(Violation(
            "topology-count-enumerators-disagree",
            witness=(str(counts), str(counts_again))))
    fib = _fib(name)
    cls = {kind: _classifications(name, kind) for kind in ("closure", "interior")}
    for f in range(fib.category.n_morphisms):
        mp = map_predicates(fib, f)
        ccl, cin = cls["closure"][f], cls["interior"][f]
        checked += 1
        pairs = (
            ("open-vs-closure-costrict", mp.open, ccl.costrict),
            ("open-vs-interior-strict", mp.open, cin.strict),
            ("closed-vs-closure-strict", mp.closed, ccl.strict),
            ("initial-vs-closure-initial", mp.initial_topology, ccl.initial),
            ("initial-vs-interior-initial", mp.initial_topology, cin.initial),
            ("hq-vs-closure-final", mp.hereditary_quotient, ccl.final),
            ("hq-vs-interior-final", mp.hereditary_quotient, cin.final),
        )
        for label, a, b in pairs:
            if a != b:
                violations.append(Violation(label, where=fib.category.mor_names[f]))
    return Report("top-map-classes", checked, tuple(violations))


def check_grp_map_classes(scale: str) -> Report:
    name = "grp_small" if scale == "small" else "grp_le8"
    fib = _fib(name)
    t = _order(name, "grp_normal")
    violations = []
    skipped = []
    checked = 0
    strict_only = normal_only = 0
    na = 0
    for f in range(fib.category.n_morphisms):
        cls = classify(f, t)
        checked += 1
        if cls.final != (f in fib.eclass):
            violations.append(Violation(
                "final-vs-surjective", where=fib.category.mor_names[f]))
        pres = preserves_normal_subgroups(fib, f)
        # a documented finding, not a failure: count each direction separately
        if cls.strict and not pres:
            strict_only += 1
        if pres and not cls.strict:
            normal_only += 1
        if f in fib.mclass and pres:
            if cls.initial is None:
                na += 1
            elif cls.initial is not True:
                violations.append(Violation(
                    "normal-preserving-mono-not-initial", where=fib.category.mor_names[f]))
    if strict_only or normal_only:
        skipped.append(
            f"finding: strict-without-normal-preservation={strict_only}, "
            f"normal-preservation-without-strict={normal_only}"
        )
    if na:
        skipped.append(f"{na} injective maps lack the right adjoint of preimage")
    return Report("grp-map-classes", checked, tuple(violations), tuple(skipped))


def check_format_roundtrip(scale: str) -> Report:
    violations = []
    docs = []
    fib = _fib("t0_small")
    records = [
        fileformat.SpaceRecord("sier", registry.builtin_space("sierpinski")),
        fileformat.SpaceRecord("d2", registry.builtin_space("discrete2")),
        fileformat.MapRecord("collapse", "d2", "sier", (1, 1)),
        fileformat.GroupRecord("z2xz2", groups_of(_fib("grp_small"))[4]),
        fileformat.order_record_of("tiny", _order("t0_small", "closure")),
        fileformat.operator_record_of(
            "cl", closure_from_topogenous(_order("t0_small", "closure")), "closure"),
    ]
    docs.append(fileformat.Document(tuple(records)))
    checked = 0
    for doc in docs:
        checked += len(doc.records)
        text = fileformat.serialize_document(doc)
        back = fileformat.parse_document(text)
        if back != doc:
            violations.append(Violation("parse-serialize-roundtrip"))
        if fileformat.serialize_document(back) != text:
            violations.append(Violation("serialize-parse-roundtrip"))
    t = _order("t0_small", "closure")
    rec = fileformat.order_record_of("tiny", t)
    if fileformat.resolve_order(rec, fib) != t:
        violations.append(Violation("order-record-resolution"))
    checked += 1
    return Report("format-roundtrip", checked, tuple(violations))


CHECKS = {
    "instance-validity": check_instance_validity,
    "conversion-bijections": check_conversion_bijections,
    "continuity-renderings": check_continuity_renderings,
    "strict-subobject-transfer": check_strict_transfer_suite,
    "class-calculus": check_class_calculus_suite,
    "pullback-transfer": check_pullback_transfer_suite,
    "operator-crosschecks": check_operator_crosschecks,
    "weak-finality-formulas": check_weak_finality,
    "fibration-lift": check_fibration_lift,
    "pointed-induced-order": check_pointed_induced_order,
    "copointed-induced-order": check_copointed_induced_order,
    "induced-closure": partial(check_induced_operator, "closure"),
    "induced-interior": partial(check_induced_operator, "interior"),
    "top-map-classes": check_top_map_classes,
    "grp-map-classes": check_grp_map_classes,
    "format-roundtrip": check_format_roundtrip,
}


@dataclass(frozen=True)
class CheckEntry:
    check_id: str
    instances: int
    failures: tuple[str, ...]
    skipped: tuple[str, ...]
    wall: float


@dataclass(frozen=True)
class SuiteReport:
    scale: str
    entries: tuple[CheckEntry, ...]

    @property
    def ok(self) -> bool:
        return all(not e.failures for e in self.entries)

    def render_text(self) -> str:
        lines = [f"topogen suite scale={self.scale}"]
        for e in self.entries:
            lines.append(
                f"check {e.check_id} instances={e.instances} "
                f"failures={len(e.failures)}"
            )
            for f in e.failures:
                lines.append(f"  failure {f}")
            for s in e.skipped:
                lines.append(f"  note {s}")
        lines.append(
            f"summary checks={len(self.entries)} "
            f"failures={sum(len(e.failures) for e in self.entries)} "
            f"status={'pass' if self.ok else 'fail'}"
        )
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        payload = {
            "scale": self.scale,
            "status": "pass" if self.ok else "fail",
            "checks": [
                {
                    "id": e.check_id,
                    "instances": e.instances,
                    "failures": list(e.failures),
                    "notes": list(e.skipped),
                }
                for e in self.entries
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run_suite(scale: str = "small", targets=None) -> SuiteReport:
    """Run every targeted check at the given scale.

    Unknown targets become report entries, never crashes; resource caps are
    reported as notes on the affected check, and any other package error as
    a failure of that check carrying the error's text.
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}")
    selected = list(CHECKS) if targets is None else list(targets)
    entries = []
    for check_id in selected:
        fn = CHECKS.get(check_id)
        if fn is None:
            entries.append(CheckEntry(check_id, 0, (), ("unknown proposition id",), 0.0))
            continue
        started = time.perf_counter()
        try:
            report = fn(scale)
            entries.append(CheckEntry(
                check_id,
                report.checked,
                tuple(v.render() for v in report.violations),
                report.skipped,
                time.perf_counter() - started,
            ))
        except ResourceCapError as exc:
            entries.append(CheckEntry(
                check_id, 0, (), (f"resource cap: {exc}",),
                time.perf_counter() - started,
            ))
        except TopogenError as exc:
            entries.append(CheckEntry(
                check_id, 0, (f"{type(exc).__name__}: {exc}",), (),
                time.perf_counter() - started,
            ))
    entries.sort(key=lambda e: selected.index(e.check_id))
    return SuiteReport(scale, tuple(entries))
