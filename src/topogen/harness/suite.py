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
from functools import lru_cache

from ..constructions import (
    FamilySpec,
    check_extremality,
    continuity_between,
    copointed_closure_constraint,
    copointed_interior_constraint,
    copointed_order_constraint,
    induce_copointed,
    induce_pointed,
    induced_closure,
    induced_interior,
    lift_topogenous,
    pointed_closure_constraint,
    pointed_interior_constraint,
    pointed_order_constraint,
    validate_copointed,
    validate_fibered_functor,
    validate_pointed,
)
from ..errors import CapabilityError, ResourceCapError
from ..lattice import right_adjoint_of
from ..morphisms import (
    check_class_calculus,
    check_pullback_transfer,
    check_strict_transfer,
    classify,
    continuity_equivalents,
    crosscheck_operator_classes,
    weakly_final_formulas,
)
from ..reporting import Report, Violation, merge
from ..site import check_bcp, pullback, validate_category, validate_fibration
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
from ..instances.groups import preserves_normal_subgroups, validate_group
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
    for g in _fib("grp_small").groups:
        reports.append(validate_group(g))
    fd = topgrp_fibration(4)
    for tg in fd.total.topgroups:
        reports.append(validate_topgroup(tg))
    reports.append(validate_fibration(fd.total))
    reports.append(validate_fibered_functor(fd))
    # the complement formula used for space fibrations must agree with the
    # generically verified right adjoint
    fib = _fib("fintop2")
    mismatch = sum(
        1 for f in range(fib.category.n_morphisms)
        if fib.fstar[f] != right_adjoint_of(fib.pre_map(f)).table
    )
    reports.append(Report(
        "fstar-formula", fib.category.n_morphisms,
        (Violation("fstar-differs-from-right-adjoint"),) if mismatch else (),
    ))
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
    skipped = []
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
    return Report("continuity-renderings", checked, tuple(violations), tuple(skipped))


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


def check_pullback_transfer_suite(scale: str) -> Report:
    fib_names = ("fintop2",) if scale == "small" else ("fintop2", "fintop3")
    violations = []
    checked = 0
    skipped = []
    for name in fib_names:
        fib = _fib(name)
        caches = {
            kind: dict(enumerate(_classifications(name, kind)))
            for kind in ("closure", "interior")
        }
        orders = {kind: _order(name, kind) for kind in ("closure", "interior")}
        cat = fib.category
        n_skip = 0
        for p in sorted(fib.eclass | fib.mclass):
            y = cat.mor_cod[p]
            for f in cat.morphisms_to[y]:
                try:
                    sq = pullback(fib, f, p)
                except CapabilityError:
                    n_skip += 1
                    continue
                checked += 1
                bcp = check_bcp(sq)
                if not bcp.lemma_inequality_holds:
                    violations.append(Violation(
                        "image-preimage-inequality", where=f"{name}:{cat.mor_names[f]}"))
                    continue
                if not bcp.bcp_equality:
                    continue
                for kind in ("closure", "interior"):
                    r = check_pullback_transfer(sq, orders[kind], caches[kind], bcp)
                    violations.extend(r.violations)
        if n_skip:
            skipped.append(f"{name}: {n_skip} squares beyond point budget")
    return Report("pullback-transfer", checked, tuple(violations), tuple(skipped))


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
            fib, "topogenous", pointed_order_constraint(p, t), "least",
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
            fib, "topogenous", copointed_order_constraint(q, t), "largest",
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


def check_induced_closure(scale: str) -> Report:
    violations = []
    checked = 0
    fib = _fib("t0_small")
    p = registry.builtin_pointed("t0", fib)
    t = _order("t0_small", "closure")
    c_ind = induced_closure(p, t)
    v = validate_structure(c_ind)
    checked += v.checked
    violations.extend(v.violations)
    if c_ind != closure_from_topogenous(induce_pointed(p, t)):
        violations.append(Violation("pointed-closure-vs-conversion"))
    if is_interpolative(t) and not is_idempotent(c_ind):
        violations.append(Violation("pointed-closure-idempotence"))
    r = check_extremality(c_ind, FamilySpec(
        fib, "closure", pointed_closure_constraint(p, closure_from_topogenous(t)),
        "largest", "pointed-closure"))
    checked += r.checked
    violations.extend(r.violations)

    fibc = _fib("coreflect_small")
    q = registry.builtin_copointed("discrete", fibc)
    tc = _order("coreflect_small", "closure")
    cc = induced_closure(q, tc)
    v = validate_structure(cc)
    checked += v.checked
    violations.extend(v.violations)
    if cc != closure_from_topogenous(induce_copointed(q, tc)):
        violations.append(Violation("copointed-closure-vs-conversion"))
    r = check_extremality(cc, FamilySpec(
        fibc, "closure", copointed_closure_constraint(q, closure_from_topogenous(tc)),
        "least", "copointed-closure"))
    checked += r.checked
    violations.extend(r.violations)

    # agreement also on the larger reflection instance
    fib2 = _fib("fintop2")
    p2 = registry.builtin_pointed("t0", fib2)
    t2 = _order("fintop2", "closure")
    if induced_closure(p2, t2) != closure_from_topogenous(induce_pointed(p2, t2)):
        violations.append(Violation("pointed-closure-vs-conversion", where="fintop2"))
    q2 = registry.builtin_copointed("discrete", fib2)
    if induced_closure(q2, t2) != closure_from_topogenous(induce_copointed(q2, t2)):
        violations.append(Violation("copointed-closure-vs-conversion", where="fintop2"))
    checked += 2
    return Report("induced-closure", checked, tuple(violations))


def check_induced_interior(scale: str) -> Report:
    violations = []
    checked = 0
    fib = _fib("t0_small")
    p = registry.builtin_pointed("t0", fib)
    t = _order("t0_small", "interior")
    i_ind = induced_interior(p, t)
    v = validate_structure(i_ind)
    checked += v.checked
    violations.extend(v.violations)
    if i_ind != interior_from_topogenous(induce_pointed(p, t)):
        violations.append(Violation("pointed-interior-vs-conversion"))
    if (is_interpolative(t) and p.e_pointed) and not is_idempotent(i_ind):
        violations.append(Violation("pointed-interior-idempotence"))
    r = check_extremality(i_ind, FamilySpec(
        fib, "interior", pointed_interior_constraint(p, interior_from_topogenous(t)),
        "least", "pointed-interior"))
    checked += r.checked
    violations.extend(r.violations)

    fibc = _fib("coreflect_small")
    q = registry.builtin_copointed("discrete", fibc)
    tc = _order("coreflect_small", "interior")
    ic = induced_interior(q, tc)
    v = validate_structure(ic)
    checked += v.checked
    violations.extend(v.violations)
    if ic != interior_from_topogenous(induce_copointed(q, tc)):
        violations.append(Violation("copointed-interior-vs-conversion"))
    r = check_extremality(ic, FamilySpec(
        fibc, "interior", copointed_interior_constraint(q, interior_from_topogenous(tc)),
        "largest", "copointed-interior"))
    checked += r.checked
    violations.extend(r.violations)

    fib2 = _fib("fintop2")
    p2 = registry.builtin_pointed("t0", fib2)
    t2 = _order("fintop2", "interior")
    if induced_interior(p2, t2) != interior_from_topogenous(induce_pointed(p2, t2)):
        violations.append(Violation("pointed-interior-vs-conversion", where="fintop2"))
    q2 = registry.builtin_copointed("discrete", fib2)
    if induced_interior(q2, t2) != interior_from_topogenous(induce_copointed(q2, t2)):
        violations.append(Violation("copointed-interior-vs-conversion", where="fintop2"))
    checked += 2
    return Report("induced-interior", checked, tuple(violations))


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
        fileformat.GroupRecord("z2xz2", _fib("grp_small").groups[4]),
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
    "induced-closure": check_induced_closure,
    "induced-interior": check_induced_interior,
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
    reported as notes on the affected check.
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
    entries.sort(key=lambda e: selected.index(e.check_id))
    return SuiteReport(scale, tuple(entries))
