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
    component_constraint,
    continuity_between,
    induce_order,
    induced_closure,
    induced_interior,
    lift_topogenous,
    validate_endofunctor,
    validate_fibered_functor,
)
from ..errors import CapabilityError, DomainError, PreconditionError, ResourceCapError, TopogenError
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
    fibre_masks,
    intern,
    validate_category,
    validate_fibration,
)
from ..structures import (
    closure_from_topogenous,
    interior_from_topogenous,
    is_idempotent,
    is_interpolative,
    is_join_preserving,
    is_meet_preserving,
    nbhd_from_topogenous,
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

# where the suite's instances are chosen: the (fibration, order kind) pairs
# each per-order statement runs on, and per scale the (space, group)
# fibrations the scaled checks run on
ORDERS = (("fintop2", "closure"), ("fintop2", "interior"), ("grp_small", "grp_normal"))
SCALED = {"small": ("fintop2", "grp_small"), "medium": ("fintop3", "grp_le8")}

_fib = registry.builtin_fibration


@lru_cache(maxsize=None)
def _order(fib_name: str, kind: str):
    return registry.builtin_order(kind, _fib(fib_name))


@lru_cache(maxsize=None)
def _classifications(fib_name: str, kind: str):
    t = _order(fib_name, kind)
    return tuple(classify(f, t) for f in range(t.fib.category.n_morphisms))


def _space_classifications(fib_name: str) -> dict:
    return {kind: _classifications(fib_name, kind) for kind in ("closure", "interior")}


# ---------------------------------------------------------------------------
# individual checks; each returns a Report


def check_instance_validity(scale: str) -> Report:
    reports = []
    fixed = ("disc2_loop", "fintop2", "t0_small", "coreflect_small", "grp_small")
    for name in fixed:
        fib = _fib(name)
        reports.append(validate_category(fib.category))
        reports.append(validate_fibration(fib))
    for g in groups_of(_fib("grp_small")):
        reports.append(validate_group(g))
    fd = topgrp_fibration()
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
        except (DomainError, PreconditionError):  # a malformed table, reported above
            adjoint = None
        if adjoint is None or adjoint.table != fib.fstar[f]:
            mismatched.append(Violation("fstar-differs-from-right-adjoint", where=cat.mor_names[f]))
    reports.append(Report("fstar-formula", cat.n_morphisms, tuple(mismatched)))
    reports.extend(validate_fibration(_fib(name)) for name in SCALED[scale] if name not in fixed)
    return merge("instance-validity", reports)


def check_conversion_bijections(scale: str) -> Report:
    violations = []
    checked = 0
    for name in ("disc2_loop", "fintop2"):
        fib = _fib(name)
        torders, closures, interiors, nbhds = (
            list(enumerate_structures(EnumerationSpec(fib, kind)))
            for kind in ("topogenous", "closure", "interior", "neighbourhood"))
        checked += len(torders) + len(closures) + len(interiors) + len(nbhds)
        for group in (torders, closures, interiors, nbhds):
            for s in group:
                if not validate_structure(s).ok:
                    violations.append(Violation("enumerated-structure-invalid", where=name))
        if len({t.rel for t in torders}) != len(torders):
            violations.append(Violation("duplicate-structures", where=name))
        meet = [t for t in torders if is_meet_preserving(t)]
        join = [t for t in torders if is_join_preserving(t)]
        # per operator kind: its count law, its name in the round-trip laws,
        # the orders it converts, its structures, and the two conversions
        rows = (
            ("count-orders-vs-neighbourhoods", "nbhd", torders, nbhds,
             nbhd_from_topogenous, topogenous_from_nbhd),
            ("count-meet-orders-vs-closures", "closure", meet, closures,
             closure_from_topogenous, topogenous_from_closure),
            ("count-join-orders-vs-interiors", "interior", join, interiors,
             interior_from_topogenous, topogenous_from_interior),
        )
        for law, _, orders, others, _, _ in rows:
            if len(orders) != len(others):
                violations.append(Violation(
                    law, where=name, witness=(str(len(orders)), str(len(others)))))
        for _, other, orders, others, there, back in rows:
            if any(back(there(t)) != t for t in orders):
                violations.append(Violation(f"roundtrip-order-{other}", where=name))
            if any(there(back(s)) != s for s in others):
                violations.append(Violation(f"roundtrip-{other}-order", where=name))
    return Report("conversion-bijections", checked, tuple(violations))


def _continuity_renderings(t) -> Report:
    fib = t.fib
    maps = [f for f in range(fib.category.n_morphisms) if fib.fstar[f] is not None]
    return Report("continuity-renderings", len(maps), tuple(
        Violation("continuity-rendering-false", where=fib.category.mor_names[f])
        for f in maps if continuity_equivalents(f, t) != (True, True, True)))


# per check: its statement on one order and the orders it runs on.  Each
# statement names its function when called, so rebinding a module function
# (as a tracer does) reaches it.
PER_ORDER = {
    "continuity-renderings": (_continuity_renderings, ORDERS),
    "strict-subobject-transfer": (lambda t: merge("strict-subobject-transfer", [
        check_strict_transfer(f, t) for f in range(t.fib.category.n_morphisms)]), ORDERS),
    "class-calculus": (lambda t: check_class_calculus(t.fib, t), ORDERS),
    # not on grp_small, whose preimages do not commute with joins
    "operator-crosschecks": (lambda t: crosscheck_operator_classes(t), ORDERS[:2]),
    "weak-finality-formulas": (lambda t: weakly_final_formulas(t), ORDERS),
}


def check_per_order(check_id: str, scale: str) -> Report:
    """The check's statement on each of its orders, merged in table order."""
    statement, orders = PER_ORDER[check_id]
    return merge(check_id, [statement(_order(*order)) for order in orders])


# a verdict whose violation is named by f, not by the square
_INEQUALITY = ("image-preimage-inequality",)
_MISSING = object()
_BUDGET, _NO_CORNER = "beyond point budget", "whose pullback corner is not an object"


def sweep_pullback_transfer(fib, classifications) -> Report:
    """Beck-Chevalley and pullback transfer over every pullback along E or M.

    ``classifications`` maps each order kind to the classifications of all
    morphisms.  Each cospan (f, p) with p in E or M is checked on its
    pullback square p o f' = f o p', in sweep order.

    Legs.  The pullback of f: X->Y along p: Y'->Y is the fibre product of
    the graphs with the subspace topology of X x Y', so its legs f', p'
    depend on dom f, dom p and the fibre relation R = {(a, b) : f(a) = p(b)}
    alone, and R on graph p and graph f alone.  Graphs are interned; each
    graph of p keeps a row of relation ids, indexed by graph id of f and
    filled on first use (``fibre_masks``; medium: 776 fills).  Within a
    block of consecutive p with one domain, legs are looked up by relation
    id and dom f.  A miss (medium: 47,216) over the backend's ``max_points``
    points is skipped as beyond the point budget with no backend call
    (19,114); the others read the legs off R by the backend's
    ``pullback_legs``, which looks each leg up by (dom, cod, graph), so the
    square aligns, and refuses a corner that is not an object.  Legs
    certify R: p o f' = f o p' on the graphs, or ``DomainError``; every
    cospan of R commutes, as f(a) = p(b) on R.  The medium sweep checks
    672,582 squares from 28,102 relations with legs, and builds a
    ``PullbackSquare`` only for ``check_bcp`` on a memo miss and to name a
    violation.

    Verdicts.  ``check_bcp`` reads four tables (img p', pre f', img p,
    pre f) and the lattices of cod f' and cod p', and ``transfer_laws`` the
    flags of f', p, p' and f in every order, interned as one id per map.
    So a cospan's whole verdict is a function of three ids interned over
    the sweep: its leg side (img p', pre f', both lattices, and the flags
    of f' and p'), read once per relation miss; its p side (img p and its
    flags); and its f side (pre f and its flags).  The relation memo stores
    the leg side premultiplied by the number of f sides, so a cospan costs
    one addition and one lookup in the verdict memo of its p side, kept for
    the whole sweep (+0.35 MB of suite-medium peak RSS); ``check_bcp``
    and ``transfer_laws`` run, memoised on their own keys, only on a
    verdict miss (medium: 24,635 verdicts, 814 ``check_bcp`` calls).
    Lattices are keyed by identity: objects of one size share one.
    """
    cat = fib.category
    names = cat.mor_names
    img_id, _ = intern(fib.img)
    pre_id, _ = intern(fib.pre)
    sub_id, _ = intern(map(id, fib.sub))
    graph_id, graph_ids = intern(cat.graphs)
    classes = list(classifications.values())
    flag_id, _ = intern(tuple(class_flags(cls[f]) for cls in classes) for f in range(len(names)))
    f_side, f_sides = intern(zip(pre_id, flag_id))
    p_side, _ = intern(zip(img_id, flag_id))
    leg_sides, bcps, transfers = {}, {}, {}
    # relation ids x n_objects, per graph id of p and graph id of f
    rows, n_objects = [None] * len(graph_ids), cat.n_objects
    relation_ids, masks = {}, []  # masks[id] is None beyond the point budget

    def relation_key(p, f):
        relation = fibre_masks(cat.graphs[p], cat.graphs[f])
        if relation not in relation_ids:
            relation_ids[relation] = len(masks)
            within = sum(map(int.bit_count, relation)) <= fib.backend.max_points
            masks.append(relation if within else None)
        return relation_ids[relation] * n_objects

    def leg_base(f, p, f_prime, p_prime):
        # certify R: p o f' = f o p', read on the graphs at each corner point
        p_after_f_prime = map(cat.graphs[p].__getitem__, cat.graphs[f_prime])
        if list(p_after_f_prime) != list(map(cat.graphs[f].__getitem__, cat.graphs[p_prime])):
            raise DomainError(f"pullback legs of {names[f]} and {names[p]} do not commute")
        side = (
            img_id[p_prime], pre_id[f_prime], sub_id[cat.mor_cod[f_prime]],
            sub_id[cat.mor_cod[p_prime]], flag_id[f_prime], flag_id[p_prime],
        )
        return leg_sides.setdefault(side, len(leg_sides)) * len(f_sides)

    def verdict(f, p, f_prime, p_prime):
        key = (
            img_id[p_prime], pre_id[f_prime], img_id[p], pre_id[f],
            sub_id[cat.mor_cod[f_prime]], sub_id[cat.mor_cod[p_prime]],
        )
        bcp = bcps.get(key)
        if bcp is None:
            bcp = bcps[key] = check_bcp(PullbackSquare(fib, f_prime, p, p_prime, f))
        if not bcp.lemma_inequality_holds:
            return _INEQUALITY
        if not bcp.bcp_equality:
            return ()
        key = (flag_id[f_prime], flag_id[p], flag_id[p_prime], flag_id[f])
        if key not in transfers:
            transfers[key] = tuple(
                law for cls in classes
                for law in transfer_laws(cls[f_prime], cls[p], cls[p_prime], cls[f]))
        return transfers[key]

    violations = []
    checked, skips = 0, dict.fromkeys((_BUDGET, _NO_CORNER), 0)
    block, by_p_side = None, {}
    for p in sorted(fib.eclass | fib.mclass):
        if cat.mor_dom[p] != block:
            block, by_relation = cat.mor_dom[p], {}
        row = rows[graph_id[p]]
        if row is None:
            row = rows[graph_id[p]] = [None] * len(graph_ids)
        verdicts = by_p_side.setdefault(p_side[p], {})
        for f in cat.morphisms_to[cat.mor_cod[p]]:
            key = row[graph_id[f]]
            if key is None:
                key = row[graph_id[f]] = relation_key(p, f)
            key += cat.mor_dom[f]
            legs = by_relation.get(key, _MISSING)
            if legs is _MISSING:
                relation = masks[key // n_objects]
                if relation is None:
                    legs = _BUDGET
                else:
                    try:
                        f_prime, p_prime = fib.backend.pullback_legs(
                            fib, cat.mor_dom[f], block, relation)
                    except CapabilityError:
                        legs = _NO_CORNER
                    else:
                        legs = (f_prime, p_prime, leg_base(f, p, f_prime, p_prime))
                by_relation[key] = legs
            if type(legs) is str:
                skips[legs] += 1
                continue
            checked += 1
            f_prime, p_prime, base = legs
            key = base + f_side[f]
            found = verdicts.get(key)
            if found is None:
                found = verdicts[key] = verdict(f, p, f_prime, p_prime)
            if found is _INEQUALITY:
                violations.append(Violation(
                    "image-preimage-inequality", where=f"{fib.name}:{names[f]}"))
            elif found:
                where = PullbackSquare(fib, f_prime, p, p_prime, f).name
                violations.extend(Violation(law, where=where) for law in found)
    skipped = tuple(f"{fib.name}: {n} squares {cause}" for cause, n in skips.items() if n)
    return Report(f"pullback-transfer {fib.name}", checked, tuple(violations), skipped)


def check_pullback_transfer_suite(scale: str) -> Report:
    return merge("pullback-transfer", [
        sweep_pullback_transfer(_fib(name), _space_classifications(name))
        for name in dict.fromkeys(("fintop2", SCALED[scale][0]))
    ])


def check_fibration_lift(scale: str) -> Report:
    violations = []
    fd = topgrp_fibration()
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


# per side: the instance, its built-in endofunctor, and the extreme the
# order it induces must be
_ENDOFUNCTORS = {
    "pointed": ("t0_small", "t0", "least"),
    "copointed": ("coreflect_small", "discrete", "largest"),
}


def check_induced_order(side: str, scale: str) -> Report:
    """The order induced by the side's built-in endofunctor from the closure
    and interior orders: valid, its components continuous, extremal in their
    family, and (pointed side) interpolative when the order is; then the
    side's own statement, the reflection formula or discretization to
    inclusion."""
    fib_name, endo_name, extreme = _ENDOFUNCTORS[side]
    fib = _fib(fib_name)
    endo = registry.builtin_endofunctor(side, endo_name, fib)
    # the endofunctor's own faults are reported, not counted
    reports = [Report("", 0, validate_endofunctor(endo).violations)]
    for kind in ("closure", "interior"):
        t = _order(fib_name, kind)
        ind = induce_order(endo, t)
        between = []
        # each component is continuous between the induced order at x and t at Fx
        if not all(continuity_between(c, *endo.orient(ind, t))[0] for c in endo.components):
            between.append(Violation(f"{endo.component}-not-continuous", where=kind))
        if endo.pointed and is_interpolative(t) and not is_interpolative(ind):
            between.append(Violation("interpolation-inheritance", where=kind))
        reports.append(_valid_and_extremal(ind, between, FamilySpec(
            fib, "topogenous", component_constraint(endo, t), extreme, f"{side}-order-{kind}")))
    reports.append(
        _reflection_formula(scale) if endo.pointed else _discretization_is_inclusion(endo))
    return merge(f"{side}-induced-order", reports)


def _valid_and_extremal(structure, between, spec: FamilySpec) -> Report:
    """``structure``'s validity, then the ``between`` violations, then its
    extremality in ``spec``'s family."""
    return merge(spec.description, [
        validate_structure(structure), Report("", 0, tuple(between)),
        check_extremality(structure, spec)])


def _rows_match(law: str, ind, row) -> Report:
    """Compare each row ``ind.rel[x][m]`` with the stated ``row(x, m)``."""
    fib = ind.fib
    violations = []
    for x, lat in enumerate(fib.sub):
        for m in range(lat.size):
            if ind.rel[x][m] != row(x, m):
                violations.append(Violation(
                    law, where=fib.category.object_names[x], witness=(lat.labels[m],)))
    return Report(law, sum(lat.size for lat in fib.sub), tuple(violations))


def _reflection_formula(scale: str) -> Report:
    """The reflection's order induced from the closure order on the scale's
    space fibration is valid and has the row of the closure formula."""
    space = SCALED[scale][0]
    fib = _fib(space)
    p = registry.builtin_endofunctor("pointed", "t0", fib)
    t = _order(space, "closure")
    ind = induce_order(p, t)
    c = closure_from_topogenous(t)

    def formula(x, m):
        u = p.components[x]
        return fib.sub[x].up[fib.pre[u][c.cmap[p.obj_map[x]][fib.img[u][m]]]]

    return merge("reflection-order-formula", [
        validate_structure(ind), _rows_match("reflection-order-formula", ind, formula)])


def _discretization_is_inclusion(endo) -> Report:
    """Discretization turns the closure order into plain inclusion."""
    fib = endo.fib
    ind = induce_order(endo, _order(fib.name, "closure"))
    return _rows_match(
        "discretization-order-is-inclusion", ind, lambda x, m: fib.sub[x].up[m])


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
    reports = []
    for side, (fib_name, endo_name, _) in _ENDOFUNCTORS.items():
        fib = _fib(fib_name)
        endo = registry.builtin_endofunctor(side, endo_name, fib)
        t = _order(fib_name, kind)
        op = induced(endo, t)
        between = []
        if op != convert(induce_order(endo, t)):
            between.append(Violation(f"{side}-{kind}-vs-conversion"))
        if (
            side == "pointed"
            and is_interpolative(t)
            and (kind == "closure" or endo.e_pointed)
            and not is_idempotent(op)
        ):
            between.append(Violation(f"pointed-{kind}-idempotence"))
        reports.append(_valid_and_extremal(op, between, FamilySpec(
            fib, kind, component_constraint(endo, convert(t)), extremes[side], f"{side}-{kind}")))

    # agreement also on the larger reflection instance
    fib2 = _fib("fintop2")
    t2 = _order("fintop2", kind)
    mismatched = []
    for side, (_, endo_name, _) in _ENDOFUNCTORS.items():
        endo = registry.builtin_endofunctor(side, endo_name, fib2)
        if induced(endo, t2) != convert(induce_order(endo, t2)):
            mismatched.append(Violation(f"{side}-{kind}-vs-conversion", where="fintop2"))
    reports.append(Report("", len(_ENDOFUNCTORS), tuple(mismatched)))
    return merge(f"induced-{kind}", reports)


def check_top_map_classes(scale: str) -> Report:
    name = SCALED[scale][0]
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
    cls = _space_classifications(name)
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
    name = SCALED[scale][1]
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
    t = _order("t0_small", "closure")
    order_record = fileformat.order_record_of("tiny", t)
    doc = fileformat.Document((
        fileformat.SpaceRecord("sier", registry.builtin_space("sierpinski")),
        fileformat.SpaceRecord("d2", registry.builtin_space("discrete2")),
        fileformat.MapRecord("collapse", "d2", "sier", (1, 1)),
        fileformat.GroupRecord("z2xz2", groups_of(_fib("grp_small"))[4]),
        order_record,
        fileformat.operator_record_of("cl", closure_from_topogenous(t), "closure"),
    ))
    text = fileformat.serialize_document(doc)
    back = fileformat.parse_document(text)
    if back != doc:
        violations.append(Violation("parse-serialize-roundtrip"))
    if fileformat.serialize_document(back) != text:
        violations.append(Violation("serialize-parse-roundtrip"))
    if fileformat.resolve_order(order_record, t.fib) != t:
        violations.append(Violation("order-record-resolution"))
    return Report("format-roundtrip", len(doc.records) + 1, tuple(violations))


CHECKS = {
    "instance-validity": check_instance_validity,
    "conversion-bijections": check_conversion_bijections,
    "continuity-renderings": partial(check_per_order, "continuity-renderings"),
    "strict-subobject-transfer": partial(check_per_order, "strict-subobject-transfer"),
    "class-calculus": partial(check_per_order, "class-calculus"),
    "pullback-transfer": check_pullback_transfer_suite,
    "operator-crosschecks": partial(check_per_order, "operator-crosschecks"),
    "weak-finality-formulas": partial(check_per_order, "weak-finality-formulas"),
    "fibration-lift": check_fibration_lift,
    "pointed-induced-order": partial(check_induced_order, "pointed"),
    "copointed-induced-order": partial(check_induced_order, "copointed"),
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
        checked, failures, notes, wall = 0, (), ("unknown proposition id",), 0.0
        if fn is not None:
            started = time.perf_counter()
            try:
                report = fn(scale)
                checked, failures, notes = (
                    report.checked, tuple(v.render() for v in report.violations), report.skipped)
            except ResourceCapError as exc:
                notes = (f"resource cap: {exc}",)
            except TopogenError as exc:
                failures, notes = (f"{type(exc).__name__}: {exc}",), ()
            wall = time.perf_counter() - started
        entries.append(CheckEntry(check_id, checked, failures, notes, wall))
    return SuiteReport(scale, tuple(entries))
