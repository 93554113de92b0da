"""Lifting orders along lattice-preserving functors, and the structures
induced by pointed/copointed endofunctors, with extremality verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import PreconditionError
from .lattice import mask_iter
from .reporting import Report, Violation
from .site import SubobjectFibration
from .structures import (
    ClosureOperator,
    InteriorOperator,
    NeighbourhoodOperator,
    TopogenousOrder,
    closure_from_topogenous,
    interior_from_topogenous,
)


@dataclass(frozen=True, eq=False)
class FiberedFunctor:
    """A faithful functor along which subobject lattices are identified.

    ``gamma[x]`` maps sub-lattice indices of the total object x to indices of
    the base object ``obj_map[x]``; ``delta[x]`` is its inverse.
    """

    total: SubobjectFibration
    base: SubobjectFibration
    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]
    gamma: tuple[tuple[int, ...], ...]
    delta: tuple[tuple[int, ...], ...]


def validate_fibered_functor(fd: FiberedFunctor) -> Report:
    violations = []
    checked = 0
    tot, base = fd.total, fd.base
    tcat, bcat = tot.category, base.category
    for x in range(tcat.n_objects):
        fx = fd.obj_map[x]
        checked += 1
        if fd.mor_map[tcat.identities[x]] != bcat.identities[fx]:
            violations.append(Violation("functor-identity", where=tcat.object_names[x]))
        lx, lfx = tot.sub[x], base.sub[fx]
        g, d = fd.gamma[x], fd.delta[x]
        if sorted(g) != list(range(lfx.size)) or sorted(d) != list(range(lx.size)):
            violations.append(Violation("fiber-bijection", where=tcat.object_names[x]))
            continue
        for m in range(lx.size):
            checked += 1
            if d[g[m]] != m:
                violations.append(Violation("fiber-inverse", where=tcat.object_names[x]))
            for n in mask_iter(lx.up[m]):
                checked += 1
                if not lfx.leq(g[m], g[n]):
                    violations.append(
                        Violation("fiber-order-iso", where=tcat.object_names[x],
                                  witness=(lx.labels[m], lx.labels[n]))
                    )
    for f in range(tcat.n_morphisms):
        bf = fd.mor_map[f]
        x, y = tcat.mor_dom[f], tcat.mor_cod[f]
        checked += 1
        if bcat.mor_dom[bf] != fd.obj_map[x] or bcat.mor_cod[bf] != fd.obj_map[y]:
            violations.append(Violation("functor-typing", where=tcat.mor_names[f]))
            continue
        gx, gy = fd.gamma[x], fd.gamma[y]
        for m in range(tot.sub[x].size):
            checked += 1
            if gy[tot.img[f][m]] != base.img[bf][gx[m]]:
                violations.append(
                    Violation("image-compatibility", where=tcat.mor_names[f],
                              witness=(tot.sub[x].labels[m],))
                )
        for n in range(tot.sub[y].size):
            checked += 1
            if gx[tot.pre[f][n]] != base.pre[bf][gy[n]]:
                violations.append(
                    Violation("preimage-compatibility", where=tcat.mor_names[f],
                              witness=(tot.sub[y].labels[n],))
                )
    for g, f in tcat.composable_pairs():
        checked += 1
        if fd.mor_map[tcat.compose(g, f)] != bcat.compose(fd.mor_map[g], fd.mor_map[f]):
            violations.append(
                Violation("functor-composition", witness=(tcat.mor_names[g], tcat.mor_names[f]))
            )
    return Report("fibered-functor", checked, tuple(violations))


def lift_topogenous(fd: FiberedFunctor, t_base: TopogenousOrder) -> TopogenousOrder:
    """Lift an order on the base to the total: m ⊏ n upstairs iff their
    gamma-images are related downstairs."""
    if t_base.fib is not fd.base:
        raise PreconditionError("order lives on a different fibration than the functor's base")
    rel = []
    for x in range(fd.total.category.n_objects):
        fx = fd.obj_map[x]
        g = fd.gamma[x]
        base_rel = t_base.rel[fx]
        lx = fd.total.sub[x]
        rows = []
        for m in range(lx.size):
            row = 0
            related_below = base_rel[g[m]]
            for n in range(lx.size):
                if related_below >> g[n] & 1:
                    row |= 1 << n
            rows.append(row)
        rel.append(tuple(rows))
    return TopogenousOrder(fd.total, tuple(rel))


# ---------------------------------------------------------------------------
# endofunctors


@dataclass(frozen=True, eq=False)
class PointedEndofunctor:
    fib: SubobjectFibration
    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]
    unit: tuple[int, ...]        # unit[x]: x -> obj_map[x]

    @property
    def e_pointed(self) -> bool:
        return all(u in self.fib.eclass for u in self.unit)


@dataclass(frozen=True, eq=False)
class CopointedEndofunctor:
    fib: SubobjectFibration
    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]
    counit: tuple[int, ...]      # counit[x]: obj_map[x] -> x


def _validate_endofunctor_tables(fib, obj_map, mor_map) -> list[Violation]:
    cat = fib.category
    violations = []
    for x in range(cat.n_objects):
        if mor_map[cat.identities[x]] != cat.identities[obj_map[x]]:
            violations.append(Violation("endofunctor-identity", where=cat.object_names[x]))
    for f in range(cat.n_morphisms):
        ff = mor_map[f]
        if (cat.mor_dom[ff] != obj_map[cat.mor_dom[f]]
                or cat.mor_cod[ff] != obj_map[cat.mor_cod[f]]):
            violations.append(Violation("endofunctor-typing", where=cat.mor_names[f]))
    for g, f in cat.composable_pairs():
        if mor_map[cat.compose(g, f)] != cat.compose(mor_map[g], mor_map[f]):
            violations.append(
                Violation("endofunctor-composition", witness=(cat.mor_names[g], cat.mor_names[f]))
            )
    return violations


def validate_pointed(p: PointedEndofunctor) -> Report:
    cat = p.fib.category
    violations = _validate_endofunctor_tables(p.fib, p.obj_map, p.mor_map)
    checked = cat.n_morphisms
    for x in range(cat.n_objects):
        u = p.unit[x]
        if cat.mor_dom[u] != x or cat.mor_cod[u] != p.obj_map[x]:
            violations.append(Violation("unit-typing", where=cat.object_names[x]))
    for f in range(cat.n_morphisms):
        x, y = cat.mor_dom[f], cat.mor_cod[f]
        checked += 1
        if cat.compose(p.mor_map[f], p.unit[x]) != cat.compose(p.unit[y], f):
            violations.append(Violation("unit-naturality", where=cat.mor_names[f]))
    return Report("pointed-endofunctor", checked, tuple(violations))


def validate_copointed(q: CopointedEndofunctor) -> Report:
    cat = q.fib.category
    violations = _validate_endofunctor_tables(q.fib, q.obj_map, q.mor_map)
    checked = cat.n_morphisms
    for x in range(cat.n_objects):
        e = q.counit[x]
        if cat.mor_dom[e] != q.obj_map[x] or cat.mor_cod[e] != x:
            violations.append(Violation("counit-typing", where=cat.object_names[x]))
    for f in range(cat.n_morphisms):
        x, y = cat.mor_dom[f], cat.mor_cod[f]
        checked += 1
        if cat.compose(f, q.counit[x]) != cat.compose(q.counit[y], q.mor_map[f]):
            violations.append(Violation("counit-naturality", where=cat.mor_names[f]))
    return Report("copointed-endofunctor", checked, tuple(violations))


# ---------------------------------------------------------------------------
# two-order continuity


def continuity_between(f: int, t_dom: TopogenousOrder, t_cod: TopogenousOrder):
    """True iff f(m) related-under-t_cod to n implies m related-under-t_dom
    to f^{-1}(n), the neighbourhood law on the two orders' rows; returns
    (bool, witness)."""
    fib = t_dom.fib
    if t_cod.fib is not fib:
        raise PreconditionError("both orders must live on the same fibration")
    law = NeighbourhoodOperator.law_along(fib, f)
    witness = next(law.witnesses(t_dom.rel[fib.dom(f)], t_cod.rel[fib.cod(f)]), None)
    if witness is None:
        return True, None
    m, n = witness
    return False, (fib.sub_dom(f).labels[m], fib.sub_cod(f).labels[n])


# ---------------------------------------------------------------------------
# induced orders


def induce_pointed(p: PointedEndofunctor, t: TopogenousOrder) -> TopogenousOrder:
    """Least order making every unit component continuous into t.

    m related to n iff some subobject p of the target of the unit is above
    the unit-image of m in t and pulls back under the unit to within n.
    """
    fib = p.fib
    if t.fib is not fib:
        raise PreconditionError("order lives on a different fibration")
    if not p.e_pointed:
        raise PreconditionError("endofunctor is not E-pointed")
    rel = []
    for x in range(fib.category.n_objects):
        u = p.unit[x]
        img_u, pre_u = fib.img[u], fib.pre[u]
        fx = p.obj_map[x]
        lx = fib.sub[x]
        rows = []
        for m in range(lx.size):
            row = 0
            for q in mask_iter(t.rel[fx][img_u[m]]):
                row |= lx.up[pre_u[q]]
            rows.append(row)
        rel.append(tuple(rows))
    return TopogenousOrder(fib, tuple(rel))


def induce_copointed(q: CopointedEndofunctor, t: TopogenousOrder) -> TopogenousOrder:
    """Largest order making every counit component continuous out of t.

    For comparable m <= n: related iff the counit preimages are related in t.
    """
    fib = q.fib
    if t.fib is not fib:
        raise PreconditionError("order lives on a different fibration")
    rel = []
    for x in range(fib.category.n_objects):
        e = q.counit[x]
        pre_e = fib.pre[e]
        gx = q.obj_map[x]
        lx = fib.sub[x]
        rows = []
        for m in range(lx.size):
            row = 0
            base_row = t.rel[gx][pre_e[m]]
            for n in mask_iter(lx.up[m]):
                if base_row >> pre_e[n] & 1:
                    row |= 1 << n
            rows.append(row)
        rel.append(tuple(rows))
    return TopogenousOrder(fib, tuple(rel))


# ---------------------------------------------------------------------------
# induced operators


def induced_closure(data, t: TopogenousOrder) -> ClosureOperator:
    """Closure induced by a (co)pointed endofunctor from a meet-preserving order."""
    fib = t.fib
    base = closure_from_topogenous(t)  # raises with witness if not meet-preserving
    if isinstance(data, PointedEndofunctor):
        cmap = []
        for x in range(fib.category.n_objects):
            u = data.unit[x]
            img_u, pre_u = fib.img[u], fib.pre[u]
            fx = data.obj_map[x]
            cmap.append(tuple(
                pre_u[base.cmap[fx][img_u[m]]] for m in range(fib.sub[x].size)
            ))
        return ClosureOperator(fib, tuple(cmap))
    if isinstance(data, CopointedEndofunctor):
        cmap = []
        for x in range(fib.category.n_objects):
            e = data.counit[x]
            img_e, pre_e = fib.img[e], fib.pre[e]
            gx = data.obj_map[x]
            lx = fib.sub[x]
            cmap.append(tuple(
                lx.join(m, img_e[base.cmap[gx][pre_e[m]]]) for m in range(lx.size)
            ))
        return ClosureOperator(fib, tuple(cmap))
    raise PreconditionError("need a pointed or copointed endofunctor")


def induced_interior(data, t: TopogenousOrder) -> InteriorOperator:
    """Interior induced by a (co)pointed endofunctor from a join-preserving order.

    The pointed case composes with the right adjoint of the unit's preimage;
    the copointed case with the right adjoint of the counit's preimage.  Both
    must exist (a precondition error names the failing component).
    """
    fib = t.fib
    base = interior_from_topogenous(t)
    if isinstance(data, PointedEndofunctor):
        imap = []
        for x in range(fib.category.n_objects):
            u = data.unit[x]
            star = fib.fstar[u]
            if star is None:
                raise PreconditionError(
                    f"unit at {fib.category.object_names[x]} has no right adjoint of preimage"
                )
            pre_u = fib.pre[u]
            fx = data.obj_map[x]
            imap.append(tuple(
                pre_u[base.imap[fx][star[m]]] for m in range(fib.sub[x].size)
            ))
        return InteriorOperator(fib, tuple(imap))
    if isinstance(data, CopointedEndofunctor):
        imap = []
        for x in range(fib.category.n_objects):
            e = data.counit[x]
            star = fib.fstar[e]
            if star is None:
                raise PreconditionError(
                    f"counit at {fib.category.object_names[x]} has no right adjoint of preimage"
                )
            pre_e = fib.pre[e]
            gx = data.obj_map[x]
            lx = fib.sub[x]
            imap.append(tuple(
                lx.meet(m, star[base.imap[gx][pre_e[m]]]) for m in range(lx.size)
            ))
        return InteriorOperator(fib, tuple(imap))
    raise PreconditionError("need a pointed or copointed endofunctor")


# ---------------------------------------------------------------------------
# continuity constraints for the extremality families


def unit_constraint(p: PointedEndofunctor, base) -> Callable:
    """Each unit component x -> Fx obeys the law of ``base``'s kind from the
    candidate's table at x to ``base``'s table at Fx."""
    laws = [
        (x, base.table[fx], base.law_along(p.fib, u))
        for x, (u, fx) in enumerate(zip(p.unit, p.obj_map))
    ]

    def ok(candidate) -> bool:
        return all(law.holds(candidate.table[x], cod_row) for x, cod_row, law in laws)
    return ok


def counit_constraint(q: CopointedEndofunctor, base) -> Callable:
    """Each counit component Gx -> x obeys the law of ``base``'s kind from
    ``base``'s table at Gx to the candidate's table at x."""
    laws = [
        (x, base.table[gx], base.law_along(q.fib, e))
        for x, (e, gx) in enumerate(zip(q.counit, q.obj_map))
    ]

    def ok(candidate) -> bool:
        return all(law.holds(dom_row, candidate.table[x]) for x, dom_row, law in laws)
    return ok


# ---------------------------------------------------------------------------
# extremality


@dataclass(frozen=True)
class FamilySpec:
    """What to enumerate and what the candidate must be extremal in."""

    fibration: SubobjectFibration
    kind: str                 # "topogenous" | "closure" | "interior"
    constraint: Callable      # structure -> bool, the continuity condition
    extreme: str              # "least" | "largest"
    description: str = ""
    max_candidates: Optional[int] = None


def check_extremality(candidate, spec: FamilySpec) -> Report:
    """Enumerate the full family and verify the candidate is extremal in it.

    The report's ``checked`` field is the family size; a violator (or the
    candidate's absence from the family) shows up as a violation.
    """
    from .harness.enumeration import EnumerationSpec, enumerate_structures

    if spec.extreme not in ("least", "largest"):
        raise PreconditionError(f"unknown extremality {spec.extreme!r}")
    enum_spec = EnumerationSpec(
        fibration=spec.fibration, kind=spec.kind, max_candidates=spec.max_candidates
    )
    violations = []
    family_size = 0
    seen_candidate = False
    for member in enumerate_structures(enum_spec):
        if not spec.constraint(member):
            continue
        family_size += 1
        if member == candidate:
            seen_candidate = True
            continue
        lower, upper = (candidate, member) if spec.extreme == "least" else (member, candidate)
        excess = lower.first_excess(upper)
        if excess is not None:
            violations.append(Violation(f"not-{spec.extreme}", where=spec.description, witness=excess))
    if not seen_candidate:
        violations.append(Violation("candidate-not-in-family", where=spec.description))
    return Report(f"extremality {spec.description}", family_size, tuple(violations))
