"""Lifting orders along lattice-preserving functors, and the structures
induced by pointed/copointed endofunctors, with extremality verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import PreconditionError
from .harness.enumeration import EnumerationSpec, enumerate_structures
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


def _functor_laws(kind: str, cat, target, obj_map, mor_map) -> tuple[list[bool], list[Violation]]:
    """(typing per morphism, ``kind``-identity, -typing and -composition
    violations) of the functor F given by the two maps; F(g∘f) = F g ∘ F f,
    for typed F g and F f, holds iff F(g∘f) is typed with graph F g ∘ graph F f."""
    violations = [
        Violation(f"{kind}-identity", where=cat.object_names[x])
        for x, i in enumerate(cat.identities) if mor_map[i] != target.identities[obj_map[x]]
    ]
    typed = [
        (target.mor_dom[b], target.mor_cod[b]) == (obj_map[x], obj_map[y])
        for b, x, y in zip(mor_map, cat.mor_dom, cat.mor_cod)
    ]
    violations += (Violation(f"{kind}-typing", where=n) for n, t in zip(cat.mor_names, typed) if not t)
    graphs = [target.graphs[b] for b in mor_map]
    violations += (
        Violation(f"{kind}-composition", witness=(cat.mor_names[g], cat.mor_names[f]))
        for g, f, h in cat.composites() if typed[g] and typed[f]
        and not (typed[h] and graphs[h] == tuple(map(graphs[g].__getitem__, graphs[f])))
    )
    return typed, violations


def validate_fibered_functor(fd: FiberedFunctor) -> Report:
    """The functor laws (``_functor_laws``), then per object the fibre
    bijection and order isomorphism, and per typed morphism image/preimage
    compatibility; ``checked`` counts every object, morphism and pair."""
    tot, base = fd.total, fd.base
    tcat, bcat = tot.category, base.category
    typed, violations = _functor_laws("functor", tcat, bcat, fd.obj_map, fd.mor_map)
    pairs = sum(len(tcat.morphisms_from[y]) for y in tcat.mor_cod)
    checked = tcat.n_objects + tcat.n_morphisms + pairs
    for x in range(tcat.n_objects):
        fx = fd.obj_map[x]
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
    for f in filter(typed.__getitem__, range(tcat.n_morphisms)):
        bf = fd.mor_map[f]
        x, y = tcat.mor_dom[f], tcat.mor_cod[f]
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
class Endofunctor:
    """A pointed endofunctor, whose unit at x runs x -> Fx, or a copointed
    one, whose counit at x runs Fx -> x; ``components[x]`` is that arrow."""

    fib: SubobjectFibration
    side: str                    # "pointed" | "copointed"
    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]
    components: tuple[int, ...]

    @property
    def pointed(self) -> bool:
        return self.side == "pointed"

    @property
    def component(self) -> str:
        """What each component is called: ``unit`` or ``counit``."""
        return "unit" if self.pointed else "counit"

    def orient(self, at_x, at_fx) -> tuple:
        """A pair given as (the one at x, the one at Fx), reordered as (the
        one at the component's domain, the one at its codomain)."""
        return (at_x, at_fx) if self.pointed else (at_fx, at_x)

    @property
    def e_pointed(self) -> bool:
        return all(c in self.fib.eclass for c in self.components)


def validate_endofunctor(endo: Endofunctor) -> Report:
    """The functor laws of the two maps, and the typing and naturality of
    each component: F f ∘ η_x = η_y ∘ f for a unit, f ∘ ε_x = ε_y ∘ F f for
    a counit (the arrow at the component's codomain after the component
    equals the component after the arrow at its domain).  A composite or
    naturality square that needs a morphism already reported as mistyped is
    not composed; ``checked`` counts it either way."""
    cat = endo.fib.category
    F, comps, name = endo.mor_map, endo.components, endo.component
    typed, violations = _functor_laws("endofunctor", cat, cat, endo.obj_map, F)
    comp_typed = []
    for x, c in enumerate(comps):
        comp_typed.append((cat.mor_dom[c], cat.mor_cod[c]) == endo.orient(x, endo.obj_map[x]))
        if not comp_typed[x]:
            violations.append(Violation(f"{name}-typing", where=cat.object_names[x]))
    for f in range(cat.n_morphisms):
        x, y = cat.mor_dom[f], cat.mor_cod[f]
        if not (typed[f] and comp_typed[x] and comp_typed[y]):
            continue
        before, after = endo.orient(f, F[f])
        if cat.compose(after, comps[x]) != cat.compose(comps[y], before):
            violations.append(Violation(f"{name}-naturality", where=cat.mor_names[f]))
    return Report(f"{endo.side}-endofunctor", 2 * cat.n_morphisms, tuple(violations))


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


def induce_order(endo: Endofunctor, t: TopogenousOrder) -> TopogenousOrder:
    """The order induced along the components.

    Pointed: the least order making every unit continuous into t; m is
    related to n iff some subobject q of Fx is above the unit-image of m in
    t and pulls back under the unit to within n.  Every unit must be in E.
    Copointed: the largest order making every counit continuous out of t;
    comparable m <= n are related iff their counit preimages are related
    in t.
    """
    fib = endo.fib
    if t.fib is not fib:
        raise PreconditionError("order lives on a different fibration")
    if endo.pointed and not endo.e_pointed:
        raise PreconditionError("endofunctor is not E-pointed")
    rel = []
    for x, lx in enumerate(fib.sub):
        c = endo.components[x]
        img_c, pre_c = fib.img[c], fib.pre[c]
        t_fx = t.rel[endo.obj_map[x]]
        rows = []
        for m in range(lx.size):
            row = 0
            if endo.pointed:
                for q in mask_iter(t_fx[img_c[m]]):
                    row |= lx.up[pre_c[q]]
            else:
                base_row = t_fx[pre_c[m]]
                for n in mask_iter(lx.up[m]):
                    if base_row >> pre_c[n] & 1:
                        row |= 1 << n
            rows.append(row)
        rel.append(tuple(rows))
    return TopogenousOrder(fib, tuple(rel))


# ---------------------------------------------------------------------------
# induced operators


def induced_closure(endo: Endofunctor, t: TopogenousOrder) -> ClosureOperator:
    """Closure induced by a (co)pointed endofunctor from a meet-preserving order."""
    fib = t.fib
    base = closure_from_topogenous(t)  # raises with witness if not meet-preserving
    cmap = []
    for x, lx in enumerate(fib.sub):
        c = endo.components[x]
        img_c, pre_c = fib.img[c], fib.pre[c]
        c_fx = base.cmap[endo.obj_map[x]]
        if endo.pointed:
            cmap.append(tuple(pre_c[c_fx[img_c[m]]] for m in range(lx.size)))
        else:
            cmap.append(tuple(lx.join(m, img_c[c_fx[pre_c[m]]]) for m in range(lx.size)))
    return ClosureOperator(fib, tuple(cmap))


def induced_interior(endo: Endofunctor, t: TopogenousOrder) -> InteriorOperator:
    """Interior induced by a (co)pointed endofunctor from a join-preserving order.

    Both sides compose with the right adjoint of the component's preimage,
    which must exist (a precondition error names the failing component).
    """
    fib = t.fib
    base = interior_from_topogenous(t)
    imap = []
    for x, lx in enumerate(fib.sub):
        c = endo.components[x]
        star = fib.fstar[c]
        if star is None:
            raise PreconditionError(
                f"{endo.component} at {fib.category.object_names[x]} "
                f"has no right adjoint of preimage"
            )
        pre_c = fib.pre[c]
        i_fx = base.imap[endo.obj_map[x]]
        if endo.pointed:
            imap.append(tuple(pre_c[i_fx[star[m]]] for m in range(lx.size)))
        else:
            imap.append(tuple(lx.meet(m, star[i_fx[pre_c[m]]]) for m in range(lx.size)))
    return InteriorOperator(fib, tuple(imap))


# ---------------------------------------------------------------------------
# continuity constraints for the extremality families


def component_constraint(endo: Endofunctor, base) -> Callable:
    """Each component obeys the law of ``base``'s kind between the
    candidate's table at x and ``base``'s table at Fx: from the first to the
    second for a unit x -> Fx, the other way for a counit Fx -> x."""
    laws = [
        (x, base.table[fx], base.law_along(endo.fib, c))
        for x, (c, fx) in enumerate(zip(endo.components, endo.obj_map))
    ]

    def ok(candidate) -> bool:
        return all(law.holds(*endo.orient(candidate.table[x], row)) for x, row, law in laws)
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


def check_extremality(candidate, spec: FamilySpec) -> Report:
    """Enumerate the full family and verify the candidate is extremal in it.

    The report's ``checked`` field is the family size; a violator (or the
    candidate's absence from the family) shows up as a violation.
    """
    if spec.extreme not in ("least", "largest"):
        raise PreconditionError(f"unknown extremality {spec.extreme!r}")
    enum_spec = EnumerationSpec(fibration=spec.fibration, kind=spec.kind)
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
