"""Lifting orders along functors whose fibres are their base's, and the
structures induced by pointed/copointed endofunctors: the induced order
(``induce_order``), the induced closure or interior operator, one dual
routine over the operator class (``induced_operator``), and their
extremality among the structures of their kind that make every component
continuous, by full enumeration (``check_extremality``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .harness.enumeration import EnumerationSpec, enumerate_structures
from .lattice import mask_iter
from .reporting import Report, Violation
from .site import SubobjectFibration, composition_closed
from .structures import CORRESPONDENCE, NeighbourhoodOperator, TopogenousOrder, pull_along


@dataclass(frozen=True, eq=False)
class FiberedFunctor:
    """A faithful functor whose fibres are its base's: element m of the
    total object x's subobject lattice is element m of ``obj_map[x]``'s."""

    total: SubobjectFibration
    base: SubobjectFibration
    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]


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
    """The functor laws, then per object that its lattice is its image's,
    and per typed morphism that its image and preimage tables are its
    image's, element by element; ``checked`` counts every object, morphism
    and pair, each fibre's elements and comparable pairs, and each table
    entry.

    The functor laws are certified without the walk over the composable
    pairs (``_keeps_graphs``) when every total morphism goes to a base
    morphism with its graph and the images of its ends, identities go to
    identities, and the total category is closed under composition
    (``site.composition_closed``): then F(g∘f) has the graph
    graph g ∘ graph f = graph F g ∘ graph F f for every pair, and no law
    can fail.  Otherwise ``_functor_laws`` walks the pairs.  The report's
    ``counts`` are ``composition_certified`` (1 or 0) and ``pairs_walked``.
    """
    tot, base = fd.total, fd.base
    tcat = tot.category
    pairs = sum(map(len, map(tcat.morphisms_from.__getitem__, tcat.mor_cod)))
    certified = _keeps_graphs(fd)
    if certified:
        typed, violations = [True] * tcat.n_morphisms, []
    else:
        typed, violations = _functor_laws("functor", tcat, base.category, fd.obj_map, fd.mor_map)
    counts = {"composition_certified": int(certified), "pairs_walked": 0 if certified else pairs}
    checked = tcat.n_objects + tcat.n_morphisms + pairs
    for x, lx in enumerate(tot.sub):
        checked += lx.size + lx.comparable_pairs
        if lx.up != base.sub[fd.obj_map[x]].up:
            violations.append(Violation("fiber-order", where=tcat.object_names[x]))
    for f in filter(typed.__getitem__, range(tcat.n_morphisms)):
        bf = fd.mor_map[f]
        for law, tables, base_tables, lat in (
            ("image-compatibility", tot.img, base.img, tot.sub_dom(f)),
            ("preimage-compatibility", tot.pre, base.pre, tot.sub_cod(f)),
        ):
            checked += lat.size
            violations += (
                Violation(law, where=tcat.mor_names[f], witness=(lat.labels[m],))
                for m, (upstairs, below) in enumerate(zip(tables[f], base_tables[bf]))
                if upstairs != below
            )
    return Report("fibered-functor", checked, tuple(violations), counts=counts)


def _keeps_graphs(fd: FiberedFunctor) -> bool:
    """Whether every total morphism goes to the base morphism with its
    graph between the images of its ends, every identity to an identity,
    and the total category is closed under composition."""
    tcat, bcat = fd.total.category, fd.base.category
    F, obj = fd.mor_map, fd.obj_map
    return (
        tuple(map(bcat.identities.__getitem__, obj)) == tuple(map(F.__getitem__, tcat.identities))
        and tuple(map(bcat.graphs.__getitem__, F)) == tcat.graphs
        and tuple(map(bcat.mor_dom.__getitem__, F)) == tuple(map(obj.__getitem__, tcat.mor_dom))
        and tuple(map(bcat.mor_cod.__getitem__, F)) == tuple(map(obj.__getitem__, tcat.mor_cod))
        and composition_closed(tcat)
    )


def lift_topogenous(fd: FiberedFunctor, t_base: TopogenousOrder) -> TopogenousOrder:
    """Lift an order on the base to the total: m ⊏ n upstairs iff m ⊏ n in
    the base fibre, so each object's rows are its image's."""
    if t_base.fib is not fd.base:
        raise PreconditionError("order lives on a different fibration than the functor's base")
    return TopogenousOrder(fd.total, tuple(map(t_base.rel.__getitem__, fd.obj_map)))


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
            if endo.pointed:
                row = 0
                for q in mask_iter(t_fx[img_c[m]]):
                    row |= lx.up[pre_c[q]]
            else:
                row = lx.up[m] & pull_along(pre_c)[t_fx[pre_c[m]]]
            rows.append(row)
        rel.append(tuple(rows))
    return TopogenousOrder(fib, tuple(rel))


# ---------------------------------------------------------------------------
# induced operators


def induced_operator(endo: Endofunctor, t: TopogenousOrder, structure_class):
    """The closure or interior operator induced along the components from
    t, which must convert to ``structure_class`` (``CORRESPONDENCE``: meet-
    or join-preserving).  With o that conversion of t and A_c the class's
    ``adjoint`` of the component c (its image for closures, the right
    adjoint of its preimage for interiors, which must exist), the value at
    m is pre_c(o(A_c m)) along a unit, and combine(m, A_c(o(pre_c m))) along
    a counit, combine the class's ``combine`` (join for closures, meet for
    interiors)."""
    fib = t.fib
    o = CORRESPONDENCE[structure_class][1](t).table  # raises with witness if t does not convert
    adjoints = structure_class.adjoint(fib)
    table = []
    for x, lx in enumerate(fib.sub):
        c = endo.components[x]
        adj, pre_c, o_fx = adjoints[c], fib.pre[c], o[endo.obj_map[x]]
        if adj is None:
            raise PreconditionError(
                f"{endo.component} at {fib.category.object_names[x]} "
                f"has no right adjoint of preimage"
            )
        if endo.pointed:
            table.append(tuple(pre_c[o_fx[adj[m]]] for m in range(lx.size)))
        else:
            combine = structure_class.combine(lx)
            table.append(tuple(combine[m][adj[o_fx[pre_c[m]]]] for m in range(lx.size)))
    return structure_class(fib, tuple(table))


# ---------------------------------------------------------------------------
# extremality


def check_extremality(
    candidate, endo: Endofunctor, base, extreme: str, description: str = ""
) -> Report:
    """Enumerate the family of ``candidate``'s kind on ``endo``'s fibration
    whose members obey ``base``'s law along each component, between the
    member's table at x and ``base``'s at Fx (from the first to the second
    along a unit x -> Fx, the other way along a counit), and verify the
    candidate is its ``extreme`` ("least" or "largest") member.

    The report's ``checked`` field is the family size; a violator (or the
    candidate's absence from the family) shows up as a violation.
    """
    if extreme not in ("least", "largest"):
        raise PreconditionError(f"unknown extremality {extreme!r}")
    fib = endo.fib
    laws = [
        (x, base.table[fx], base.law_along(fib, c))
        for x, (c, fx) in enumerate(zip(endo.components, endo.obj_map))
    ]
    violations = []
    family_size = 0
    seen_candidate = False
    for member in enumerate_structures(EnumerationSpec(fibration=fib, kind=candidate.kind)):
        if not all(law.holds(*endo.orient(member.table[x], row)) for x, row, law in laws):
            continue
        family_size += 1
        if member == candidate:
            seen_candidate = True
            continue
        lower, upper = (candidate, member) if extreme == "least" else (member, candidate)
        excess = lower.first_excess(upper)
        if excess is not None:
            violations.append(Violation(f"not-{extreme}", where=description, witness=excess))
    if not seen_candidate:
        violations.append(Violation("candidate-not-in-family", where=description))
    return Report(f"extremality {description}", family_size, tuple(violations))
