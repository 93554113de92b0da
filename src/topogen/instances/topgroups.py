"""Finite topological groups and the forgetful functor to groups.

A finite group topology is the coset topology of an open normal subgroup;
objects are built that way but validated against the honest continuity
conditions for multiplication and inversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..constructions import FiberedFunctor
from ..errors import PreconditionError
from ..lattice import mask_iter
from ..reporting import Report, Violation
from ..site import FiniteCategory, SubobjectFibration
from .groups import (
    FinGroup,
    catalog,
    fingrp_fibration,
    homs,
    normal_subgroups,
    subgroup_lattice,
    subgroups_of,
)
from .topology import FinTopSpace


@dataclass(frozen=True)
class FinTopGroup:
    name: str
    group: FinGroup
    topology: FinTopSpace     # on the carrier of the group

    def __post_init__(self):
        if self.topology.n != self.group.order:
            raise PreconditionError("topology carrier differs from group carrier")


def min_open(space: FinTopSpace, point: int) -> int:
    out = space.full
    for o in space.opens:
        if o >> point & 1:
            out &= o
    return out


def validate_topgroup(tg: FinTopGroup) -> Report:
    """Multiplication and inversion must be continuous.

    For finite spaces this is: the minimal-open box around (x, y) multiplies
    into the minimal open around x*y, and minimal opens invert into minimal
    opens.
    """
    g, top = tg.group, tg.topology
    violations = []
    checked = 0
    for x in range(g.order):
        ux = min_open(top, x)
        checked += 1
        inv_image = 0
        for a in mask_iter(ux):
            inv_image |= 1 << g.inv(a)
        if inv_image & ~min_open(top, g.inv(x)):
            violations.append(Violation("inversion-continuity", witness=(g.elems[x],)))
        for y in range(g.order):
            checked += 1
            uy = min_open(top, y)
            target = min_open(top, g.mul[x][y])
            for a in mask_iter(ux):
                row = g.mul[a]
                prod = 0
                for b in mask_iter(uy):
                    prod |= 1 << row[b]
                if prod & ~target:
                    violations.append(
                        Violation("multiplication-continuity", witness=(g.elems[x], g.elems[y]))
                    )
                    break
    return Report(f"topgroup {tg.name}", checked, tuple(violations))


def coset_topology(g: FinGroup, n_mask: int) -> FinTopSpace:
    """Opens are the unions of cosets of the (normal) subgroup ``n_mask``."""
    cosets = []
    seen = 0
    for x in range(g.order):
        if seen >> x & 1:
            continue
        coset = 0
        for h in mask_iter(n_mask):
            coset |= 1 << g.mul[x][h]
        cosets.append(coset)
        seen |= coset
    opens = {0}
    for coset in cosets:
        opens |= {o | coset for o in opens}
    return FinTopSpace(g.order, tuple(sorted(opens)))


def topgroups_of(groups) -> tuple[FinTopGroup, ...]:
    """Every coset topology on every given group, one object per pair."""
    out = []
    for g in groups:
        subs = subgroups_of(g)
        for idx, mask in enumerate(subs):
            if mask not in normal_subgroups(g):
                continue
            out.append(FinTopGroup(f"{g.name}.n{idx}", g, coset_topology(g, mask)))
    return tuple(out)


def open_subgroup_mask(tg: FinTopGroup) -> int:
    return min_open(tg.topology, tg.group.identity)


def _continuous_hom(dom: FinTopGroup, cod: FinTopGroup, graph: tuple[int, ...]) -> bool:
    for o in cod.topology.opens:
        pre = 0
        for x, gx in enumerate(graph):
            if o >> gx & 1:
                pre |= 1 << x
        if not dom.topology.is_open(pre):
            return False
    return True


@lru_cache(maxsize=None)
def topgrp_fibration(max_order: int = 4) -> FiberedFunctor:
    """Topological groups of order <= max_order over their underlying groups.

    Total morphisms are the continuous homomorphisms; fibers share the
    underlying subgroup lattice, so the per-object lattice identification is
    the identity on indices.
    """
    base_groups = tuple(g for g in catalog() if g.order <= max_order)
    base = fingrp_fibration(base_groups, name=f"grp_le{max_order}")
    tgs = topgroups_of(base_groups)
    base_index = {g.name: i for i, g in enumerate(base_groups)}

    names = [tg.name for tg in tgs]
    mor_dom, mor_cod, graphs, mor_names = [], [], [], []
    identities = [-1] * len(tgs)
    for xi, tx in enumerate(tgs):
        for yi, ty in enumerate(tgs):
            for graph in homs(tx.group, ty.group):
                if not _continuous_hom(tx, ty, graph):
                    continue
                is_id = xi == yi and graph == tuple(range(tx.group.order))
                if is_id:
                    identities[xi] = len(mor_dom)
                mor_dom.append(xi)
                mor_cod.append(yi)
                graphs.append(graph)
                mor_names.append(
                    f"id_{names[xi]}" if is_id
                    else f"{names[xi]}>{names[yi]}:" + ("".join(map(str, graph)) or "-")
                )
    category = FiniteCategory(
        object_names=names,
        mor_dom=mor_dom,
        mor_cod=mor_cod,
        mor_names=mor_names,
        identities=identities,
        graphs=graphs,
    )
    sub = [subgroup_lattice(tg.group) for tg in tgs]
    mor_map = []
    img, pre = [], []
    for f in range(category.n_morphisms):
        bx = base_index[tgs[mor_dom[f]].group.name]
        by = base_index[tgs[mor_cod[f]].group.name]
        bf = base.category.morphism_by_graph(bx, by, graphs[f])
        mor_map.append(bf)
        img.append(base.img[bf])
        pre.append(base.pre[bf])
    eclass = frozenset(
        f for f in range(category.n_morphisms)
        if len(set(graphs[f])) == tgs[mor_cod[f]].group.order
    )
    # initial monos: injective and the domain's open subgroup is the pulled-back one
    mclass = frozenset(
        f for f in range(category.n_morphisms)
        if len(set(graphs[f])) == tgs[mor_dom[f]].group.order
        and open_subgroup_mask(tgs[mor_dom[f]])
        == sum(
            1 << x for x, gx in enumerate(graphs[f])
            if open_subgroup_mask(tgs[mor_cod[f]]) >> gx & 1
        )
    )
    total = SubobjectFibration(
        category=category,
        sub=sub,
        img=img,
        pre=pre,
        eclass=eclass,
        mclass=mclass,
        e_pullback_stable=True,
        name=f"topgrp_le{max_order}",
    )
    total.topgroups = tgs
    total.subgroup_masks = tuple(subgroups_of(tg.group) for tg in tgs)
    obj_map = tuple(base_index[tg.group.name] for tg in tgs)
    gamma = tuple(tuple(range(lat.size)) for lat in sub)
    return FiberedFunctor(
        total=total,
        base=base,
        obj_map=obj_map,
        mor_map=tuple(mor_map),
        gamma=gamma,
        delta=gamma,
    )
