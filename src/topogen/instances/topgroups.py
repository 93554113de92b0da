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
from ..site import concrete_category, subset_fibration
from .groups import (
    FinGroup,
    catalog,
    fingrp_fibration,
    homs,
    normal_subgroups,
    subgroups_of,
)
from .topology import FinTopSpace, is_continuous, minimal_neighbourhoods

# the largest group order of the topological-group fibration
MAX_ORDER = 4


@dataclass(frozen=True)
class FinTopGroup:
    name: str
    group: FinGroup
    topology: FinTopSpace     # on the carrier of the group

    def __post_init__(self):
        if self.topology.n != self.group.order:
            raise PreconditionError("topology carrier differs from group carrier")


def validate_topgroup(tg: FinTopGroup) -> Report:
    """Multiplication and inversion must be continuous.

    For finite spaces this is: the minimal-open box around (x, y) multiplies
    into the minimal open around x*y, and minimal opens invert into minimal
    opens.
    """
    g = tg.group
    nbhd = minimal_neighbourhoods(tg.topology)
    violations = []
    checked = 0
    for x in range(g.order):
        ux = nbhd[x]
        checked += 1
        inv_image = 0
        for a in mask_iter(ux):
            inv_image |= 1 << g.inv(a)
        if inv_image & ~nbhd[g.inv(x)]:
            violations.append(Violation("inversion-continuity", witness=(g.elems[x],)))
        for y in range(g.order):
            checked += 1
            uy = nbhd[y]
            target = nbhd[g.mul[x][y]]
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
    return minimal_neighbourhoods(tg.topology)[tg.group.identity]


class _TopGrpBackend:
    """The topological group of each object; no factorization or pullbacks."""

    def __init__(self, topgroups: tuple[FinTopGroup, ...]):
        self.topgroups = topgroups


@lru_cache(maxsize=None)
def topgrp_fibration() -> FiberedFunctor:
    """Topological groups of order <= ``MAX_ORDER`` over their underlying groups.

    Total morphisms are the continuous homomorphisms; each object's
    subgroups, and their lattice, are its underlying group's in the base.
    """
    base_groups = tuple(g for g in catalog() if g.order <= MAX_ORDER)
    base = fingrp_fibration(base_groups, name=f"grp_le{MAX_ORDER}")
    tgs = topgroups_of(base_groups)
    base_index = {g.name: i for i, g in enumerate(base_groups)}

    def continuous_homs(x, y):
        dom, cod = tgs[x].topology, tgs[y].topology
        return (
            graph for graph in homs(tgs[x].group, tgs[y].group)
            if is_continuous(graph, dom, cod)
        )

    category = concrete_category(
        [tg.name for tg in tgs], [tg.group.order for tg in tgs], continuous_homs
    )
    mor_dom, mor_cod, graphs = category.mor_dom, category.mor_cod, category.graphs
    obj_map = tuple(base_index[tg.group.name] for tg in tgs)
    mor_map = tuple(
        base.category.morphism_by_graph(obj_map[mor_dom[f]], obj_map[mor_cod[f]], graph)
        for f, graph in enumerate(graphs)
    )
    open_sub = [open_subgroup_mask(tg) for tg in tgs]

    def initial_monos(cat):
        """Injective maps whose domain's open subgroup is the pulled-back one."""
        for f, (x, y, graph) in enumerate(zip(cat.mor_dom, cat.mor_cod, cat.graphs)):
            if len(set(graph)) == tgs[x].group.order and open_sub[x] == sum(
                1 << a for a, ga in enumerate(graph) if open_sub[y] >> ga & 1
            ):
                yield f

    total = subset_fibration(
        category, [base.sub[fx] for fx in obj_map], [base.subsets[fx] for fx in obj_map],
        initial_monos(category), backend=_TopGrpBackend(tgs), name=f"topgrp_le{MAX_ORDER}",
    )
    return FiberedFunctor(total=total, base=base, obj_map=obj_map, mor_map=mor_map)
