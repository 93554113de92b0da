"""Finite groups: a verified catalog of all groups of order <= 8, subgroup
lattices, homomorphism enumeration, and the normal-interval order."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from ..errors import CapabilityError, DomainError, PreconditionError
from ..lattice import FiniteLattice, mask_iter
from ..reporting import Report, Violation
from ..site import SubobjectFibration, concrete_category, subset_fibration
from ..structures import TopogenousOrder

MAX_MORPHISMS = 100_000


@dataclass(frozen=True)
class FinGroup:
    name: str
    elems: tuple[str, ...]
    mul: tuple[tuple[int, ...], ...]
    identity: int

    @property
    def order(self) -> int:
        return len(self.elems)

    def inv(self, a: int) -> int:
        return self.mul[a].index(self.identity)


def validate_group(g: FinGroup) -> Report:
    violations = []
    n = g.order
    checked = 0
    for a in range(n):
        for b in range(n):
            if not 0 <= g.mul[a][b] < n:
                violations.append(Violation("closure", witness=(g.elems[a], g.elems[b])))
    for a in range(n):
        checked += 2
        if g.mul[g.identity][a] != a or g.mul[a][g.identity] != a:
            violations.append(Violation("identity", witness=(g.elems[a],)))
        if g.identity not in g.mul[a]:
            violations.append(Violation("inverse", witness=(g.elems[a],)))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                checked += 1
                if g.mul[g.mul[a][b]][c] != g.mul[a][g.mul[b][c]]:
                    violations.append(
                        Violation("associativity", witness=(g.elems[a], g.elems[b], g.elems[c]))
                    )
    return Report(f"group {g.name}", checked, tuple(violations))


def cyclic(n: int) -> FinGroup:
    return FinGroup(
        name=f"z{n}",
        elems=tuple(str(i) for i in range(n)),
        mul=tuple(tuple((i + j) % n for j in range(n)) for i in range(n)),
        identity=0,
    )


def product(g: FinGroup, h: FinGroup) -> FinGroup:
    pairs = list(itertools.product(range(g.order), range(h.order)))
    index = {p: i for i, p in enumerate(pairs)}
    return FinGroup(
        name=f"{g.name}x{h.name}",
        elems=tuple(f"{g.elems[a]}.{h.elems[b]}" for a, b in pairs),
        mul=tuple(
            tuple(index[(g.mul[a1][a2], h.mul[b1][b2])] for a2, b2 in pairs)
            for a1, b1 in pairs
        ),
        identity=index[(g.identity, h.identity)],
    )


def symmetric3() -> FinGroup:
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    names = []
    for p in perms:
        if p == (0, 1, 2):
            names.append("e")
            continue
        moved = [i for i in range(3) if p[i] != i]
        if len(moved) == 2:
            names.append(f"({moved[0]}{moved[1]})")
        else:
            # 3-cycle: follow the orbit of 0; p maps position to value
            names.append(f"(0{p[0]}{p[p[0]]})")
    mul = tuple(
        tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms)
        for p in perms
    )
    return FinGroup("s3", tuple(names), mul, index[(0, 1, 2)])


def dihedral4() -> FinGroup:
    # elements r^k s^m with s r = r^{-1} s
    elems = [(k, m) for m in range(2) for k in range(4)]
    index = {e: i for i, e in enumerate(elems)}

    def name(k, m):
        r = {0: "", 1: "r", 2: "r2", 3: "r3"}[k]
        return (r + ("s" if m else "")) or "e"

    def mult(a, b):
        k1, m1 = a
        k2, m2 = b
        k = (k1 + (k2 if m1 == 0 else -k2)) % 4
        return (k, (m1 + m2) % 2)

    return FinGroup(
        "d4",
        tuple(name(*e) for e in elems),
        tuple(tuple(index[mult(a, b)] for b in elems) for a in elems),
        index[(0, 0)],
    )


def quaternion8() -> FinGroup:
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {"1": 0, "i": 1, "j": 2, "k": 3}
    table = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def split(u):
        sign = -1 if u.startswith("-") else 1
        return sign, base[u.lstrip("-")]

    def fuse(sign, axis):
        sym = ["1", "i", "j", "k"][axis]
        return sym if sign == 1 else "-" + sym

    index = {u: i for i, u in enumerate(units)}
    mul = []
    for a in units:
        sa, xa = split(a)
        row = []
        for b in units:
            sb, xb = split(b)
            sc, xc = table[(xa, xb)]
            row.append(index[fuse(sa * sb * sc, xc)])
        mul.append(tuple(row))
    return FinGroup("q8", tuple(units), tuple(mul), index["1"])


@lru_cache(maxsize=None)
def catalog() -> tuple[FinGroup, ...]:
    """All groups of order <= 8, one per isomorphism class."""
    z2 = cyclic(2)
    return (
        cyclic(1), z2, cyclic(3), cyclic(4), product(z2, z2), cyclic(5),
        cyclic(6), symmetric3(), cyclic(7), cyclic(8), product(cyclic(4), z2),
        product(product(z2, z2), z2), dihedral4(), quaternion8(),
    )


def small_catalog() -> tuple[FinGroup, ...]:
    by_name = {g.name: g for g in catalog()}
    return tuple(by_name[n] for n in ("z1", "z2", "z3", "z4", "z2xz2", "s3"))


def catalog_le4() -> tuple[FinGroup, ...]:
    return tuple(g for g in catalog() if g.order <= 4)


# ---------------------------------------------------------------------------
# subgroups


def closure_of(g: FinGroup, seed: int) -> int:
    """Subgroup generated by the element set ``seed`` (a mask).

    In a finite group it is the monoid the seed generates: each newly found
    element is multiplied by each seed element until nothing new appears."""
    gens = tuple(mask_iter(seed))
    members = frontier = seed | 1 << g.identity
    while frontier:
        new = 0
        for a in mask_iter(frontier):
            row = g.mul[a]
            for b in gens:
                new |= 1 << row[b]
        frontier = new & ~members
        members |= frontier
    return members


@lru_cache(maxsize=None)
def subgroups_of(g: FinGroup) -> tuple[int, ...]:
    """All subgroups as element masks, sorted by (size, members).

    Every subgroup is the join of a chain from the trivial group that adds
    one element at a time, so growing each found subgroup H by each x not
    in H reaches them all."""
    found = frontier = {1 << g.identity}
    while frontier:
        grown = {
            closure_of(g, h | 1 << x) for h in frontier for x in range(g.order) if not h >> x & 1
        }
        frontier = grown - found
        found = found | frontier
    return tuple(sorted(found, key=lambda m: (bin(m).count("1"), m)))


@lru_cache(maxsize=None)
def is_normal(g: FinGroup, sub_mask: int) -> bool:
    for x in range(g.order):
        xi = g.inv(x)
        for h in mask_iter(sub_mask):
            if not sub_mask >> g.mul[g.mul[x][h]][xi] & 1:
                return False
    return True


@lru_cache(maxsize=None)
def normal_subgroups(g: FinGroup) -> tuple[int, ...]:
    return tuple(m for m in subgroups_of(g) if is_normal(g, m))


def subgroup_label(g: FinGroup, mask: int) -> str:
    return "{" + ",".join(g.elems[i] for i in mask_iter(mask)) + "}"


def subgroup_lattice(g: FinGroup) -> FiniteLattice:
    subs = subgroups_of(g)
    labels = tuple(subgroup_label(g, m) for m in subs)
    up = tuple(
        sum(1 << j for j, t in enumerate(subs) if s & ~t == 0)
        for s in subs
    )
    return FiniteLattice.from_order(labels, up)


# ---------------------------------------------------------------------------
# homomorphisms


@lru_cache(maxsize=None)
def generating_set(g: FinGroup) -> tuple[int, ...]:
    """A smallest generating set, found in canonical order."""
    full = (1 << g.order) - 1
    non_identity = [i for i in range(g.order) if i != g.identity]
    if g.order == 1:
        return ()
    for size in range(1, g.order + 1):
        for combo in itertools.combinations(non_identity, size):
            if closure_of(g, sum(1 << i for i in combo)) == full:
                return combo
    raise PreconditionError(f"group {g.name} has no generating set (impossible)")


@lru_cache(maxsize=None)
def element_orders(g: FinGroup) -> tuple[int, ...]:
    """The order of each element, the size of the cyclic subgroup it generates."""
    return tuple(closure_of(g, 1 << a).bit_count() for a in range(g.order))


@lru_cache(maxsize=None)
def _words(g: FinGroup, gens: tuple[int, ...]) -> Optional[tuple[tuple[int, int, int], ...]]:
    """Each non-identity element once, breadth-first from the identity, as
    (element, parent, k) with element = parent * gens[k]; None when ``gens``
    does not generate ``g``."""
    seen = 1 << g.identity
    frontier, words = [g.identity], []
    while frontier:
        found = []
        for parent in frontier:
            row = g.mul[parent]
            for k, x in enumerate(gens):
                a = row[x]
                if not seen >> a & 1:
                    seen |= 1 << a
                    words.append((a, parent, k))
                    found.append(a)
        frontier = found
    return tuple(words) if len(words) == g.order - 1 else None


def _extend_hom(g: FinGroup, h: FinGroup, gens, images):
    """The homomorphism g -> h sending each gens[k] to images[k], or None.

    The images fix the table through the words of ``_words``; the table is a
    homomorphism iff table[ab] = table[a] table[b] on every pair, the
    certificate checked here row by row."""
    words = _words(g, tuple(gens))
    if words is None:
        return None
    table = [h.identity] * g.order
    for a, parent, k in words:
        table[a] = h.mul[table[parent]][images[k]]
    if any(table[a] != b for a, b in zip(gens, images)):
        return None
    for a, row in enumerate(g.mul):
        image_row = h.mul[table[a]]
        if [table[c] for c in row] != [image_row[t] for t in table]:
            return None
    return tuple(table)


def _hom_candidates(g: FinGroup, h: FinGroup, within) -> Iterator[tuple[int, ...]]:
    """Image tuples for ``generating_set(g)`` drawn from ``within``, in
    product order, keeping only images whose order divides the generator's
    (which every homomorphism satisfies)."""
    orders_g, orders_h = element_orders(g), element_orders(h)
    return itertools.product(*(
        [y for y in within if orders_g[x] % orders_h[y] == 0] for x in generating_set(g)
    ))


@lru_cache(maxsize=None)
def homs(g: FinGroup, h: FinGroup) -> tuple[tuple[int, ...], ...]:
    """All homomorphisms g -> h as image tuples, sorted."""
    gens = generating_set(g)
    tables = (_extend_hom(g, h, gens, images) for images in _hom_candidates(g, h, range(h.order)))
    return tuple(sorted(t for t in tables if t is not None))


# ---------------------------------------------------------------------------
# fibration


class _FinGrpBackend:
    def __init__(self, groups: tuple[FinGroup, ...]):
        self.groups = groups

    def factorize(self, fib, f: int):
        cat = fib.category
        graph = cat.graphs[f]
        x, y = cat.mor_dom[f], cat.mor_cod[f]
        gy = self.groups[y]
        image = sorted(set(graph))
        # find a catalog object isomorphic to the image subgroup
        for mid, gm in enumerate(self.groups):
            if gm.order != len(image):
                continue
            gens = generating_set(gm)
            for iso_images in _hom_candidates(gm, gy, image):
                table = _extend_hom(gm, gy, gens, iso_images)
                if table is None or sorted(set(table)) != image:
                    continue
                m_graph = table
                inv = {v: i for i, v in enumerate(table)}
                e_graph = tuple(inv[v] for v in graph)
                e = cat.morphism_by_graph(x, mid, e_graph)
                mm = cat.morphism_by_graph(mid, y, m_graph)
                if e is not None and mm is not None:
                    return e, mm
        raise CapabilityError("no catalog group is isomorphic to the image subgroup")


def fingrp_fibration(groups, name: str = "fingrp") -> SubobjectFibration:
    """All homomorphisms between the given groups; subobjects are subgroup
    lattices, image/preimage the usual ones, (E, M) = (surjective, injective)."""
    groups = tuple(groups)
    names = [g.name for g in groups]
    if len(set(names)) != len(names):
        raise PreconditionError("duplicate groups in fibration")
    category = concrete_category(
        names, [g.order for g in groups], lambda x, y: homs(groups[x], groups[y]),
        MAX_MORPHISMS, "homomorphisms",
    )

    def injective(cat):
        """The injective homomorphisms."""
        for f, (x, graph) in enumerate(zip(cat.mor_dom, cat.graphs)):
            if len(set(graph)) == groups[x].order:
                yield f

    return subset_fibration(
        category, [subgroup_lattice(g) for g in groups], [subgroups_of(g) for g in groups],
        injective(category), backend=_FinGrpBackend(groups), name=name,
    )


def groups_of(fib: SubobjectFibration) -> tuple[FinGroup, ...]:
    """The group of each object of a finite-group fibration."""
    if not isinstance(fib.backend, _FinGrpBackend):
        raise DomainError("not a finite-group fibration")
    return fib.backend.groups


def normal_interval_order(fib: SubobjectFibration):
    """A related to B iff some normal subgroup sits between them."""
    rel = []
    for g in groups_of(fib):
        subs = subgroups_of(g)
        normals = normal_subgroups(g)
        rows = []
        for a in subs:
            row = 0
            for j, b in enumerate(subs):
                if any(a & ~nmask == 0 and nmask & ~b == 0 for nmask in normals):
                    row |= 1 << j
            rows.append(row)
        rel.append(tuple(rows))
    return TopogenousOrder(fib, tuple(rel))


def preserves_normal_subgroups(fib: SubobjectFibration, f: int) -> bool:
    """Set-level check: images of normal subgroups are normal."""
    groups = groups_of(fib)
    cat = fib.category
    graph = cat.graphs[f]
    gx, gy = groups[cat.mor_dom[f]], groups[cat.mor_cod[f]]
    for nmask in normal_subgroups(gx):
        out = 0
        for e in mask_iter(nmask):
            out |= 1 << graph[e]
        if not is_normal(gy, out):
            return False
    return True
