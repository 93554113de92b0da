"""Finite topological spaces: enumeration, fibrations, set-level predicates,
the identify-points reflection and the discretization coreflection.

Points of an n-point space are 0..n-1; subsets are bitmasks; a topology is
the sorted tuple of its open masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import and_
from typing import Iterator, Sequence

from ..errors import CapabilityError, DomainError, PreconditionError
from ..lattice import FiniteLattice, mask_iter
from ..constructions import Endofunctor
from ..site import (
    SubobjectFibration, concrete_category, stand_ins, subset_fibration,
)
from ..structures import (
    ClosureOperator,
    InteriorOperator,
    topogenous_from_closure,
    topogenous_from_interior,
)

# caps the fibrations built from ``spaces:`` input
MAX_MORPHISMS = 200_000


@dataclass(frozen=True)
class FinTopSpace:
    n: int
    opens: tuple[int, ...]   # sorted masks; contains 0 and the full mask
    open_set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        full = (1 << self.n) - 1
        if any(o & ~full for o in self.opens):
            raise PreconditionError(f"an open set names a point >= {self.n}")
        if 0 not in self.opens or full not in self.opens:
            raise PreconditionError("opens must contain the empty set and the whole space")
        if tuple(sorted(set(self.opens))) != self.opens:
            raise PreconditionError("opens must be sorted and duplicate-free")
        open_set = frozenset(self.opens)
        object.__setattr__(self, "open_set", open_set)
        for a in self.opens:
            for b in self.opens:
                if a | b not in open_set or a & b not in open_set:
                    raise PreconditionError("opens are not closed under union/intersection")

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def is_open(self, mask: int) -> bool:
        return mask in self.open_set

    def closure(self, mask: int) -> int:
        out = self.full
        for o in self.opens:
            if o & mask == 0:
                out &= ~o
        return out & self.full

    def interior(self, mask: int) -> int:
        out = 0
        for o in self.opens:
            if o & ~mask == 0:
                out |= o
        return out

    def subspace(self, carrier: int) -> "FinTopSpace":
        """The subspace on ``carrier``, relabelled to 0..k-1 in point order."""
        points = list(mask_iter(carrier))
        rank = {p: i for i, p in enumerate(points)}
        opens = set()
        for o in self.opens:
            opens.add(sum(1 << rank[p] for p in mask_iter(o & carrier)))
        return FinTopSpace(len(points), tuple(sorted(opens)))

    @cached_property
    def closures(self) -> tuple[int, ...]:
        return tuple(map(self.closure, range(1 << self.n)))

    @cached_property
    def subspaces(self) -> tuple["FinTopSpace", ...]:
        return tuple(map(self.subspace, range(1 << self.n)))


def minimal_neighbourhoods(space: FinTopSpace) -> tuple[int, ...]:
    """Per point, the meet of the opens that contain it."""
    out = []
    for x in range(space.n):
        nbhd = space.full
        for o in space.opens:
            if o >> x & 1:
                nbhd &= o
        out.append(nbhd)
    return tuple(out)


def space_of_neighbourhoods(nbhds: tuple[int, ...]) -> FinTopSpace:
    """The space whose opens are the sets containing the given minimal
    neighbourhood of each of their points."""
    opens = tuple(
        mask for mask in range(1 << len(nbhds))
        if all(nbhds[x] & ~mask == 0 for x in mask_iter(mask))
    )
    return FinTopSpace(len(nbhds), opens)


def discrete(n: int) -> FinTopSpace:
    return FinTopSpace(n, tuple(range(1 << n)))


def indiscrete(n: int) -> FinTopSpace:
    full = (1 << n) - 1
    return FinTopSpace(n, (0,) if n == 0 else (0, full))


SIERPINSKI = FinTopSpace(2, (0, 2, 3))      # open point 1
SIERPINSKI_OP = FinTopSpace(2, (0, 1, 3))   # open point 0


@lru_cache(maxsize=None)
def enumerate_topologies(n: int) -> tuple[FinTopSpace, ...]:
    """All labelled topologies on n points, by filtering open-set families.

    Cached: the sorted tuple is the ranking that ``space_name`` and the
    ``t3_..`` built-in names index, and the filter is exponential in 2^n.
    """
    full = (1 << n) - 1
    others = [m for m in range(1, full)] if n else []
    spaces = []
    for keep in itertools.chain.from_iterable(
        itertools.combinations(others, k) for k in range(len(others) + 1)
    ):
        opens = tuple(sorted({0, full, *keep}))
        candidate = set(opens)
        if all(a | b in candidate and a & b in candidate for a in opens for b in opens):
            spaces.append(FinTopSpace(n, opens))
    return tuple(sorted(spaces, key=lambda s: s.opens))


def enumerate_topologies_via_preorders(n: int) -> tuple[FinTopSpace, ...]:
    """Independent enumerator: reflexive-transitive relations, opens = up-sets."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    spaces = set()
    for choice in itertools.product((False, True), repeat=len(pairs)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), on in zip(pairs, choice):
            rel[i][j] = on
        if any(
            rel[i][j] and rel[j][k] and not rel[i][k]
            for i in range(n) for j in range(n) for k in range(n)
        ):
            continue
        opens = []
        for mask in range(1 << n):
            if all(
                rel[i][j] <= bool(mask >> j & 1)
                for i in mask_iter(mask) for j in range(n)
            ):
                opens.append(mask)
        spaces.add(FinTopSpace(n, tuple(sorted(opens))))
    return tuple(sorted(spaces, key=lambda s: s.opens))


_TWO_POINT_NAMES = {
    (0, 3): "indiscrete2",
    (0, 1, 3): "sierpinski_op",
    (0, 2, 3): "sierpinski",
    (0, 1, 2, 3): "discrete2",
}


def space_name(space: FinTopSpace) -> str:
    if space.n == 0:
        return "empty"
    if space.n == 1:
        return "pt"
    if space.n == 2:
        return _TWO_POINT_NAMES[space.opens]
    # ranks stop at 4 points: enumerate_topologies(5) would walk 2^30 families
    ranked = enumerate_topologies(space.n) if space.n <= 4 else ()
    try:
        return f"t{space.n}_{ranked.index(space):02d}"
    except ValueError:
        return f"s{space.n}_" + ".".join(map(str, space.opens))


def is_continuous(f: tuple[int, ...], dom: FinTopSpace, cod: FinTopSpace) -> bool:
    for o in cod.opens:
        pre = 0
        for x, fx in enumerate(f):
            if o >> fx & 1:
                pre |= 1 << x
        if not dom.is_open(pre):
            return False
    return True


def image_mask(f: tuple[int, ...], mask: int) -> int:
    out = 0
    for x, fx in enumerate(f):
        if mask >> x & 1:
            out |= 1 << fx
    return out


def preimage_mask(f: tuple[int, ...], mask: int) -> int:
    out = 0
    for x, fx in enumerate(f):
        if mask >> fx & 1:
            out |= 1 << x
    return out


def _mask_table(parts: Sequence[int]) -> tuple[int, ...]:
    """Per mask over the points 0..len(parts)-1, the union of ``parts[p]``
    over its points p.  The masks with point p are those before it, each
    plus p, so the table doubles once per point."""
    unions = [0]
    for part in parts:
        unions += [union | part for union in unions]
    return tuple(unions)


class _FinTopBackend:
    """Factorization and pullback construction for space fibrations, and
    the memos of ``map_predicates``.  Every memo holds masks, tuples and
    spaces only, never the fibration."""

    def __init__(self, spaces: tuple[FinTopSpace, ...], max_points: int):
        self.spaces = spaces
        self.max_points = max_points
        self.by_shape = {(s.n, s.opens): i for i, s in enumerate(spaces)}
        self.nbhds = tuple(minimal_neighbourhoods(s) for s in spaces)
        # pullback corner object per tuple of minimal-neighbourhood masks; a
        # corner topology is built and validated only on its first miss
        self.corners: dict[tuple[int, ...], int] = {}
        # a fibre relation's points (a_i, b_i), and per (object, coordinates)
        # the masks of one side of the corner's neighbourhoods
        self.points: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self.sides: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
        self.masks: dict[tuple[tuple[int, ...], int], tuple] = {}
        self.quotients: dict[tuple[FinTopSpace, int, tuple[int, ...]], tuple[int, ...]] = {}

    def mask_tables(self, graph: tuple[int, ...], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The image of every subset of the domain and the preimage of every
        subset of an ``n``-point codomain along ``graph``, indexed by mask."""
        tables = self.masks.get((graph, n))
        if tables is None:
            fibres = [0] * n
            for a, fa in enumerate(graph):
                fibres[fa] |= 1 << a
            tables = self.masks[graph, n] = (
                _mask_table([1 << fa for fa in graph]), _mask_table(fibres))
        return tables

    def quotient_opens(self, space: FinTopSpace, n: int, graph: tuple[int, ...]) -> tuple[int, ...]:
        """The opens of the quotient topology on ``n`` points along ``graph``
        from ``space``: the sets whose preimage is open."""
        key = (space, n, graph)
        opens = self.quotients.get(key)
        if opens is None:
            pre = self.mask_tables(graph, n)[1]
            opens = self.quotients[key] = tuple(v for v in range(1 << n) if pre[v] in space.open_set)
        return opens

    def _object_of(self, space: FinTopSpace) -> int:
        try:
            return self.by_shape[(space.n, space.opens)]
        except KeyError:
            raise CapabilityError(
                f"required {space.n}-point space is not an object of this fibration"
            ) from None

    def _morphism_of(self, fib, dom: int, cod: int, graph: tuple[int, ...]) -> int:
        f = fib.category.morphism_by_graph(dom, cod, graph)
        if f is None:
            raise CapabilityError("required continuous map is not in this fibration")
        return f

    def factorize(self, fib, f: int):
        cat = fib.category
        graph = cat.graphs[f]
        x, y = cat.mor_dom[f], cat.mor_cod[f]
        cod_space = self.spaces[y]
        image = image_mask(graph, (1 << self.spaces[x].n) - 1)
        mid_space = cod_space.subspace(image)
        mid = self._object_of(mid_space)
        points = list(mask_iter(image))
        rank = {p: i for i, p in enumerate(points)}
        e_graph = tuple(rank[v] for v in graph)
        m_graph = tuple(points)
        e = self._morphism_of(fib, x, mid, e_graph)
        m = self._morphism_of(fib, mid, y, m_graph)
        return e, m

    def pullback_legs(self, fib, dom_f: int, dom_p: int, relation: tuple[int, ...]):
        """(f', p') of the pullback of f along p, from dom f, dom p and the fibre
        relation R = {(a, b) : f(a) = p(b)} as the mask of each a's points b.

        The corner is R as a subspace of X x Y': point i = (a, b) has the
        neighbourhood (U_a x V_b) & R, the points j with a_j in U_a and b_j
        in V_b, that is the meet of one mask per side.  R's points (a_i, b_i)
        are memoised per relation, and each side's masks per (object,
        coordinate tuple)."""
        points = self.points.get(relation)
        if points is None:
            xs, ys = [], []  # the points (a, b) of R, in lexicographic order
            for a, bs in enumerate(relation):
                while bs:
                    xs.append(a)
                    ys.append((bs & -bs).bit_length() - 1)
                    bs &= bs - 1
            points = self.points[relation] = (tuple(xs), tuple(ys))
        xs, ys = points
        if len(xs) > self.max_points:
            raise CapabilityError(
                f"pullback carrier has {len(xs)} points, beyond this fibration's scale")
        key = tuple(map(and_, self._side_masks(dom_f, xs), self._side_masks(dom_p, ys)))
        if key not in self.corners:
            self.corners[key] = self._object_of(space_of_neighbourhoods(key))
        corner = self.corners[key]
        p_prime = self._morphism_of(fib, corner, dom_f, xs)
        return self._morphism_of(fib, corner, dom_p, ys), p_prime

    def _side_masks(self, x: int, coords: tuple[int, ...]) -> tuple[int, ...]:
        """Per index i, the indices j with ``coords[j]`` in the minimal
        neighbourhood of ``coords[i]`` in object x."""
        masks = self.sides.get((x, coords))
        if masks is None:
            within = [sum(1 << j for j, c in enumerate(coords) if u >> c & 1) for u in self.nbhds[x]]
            masks = self.sides[x, coords] = tuple(map(within.__getitem__, coords))
        return masks


def continuous_maps(
    dom_nbhds: tuple[int, ...], cod_nbhds: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """The graphs of the continuous maps between the spaces with these
    minimal neighbourhoods, in ``itertools.product`` order.

    f is continuous iff f(U_a) is inside V_f(a) for every point a, that is,
    iff f(b) is in V_f(a) whenever b is in U_a.  Points are assigned in
    order and values in ascending order, depth first; each point may take
    only the values that meet this condition with every earlier point, both
    ways round.
    """
    n, m = len(dom_nbhds), len(cod_nbhds)
    full = (1 << m) - 1
    # above[d]: the values c whose neighbourhood V_c contains d
    above = [sum(1 << c for c, v in enumerate(cod_nbhds) if v >> d & 1) for d in range(m)]
    # per point b, (a, allowed values of b per value of a) for each earlier
    # point a that b is tied to: b in U_a, or a in U_b
    checks = [
        [
            (a, tuple(
                (cod_nbhds[v] if dom_nbhds[a] >> b & 1 else full)
                & (above[v] if u >> a & 1 else full)
                for v in range(m)
            ))
            for a in range(b) if (dom_nbhds[a] >> b | u >> a) & 1
        ]
        for b, u in enumerate(dom_nbhds)
    ]
    # partial graphs still to extend; the smallest value is popped first
    pending = [()]
    while pending:
        graph = pending.pop()
        b = len(graph)
        if b == n:
            yield graph
            continue
        allowed = full
        for a, table in checks[b]:
            allowed &= table[graph[a]]
        for c in range(m - 1, -1, -1):
            if allowed >> c & 1:
                pending.append(graph + (c,))


def _complement_formula(img: tuple[int, ...], pre: tuple[int, ...]) -> tuple[int, ...]:
    """The right adjoint of preimage between powersets, from the image
    table: A goes to Y minus f(X minus A).  X minus A is the mask
    ``len(img) - 1 - A``, so ``img`` read backwards lists f(X minus A)."""
    full_y = len(pre) - 1
    return tuple(map(full_y.__xor__, reversed(img)))


def fintop_fibration(spaces, name: str = "fintop", object_names=None) -> SubobjectFibration:
    """The full subcategory on the given spaces with its surjection/embedding
    factorization; subobjects are powerset lattices, image/preimage are the
    set-theoretic ones."""
    spaces = tuple(spaces)
    names = list(object_names) if object_names is not None else [space_name(s) for s in spaces]
    if len(names) != len(spaces):
        raise PreconditionError("object name count differs from space count")
    if len(set(names)) != len(names):
        raise PreconditionError("duplicate spaces in fibration")
    backend = _FinTopBackend(spaces, max((s.n for s in spaces), default=0))
    nbhds = backend.nbhds
    category = concrete_category(
        names, [s.n for s in spaces], lambda x, y: continuous_maps(nbhds[x], nbhds[y]),
        MAX_MORPHISMS, "continuous maps",
    )

    lattices = {}
    sub = []
    for s in spaces:
        if s.n not in lattices:
            lattices[s.n] = FiniteLattice.powerset(s.n)
        sub.append(lattices[s.n])

    def embeddings(cat):
        """Injective maps whose domain topology is exactly the pulled-back one."""
        for m, (x, y, graph) in enumerate(zip(cat.mor_dom, cat.mor_cod, cat.graphs)):
            if len(set(graph)) == spaces[x].n and spaces[x].open_set == {
                preimage_mask(graph, o) for o in spaces[y].opens
            }:
                yield m

    # right adjoint of preimage: the complement formula, verified generically
    return subset_fibration(
        category, sub, [tuple(range(1 << s.n)) for s in spaces], embeddings(category),
        fstar_formula=_complement_formula, backend=backend, name=name,
    )


def fintop_upto(n: int) -> SubobjectFibration:
    """All labelled topologies on at most n points (including the empty space)."""
    spaces = []
    for k in range(n + 1):
        spaces.extend(enumerate_topologies(k))
    return fintop_fibration(spaces, name=f"fintop{n}")


# ---------------------------------------------------------------------------
# built-in orders


def spaces_of(fib: SubobjectFibration) -> tuple[FinTopSpace, ...]:
    """The space of each object of a finite-space fibration."""
    if not isinstance(fib.backend, _FinTopBackend):
        raise DomainError("not a finite-space fibration")
    return fib.backend.spaces


def closure_order(fib: SubobjectFibration):
    """m related to n iff the topological closure of m is inside n: the
    order of the spaces' closure operator."""
    return topogenous_from_closure(
        ClosureOperator(fib, tuple(s.closures for s in spaces_of(fib))))


def interior_order(fib: SubobjectFibration):
    """m related to n iff m is inside the topological interior of n: the
    order of the spaces' interior operator."""
    return topogenous_from_interior(InteriorOperator(fib, tuple(
        tuple(map(s.interior, range(1 << s.n))) for s in spaces_of(fib))))


# ---------------------------------------------------------------------------
# set-level predicates, independent of the lattice machinery


@dataclass(frozen=True)
class MapPredicates:
    open: bool
    closed: bool
    initial_topology: bool
    hereditary_quotient: bool


def map_predicates(fib: SubobjectFibration, f: int) -> MapPredicates:
    """``map_predicates_by_graph`` of the morphism f."""
    cat = fib.category
    return map_predicates_by_graph(fib, cat.mor_dom[f], cat.mor_cod[f], cat.graphs[f])


def predicate_transport(fib: SubobjectFibration) -> Sequence[int]:
    """Per morphism f, the morphism whose ``map_predicates`` are f's.
    Being open, closed, initial or a hereditary quotient is read on the
    spaces and the graph alone, so it moves along homeomorphisms at either
    end: f reads the head of its orbit (``site.stand_ins``) when the graph
    of each generator of the category's symmetry carries the opens of its
    source onto the opens of its target, f itself otherwise."""
    spaces = spaces_of(fib)
    graphs = fib.category.graphs

    def homeomorphic(u, source, target):
        opens = {image_mask(graphs[u], v) for v in spaces[source].opens}
        return opens == spaces[target].open_set

    return stand_ins(fib.category, homeomorphic)


def map_predicates_by_graph(
    fib: SubobjectFibration, x: int, y: int, graph: tuple[int, ...]
) -> MapPredicates:
    """Whether the map x -> y with this graph is open, closed, initial and a
    hereditary quotient, read on the spaces and the graph alone.

    Images and preimages come from the graph's mask tables (the backend's
    ``mask_tables``), built from the graph and never from ``fib.img`` or
    ``fib.pre``, so this oracle stays independent of the lattice tables it
    is checked against.  A map is a hereditary quotient when it is onto and each
    restriction to the preimage of a subset A of the codomain carries the
    quotient topology of the subspace A; the quotient opens are memoised per
    (subspace, size of A, restricted graph).
    """
    spaces = spaces_of(fib)
    backend = fib.backend
    dom, cod = spaces[x], spaces[y]
    img, pre = backend.mask_tables(graph, cod.n)
    is_open = cod.open_set.issuperset(map(img.__getitem__, dom.opens))
    closed_images = [img[dom.full ^ u] for u in dom.opens]
    is_closed = list(map(cod.closures.__getitem__, closed_images)) == closed_images
    initial = tuple(map(pre.__getitem__, map(cod.closures.__getitem__, img))) == dom.closures
    hered = img[dom.full] == cod.full  # onto
    if hered:
        for a_mask in range(1 << cod.n):
            s_mask = pre[a_mask]
            rank = {p: i for i, p in enumerate(mask_iter(a_mask))}
            restricted = tuple(rank[graph[p]] for p in mask_iter(s_mask))
            quotient = backend.quotient_opens(dom.subspaces[s_mask], len(rank), restricted)
            if quotient != cod.subspaces[a_mask].opens:
                hered = False
                break
    return MapPredicates(is_open, is_closed, initial, hered)


# ---------------------------------------------------------------------------
# reflection and coreflection


def t0_quotient_classes(space: FinTopSpace) -> list[int]:
    """Partition of points by equal singleton closures, as sorted masks."""
    closures = [space.closure(1 << x) for x in range(space.n)]
    classes = {}
    for x in range(space.n):
        classes.setdefault(closures[x], 0)
        classes[closures[x]] |= 1 << x
    return sorted(classes.values(), key=lambda m: next(mask_iter(m)))


def _pointwise(fib: SubobjectFibration, kind: str, target, missing: str) -> Endofunctor:
    """The ``kind`` endofunctor with F x the object of space S and F f: q_x(a)
    |-> q_y(f(a)), where ``target`` maps the space of x to (S, point map q_x).
    The unit x -> F x is q_x, the counit F x -> x is q_x inverted.  A missing
    F x raises with ``missing`` formatted with the name of x."""
    spaces = spaces_of(fib)
    backend = fib.backend
    cat = fib.category
    obj_map, point_maps, components = [], [], []
    for x, s in enumerate(spaces):
        space, q = target(s)
        try:
            fx = backend._object_of(space)
        except CapabilityError:
            raise PreconditionError(missing.format(cat.object_names[x])) from None
        obj_map.append(fx)
        point_maps.append(q)
        if kind == "pointed":
            components.append(backend._morphism_of(fib, x, fx, q))
        else:
            inverse = tuple(sorted(range(s.n), key=q.__getitem__))
            components.append(backend._morphism_of(fib, fx, x, inverse))
    mor_map = []
    for f, graph in enumerate(cat.graphs):
        x, y = cat.mor_dom[f], cat.mor_cod[f]
        qy = point_maps[y]
        ff_graph = [0] * spaces[obj_map[x]].n
        for a, fa in zip(point_maps[x], graph):
            ff_graph[a] = qy[fa]
        mor_map.append(backend._morphism_of(fib, obj_map[x], obj_map[y], tuple(ff_graph)))
    return Endofunctor(fib, kind, tuple(obj_map), tuple(mor_map), tuple(components))


def _t0_quotient(s: FinTopSpace) -> tuple[FinTopSpace, tuple[int, ...]]:
    """The quotient by equal singleton closures, and each point's class."""
    classes = t0_quotient_classes(s)
    point_class = [0] * s.n
    for ci, cmask in enumerate(classes):
        for pnt in mask_iter(cmask):
            point_class[pnt] = ci
    q = tuple(point_class)
    opens = tuple(v for v in range(1 << len(classes)) if s.is_open(preimage_mask(q, v)))
    return FinTopSpace(len(classes), opens), q


def t0_reflection(fib: SubobjectFibration) -> Endofunctor:
    """The point-identification reflection: quotient by equal singleton closures.

    Every object's quotient space must already be an object of the fibration.
    """
    return _pointwise(
        fib, "pointed", _t0_quotient,
        "fibration is not closed under point-identification quotients "
        "(missing the quotient of {})",
    )


def discrete_coreflection(fib: SubobjectFibration) -> Endofunctor:
    """Discretization: counit is the identity function from the discrete space.

    Every object's discretization must already be an object of the fibration.
    """
    return _pointwise(
        fib, "copointed", lambda s: (discrete(s.n), tuple(range(s.n))),
        "fibration is not closed under discretization "
        "(missing the discrete space on {})",
    )
