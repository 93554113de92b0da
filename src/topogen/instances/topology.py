"""Finite topological spaces: enumeration, fibrations, set-level predicates,
the identify-points reflection and the discretization coreflection.

Points of an n-point space are 0..n-1; subsets are bitmasks; a topology is
the sorted tuple of its open masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from ..errors import CapabilityError, DomainError, PreconditionError, ResourceCapError
from ..lattice import FiniteLattice, mask_iter
from ..constructions import CopointedEndofunctor, PointedEndofunctor
from ..site import FiniteCategory, PullbackSquare, SubobjectFibration


@dataclass(frozen=True)
class FinTopSpace:
    n: int
    opens: tuple[int, ...]   # sorted masks; contains 0 and the full mask

    def __post_init__(self):
        full = (1 << self.n) - 1
        if 0 not in self.opens or full not in self.opens:
            raise PreconditionError("opens must contain the empty set and the whole space")
        if tuple(sorted(set(self.opens))) != self.opens:
            raise PreconditionError("opens must be sorted and duplicate-free")
        open_set = set(self.opens)
        for a in self.opens:
            for b in self.opens:
                if a | b not in open_set or a & b not in open_set:
                    raise PreconditionError("opens are not closed under union/intersection")

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def is_open(self, mask: int) -> bool:
        return mask in set(self.opens)

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


def enumerate_topologies(n: int) -> tuple[FinTopSpace, ...]:
    """All labelled topologies on n points, by filtering open-set families."""
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
    ranked = enumerate_topologies(space.n)
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
    for x in mask_iter(mask):
        out |= 1 << f[x]
    return out


def preimage_mask(f: tuple[int, ...], mask: int) -> int:
    out = 0
    for x, fx in enumerate(f):
        if mask >> fx & 1:
            out |= 1 << x
    return out


def morphism_name(dom_name: str, cod_name: str, graph: tuple[int, ...], is_id: bool) -> str:
    if is_id:
        return f"id_{dom_name}"
    digits = "".join(map(str, graph)) or "-"
    return f"{dom_name}>{cod_name}:{digits}"


class _FinTopBackend:
    """Factorization and pullback construction for space fibrations."""

    def __init__(self, spaces: tuple[FinTopSpace, ...], max_points: int):
        self.spaces = spaces
        self.max_points = max_points
        self.by_shape = {(s.n, s.opens): i for i, s in enumerate(spaces)}
        self.nbhds = tuple(minimal_neighbourhoods(s) for s in spaces)
        # pullback corner object per tuple of minimal-neighbourhood masks; a
        # corner topology is built and validated only on its first miss
        self.corners: dict[tuple[int, ...], int] = {}

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

    def pullback(self, fib, f: int, p: int) -> PullbackSquare:
        cat = fib.category
        xf, yp = cat.mor_dom[f], cat.mor_dom[p]
        gf, gp = cat.graphs[f], cat.graphs[p]
        nx, nyp = self.nbhds[xf], self.nbhds[yp]
        carrier = [
            (a, b) for a in range(len(gf)) for b in range(len(gp)) if gf[a] == gp[b]
        ]
        if len(carrier) > self.max_points:
            raise CapabilityError(
                f"pullback carrier has {len(carrier)} points, beyond this fibration's scale"
            )
        # subspace of the product topology: (a, b) has the minimal
        # neighbourhood (U_a x V_b) restricted to the carrier
        key = []
        for a, b in carrier:
            u, v = nx[a], nyp[b]
            nbhd = 0
            for i, (c, d) in enumerate(carrier):
                if u >> c & 1 and v >> d & 1:
                    nbhd |= 1 << i
            key.append(nbhd)
        key = tuple(key)
        corner = self.corners.get(key)
        if corner is None:
            corner = self._object_of(space_of_neighbourhoods(key))
            self.corners[key] = corner
        p_prime = self._morphism_of(
            fib, corner, xf, tuple(a for a, _ in carrier)
        )
        f_prime = self._morphism_of(
            fib, corner, yp, tuple(b for _, b in carrier)
        )
        return PullbackSquare(fib, f_prime=f_prime, p=p, p_prime=p_prime, f=f)


def fintop_fibration(
    spaces,
    name: str = "fintop",
    max_morphisms: int = 200_000,
    object_names=None,
) -> SubobjectFibration:
    """The full subcategory on the given spaces with its surjection/embedding
    factorization; subobjects are powerset lattices, image/preimage are the
    set-theoretic ones."""
    spaces = tuple(spaces)
    names = list(object_names) if object_names is not None else [space_name(s) for s in spaces]
    if len(names) != len(spaces):
        raise PreconditionError("object name count differs from space count")
    if len(set(names)) != len(names):
        raise PreconditionError("duplicate spaces in fibration")
    max_points = max((s.n for s in spaces), default=0)

    mor_dom, mor_cod, graphs, mor_names = [], [], [], []
    identities = [-1] * len(spaces)
    for xi, xs in enumerate(spaces):
        for yi, ys in enumerate(spaces):
            for graph in itertools.product(range(ys.n), repeat=xs.n):
                if not is_continuous(graph, xs, ys):
                    continue
                if len(mor_dom) >= max_morphisms:
                    raise ResourceCapError(
                        f"more than {max_morphisms} continuous maps", len(mor_dom)
                    )
                is_id = xi == yi and graph == tuple(range(xs.n))
                if is_id:
                    identities[xi] = len(mor_dom)
                mor_dom.append(xi)
                mor_cod.append(yi)
                graphs.append(graph)
                mor_names.append(morphism_name(names[xi], names[yi], graph, is_id))

    category = FiniteCategory(
        object_names=names,
        mor_dom=mor_dom,
        mor_cod=mor_cod,
        mor_names=mor_names,
        identities=identities,
        graphs=graphs,
    )
    lattices = {}
    sub = []
    for s in spaces:
        if s.n not in lattices:
            lattices[s.n] = FiniteLattice.powerset(s.n)
        sub.append(lattices[s.n])

    img, pre, fstar = [], [], []
    for m in range(category.n_morphisms):
        graph = graphs[m]
        nx = spaces[mor_dom[m]].n
        img.append(tuple(image_mask(graph, mask) for mask in range(1 << nx)))
        ny = spaces[mor_cod[m]].n
        pre.append(tuple(preimage_mask(graph, mask) for mask in range(1 << ny)))
        # right adjoint of preimage: the complement formula, verified generically
        full_x = (1 << nx) - 1
        full_y = (1 << ny) - 1
        fstar.append(tuple(
            full_y & ~image_mask(graph, full_x & ~a) for a in range(1 << nx)
        ))

    eclass = frozenset(
        m for m in range(category.n_morphisms)
        if image_mask(graphs[m], (1 << spaces[mor_dom[m]].n) - 1)
        == (1 << spaces[mor_cod[m]].n) - 1
    )
    # embeddings: injective and the domain topology is exactly the pulled-back one
    mclass = frozenset(
        m for m in range(category.n_morphisms)
        if len(set(graphs[m])) == spaces[mor_dom[m]].n
        and set(spaces[mor_dom[m]].opens)
        == {preimage_mask(graphs[m], o) for o in spaces[mor_cod[m]].opens}
    )

    fib = SubobjectFibration(
        category=category,
        sub=sub,
        img=img,
        pre=pre,
        eclass=eclass,
        mclass=mclass,
        e_pullback_stable=True,
        fstar=fstar,
        backend=_FinTopBackend(spaces, max_points),
        name=name,
    )
    fib.spaces = spaces
    return fib


@lru_cache(maxsize=None)
def fintop_upto(n: int) -> SubobjectFibration:
    """All labelled topologies on at most n points (including the empty space)."""
    spaces = []
    for k in range(n + 1):
        spaces.extend(enumerate_topologies(k))
    return fintop_fibration(spaces, name=f"fintop{n}")


# ---------------------------------------------------------------------------
# built-in orders


def spaces_of(fib: SubobjectFibration) -> tuple[FinTopSpace, ...]:
    spaces = getattr(fib, "spaces", None)
    if spaces is None:
        raise DomainError("not a finite-space fibration")
    return spaces


def closure_order(fib: SubobjectFibration):
    """m related to n iff the topological closure of m is inside n."""
    from ..structures import TopogenousOrder

    spaces = spaces_of(fib)
    rel = tuple(
        tuple(fib.sub[x].up[s.closure(m)] for m in range(1 << s.n))
        for x, s in enumerate(spaces)
    )
    return TopogenousOrder(fib, rel)


def interior_order(fib: SubobjectFibration):
    """m related to n iff m is inside the topological interior of n."""
    from ..structures import TopogenousOrder

    spaces = spaces_of(fib)
    rel = []
    for x, s in enumerate(spaces):
        rows = [0] * (1 << s.n)
        for n in range(1 << s.n):
            i = s.interior(n)
            for m in range(1 << s.n):
                if m & ~i == 0:
                    rows[m] |= 1 << n
        rel.append(tuple(rows))
    return TopogenousOrder(fib, tuple(rel))


# ---------------------------------------------------------------------------
# set-level predicates, independent of the lattice machinery


@dataclass(frozen=True)
class MapPredicates:
    open: bool
    closed: bool
    initial_topology: bool
    hereditary_quotient: bool


def map_predicates(fib: SubobjectFibration, f: int) -> MapPredicates:
    spaces = spaces_of(fib)
    cat = fib.category
    graph = cat.graphs[f]
    dom, cod = spaces[cat.mor_dom[f]], spaces[cat.mor_cod[f]]

    is_open = all(cod.is_open(image_mask(graph, u)) for u in dom.opens)
    closed_sets_dom = [dom.full & ~u for u in dom.opens]
    is_closed = all(
        cod.closure(image_mask(graph, c)) == image_mask(graph, c) for c in closed_sets_dom
    )
    initial = all(
        dom.closure(a) == preimage_mask(graph, cod.closure(image_mask(graph, a)))
        for a in range(1 << dom.n)
    )
    surjective = image_mask(graph, dom.full) == cod.full
    hered = surjective
    if surjective:
        for a_mask in range(1 << cod.n):
            s_mask = preimage_mask(graph, a_mask)
            sub_dom = dom.subspace(s_mask)
            sub_cod = cod.subspace(a_mask)
            dom_points = list(mask_iter(s_mask))
            cod_points = {p: i for i, p in enumerate(mask_iter(a_mask))}
            restricted = tuple(cod_points[graph[p]] for p in dom_points)
            quotient_opens = tuple(sorted(
                v for v in range(1 << sub_cod.n)
                if sub_dom.is_open(preimage_mask(restricted, v))
            ))
            if quotient_opens != sub_cod.opens:
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


def t0_reflection(fib: SubobjectFibration) -> PointedEndofunctor:
    """The point-identification reflection: quotient by equal singleton closures.

    Every object's quotient space must already be an object of the fibration.
    """
    spaces = spaces_of(fib)
    backend = fib.backend
    cat = fib.category
    obj_map = []
    unit = []
    class_index = []
    for x, s in enumerate(spaces):
        classes = t0_quotient_classes(s)
        point_class = [0] * s.n
        for ci, cmask in enumerate(classes):
            for pnt in mask_iter(cmask):
                point_class[pnt] = ci
        eta_graph = tuple(point_class)
        q_opens = tuple(sorted(
            v for v in range(1 << len(classes))
            if s.is_open(preimage_mask(eta_graph, v))
        ))
        q_space = FinTopSpace(len(classes), q_opens)
        try:
            fx = backend._object_of(q_space)
        except CapabilityError:
            raise PreconditionError(
                f"fibration is not closed under point-identification quotients "
                f"(missing the quotient of {cat.object_names[x]})"
            ) from None
        obj_map.append(fx)
        unit.append(backend._morphism_of(fib, x, fx, eta_graph))
        class_index.append(point_class)
    mor_map = []
    for f in range(cat.n_morphisms):
        x, y = cat.mor_dom[f], cat.mor_cod[f]
        graph = cat.graphs[f]
        n_classes = len(t0_quotient_classes(spaces[x]))
        ff_graph = [0] * n_classes
        for pnt in range(spaces[x].n):
            ff_graph[class_index[x][pnt]] = class_index[y][graph[pnt]]
        mor_map.append(backend._morphism_of(fib, obj_map[x], obj_map[y], tuple(ff_graph)))
    return PointedEndofunctor(fib, tuple(obj_map), tuple(mor_map), tuple(unit))


def discrete_coreflection(fib: SubobjectFibration) -> CopointedEndofunctor:
    """Discretization: counit is the identity function from the discrete space.

    Every object's discretization must already be an object of the fibration.
    """
    spaces = spaces_of(fib)
    backend = fib.backend
    cat = fib.category
    obj_map = []
    counit = []
    for x, s in enumerate(spaces):
        try:
            gx = backend._object_of(discrete(s.n))
        except CapabilityError:
            raise PreconditionError(
                f"fibration is not closed under discretization "
                f"(missing the discrete space on {cat.object_names[x]})"
            ) from None
        obj_map.append(gx)
        counit.append(backend._morphism_of(fib, gx, x, tuple(range(s.n))))
    mor_map = []
    for f in range(cat.n_morphisms):
        x, y = cat.mor_dom[f], cat.mor_cod[f]
        mor_map.append(backend._morphism_of(fib, obj_map[x], obj_map[y], cat.graphs[f]))
    return CopointedEndofunctor(fib, tuple(obj_map), tuple(mor_map), tuple(counit))
