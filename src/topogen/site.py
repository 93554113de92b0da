"""Finite categories with subobject fibrations.

A :class:`SubobjectFibration` is a finite category together with, per object,
a finite bounded lattice of subobjects and, per morphism, an image/preimage
adjoint pair (plus the right adjoint of preimage where it exists), and the
two morphism classes of a proper factorization system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import CapabilityError, DomainError, InternalConsistencyError, ResourceCapError
from .lattice import FiniteLattice, MonotoneMap, mask_iter, right_adjoint_of
from .reporting import Report, Violation


class FiniteCategory:
    """A finite category with explicitly tabulated morphisms.

    Composition comes either from an explicit partial table keyed by
    (g, f) |-> g∘f, or from per-morphism function graphs (concrete
    categories of structured finite sets), which is the same table stored
    compactly.
    """

    def __init__(
        self,
        object_names: Sequence[str],
        mor_dom: Sequence[int],
        mor_cod: Sequence[int],
        mor_names: Sequence[str],
        identities: Sequence[int],
        compose_table: Optional[dict[tuple[int, int], int]] = None,
        graphs: Optional[Sequence[tuple[int, ...]]] = None,
    ):
        self.object_names = tuple(object_names)
        self.mor_dom = tuple(mor_dom)
        self.mor_cod = tuple(mor_cod)
        self.mor_names = tuple(mor_names)
        self.identities = tuple(identities)
        self.graphs = tuple(graphs) if graphs is not None else None
        self._compose_table = dict(compose_table) if compose_table is not None else None
        self._by_graph = {
            (self.mor_dom[i], self.mor_cod[i], graph): i
            for i, graph in enumerate(self.graphs or ())
        }
        self._name_index = {name: i for i, name in enumerate(self.mor_names)}
        self.morphisms_from = tuple(
            tuple(i for i in range(self.n_morphisms) if self.mor_dom[i] == x)
            for x in range(self.n_objects)
        )
        self.morphisms_to = tuple(
            tuple(i for i in range(self.n_morphisms) if self.mor_cod[i] == x)
            for x in range(self.n_objects)
        )

    @property
    def n_objects(self) -> int:
        return len(self.object_names)

    @property
    def n_morphisms(self) -> int:
        return len(self.mor_dom)

    def is_identity(self, f: int) -> bool:
        return self.identities[self.mor_dom[f]] == f

    def compose(self, g: int, f: int) -> int:
        """g∘f, defined when cod f == dom g."""
        if self.mor_cod[f] != self.mor_dom[g]:
            raise DomainError(
                f"morphisms {self.mor_names[g]} and {self.mor_names[f]} are not composable"
            )
        if self._compose_table is not None:
            try:
                return self._compose_table[(g, f)]
            except KeyError:
                raise InternalConsistencyError(
                    f"composition table is missing {self.mor_names[g]} o {self.mor_names[f]}"
                ) from None
        composed = tuple(map(self.graphs[g].__getitem__, self.graphs[f]))
        key = (self.mor_dom[f], self.mor_cod[g], composed)
        try:
            return self._by_graph[key]
        except KeyError:
            raise InternalConsistencyError(
                f"category is not closed under composition at {self.mor_names[g]} o {self.mor_names[f]}"
            ) from None

    def morphism_by_graph(self, dom: int, cod: int, graph: tuple[int, ...]) -> Optional[int]:
        """The morphism dom -> cod with this function graph, or None."""
        return self._by_graph.get((dom, cod, graph))

    def morphism_index(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise DomainError(f"no morphism named {name!r}") from None

    def object_index(self, name: str) -> int:
        try:
            return self.object_names.index(name)
        except ValueError:
            raise DomainError(f"no object named {name!r}") from None

    def isomorphisms(self) -> frozenset[int]:
        isos = set()
        for f in range(self.n_morphisms):
            x, y = self.mor_dom[f], self.mor_cod[f]
            for g in self.morphisms_from[y]:
                if self.mor_cod[g] != x:
                    continue
                if (
                    self.compose(g, f) == self.identities[x]
                    and self.compose(f, g) == self.identities[y]
                ):
                    isos.add(f)
                    break
        return frozenset(isos)

    def composable_pairs(self):
        """All (g, f) with cod f == dom g, in deterministic order."""
        for f in range(self.n_morphisms):
            for g in self.morphisms_from[self.mor_cod[f]]:
                yield g, f


def concrete_category(
    names: Sequence[str],
    sizes: Sequence[int],
    homs: Callable[[int, int], Iterable[tuple[int, ...]]],
    max_morphisms: Optional[int] = None,
    what: str = "maps",
) -> FiniteCategory:
    """The category on the named objects whose morphisms x -> y are the
    function graphs ``homs(x, y)`` yields, in (x, y) order.

    The identity of x is the graph ``(0, ..., sizes[x] - 1)``, named
    ``id_<x>``; any other morphism is named ``<x>><y>:<graph digits>``
    (``-`` for the empty graph).  More than ``max_morphisms`` morphisms
    raise ``ResourceCapError`` ("more than <max_morphisms> <what>").
    """
    mor_dom, mor_cod, graphs, mor_names = [], [], [], []
    identities = [-1] * len(names)
    for x, dom in enumerate(names):
        ident = tuple(range(sizes[x]))
        for y, cod in enumerate(names):
            for graph in homs(x, y):
                if max_morphisms is not None and len(graphs) >= max_morphisms:
                    raise ResourceCapError(f"more than {max_morphisms} {what}", len(graphs))
                if x == y and graph == ident:
                    identities[x] = len(graphs)
                    mor_names.append(f"id_{dom}")
                else:
                    mor_names.append(f"{dom}>{cod}:" + ("".join(map(str, graph)) or "-"))
                mor_dom.append(x)
                mor_cod.append(y)
                graphs.append(graph)
    return FiniteCategory(names, mor_dom, mor_cod, mor_names, identities, graphs=graphs)


def validate_category(cat: FiniteCategory, associativity: bool = True) -> Report:
    violations = []
    checked = 0
    for x in range(cat.n_objects):
        i = cat.identities[x]
        checked += 1
        if cat.mor_dom[i] != x or cat.mor_cod[i] != x:
            violations.append(Violation("identity-endo", where=cat.object_names[x]))
    for g, f in cat.composable_pairs():
        checked += 1
        h = cat.compose(g, f)
        if cat.mor_dom[h] != cat.mor_dom[f] or cat.mor_cod[h] != cat.mor_cod[g]:
            violations.append(
                Violation("composition-typing", witness=(cat.mor_names[g], cat.mor_names[f]))
            )
        if cat.is_identity(g) and h != f:
            violations.append(Violation("identity-neutral-left", witness=(cat.mor_names[f],)))
        if cat.is_identity(f) and h != g:
            violations.append(Violation("identity-neutral-right", witness=(cat.mor_names[g],)))
    if associativity:
        for g, f in cat.composable_pairs():
            for h in cat.morphisms_from[cat.mor_cod[g]]:
                checked += 1
                if cat.compose(cat.compose(h, g), f) != cat.compose(h, cat.compose(g, f)):
                    violations.append(
                        Violation(
                            "associativity",
                            witness=(cat.mor_names[h], cat.mor_names[g], cat.mor_names[f]),
                        )
                    )
    return Report("category", checked, tuple(violations))


class SubobjectFibration:
    """Category + subobject lattices + image/preimage adjoints + (E, M)."""

    def __init__(
        self,
        category: FiniteCategory,
        sub: Sequence[FiniteLattice],
        img: Sequence[tuple[int, ...]],
        pre: Sequence[tuple[int, ...]],
        eclass: frozenset[int],
        mclass: frozenset[int],
        e_pullback_stable: bool = True,
        fstar: Optional[Sequence[Optional[tuple[int, ...]]]] = None,
        backend=None,
        name: str = "fibration",
    ):
        self.category = category
        self.sub = tuple(sub)
        self.img = tuple(img)
        self.pre = tuple(pre)
        self.eclass = frozenset(eclass)
        self.mclass = frozenset(mclass)
        self.e_pullback_stable = e_pullback_stable
        self.backend = backend
        self.name = name
        if fstar is None:
            fstar = [self._compute_fstar(f) for f in range(category.n_morphisms)]
        self.fstar = tuple(fstar)

    def _compute_fstar(self, f: int) -> Optional[tuple[int, ...]]:
        upper = self.pre_map(f)
        adj = right_adjoint_of(upper)
        return adj.table if adj is not None else None

    # -- object/morphism helpers -------------------------------------------
    def dom(self, f: int) -> int:
        return self.category.mor_dom[f]

    def cod(self, f: int) -> int:
        return self.category.mor_cod[f]

    def sub_dom(self, f: int) -> FiniteLattice:
        return self.sub[self.dom(f)]

    def sub_cod(self, f: int) -> FiniteLattice:
        return self.sub[self.cod(f)]

    def pre_map(self, f: int) -> MonotoneMap:
        return MonotoneMap(self.sub_cod(f), self.sub_dom(f), self.pre[f])

    def preimage_join_commuting(self) -> bool:
        """True iff every morphism's preimage preserves all joins."""
        return all(t is not None for t in self.fstar)


def intern(tables) -> tuple[list[int], dict]:
    """Number the distinct tables in order of first occurrence.

    Returns each table's id, and the index from table to id.
    """
    index: dict = {}
    return [index.setdefault(t, len(index)) for t in tables], index


def validate_fibration(fib: SubobjectFibration, functoriality: bool = True) -> Report:
    """Exhaustive invariant scan; reports all violations with witnesses."""
    cat = fib.category
    violations = []
    checked = 0
    for f in range(cat.n_morphisms):
        lx, ly = fib.sub_dom(f), fib.sub_cod(f)
        img, pre = fib.img[f], fib.pre[f]
        name = cat.mor_names[f]
        if len(img) != lx.size or len(pre) != ly.size:
            violations.append(Violation("table-size", where=name))
            continue
        for i in range(lx.size):
            for j in mask_iter(lx.up[i]):
                checked += 1
                if not ly.leq(img[i], img[j]):
                    violations.append(
                        Violation("image-monotone", where=name, witness=(lx.labels[i], lx.labels[j]))
                    )
        for i in range(ly.size):
            for j in mask_iter(ly.up[i]):
                checked += 1
                if not lx.leq(pre[i], pre[j]):
                    violations.append(
                        Violation("preimage-monotone", where=name, witness=(ly.labels[i], ly.labels[j]))
                    )
        for m in range(lx.size):
            for n in range(ly.size):
                checked += 1
                if ly.leq(img[m], n) != lx.leq(m, pre[n]):
                    violations.append(
                        Violation("adjunction", where=name, witness=(lx.labels[m], ly.labels[n]))
                    )
                    break
            else:
                continue
            break
        if f in fib.mclass:
            for m in range(lx.size):
                checked += 1
                if pre[img[m]] != m:
                    violations.append(
                        Violation("m-preimage-section", where=name, witness=(lx.labels[m],))
                    )
        if f in fib.eclass and fib.e_pullback_stable:
            for n in range(ly.size):
                checked += 1
                if img[pre[n]] != n:
                    violations.append(
                        Violation("e-image-retraction", where=name, witness=(ly.labels[n],))
                    )
    for x in range(cat.n_objects):
        i = cat.identities[x]
        checked += 1
        ident = tuple(range(fib.sub[x].size))
        if fib.img[i] != ident or fib.pre[i] != ident:
            violations.append(Violation("identity-adjoints", where=cat.object_names[x]))
    if functoriality:
        checked += sum(len(cat.morphisms_from[y]) for y in cat.mor_cod)
        violations.extend(_functoriality_violations(fib))
    return Report(f"fibration {fib.name}", checked, tuple(violations))


def _functoriality_violations(fib: SubobjectFibration) -> list[Violation]:
    """Image and preimage functoriality over every composable pair.

    Morphisms out of an object that share their graph and both tables have
    the same composite tables with any f, so each such bucket is composed
    once per f; each member's composite h is then compared by table id.
    """
    cat = fib.category
    img, pre, graphs = fib.img, fib.pre, cat.graphs
    # the private dict, not morphism_by_graph: one lookup per composable
    # pair (4.4 M at medium scale), where a method call each would cost time
    by_graph, cod = cat._by_graph, cat.mor_cod
    img_id, img_index = intern(img)
    pre_id, pre_index = intern(pre)
    by_table = cat._compose_table is not None
    found = []  # (f, g, law) for each violated law
    for y in range(cat.n_objects):
        buckets: dict = {}
        for g in cat.morphisms_from[y]:
            key = g if by_table else (graphs[g], img_id[g], pre_id[g])
            buckets.setdefault(key, []).append(g)
        for f in cat.morphisms_to[y]:
            x, img_f, pre_f = cat.mor_dom[f], img[f], pre[f]
            for members in buckets.values():
                g0 = members[0]
                img_h = img_index.get(tuple(map(img[g0].__getitem__, img_f)), -1)
                pre_h = pre_index.get(tuple(map(pre_f.__getitem__, pre[g0])), -1)
                if not by_table:
                    graph = tuple(map(graphs[g0].__getitem__, graphs[f]))
                for g in members:
                    if by_table:
                        h = cat.compose(g, f)
                    else:
                        h = by_graph.get((x, cod[g], graph))
                        if h is None:
                            cat.compose(g, f)  # raises, naming the missing composite
                    if img_id[h] != img_h:
                        found.append((f, g, 0))
                    if pre_id[h] != pre_h:
                        found.append((f, g, 1))
    # composable_pairs order: f, then g, then image before preimage
    found.sort()
    names = cat.mor_names
    laws = ("image-functorial", "preimage-functorial")
    return [Violation(laws[law], where=f"{names[g]} o {names[f]}") for f, g, law in found]


@dataclass(frozen=True)
class PullbackSquare:
    """A commuting square p∘f' = f∘p' with f': X'->Y', p: Y'->Y, p': X'->X, f: X->Y."""

    fib: SubobjectFibration
    f_prime: int
    p: int
    p_prime: int
    f: int

    def __post_init__(self):
        cat = self.fib.category
        if cat.mor_dom[self.f_prime] != cat.mor_dom[self.p_prime]:
            raise DomainError("square corners do not align at X'")
        if cat.mor_cod[self.f_prime] != cat.mor_dom[self.p]:
            raise DomainError("square corners do not align at Y'")
        if cat.mor_cod[self.p_prime] != cat.mor_dom[self.f]:
            raise DomainError("square corners do not align at X")
        if cat.mor_cod[self.p] != cat.mor_cod[self.f]:
            raise DomainError("square corners do not align at Y")
        if cat.compose(self.p, self.f_prime) != cat.compose(self.f, self.p_prime):
            raise DomainError("square does not commute")

    @property
    def name(self) -> str:
        """``square[f',p,p',f]`` with the four morphism names."""
        names = self.fib.category.mor_names
        corners = (self.f_prime, self.p, self.p_prime, self.f)
        return f"square[{','.join(names[m] for m in corners)}]"


@dataclass(frozen=True)
class BcpResult:
    lemma_inequality_holds: bool
    bcp_equality: bool
    witness: Optional[tuple[str, str]] = None  # (element label, kind)


def check_bcp(sq: PullbackSquare) -> BcpResult:
    """Check p'(f'^{-1}(n)) <= f^{-1}(p(n)) for all n in sub Y', and equality."""
    fib = sq.fib
    ly_prime = fib.sub_cod(sq.f_prime)
    lx = fib.sub_cod(sq.p_prime)
    img_p_prime, pre_f_prime = fib.img[sq.p_prime], fib.pre[sq.f_prime]
    img_p, pre_f = fib.img[sq.p], fib.pre[sq.f]
    ineq = True
    equal = True
    witness = None
    for n in range(ly_prime.size):
        left = img_p_prime[pre_f_prime[n]]
        right = pre_f[img_p[n]]
        if not lx.leq(left, right):
            ineq = False
            equal = False
            witness = (ly_prime.labels[n], "inequality")
            break
        if left != right:
            equal = False
            if witness is None:
                witness = (ly_prime.labels[n], "equality")
    return BcpResult(ineq, equal, witness)


def factorize(fib: SubobjectFibration, f: int) -> tuple[int, int]:
    """(e, m) with f = m∘e, e in E, m in M, through the image object."""
    if not hasattr(fib.backend, "factorize"):
        raise CapabilityError(f"fibration {fib.name} does not support factorization")
    e, m = fib.backend.factorize(fib, f)
    if fib.category.compose(m, e) != f:
        raise InternalConsistencyError("factorization does not recompose")
    return e, m


def pullback(fib: SubobjectFibration, f: int, p: int) -> PullbackSquare:
    """The canonical pullback square of the cospan f: X->Y, p: Y'->Y."""
    if not hasattr(fib.backend, "pullback"):
        raise CapabilityError(f"fibration {fib.name} does not support pullbacks")
    if fib.cod(f) != fib.cod(p):
        raise DomainError("pullback needs a cospan: cod f == cod p")
    return fib.backend.pullback(fib, f, p)
