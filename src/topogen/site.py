"""Finite categories with subobject fibrations.

A :class:`SubobjectFibration` is a finite category together with, per object,
a finite bounded lattice of subobjects and, per morphism, an image/preimage
adjoint pair (plus the right adjoint of preimage where it exists), and the
two morphism classes of a proper factorization system.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .errors import CapabilityError, DomainError, InternalConsistencyError, ResourceCapError
from .lattice import FiniteLattice, MonotoneMap, mask_iter, right_adjoint_table
from .reporting import Report, Violation


class _TabulatedOnFirstRead:
    """Mixin of the untabulated twin of a plain slotted class ``_plain``.

    The twin sets at once the fields no morphism enters, and holds in the
    slot ``_tabulate`` a function returning the arguments of ``_plain``'s
    ``__init__``, and in the other slots of ``_inputs`` what it needs to
    answer for one map without tabulating.  The first read of a field named
    in ``_deferred`` calls ``_tabulate``, fills every slot through that
    ``__init__``, unsets ``_inputs`` and makes the object a ``_plain``,
    whose attribute reads CPython specialises: it does not on a class with
    ``__getattr__``, a ``property`` or a ``cached_property``.  An error
    raised while tabulating propagates as itself, and the object stays
    untabulated, so the next read raises again.
    """

    __slots__ = ()

    def __getattr__(self, name):
        if name not in self._deferred:
            raise AttributeError(f"{self._plain.__name__!r} object has no attribute {name!r}")
        plain, inputs = self._plain, self._inputs
        plain.__init__(self, *self._tabulate())
        self.__class__ = plain
        for slot in inputs:
            delattr(self, slot)
        return getattr(self, name)


class FiniteCategory:
    """A finite category with explicitly tabulated morphisms.

    Each morphism carries its function graph, and g∘f is the morphism with
    graph ``graph g ∘ graph f`` from dom f to cod g.  Any finite category is
    concrete this way: send f to post-composition on the morphisms into its
    domain (its left Cayley representation).

    ``concrete_category`` returns an untabulated twin, which enumerates the
    morphisms on the first read of a morphism field (``_TabulatedOnFirstRead``);
    the slots ``_tabulate``, ``_homs`` and ``_sizes`` serve only the twin and
    are unset here.  The slot ``_set_level`` holds ``_key_facts``' memo once
    it is set, ``_symmetry`` the record ``symmetry`` once read, and
    ``_closure`` the verdict and counters of ``composition_closed``.
    """

    __slots__ = (
        "object_names", "mor_dom", "mor_cod", "mor_names", "identities", "graphs",
        "_by_graph", "_name_index", "morphisms_from", "morphisms_to", "_tabulate", "_homs",
        "_sizes", "_set_level", "_symmetry", "_closure", "__weakref__",
    )

    def __init__(
        self,
        object_names: Sequence[str],
        mor_dom: Sequence[int],
        mor_cod: Sequence[int],
        mor_names: Sequence[str],
        identities: Sequence[int],
        graphs: Sequence[tuple[int, ...]],
    ):
        self.object_names = tuple(object_names)
        self.mor_dom = tuple(mor_dom)
        self.mor_cod = tuple(mor_cod)
        self.mor_names = tuple(mor_names)
        self.identities = tuple(identities)
        self.graphs = tuple(graphs)
        self._by_graph = {
            (self.mor_dom[i], self.mor_cod[i], graph): i for i, graph in enumerate(self.graphs)
        }
        self._name_index = {name: i for i, name in enumerate(self.mor_names)}
        outs: list[list[int]] = [[] for _ in self.object_names]
        ins: list[list[int]] = [[] for _ in self.object_names]
        for i, (x, y) in enumerate(zip(self.mor_dom, self.mor_cod)):
            outs[x].append(i)
            ins[y].append(i)
        self.morphisms_from = tuple(map(tuple, outs))
        self.morphisms_to = tuple(map(tuple, ins))

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

    def identity_graph(self, x: int) -> tuple[int, ...]:
        """The graph of x's identity, ``(0, ..., n - 1)`` on its n points."""
        return self.graphs[self.identities[x]]

    def morphism_name(self, dom: int, cod: int, graph: tuple[int, ...]) -> Optional[str]:
        """The name of the morphism dom -> cod with this function graph, or
        None when there is none."""
        f = self._by_graph.get((dom, cod, graph))
        return None if f is None else self.mor_names[f]

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
        """The f whose graph is a bijection onto cod f's points and whose
        inverse graph (dom f's points sorted by value) is a morphism back."""
        carrier = [list(range(len(self.graphs[i]))) for i in self.identities]
        return frozenset(
            f for f, (x, y, graph) in enumerate(zip(self.mor_dom, self.mor_cod, self.graphs))
            if sorted(graph) == carrier[y]
            and (y, x, tuple(sorted(carrier[x], key=graph.__getitem__))) in self._by_graph
        )

    def composites(self):
        """(g, f, g∘f) for every composable pair, f outer and g over the
        morphisms out of cod f; f's graph is read once per f, and a missing
        composite raises from ``compose``."""
        graphs, cod, by_graph = self.graphs, self.mor_cod, self._by_graph
        for f, x in enumerate(self.mor_dom):
            read = _picker(graphs[f])
            for g in self.morphisms_from[cod[f]]:
                h = by_graph.get((x, cod[g], read(graphs[g])))
                yield g, f, self.compose(g, f) if h is None else h


def concrete_name(names: Sequence[str], x: int, y: int, graph: tuple[int, ...]) -> str:
    """The name ``concrete_category`` gives the morphism x -> y with this
    graph: ``id_<x>`` for the identity graph ``(0, ..., n - 1)`` of x, and
    ``<x>><y>:<graph digits>`` otherwise (``-`` for the empty graph)."""
    if x == y and graph == tuple(range(len(graph))):
        return f"id_{names[x]}"
    return f"{names[x]}>{names[y]}:" + ("".join(map(str, graph)) or "-")


def concrete_keys(cat: FiniteCategory, name: str) -> list[tuple[int, int, tuple[int, ...]]]:
    """Each (dom, cod, graph) of ``cat`` that ``concrete_name`` could turn
    into ``name``, each digit read as one point; none is checked to be a
    morphism.  Reads only objects and identity graphs, so it enumerates no
    hom-set of an untabulated category."""
    index = {object_name: x for x, object_name in enumerate(cat.object_names)}
    keys = []
    if name.startswith("id_") and name[3:] in index:
        x = index[name[3:]]
        keys.append((x, x, cat.identity_graph(x)))
    ends, colon, digits = name.rpartition(":")
    if colon and (digits == "-" or digits.isascii() and digits.isdigit()):
        graph = () if digits == "-" else tuple(map(int, digits))
        for x, source in enumerate(cat.object_names):
            target = ends[len(source) + 1:]
            if ends.startswith(source + ">") and target in index:
                keys.append((x, index[target], graph))
    return keys


def concrete_category(
    names: Sequence[str],
    sizes: Sequence[int],
    homs: Callable[[int, int], Iterable[tuple[int, ...]]],
    max_morphisms: Optional[int] = None,
    what: str = "maps",
) -> FiniteCategory:
    """The category on the named objects whose morphisms x -> y are the
    function graphs ``homs(x, y)`` yields, in (x, y) order, each named by
    ``concrete_name``; the identity of x is the graph ``(0, ..., sizes[x] - 1)``.

    The objects are set at once; ``homs`` is enumerated, and the morphisms
    named and indexed, on the first read of a morphism field, so a caller
    that reads only objects never enumerates a hom-set, and
    ``morphism_name`` enumerates only the hom-set it asks about.  More than
    ``max_morphisms`` graphs enumerated at once raise ``ResourceCapError``
    ("more than <max_morphisms> <what>") from that read, and from every
    read after it.
    """

    def capped(graphs):
        for count, graph in enumerate(graphs):
            if max_morphisms is not None and count >= max_morphisms:
                raise ResourceCapError(f"more than {max_morphisms} {what}")
            yield graph

    def tabulate():
        mor_dom, mor_cod, graphs = [], [], []
        identities = [-1] * len(names)
        idents = [tuple(range(n)) for n in sizes]
        pairs = [(x, y) for x in range(len(names)) for y in range(len(names))]
        for x, y, graph in capped((x, y, graph) for x, y in pairs for graph in homs(x, y)):
            if x == y and graph == idents[x]:
                identities[x] = len(graphs)
            mor_dom.append(x)
            mor_cod.append(y)
            graphs.append(graph)
        mor_names = list(map(partial(concrete_name, names), mor_dom, mor_cod, graphs))
        return names, mor_dom, mor_cod, mor_names, identities, graphs

    return _UntabulatedCategory(names, tabulate, lambda x, y: capped(homs(x, y)), sizes)


class _UntabulatedCategory(_TabulatedOnFirstRead, FiniteCategory):
    """A ``FiniteCategory`` whose objects are set and whose morphisms are
    tabulated on first read; it answers ``morphism_name`` from the one
    hom-set, ``_homs``, it asks about, and ``identity_graph`` from the
    objects' point counts, ``_sizes``."""

    __slots__ = ()
    _plain = FiniteCategory
    _inputs = ("_tabulate", "_homs", "_sizes")
    _deferred = frozenset((
        "mor_dom", "mor_cod", "mor_names", "identities", "graphs",
        "_by_graph", "_name_index", "morphisms_from", "morphisms_to",
    ))

    def __init__(self, object_names: Sequence[str], tabulate, homs, sizes):
        self.object_names = tuple(object_names)
        self._tabulate = tabulate
        self._homs = homs
        self._sizes = tuple(sizes)

    def identity_graph(self, x: int) -> tuple[int, ...]:
        return tuple(range(self._sizes[x]))

    def morphism_name(self, dom: int, cod: int, graph: tuple[int, ...]) -> Optional[str]:
        if graph in self._homs(dom, cod):
            return concrete_name(self.object_names, dom, cod, graph)
        return None


@dataclass(frozen=True, slots=True)
class Symmetry:
    """A category's objects up to isomorphism, and each map up to the
    isomorphisms and automorphisms of its ends (``symmetry``).

    - ``isomorphisms``: ``FiniteCategory.isomorphisms()``;
    - ``rep``: per object A, its class's representative rep A, the class's
      least object index;
    - ``iota``: per object A, the least-index isomorphism ι_A: rep A -> A,
      the identity at a representative;
    - ``moved``: per map f: X -> Y, the index of f~ = ι_Y^-1 ∘ f ∘ ι_X, a
      map between representatives; f~ = f exactly when f is one;
    - ``letters``: per representative, the automorphisms whose graphs are
      its letters (``_permutation_letters``), in index order; () elsewhere;
    - ``moves``: the orbit walk's steps, one per hom-set between
      representatives and letter, as (letter, after, the maps of the
      hom-set in index order, their composites with the letter): m∘a for a
      letter a of the domain, b∘m (``after``) for a letter b of the codomain;
    - ``head``: per map f, the least map of the orbit of f~ under
      Aut(rep X) × Aut(rep Y);
    - ``size``: per map f, the number of maps in that orbit.

    Where the isomorphisms do not fall into classes, or some f~ is not a
    morphism, the classes are singletons: rep A = A and f~ = f.  Where some
    composite of a move is not a morphism, so are the orbits: there are no
    letters and no moves, and head f = f~.
    """

    isomorphisms: frozenset[int]
    rep: tuple[int, ...]
    iota: tuple[int, ...]
    moved: tuple[int, ...]
    letters: tuple[tuple[int, ...], ...]
    moves: tuple[tuple[int, bool, tuple[int, ...], tuple[int, ...]], ...]
    head: tuple[int, ...]
    size: tuple[int, ...]

    def generators(self):
        """(u, source, target) for each ι_A off a representative, then each
        letter: f reaches f~ along the ι_A, and its head along words in the
        letters."""
        for a, (r, u) in enumerate(zip(self.rep, self.iota)):
            if r != a:
                yield u, r, a
        for x, letters in enumerate(self.letters):
            for a in letters:
                yield a, x, x


def symmetry(cat: FiniteCategory) -> Symmetry:
    """``cat``'s ``Symmetry``, computed on first read and kept in its slot
    ``_symmetry``; the one place representatives are chosen and orbits are
    walked."""
    found = getattr(cat, "_symmetry", None)
    if found is None:
        found = cat._symmetry = _symmetry(cat)
    return found


def _symmetry(cat: FiniteCategory) -> Symmetry:
    n = cat.n_objects
    dom, cod, graphs = cat.mor_dom, cat.mor_cod, cat.graphs
    isos = cat.isomorphisms()
    rep, iota = list(range(n)), list(cat.identities)
    for u in sorted(isos):
        if dom[u] < rep[cod[u]]:
            rep[cod[u]], iota[cod[u]] = dom[u], u
    moved = None
    if all(rep[dom[u]] == rep[cod[u]] for u in isos):
        # f~'s graph: ι_X's graph, then f's, then ι_Y's inverse graph
        labels = [graphs[u] for u in iota]
        unlabel = [tuple(sorted(range(len(label)), key=label.__getitem__)) for label in labels]
        by_graph = cat._by_graph.get
        moved = [
            f if rep[x] == x and rep[y] == y else by_graph((rep[x], rep[y], tuple(
                map(unlabel[y].__getitem__, map(graph.__getitem__, labels[x])))))
            for f, (x, y, graph) in enumerate(zip(dom, cod, graphs))]
    if moved is None or None in moved:
        rep, iota, moved = range(n), cat.identities, range(len(dom))
    moved = tuple(moved)
    letters = tuple(
        tuple(cat._by_graph[x, x, graph] for graph in _permutation_letters(cat, x)) if r == x else ()
        for x, r in enumerate(rep))
    orbits = _orbits(cat, letters, moved)
    if orbits is None:
        letters, orbits = ((),) * n, ((), moved, (1,) * len(moved))
    return Symmetry(isos, tuple(rep), tuple(iota), moved, letters, *orbits)


def _orbits(cat: FiniteCategory, letters, moved: tuple[int, ...]):
    """(moves, head, size) of ``Symmetry`` for the maps ``moved`` between
    representatives and the ``letters`` of each, or None where some
    composite of a move is not a morphism."""
    dom, cod, graphs = cat.mor_dom, cat.mor_cod, cat.graphs
    homs: dict[tuple[int, int], list[int]] = {}
    for f in sorted(set(moved)):
        homs.setdefault((dom[f], cod[f]), []).append(f)
    head, size, moves = {}, {}, []
    for (x, y), maps in homs.items():
        # each letter as a move of positions in the hom-set x -> y
        hom_graphs = list(map(graphs.__getitem__, maps))
        position = dict(zip(hom_graphs, range(len(maps)))).get
        steps = [
            (a, False, list(map(position, map(_picker(graphs[a]), hom_graphs)))) for a in letters[x]]
        reads = list(map(_picker, hom_graphs)) if letters[y] else ()
        steps += [(b, True, [position(read(graphs[b])) for read in reads]) for b in letters[y]]
        maps = tuple(maps)
        for letter, after, targets in steps:
            if None in targets:
                return None
            moves.append((letter, after, maps, tuple(map(maps.__getitem__, targets))))
        # in index order, a map not yet reached is the least of its orbit
        reached = [False] * len(maps)
        for start, first in enumerate(maps):
            if reached[start]:
                continue
            reached[start], orbit = True, [start]
            for k in orbit:
                for _, _, targets in steps:
                    j = targets[k]
                    if not reached[j]:
                        reached[j] = True
                        orbit.append(j)
            head.update(dict.fromkeys(map(maps.__getitem__, orbit), first))
            size[first] = len(orbit)
    heads = tuple(map(head.__getitem__, moved))
    return tuple(moves), heads, tuple(map(size.__getitem__, heads))


def stand_ins(cat: FiniteCategory, carries: Callable[[int, int, int], bool]) -> Sequence[int]:
    """Per map f, the map whose verdict is f's, for a verdict that
    ``carries(u, source, target)`` says is carried along the generator
    u: source -> target of ``cat``'s ``symmetry``: the head of f's orbit
    when every generator carries, f itself otherwise.  A verdict carried
    along every ι_A and every letter is carried along every word in them,
    so along f -> f~ and along the orbit of f~; the one place the choice
    is made."""
    sym = symmetry(cat)
    if all(carries(*generator) for generator in sym.generators()):
        return sym.head
    return tuple(range(cat.n_morphisms))


def validate_category(cat: FiniteCategory) -> Report:
    """Identity typing, and identity neutrality over the walk ``composites``.

    The walk looks each composite up by (dom f, cod g, graph), so it always
    has the right domain and codomain, and both bracketings of h∘g∘f look up
    the key (dom f, cod h, graph h ∘ graph g ∘ graph f): associativity holds
    whenever the composites exist.  Each composite it needs is that of a
    composable pair the walk reaches, so a missing one has already raised
    there.  ``checked`` still counts the composable triples.
    """
    violations = []
    checked = 0
    for x in range(cat.n_objects):
        i = cat.identities[x]
        checked += 1
        if cat.mor_dom[i] != x or cat.mor_cod[i] != x:
            violations.append(Violation("identity-endo", where=cat.object_names[x]))
    for g, f, h in cat.composites():
        checked += 1
        if cat.is_identity(g) and h != f:
            violations.append(Violation("identity-neutral-left", witness=(cat.mor_names[f],)))
        if cat.is_identity(f) and h != g:
            violations.append(Violation("identity-neutral-right", witness=(cat.mor_names[g],)))
    # the triples (h, g, f) with g out of y number w[y] per f into y
    out = cat.morphisms_from
    w = [sum(len(out[cat.mor_cod[g]]) for g in out[y]) for y in range(cat.n_objects)]
    checked += sum(w[y] for y in cat.mor_cod)
    return Report("category", checked, tuple(violations))


class SubobjectFibration:
    """Category + subobject lattices + image/preimage adjoints + (E, M).

    ``subsets`` gives, per object, the carrier bitmask of each lattice
    element when subobjects are subsets of the object's finite carrier and
    image/preimage are meant to be the set-level ones along the morphism
    graphs; it is None for any other presentation.

    ``subset_fibration`` returns an untabulated twin, which computes the
    morphism fields on their first read (``_TabulatedOnFirstRead``); the
    slots ``_tabulate`` and ``_fstar_formula`` serve only the twin and are
    unset here.  The slot ``_carried`` holds ``carried``'s verdict once read.
    """

    __slots__ = (
        "category", "sub", "img", "pre", "eclass", "mclass", "e_pullback_stable",
        "backend", "name", "subsets", "fstar", "_tabulate", "_fstar_formula", "_carried",
        "__weakref__",
    )

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
        subsets: Optional[Sequence[tuple[int, ...]]] = None,
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
        self.subsets = tuple(subsets) if subsets is not None else None
        if fstar is None:
            fstar = [
                _preimage_right_adjoint(self.sub[y], self.sub[x], table)
                for x, y, table in zip(category.mor_dom, category.mor_cod, self.pre)
            ]
        self.fstar = tuple(fstar)

    def tables_by_graph(self, dom: int, cod: int, graph: tuple[int, ...]):
        """(image, preimage, f_*) tables of the morphism dom -> cod with this
        function graph, which must exist."""
        f = self.category.morphism_by_graph(dom, cod, graph)
        if f is None:
            raise DomainError("no morphism with this graph")
        return self.img[f], self.pre[f], self.fstar[f]

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


def inverse_table(table: Sequence[int], size: int) -> Optional[tuple[int, ...]]:
    """The inverse of ``table`` if it is a bijection onto range(size), else None."""
    if sorted(table) != list(range(size)):
        return None
    return tuple(sorted(range(size), key=table.__getitem__))


def carry_rows(rows: Sequence[int], table: Sequence[int]) -> tuple[int, ...]:
    """The bitmask rows of a relation carried along the bijection ``table``:
    row table[i] holds bit table[j] exactly when row i holds bit j."""
    carried = [0] * len(rows)
    for i, row in enumerate(rows):
        carried[table[i]] = sum(1 << table[j] for j in mask_iter(row))
    return tuple(carried)


def carried(fib: SubobjectFibration) -> bool:
    """Whether the fibration is carried along the generators of its
    category's ``symmetry``, each ι_A: rep A -> A off a representative and
    each letter:

    - every image and preimage table is the set-level one along its graph
      (``_set_level_keys``), none with a -1 entry;
    - the image table U = img u of every generator u is a lattice
      isomorphism, a bijection carrying the order of its source's lattice
      onto that of its target's;
    - f_* is carried along every step f -> f~ and every move, or both are
      None: f_* ∘ U_X = U_Y ∘ f~_*, (m∘a)_* = m_* ∘ V and
      (b∘m)_* = W ∘ m_*, with U_A = img ι_A, V = img a and W = img b.

    Set-level tables without a -1 entry compose, img(g∘f) = img g ∘ img f
    and pre(g∘f) = pre f ∘ pre g, and the image table of an isomorphism
    that is a bijection inverts its preimage table.  So img f =
    U_Y ∘ img f~ ∘ U_X^-1 and pre f = U_X ∘ pre f~ ∘ U_Y^-1, and likewise
    along each move: every map has the tables of its ``symmetry`` head
    carried along lattice isomorphisms, and whatever is read off the
    lattices and the tables at f is what is read at its head.  False for a
    fibration without subsets.  Computed once per fibration and kept in its
    slot ``_carried``; each step compares f_* once per (table objects,
    U or V or W).
    """
    found = getattr(fib, "_carried", None)
    if found is None:
        found = fib._carried = _carried(fib)
    return found


def _carried(fib: SubobjectFibration) -> bool:
    set_level = _set_level_keys(fib)
    if set_level is None or any(-1 in table for column in set_level[1][:2] for table in column):
        return False
    cat, img, fstar, sub = fib.category, fib.img, fib.fstar, fib.sub
    sym = symmetry(cat)
    for u, x, y in sym.generators():
        if inverse_table(img[u], sub[y].size) is None or carry_rows(sub[x].up, img[u]) != sub[y].up:
            return False
    # each step s -> t along (P, Q), s_* ∘ P = Q ∘ t_* with None for the
    # identity table: f -> f~ along (U_X, U_Y), m -> m∘a along (V, -) and
    # b∘m -> m along (-, W); one step per (table objects of s_*, t_*, P, Q)
    units = [None if r == a else img[u] for a, (r, u) in enumerate(zip(sym.rep, sym.iota))]
    ids, unit_ids = list(map(id, fstar)), list(map(id, units))
    tables = {**dict(zip(ids, fstar)), **dict(zip(unit_ids, units))}
    steps = set(zip(
        ids, map(ids.__getitem__, sym.moved),
        map(unit_ids.__getitem__, cat.mor_dom), map(unit_ids.__getitem__, cat.mor_cod)))
    same = repeat(id(None))
    for a, after, maps, composites in sym.moves:
        tables[id(img[a])] = img[a]
        s, t, v = map(ids.__getitem__, maps), map(ids.__getitem__, composites), repeat(id(img[a]))
        steps.update(zip(t, s, same, v) if after else zip(s, t, v, same))
    for source, target, before, after in map(partial(map, tables.__getitem__), steps):
        if source is None or target is None:
            if source is not target:
                return False
        elif (source if before is None else tuple(map(source.__getitem__, before))) != (
                target if after is None else tuple(map(after.__getitem__, target))):
            return False
    return True


def _preimage_right_adjoint(
    source: FiniteLattice, target: FiniteLattice, table: tuple[int, ...],
) -> Optional[tuple[int, ...]]:
    """The right adjoint of a preimage table from ``source`` (sub cod) to
    ``target`` (sub dom), once the table is checked for size, range and
    monotonicity on the covering pairs of ``source``; a table that fails
    raises from ``MonotoneMap`` with its witness."""
    up = target.up
    if not (
        len(table) == source.size
        and 0 <= min(table) and max(table) < len(up)
        and all(up[table[i]] >> table[j] & 1 for i, j in source.covers)
    ):
        MonotoneMap(source, target, table)
    return right_adjoint_table(source, target, table)


def validate_fibration(fib: SubobjectFibration) -> Report:
    """Exhaustive invariant scan; reports all violations with witnesses.

    Each family of laws is either certified for the whole fibration or
    scanned plainly, with nothing in between.  Both certificates need every
    table to be the set-level image/preimage along its graph
    (``fib.subsets``, compared through ``_set_level_keys``).

    The per-morphism laws (``_morphism_laws``: table size and range,
    image/preimage monotonicity, the adjunction, the M-section and, when E
    is pullback-stable, the E-retraction) hold for the whole fibration
    (``_law_certificate``) when, besides the set-level tables, each lattice
    is its distinct listed subsets ordered by inclusion, no image or
    preimage of a listed subset is missing from the list, every map in M
    has an injective graph and, when E is pullback-stable, every map in E
    is onto.  Then no law can fail: direct image and preimage are
    monotone, f(A) ⊆ B iff A ⊆ f^-1(B), f^-1 f(A) = A for injective f and
    f f^-1(B) = B for onto f; and ``checked`` is the closed sum of the
    checks the scan would count.  Otherwise the laws run once per distinct
    key (the two lattices, the two tables, membership in M and in a
    pullback-stable E); each fault is reported under every morphism with
    that key, in morphism order, and ``checked`` counts every morphism's
    checks.

    Functoriality (img(g∘f) = img g ∘ img f and pre(g∘f) = pre f ∘ pre g
    for every composable pair) holds when every table is the set-level one
    and every composite g∘f exists, because direct images and preimages
    compose.  Otherwise ``_functoriality_violations`` walks every
    composable pair and alone reports violations.  ``checked`` counts the
    composable pairs either way.

    The report's ``counts`` are the closure certificate's
    (``composition_closed``), 0 where it did not run, ``laws_certified``
    and ``functoriality_certified`` (1 when that certificate held, else 0)
    and ``law_keys_scanned``, the keys ``_morphism_laws`` ran on.
    """
    cat = fib.category
    violations = []
    counts = dict.fromkeys(_CLOSURE_COUNTS, 0)
    set_level = _set_level_keys(fib)
    walk = set_level is None or not composition_closed(cat, counts)
    checked = None if set_level is None else _law_certificate(fib, *set_level)
    certified = checked is not None
    laws: dict = {}
    unusable = set()
    if not certified:
        checked = 0
        for f in range(cat.n_morphisms):
            lx, ly = fib.sub[cat.mor_dom[f]], fib.sub[cat.mor_cod[f]]
            key = (
                id(lx), id(ly), fib.img[f], fib.pre[f],
                f in fib.mclass, f in fib.eclass and fib.e_pullback_stable,
            )
            if key not in laws:
                laws[key] = _morphism_laws(lx, ly, *key[2:])
            count, faults = laws[key]
            checked += count
            name = cat.mor_names[f]
            for law, witness in faults:
                if law.startswith("table-"):
                    unusable.add(f)
                violations.append(Violation(law, where=name, witness=witness))
    counts.update(
        laws_certified=int(certified), functoriality_certified=int(not walk),
        law_keys_scanned=len(laws),
    )
    for x in range(cat.n_objects):
        i = cat.identities[x]
        checked += 1
        ident = tuple(range(fib.sub[x].size))
        if fib.img[i] != ident or fib.pre[i] != ident:
            violations.append(Violation("identity-adjoints", where=cat.object_names[x]))
    checked += sum(map(len, map(cat.morphisms_from.__getitem__, cat.mor_cod)))
    if walk:
        violations.extend(_functoriality_violations(fib, unusable))
    return Report(f"fibration {fib.name}", checked, tuple(violations), counts=counts)


def _law_certificate(fib: SubobjectFibration, key_ids: Sequence[int], facts) -> Optional[int]:
    """The number of checks ``_morphism_laws`` counts over every morphism of
    ``fib`` when none can fail, else None; ``key_ids`` and ``facts`` are
    ``_key_facts``' for a fibration whose tables are the set-level ones.

    No law fails when each lattice is its listed subsets, distinct and
    ordered by inclusion (checked once per distinct (lattice, subsets)),
    no key's table has a -1 entry, every map in M has an injective graph,
    and, when E is pullback-stable, every map in E is onto.  A map then
    counts the comparable pairs of both lattices and |sub dom|·|sub cod|
    adjunction checks, summed per (dom, cod), plus |sub dom| in M and
    |sub cod| in a pullback-stable E.
    """
    cat, sub = fib.category, fib.sub
    img, pre, onto = facts
    e = fib.eclass if fib.e_pullback_stable else frozenset()
    lattices = {(id(lat), masks): lat for lat, masks in zip(sub, fib.subsets)}
    if not (
        all(_ordered_by_inclusion(lat, masks) for (_, masks), lat in lattices.items())
        and not any(-1 in table for column in (img, pre) for table in column)
        and all(len(set(g)) == len(g) for g in set(map(cat.graphs.__getitem__, fib.mclass)))
        and all(map(onto.__getitem__, map(key_ids.__getitem__, e)))
    ):
        return None
    sizes = [lat.size for lat in sub]
    pairs = [lat.comparable_pairs for lat in sub]
    checked = sum(
        n * (pairs[x] + pairs[y] + sizes[x] * sizes[y])
        for (x, y), n in Counter(zip(cat.mor_dom, cat.mor_cod)).items()
    )
    checked += sum(map(sizes.__getitem__, map(cat.mor_dom.__getitem__, fib.mclass)))
    return checked + sum(map(sizes.__getitem__, map(cat.mor_cod.__getitem__, e)))


def _ordered_by_inclusion(lat: FiniteLattice, masks: Sequence[int]) -> bool:
    """Whether ``lat``'s elements are the distinct ``masks``, element i
    below element j exactly when mask i is inside mask j."""
    return lat.size == len(masks) == len(set(masks)) and lat.up == tuple(
        sum(1 << j for j, t in enumerate(masks) if s & ~t == 0) for s in masks)


def _morphism_laws(
    lx: FiniteLattice, ly: FiniteLattice,
    img: tuple[int, ...], pre: tuple[int, ...], in_m: bool, in_e: bool,
) -> tuple[int, list[tuple[str, tuple[str, ...]]]]:
    """(checks made, faults as (law, witness)) of one morphism's tables:
    table size and range, image/preimage monotonicity on every comparable
    pair, the adjunction up to its first mismatch, the M-section when
    ``in_m`` and the E-retraction when ``in_e``.  A size or range fault is
    the only one reported, since the laws would index out of the tables or
    lattices.  Monotonicity counts one check per comparable pair of each
    lattice, the adjunction one per (m, n) pair it compares."""
    if len(img) != lx.size or len(pre) != ly.size:
        return 0, [("table-size", ())]
    for what, table, source, target in (("img", img, lx, ly), ("pre", pre, ly, lx)):
        for i, v in enumerate(table):
            if not 0 <= v < target.size:
                return 0, [("table-range", (f"{what}[{source.labels[i]}]={v}",))]
    faults = []
    up_x, up_y = lx.up, ly.up
    checked = lx.comparable_pairs + ly.comparable_pairs
    for i in range(lx.size):
        for j in mask_iter(up_x[i]):
            if not ly.leq(img[i], img[j]):
                faults.append(("image-monotone", (lx.labels[i], lx.labels[j])))
    for i in range(ly.size):
        for j in mask_iter(up_y[i]):
            if not lx.leq(pre[i], pre[j]):
                faults.append(("preimage-monotone", (ly.labels[i], ly.labels[j])))
    for m in range(lx.size):
        for n in range(ly.size):
            checked += 1
            if ly.leq(img[m], n) != lx.leq(m, pre[n]):
                faults.append(("adjunction", (lx.labels[m], ly.labels[n])))
                break
        else:
            continue
        break
    if in_m:
        for m in range(lx.size):
            checked += 1
            if pre[img[m]] != m:
                faults.append(("m-preimage-section", (lx.labels[m],)))
    if in_e:
        for n in range(ly.size):
            checked += 1
            if img[pre[n]] != n:
                faults.append(("e-image-retraction", (ly.labels[n],)))
    return checked, faults


def set_level_tables(
    cat: FiniteCategory, subsets: Sequence[tuple[int, ...]]
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Per morphism, the set-level image and preimage tables along its graph.

    ``subsets[x]`` lists the carrier bitmask of each subobject of x; entry i
    of f's image table is the index of the image of subset i of dom f among
    the subsets of cod f, or -1 where that set is not one of them, and
    likewise for preimages.  The tables depend only on (subsets of dom f,
    subsets of cod f, graph), so they are computed once per such key and
    shared by the morphisms with that key, and once per (category, subsets)
    (``_key_facts``): ``subset_fibration``'s tabulation computed them, and
    its tables are these table objects.  ``validate_fibration`` certifies
    a fibration's laws only when its tables equal these.
    """
    key_ids, (img, pre, _) = _key_facts(cat, subsets)
    pick = _picker(key_ids)
    return pick(img), pick(pre)


def _key_facts(cat: FiniteCategory, subsets: Sequence[tuple[int, ...]]):
    """(key id per morphism, and per key its image table, preimage table and
    surjectivity), for the keys (subsets of dom f, subsets of cod f, graph)
    in order of first occurrence; each key's facts are ``_key_tables``'.
    Computed once per (category, subsets), and kept on the category, in its
    slot ``_set_level``, by subsets."""
    subsets = tuple(subsets)
    memo = getattr(cat, "_set_level", None)
    if memo is None:
        memo = cat._set_level = {}
    found = memo.get(subsets)
    if found is None:
        set_ids, set_index = intern(subsets)
        plans = list(map(_subset_plan, set_index))
        key_ids, key_index = intern(zip(
            map(set_ids.__getitem__, cat.mor_dom), map(set_ids.__getitem__, cat.mor_cod),
            cat.graphs,
        ))
        facts = ([], [], [])
        for sx, sy, graph in key_index:
            for column, fact in zip(facts, _key_tables(plans[sx], plans[sy], graph)):
                column.append(fact)
        found = memo[subsets] = key_ids, facts
    return found


def _subset_plan(listed: tuple[int, ...]):
    """(masks, the index of each mask, carrier size) of a subset list, the
    masks and index None when it is every subset of the carrier in
    counting order.  The carrier is the largest mask's points: the top
    subobject is the whole object."""
    n = max(listed, default=0).bit_length()
    if len(listed) == 1 << n and listed == tuple(range(1 << n)):
        return None, None, n
    return listed, {mask: i for i, mask in enumerate(listed)}, n


def _key_tables(plan_x, plan_y, graph: tuple[int, ...]):
    """(image table, preimage table, and surjectivity) of the key (subsets
    of x, subsets of y, graph), the subsets given by their ``_subset_plan``."""
    masks_x, index_x, _ = plan_x
    masks_y, index_y, n_y = plan_y
    fibres = [0] * n_y
    for e, ge in enumerate(graph):
        fibres[ge] |= 1 << e
    image = _unions(masks_x, [1 << ge for ge in graph], index_y)
    preimage = _unions(masks_y, fibres, index_x)
    return image, preimage, all(fibres)


def _unions(
    masks: Optional[Sequence[int]], parts: Sequence[int], index: Optional[dict]
) -> tuple[int, ...]:
    """Per mask, the index in ``index`` of the union of ``parts[p]`` over
    its points p, or -1; None for ``masks`` or ``index`` stands for every
    subset in counting order.  All subsets are built by doubling over the
    points (those with point p are those before it, each plus p), and such
    a union is its own index.  Listed masks (subgroup lattices) gather
    point by point."""
    if masks is None:
        unions = [0]
        for part in parts:
            unions += [union | part for union in unions]
    else:
        unions = []
        for mask in masks:
            union, left = 0, mask
            while left:
                low = left & -left
                union |= parts[low.bit_length() - 1]
                left ^= low
            unions.append(union)
    if index is None:
        return tuple(unions)
    return tuple([index.get(union, -1) for union in unions])


def subset_fibration(
    category: FiniteCategory,
    sub: Sequence[FiniteLattice],
    subsets: Sequence[tuple[int, ...]],
    mclass: Iterable[int],
    fstar_formula: Optional[Callable[[tuple[int, ...], tuple[int, ...]], tuple[int, ...]]] = None,
    backend=None,
    name: str = "fibration",
) -> SubobjectFibration:
    """The fibration whose subobjects are the given subsets of each carrier.

    Image and preimage are the set-level ones along the morphism graphs
    (``set_level_tables``), and E is the class of surjective graphs, which
    is pullback-stable.  M is the caller's.  ``fstar_formula``, when given,
    maps a morphism's image and preimage tables to the right adjoint of its
    preimage; without it the right adjoints are computed generically.  The
    tables, the formula's adjoint and surjectivity are computed once per
    (subsets of dom, subsets of cod, graph) key and shared by its morphisms;
    the tables and surjectivity are ``set_level_tables``' own, shared with
    it through ``_key_facts``, so ``validate_fibration`` certifies such a
    fibration's laws without scanning them, and its functoriality when
    ``category`` is closed under composition.

    The lattices and subsets are set at once; the tables, E, M and the
    right adjoints are computed on the first read of one of them, which
    tabulates ``category`` first.  ``mclass`` is iterated then, once, so a
    generator over the category's morphisms reads them only then.
    """

    subsets = tuple(subsets)

    def tabulate():
        key_ids, (img, pre, onto) = _key_facts(category, subsets)
        pick = _picker(key_ids)
        return (
            category, sub, pick(img), pick(pre),
            frozenset(f for f, k in enumerate(key_ids) if onto[k]), mclass, True,
            None if fstar_formula is None else pick(list(map(fstar_formula, img, pre))),
            backend, name, subsets,
        )

    return _UntabulatedFibration(category, sub, backend, name, subsets, tabulate, fstar_formula)


class _UntabulatedFibration(_TabulatedOnFirstRead, SubobjectFibration):
    """A ``SubobjectFibration`` whose category, lattices and subsets are set
    and whose morphism fields are tabulated on first read; it answers
    ``tables_by_graph`` from the one key it asks about."""

    __slots__ = ()
    _plain = SubobjectFibration
    _inputs = ("_tabulate", "_fstar_formula")
    _deferred = frozenset(("img", "pre", "eclass", "mclass", "fstar"))

    def __init__(self, category, sub, backend, name, subsets, tabulate, fstar_formula):
        self.category = category
        self.sub = tuple(sub)
        self.e_pullback_stable = True
        self.backend = backend
        self.name = name
        self.subsets = tuple(subsets)
        self._tabulate = tabulate
        self._fstar_formula = fstar_formula

    def tables_by_graph(self, dom: int, cod: int, graph: tuple[int, ...]):
        """The key's tables (``_key_tables``), and without ``fstar_formula``
        the checked generic adjoint of its preimage table, as ``__init__``
        computes it; the graph is not looked up."""
        plan_x, plan_y = _subset_plan(self.subsets[dom]), _subset_plan(self.subsets[cod])
        img, pre, _ = _key_tables(plan_x, plan_y, graph)
        if self._fstar_formula is not None:
            return img, pre, self._fstar_formula(img, pre)
        return img, pre, _preimage_right_adjoint(self.sub[cod], self.sub[dom], pre)


def _set_level_keys(fib: SubobjectFibration):
    """``_key_facts`` of ``fib``'s category and subsets when every image and
    preimage table is the set-level one along its graph
    (``set_level_tables``), else None.  The facts are memoised per category
    and subsets, so a fibration tabulated by ``subset_fibration`` is
    compared against its own table objects."""
    if fib.subsets is None or set_level_tables(fib.category, fib.subsets) != (fib.img, fib.pre):
        return None
    return _key_facts(fib.category, fib.subsets)


# the closure certificate's counters, in ``Report.counts``
_CLOSURE_COUNTS = ("domain_graphs", "orbits", "merged_restrictions", "lookups")


def composition_closed(cat: FiniteCategory, counts: Optional[dict] = None) -> bool:
    """True when each composable pair's composite graph belongs to a
    morphism with the right domain and codomain, that is, when ``compose``
    never raises.  The verdict and its counters (``_closure_certificate``)
    are computed on first read and kept in the slot ``_closure``; ``counts``
    receives the counters."""
    found = getattr(cat, "_closure", None)
    if found is None:
        found = cat._closure = _closure_certificate(cat)
    if counts is not None:
        counts.update(found[1])
    return found[0]


def _closure_certificate(cat: FiniteCategory) -> tuple[bool, dict]:
    """``composition_closed``'s verdict and counters.

    g∘f reads g only on the image S of f.  So per object x and distinct
    graph γ out of x, with Y the codomains that carry γ from x, the graphs
    out of every y in Y are restricted to S and merged, their codomains
    ORed as bitmasks, and each merged restriction r is composed with γ:
    every codomain of r needs a morphism from x with the graph r∘γ.  The
    restrictions are memoised per (y, S), the merges per (Y, S).

    That step runs once per orbit of the graphs out of x under the letters
    of x (``_permutation_letters``), permutation graphs of endomorphisms of
    x.  Each γ out of x and letter a first need γ∘a out of x with every
    codomain of γ; then a permutes the graphs out of x, Y and S are the
    same along an orbit, and r∘γ₀∘w, for γ₀ the orbit's first graph and w
    a word in the letters, has every codomain of r by induction on w.
    ``counts`` holds the (x, γ) pairs and orbits checked, the restrictions
    over all merges and the lookups, up to the first failure.
    """
    counts = dict.fromkeys(_CLOSURE_COUNTS, 0)
    cods: list[dict] = [{} for _ in range(cat.n_objects)]
    for x, graph, y in zip(cat.mor_dom, cat.graphs, cat.mor_cod):
        cods[x][graph] = cods[x].get(graph, 0) | 1 << y
    restricted, merged = {}, {}
    for x, reached in enumerate(cods):
        letters, seen = list(map(_picker, _permutation_letters(cat, x))), set()
        for start, ys in reached.items():
            if start in seen:
                continue
            seen.add(start)
            orbit = [start]
            for graph in orbit:
                here = reached[graph]
                for letter in letters:
                    moved = letter(graph)
                    if here & ~reached.get(moved, 0):
                        return False, counts
                    if moved not in seen:
                        seen.add(moved)
                        orbit.append(moved)
            counts["domain_graphs"] += len(orbit)
            counts["orbits"] += 1
            counts["lookups"] += len(orbit) * len(letters)
            points = tuple(sorted(set(start)))
            merge = merged.get((ys, points))
            if merge is None:
                merge = {}
                for y in mask_iter(ys):
                    if (y, points) not in restricted:
                        restrict, one = _picker(points), restricted.setdefault((y, points), {})
                        for key, targets in zip(map(restrict, cods[y]), cods[y].values()):
                            one[key] = one.get(key, 0) | targets
                    for key, targets in restricted[y, points].items():
                        merge[key] = merge.get(key, 0) | targets
                merge = merged[ys, points] = tuple(merge.items())
                counts["merged_restrictions"] += len(merge)
            position = {v: k for k, v in enumerate(points)}
            compose = _picker([position[v] for v in start])
            counts["lookups"] += len(merge)
            for restriction, targets in merge:
                if targets & ~reached.get(compose(restriction), 0):
                    return False, counts
    return True, counts


def _permutation_letters(cat: FiniteCategory, x: int) -> list[tuple[int, ...]]:
    """The graphs of a generating set of the group that the permutation
    graphs of x's endomorphisms generate under tuple composition.  Each is
    kept, in morphism order, when those kept before it do not generate it;
    then each kept graph is dropped, first to last, when those kept after
    it generate it, so the group stays the same at every drop."""
    cod, graphs = cat.mor_cod, cat.graphs
    letters: list[tuple[int, ...]] = []
    group: set = set()
    for f in cat.morphisms_from[x]:
        graph = graphs[f]
        # a permutation, and not the identity
        if cod[f] == x and graph not in group and sorted(graph) == [*range(len(graph))] != [*graph]:
            letters.append(graph)
            group = _generated(letters)
    return [letter for i, letter in enumerate(letters) if letter not in _generated(letters[i + 1:])]


def _generated(letters: Sequence[tuple[int, ...]]) -> set:
    """The words in ``letters`` under tuple composition, as a set of tuples;
    a letter permutes two points or more, so it reads through ``itemgetter``."""
    group, words, reads = set(letters), list(letters), [itemgetter(*letter) for letter in letters]
    for p in words:
        for read in reads:
            word = read(p)
            if word not in group:
                group.add(word)
                words.append(word)
    return group


def _picker(positions: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """``seq -> tuple(seq[i] for i in positions)``, through ``itemgetter``
    where it returns a tuple (at two positions or more)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda seq: tuple(seq[i] for i in positions)


def _functoriality_violations(fib: SubobjectFibration, unusable: set[int]) -> list[Violation]:
    """Image, then preimage, functoriality on every composable pair, in the
    order of the walk ``composites``.  Pairs with g, f or g∘f in
    ``unusable`` (tables of the wrong size or with out-of-range entries)
    are skipped.  A missing composite raises as the walk does."""
    img, pre, names = fib.img, fib.pre, fib.category.mor_names
    found = []
    for g, f, h in fib.category.composites():
        if g in unusable or f in unusable or h in unusable:
            continue
        if tuple(map(img[g].__getitem__, img[f])) != img[h]:
            found.append(Violation("image-functorial", where=f"{names[g]} o {names[f]}"))
        if tuple(map(pre[f].__getitem__, pre[g])) != pre[h]:
            found.append(Violation("preimage-functorial", where=f"{names[g]} o {names[f]}"))
    return found


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
        dom, cod = cat.mor_dom, cat.mor_cod
        for corner, one, other in (
            ("X'", dom[self.f_prime], dom[self.p_prime]), ("Y'", cod[self.f_prime], dom[self.p]),
            ("X", cod[self.p_prime], dom[self.f]), ("Y", cod[self.p], cod[self.f]),
        ):
            if one != other:
                raise DomainError(f"square corners do not align at {corner}")
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


def fibre_masks(p: tuple[int, ...], f: tuple[int, ...]) -> tuple[int, ...]:
    """The fibre relation {(a, b) : f(a) = p(b)}, as the mask of p's fibre over each f(a)."""
    return tuple(sum(1 << b for b, pb in enumerate(p) if pb == fa) for fa in f)


def pullback(fib: SubobjectFibration, f: int, p: int) -> PullbackSquare:
    """The canonical pullback square of the cospan f: X->Y, p: Y'->Y."""
    if not hasattr(fib.backend, "pullback_legs"):
        raise CapabilityError(f"fibration {fib.name} does not support pullbacks")
    if fib.cod(f) != fib.cod(p):
        raise DomainError("pullback needs a cospan: cod f == cod p")
    cat = fib.category
    relation = fibre_masks(cat.graphs[p], cat.graphs[f])
    f_prime, p_prime = fib.backend.pullback_legs(fib, cat.mor_dom[f], cat.mor_dom[p], relation)
    return PullbackSquare(fib, f_prime=f_prime, p=p, p_prime=p_prime, f=f)
