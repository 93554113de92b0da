"""Morphism classes relative to a topogenous order, and their calculus.

Each class of f: X -> Y is one biconditional, "bit of rel_Y iff bit of
rel_X", over rows m and columns n ranging over sub X or sub Y.  A column
over Y compares bit n with bit f^{-1}(n), and a column over X compares bit
f_*(n) with bit n.  So pulling whole rows back along the table of the
columns (``structures.pull_along``) makes each class an equality of row
tuples.  With px = rel_X pulled back along f^{-1} and qy = rel_Y pulled
back along f_*:

    class      rows  equality
    strict     X     rel_Y∘img == px
    final      Y     rel_Y     == px∘pre
    co-strict  Y     qy        == rel_X∘pre
    initial    X     qy∘img    == rel_X

Continuity (preimage stability) is the final pair read as an inclusion,
rel_Y ⊆ px∘pre; its renderings (2) and (3) are the co-strict and initial
row pairs read as inclusions, and weak finality reads the final pair over
m <= n.
The co-strict and initial rows need the right adjoint f_* of preimage, so
those two classes are tri-state: ``None`` means "not applicable" because
that adjoint does not exist for the morphism.

One routine, ``_classifier``, decides all of a map's classes from its
domain, codomain and tables: ``classify`` asks it for one morphism,
``classify_map`` for one map given by its graph, ``classifications`` for
every morphism of an order, and every per-order statement reads the latter.

The classes are categorical, so they do not change when a map's ends are
replaced by isomorphic objects.  ``classifications`` decides each map
f: X -> Y through f~ = ι_Y^-1 ∘ f ∘ ι_X, with ι_A: rep A -> A the
least-index iso from A's class representative (``site.iso_classes``),
once per f~: 1,476 of fintop3's 11,345 maps.  It does so only where that is
exact, checked on every call (``class_transport``): the fibration is
carried along the lattice isomorphisms U_A = img ι_A, image, preimage and
f_* tables alike (``site.lattice_transport``, once per fibration), and so
is the order, rel_A being rel_{rep A} carried along U_A.  Elsewhere every
map is classified on its own.  ``classify`` and ``classify_map`` read no
classes.

The calculus of the classes and their ascent and descent across pullback
squares is one table, ``LAWS``: per scope (isos, composable pairs, single
morphisms, pullback squares), laws (id, premises, conclusion) over (role,
fact) pairs.  A law is violated where every premise is True and its
conclusion is False, so a flag that is None neither fires a law nor fails
one.  ``check_class_calculus`` decides the table once per key of interned
fact ids.  ``check_pullback_transfer`` counts every pullback square along
E or M, visiting one cospan per isomorphism class of its corners where
that is exact, and decides the Beck-Chevalley condition and the square
laws (``transfer_laws``) once per key of interned tables and flags.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import factorial
from operator import and_, attrgetter, or_
from typing import Optional

from .errors import CapabilityError, DomainError, InternalConsistencyError, PreconditionError
from .reporting import Report, Violation
from .structures import (
    CORRESPONDENCE,
    ClosureOperator,
    InteriorOperator,
    TopogenousOrder,
    is_interpolative,
    pull_along,
)
from .site import (
    PullbackSquare,
    SubobjectFibration,
    carry_rows,
    check_bcp,
    fibre_masks,
    intern,
    inverse_table,
    iso_classes,
    lattice_transport,
)


@dataclass(frozen=True, slots=True)
class MorphismClassification:
    """A map's flags under an order: a value, shared by every map with
    these flags (``_RECORDS``)."""

    continuous: bool
    strict: bool
    final: bool
    costrict: Optional[bool]
    initial: Optional[bool]
    weakly_final: bool


_CLASSES = ("strict", "final", "costrict", "initial")
class_flags = attrgetter(*_CLASSES)  # a classification's flags, in _CLASSES order

# the one record per flag tuple, in field order, that ``_classifier`` returns
_TWO, _THREE = (False, True), (None, False, True)
_RECORDS = {
    flags: MorphismClassification(*flags)
    for flags in product(_TWO, _TWO, _TWO, _THREE, _THREE, _TWO)
}


def _classifier(t: TopogenousOrder):
    """(x, y, pre, img, fstar) ↦ the ``MorphismClassification`` under t of
    a map x -> y with these tables, the one routine that decides the
    classes; the record is the shared one of its flags (``_RECORDS``).

    The rows each class compares are memoised on what they read: per (dom,
    pre) px, below = px∘pre and rel_X∘pre; per (cod, img) rel_Y∘img; per
    (cod, f_*, img) qy and qy∘img.  So each class flag is one tuple
    comparison, and continuity and weak finality one comparison of rows
    combined by ``map``.
    """
    fib, rel = t.fib, t.rel
    pulled, images, adjoint = {}, {}, {}

    def classification(x, y, pre, img, fstar) -> MorphismClassification:
        relx, rely = rel[x], rel[y]
        found = pulled.get((x, pre))
        if found is None:
            px = tuple(map(pull_along(pre).__getitem__, relx))
            found = pulled[x, pre] = (
                px, tuple(map(px.__getitem__, pre)), tuple(map(relx.__getitem__, pre)))
        px, below, relx_pre = found
        rely_img = images.get((y, img))
        if rely_img is None:
            rely_img = images[y, img] = tuple(map(rely.__getitem__, img))
        final = rely == below
        costrict = initial = None
        if fstar is not None:
            found = adjoint.get((y, fstar, img))
            if found is None:
                qy = tuple(map(pull_along(fstar).__getitem__, rely))
                found = adjoint[y, fstar, img] = (qy, tuple(map(qy.__getitem__, img)))
            costrict, initial = found[0] == relx_pre, found[1] == relx
        # final implies continuous and weakly final; weak finality is the
        # direction preimage stability does not force: for m <= n in sub Y,
        # f^{-1}(m) ⊏ f^{-1}(n) implies m ⊏ n, so row m of rel_Y holds
        # below[m] & up[m]
        return _RECORDS[
            final or tuple(map(and_, rely, below)) == rely, rely_img == px, final,
            costrict, initial,
            final or tuple(map(or_, map(and_, below, fib.sub[y].up), rely)) == rely]

    return classification


def classify(f: int, t: TopogenousOrder) -> MorphismClassification:
    """The classes of the one morphism f under t."""
    fib = t.fib
    cat = fib.category
    return _classifier(t)(cat.mor_dom[f], cat.mor_cod[f], fib.pre[f], fib.img[f], fib.fstar[f])


def classify_map(t: TopogenousOrder, x: int, y: int, graph: tuple[int, ...]) -> MorphismClassification:
    """The classes under t of the morphism x -> y with this graph, read off
    its own tables (``tables_by_graph``): on a fibration that tabulates on
    first read, no other map is tabulated.  The record is ``classify``'s."""
    img, pre, fstar = t.fib.tables_by_graph(x, y, graph)
    return _classifier(t)(x, y, pre, img, fstar)


def class_transport(t: TopogenousOrder) -> tuple[int, ...]:
    """Per morphism f, the morphism whose classes under t are f's: f~ of
    ``site.iso_classes`` when the fibration is carried along the lattice
    isomorphisms U_A = img ι_A (``site.lattice_transport``) and so is t,
    rel_A being rel_{rep A} carried along U_A at each object A; f itself
    otherwise.  Then every row ``_classifier`` compares at f is the row it
    compares at f~, carried along U_X or U_Y, so the flags agree."""
    fib = t.fib
    classes = iso_classes(fib.category)
    units = lattice_transport(fib)
    if units is not None and all(
        carry_rows(t.rel[r], units[a]) == t.rel[a] for a, r in enumerate(classes.rep) if r != a
    ):
        return classes.moved
    return tuple(range(len(classes.moved)))


def classifications(t: TopogenousOrder) -> tuple[MorphismClassification, ...]:
    """The classes of every morphism under t, in morphism order.  One
    classifier, from its row memos, decides each distinct map of
    ``class_transport(t)`` once, and every morphism f reads the record of
    its map: f~ where the fibration's tables and t are carried along the
    isos ι_A, which ``class_transport`` checks on every call, f itself
    where they are not."""
    fib = t.fib
    cat = fib.category
    moved = class_transport(t)
    maps = sorted(set(moved))
    columns = (cat.mor_dom, cat.mor_cod, fib.pre, fib.img, fib.fstar)
    decided = dict(zip(maps, map(_classifier(t), *(map(c.__getitem__, maps) for c in columns))))
    return tuple(map(decided.__getitem__, moved))


def strict_subobjects(x: int, t: TopogenousOrder) -> tuple[int, ...]:
    """Elements m of sub x with m ⊏ m."""
    return tuple(m for m in range(t.fib.sub[x].size) if t.rel[x][m] >> m & 1)


def continuity_equivalents(f: int, t: TopogenousOrder) -> tuple[bool, bool, bool]:
    """Three equivalent renderings of continuity of f; must agree.

    (1) relating pairs in sub Y pull back to relating pairs in sub X;
    (2) m ⊏ f_*(n) implies f^{-1}(m) ⊏ n, for m in sub Y and n in sub X;
    (3) f(m) ⊏ f_*(n) implies m ⊏ n, for m, n in sub X.
    """
    fib = t.fib
    if fib.fstar[f] is None:
        raise CapabilityError(
            f"{fib.category.mor_names[f]}: preimage has no right adjoint"
        )
    relx, rely = t.rel[fib.dom(f)], t.rel[fib.cod(f)]
    qy = tuple(map(pull_along(fib.fstar[f]).__getitem__, rely))
    form1 = t.law_holds(f)
    form2 = not any(a & ~b for a, b in zip(qy, map(relx.__getitem__, fib.pre[f])))
    form3 = not any(a & ~b for a, b in zip(map(qy.__getitem__, fib.img[f]), relx))
    if not (form1 == form2 == form3):
        raise InternalConsistencyError(
            f"continuity renderings disagree on {fib.category.mor_names[f]}: "
            f"{(form1, form2, form3)}"
        )
    return form1, form2, form3


# ---------------------------------------------------------------------------
# transfer of strict subobjects


def check_strict_transfer(t: TopogenousOrder) -> Report:
    """Strict subobjects against the final and initial morphisms of t.

    For a final f, n is strict in the codomain iff its preimage is strict;
    for an interpolative order and initial f, every strict subobject of the
    domain is a preimage.
    """
    fib = t.fib
    violations = []
    checked = 0
    for f, (name, cls) in enumerate(zip(fib.category.mor_names, classifications(t))):
        x, y, pre = fib.dom(f), fib.cod(f), fib.pre[f]
        if cls.final:
            for n, label in enumerate(fib.sub[y].labels):
                checked += 1
                if (t.rel[y][n] >> n & 1) != (t.rel[x][pre[n]] >> pre[n] & 1):
                    violations.append(
                        Violation("final-strictness-transfer", where=name, witness=(label,)))
        if cls.initial and is_interpolative(t):
            preimages = set(pre)
            for m in strict_subobjects(x, t):
                checked += 1
                if m not in preimages:
                    violations.append(Violation(
                        "initial-strict-is-preimage", where=name,
                        witness=(fib.sub[x].labels[m],)))
    return Report(f"strict-transfer {fib.name}", checked, tuple(violations))


# ---------------------------------------------------------------------------
# the class calculus and pullback transfer, stated once as data

# The facts a law may read of a morphism, in ``morphism_facts`` order; the
# square laws read class flags only.
FACTS = (*_CLASSES, "weakly_final", "m", "e", "raw_e", "identity")


def morphism_facts(fib: SubobjectFibration, f: int, cls: MorphismClassification) -> tuple:
    """f's class flags (``cls``), weak finality, f in M, f in E where E is
    pullback-stable, f in E, and whether f is an identity."""
    in_e = f in fib.eclass
    return (*class_flags(cls), cls.weakly_final, f in fib.mclass,
            in_e and fib.e_pullback_stable, in_e, fib.category.is_identity(f))


# Each scope's roles: h = g∘f for pairs, and p∘f' = f∘p' for squares.
ROLES = {"iso": ("f",), "pair": ("f", "g", "h"), "morphism": ("f",), "square": ("f'", "p", "p'", "f")}

# Each scope's laws, in report order.
LAWS = {
    "iso": tuple((f"iso-{k}", (), ("f", k)) for k in _CLASSES),
    # initial and final cancel fully, the others along M and stable E
    "pair": (
        *(law for k in _CLASSES for law in (
            (f"compose-{k}", (("f", k), ("g", k)), ("h", k)),
            ("left-cancel-initial", (("h", k),), ("f", k)) if k == "initial"
            else (f"left-cancel-{k}-along-m", (("h", k), ("g", "m")), ("f", k)),
            ("right-cancel-final", (("h", k),), ("g", k)) if k == "final"
            else (f"right-cancel-{k}-along-e", (("h", k), ("f", "e")), ("g", k)),
        )),
        ("section-initial", (("h", "identity"),), ("f", "initial")),
        ("retraction-final", (("h", "identity"), ("g", "raw_e")), ("g", "final")),
    ),
    "morphism": (
        ("costrict-in-m-initial", (("f", "m"), ("f", "costrict")), ("f", "initial")),
        ("initial-in-e-costrict", (("f", "e"), ("f", "initial")), ("f", "costrict")),
        ("strict-in-m-initial", (("f", "m"), ("f", "strict")), ("f", "initial")),
        ("strict-in-e-final", (("f", "e"), ("f", "strict")), ("f", "final")),
        ("final-in-m-strict", (("f", "m"), ("f", "final")), ("f", "strict")),
        ("costrict-in-e-final", (("f", "e"), ("f", "costrict")), ("f", "final")),
        # on stable E, weak finality is finality
        *(("weak-final-vs-final-in-e", (("f", "e"), ("f", a)), ("f", b))
          for a, b in (("weakly_final", "final"), ("final", "weakly_final"))),
    ),
    "square": (
        *((f"ascent-{k}", (("p'", "initial"), ("f", k)), ("f'", k)) for k in _CLASSES),
        *((f"descent-{k}", (("p", "final"), ("f'", k)), ("f", k)) for k in _CLASSES),
    ),
}


def violated(scope: str, facts) -> tuple[str, ...]:
    """The ids of the scope's laws violated by ``facts``, one tuple per role."""
    at = dict(zip(ROLES[scope], facts))
    return tuple(
        law for law, premises, (role, k) in LAWS[scope]
        if at[role][FACTS.index(k)] is False
        and all(at[r][FACTS.index(x)] is True for r, x in premises)
    )


def check_class_calculus(fib: SubobjectFibration, t: TopogenousOrder) -> Report:
    """The iso, pair and per-morphism ``LAWS``, each scope decided once per
    key of interned fact ids; ``checked`` counts isos, pairs and morphisms."""
    cat = fib.category
    names = cat.mor_names
    fact_id, index = intern(
        morphism_facts(fib, f, cls) for f, cls in enumerate(classifications(t)))
    facts = tuple(index)
    iso, pair, one = (
        lru_cache(maxsize=None)(lambda *ids, s=scope: violated(s, map(facts.__getitem__, ids)))
        for scope in ("iso", "pair", "morphism")
    )
    isos = iso_classes(cat).isomorphisms
    violations = [Violation(law, where=names[f]) for f in isos for law in iso(fact_id[f])]
    violations += (
        Violation(law, witness=(names[g], names[f]))
        for g, f, h in cat.composites() for law in pair(fact_id[f], fact_id[g], fact_id[h])
    )
    violations += (Violation(law, where=n) for f, n in enumerate(names) for law in one(fact_id[f]))
    pairs = sum(len(cat.morphisms_from[y]) for y in cat.mor_cod)
    return Report("class-calculus", len(isos) + pairs + len(names), tuple(violations))


# ---------------------------------------------------------------------------
# pullback transfer


def transfer_laws(
    c_f_prime: MorphismClassification,
    c_p: MorphismClassification,
    c_p_prime: MorphismClassification,
    c_f: MorphismClassification,
) -> tuple[str, ...]:
    """The square ``LAWS`` a Beck-Chevalley square p∘f' = f∘p' violates.
    The verdict reads only the four classifications' flags, so
    ``check_pullback_transfer`` memoises it on them."""
    return violated("square", map(class_flags, (c_f_prime, c_p, c_p_prime, c_f)))


# a verdict whose violation is named by f, not by the square
_INEQUALITY = ("image-preimage-inequality",)
_MISSING = object()
# the causes of the squares left out of ``checked``, in note order
_BUDGET, _NO_CORNER = "beyond point budget", "whose pullback corner is not an object"
_NO_BCP = "without the Beck-Chevalley equality"


def _class_weights(fib: SubobjectFibration, img_id, pre_id, flag_id) -> tuple[int, ...]:
    """Per object, the size of its isomorphism class at the class's
    representative and 0 at its other objects, when the E∪M sweep may count
    pullback squares by the classes of their corners; 1 per object, that is
    singleton classes, when it may not.

    The classes, each representative rep A, the isos ι_A: rep A -> A and
    each map's f~ = ι_Y^-1 ∘ f ∘ ι_X are ``site.iso_classes``'.  With
    ``flag_id`` the interned class flags of each map in every order, the
    classes are used when

    - H1: f~ is in E∪M exactly when f is;
    - H2: f~ has the flags of f, and g∘α those of g, for every map g between
      representatives and non-identity automorphism α of dom g;
    - H3: the fibration is carried along the U_A = img ι_A
      (``site.lattice_transport``); each img α is a bijection, with
      img(g∘α) = img g ∘ img α and pre(g∘α) = (img α)^-1 ∘ pre g;
    - H4: the isos out of each representative A have |A|! distinct graphs:
      |class A|·|Aut A| = |A|!, and each relabelling of A is one object.
    """
    cat = fib.category
    ones = (1,) * cat.n_objects
    classes = iso_classes(cat)
    rep, moved = classes.rep, classes.moved
    dom, cod, graphs, by_graph = cat.mor_dom, cat.mor_cod, cat.graphs, cat.morphism_by_graph
    img, pre, sub = fib.img, fib.pre, fib.sub
    relabellings = [[] for _ in rep]
    for u in classes.isomorphisms:
        if rep[dom[u]] == dom[u]:
            relabellings[dom[u]].append(graphs[u])
    if any(
        not len(relabellings[a]) == len(set(relabellings[a])) == factorial(len(graphs[i]))
        for a, i in enumerate(cat.identities) if rep[a] == a
    ) or lattice_transport(fib) is None:
        return ones
    em = fib.eclass | fib.mclass
    if any(flag_id[g] != flag_id[f] or (g in em) != (f in em) for f, g in enumerate(moved) if g != f):
        return ones
    # H2 and H3 along each automorphism α of a representative, the tables
    # decided once per (table ids of g and g∘α, α)
    agree = {}
    for r, alphas in enumerate(classes.automorphisms):
        if rep[r] != r:
            continue
        for alpha in alphas:
            v = img[alpha]
            v_inverse = inverse_table(v, sub[r].size)
            if v_inverse is None:
                return ones
            for g in cat.morphisms_from[r]:
                s = cod[g]
                if rep[s] != s:
                    continue
                h = by_graph(r, s, tuple(map(graphs[g].__getitem__, graphs[alpha])))
                if h is None or flag_id[h] != flag_id[g]:
                    return ones
                key = (img_id[g], pre_id[g], img_id[h], pre_id[h], alpha)
                if key not in agree:
                    agree[key] = img[h] == tuple(map(img[g].__getitem__, v)) and pre[h] == tuple(
                        map(v_inverse.__getitem__, pre[g]))
                if not agree[key]:
                    return ones
    sizes = Counter(rep)
    return tuple(sizes[a] if r == a else 0 for a, r in enumerate(rep))


def check_pullback_transfer(fib: SubobjectFibration, classifications) -> Report:
    """Beck-Chevalley and pullback transfer over every pullback along E or M.

    ``classifications`` maps each order kind to the classifications of all
    morphisms.  Each cospan (f, p) with p in E or M is checked on its
    pullback square p o f' = f o p', in sweep order: a square without the
    image-preimage inequality is a violation named by f, and one with it
    but without the Beck-Chevalley equality reads no transfer law and is
    counted in a note, not in ``checked``.  The report's ``counts`` are the
    sweep's own: classes, cospans visited, distinct fibre relations,
    ``pullback_legs`` calls, verdict misses and ``check_bcp`` calls.

    Classes.  Whether a square is checked, skipped or failing is a
    categorical fact, unchanged when the cospan's corners X, Y', Y are
    replaced by isomorphic objects.  So the sweep visits only the cospans
    whose three corners are their isomorphism classes' least object indices,
    and counts each as |[X]|·|[Y']|·|[Y]| squares: (p, f) ↦ (ι_Y^-1∘p∘ι_Y',
    ι_Y^-1∘f∘ι_X) sends every cospan onto these, that many to one.  The
    weighting is exact under the hypotheses H1-H4 of ``_class_weights``,
    checked on every call before the sweep.  A transported cospan's legs
    are the representative's legs transported and composed with an
    automorphism of the corner, so the four flags agree (H1, H2); the
    Beck-Chevalley inequality and equality carry over along the order
    isomorphisms U_A (H3); a corner is an object exactly when its
    relabelling is (H4); and the budget reads |R| alone.  Where H fails (a
    flag or table that isos move, a sliced E∪M, a catalog without every
    relabelling of its spaces) the classes are singletons; where the classes
    meet a violation, the sweep starts again with singleton classes.  Either
    way every failing square is named, in sweep order.  Medium: 48,132
    cospans visited over 19 classes (fintop2 288 of 521, fintop3 47,844 of
    725,672).

    Legs.  The pullback of f: X->Y along p: Y'->Y is the fibre product of
    the graphs with the subspace topology of X x Y', so its legs f', p'
    depend on dom f, dom p and the fibre relation R = {(a, b) : f(a) = p(b)}
    alone, and R on graph p and graph f alone.  Graphs are interned; each
    graph of p keeps a row of relation ids, indexed by graph id of f and
    filled on first use (``fibre_masks``; medium: 776 fills).  Within a
    block of consecutive p with one domain, legs are looked up by relation
    id and dom f.  A miss (medium: 5,533) over the backend's ``max_points``
    points is skipped as beyond the point budget with no backend call
    (1,935); the others read the legs off R by the backend's
    ``pullback_legs``, which looks each leg up by (dom, cod, graph), so the
    square aligns, and refuses a corner that is not an object.  It keeps
    R's points per relation (medium: 75 distinct relations over 3,598
    calls) and each side's neighbourhood masks per (object, coordinates)
    (435), so a corner's key is the meet of two memoised tuples.  Legs
    certify R: p o f' = f o p' on the graphs, or ``DomainError``; every
    cospan of R commutes, as f(a) = p(b) on R.  The medium sweep counts
    672,582 checked squares, and builds a ``PullbackSquare`` only for
    ``check_bcp`` on a memo miss and to name a violation.

    Verdicts.  ``check_bcp`` reads four tables (img p', pre f', img p,
    pre f) and the lattices of cod f' and cod p', and ``transfer_laws`` the
    flags of f', p, p' and f in every order, interned as one id per map.
    So a cospan's whole verdict is a function of three ids interned over
    the sweep: its leg side (img p', pre f', both lattices, and the flags
    of f' and p'), read once per relation miss; its p side (img p and its
    flags); and its f side (pre f and its flags).  The relation memo stores
    the leg side premultiplied by the number of f sides, so a cospan costs
    one addition and one lookup in the verdict memo of its p side, kept for
    the whole sweep; ``check_bcp`` and ``transfer_laws`` run, memoised on
    their own keys, only on a verdict miss (medium: 9,793 verdicts, 814
    ``check_bcp`` calls).  Lattices are keyed by identity: objects of one
    size share one.
    """
    cat = fib.category
    names, dom, cod = cat.mor_names, cat.mor_dom, cat.mor_cod
    img_id, _ = intern(fib.img)
    pre_id, _ = intern(fib.pre)
    sub_id, _ = intern(map(id, fib.sub))
    graph_id, graph_ids = intern(cat.graphs)
    classes = list(classifications.values())
    flag_id, _ = intern(tuple(class_flags(cls[f]) for cls in classes) for f in range(len(names)))
    f_side, f_sides = intern(zip(pre_id, flag_id))
    p_side, _ = intern(zip(img_id, flag_id))
    leg_sides, bcps, transfers, by_p_side = {}, {}, {}, {}
    # relation ids x n_objects, per graph id of p and graph id of f
    rows, n_objects = [None] * len(graph_ids), cat.n_objects
    relation_ids, masks = {}, []  # masks[id] is None beyond the point budget
    counts = dict.fromkeys(("cospans", "legs", "verdicts"), 0)

    def relation_key(p, f):
        relation = fibre_masks(cat.graphs[p], cat.graphs[f])
        if relation not in relation_ids:
            relation_ids[relation] = len(masks)
            within = sum(map(int.bit_count, relation)) <= fib.backend.max_points
            masks.append(relation if within else None)
        return relation_ids[relation] * n_objects

    def legs_of(f, p, relation):
        """(f', p', leg side id times the number of f sides), or _NO_CORNER."""
        counts["legs"] += 1
        try:
            f_prime, p_prime = fib.backend.pullback_legs(fib, dom[f], dom[p], relation)
        except CapabilityError:
            return _NO_CORNER
        # certify R: p o f' = f o p', read on the graphs at each corner point
        p_after_f_prime = map(cat.graphs[p].__getitem__, cat.graphs[f_prime])
        if list(p_after_f_prime) != list(map(cat.graphs[f].__getitem__, cat.graphs[p_prime])):
            raise DomainError(f"pullback legs of {names[f]} and {names[p]} do not commute")
        side = (
            img_id[p_prime], pre_id[f_prime], sub_id[cod[f_prime]], sub_id[cod[p_prime]],
            flag_id[f_prime], flag_id[p_prime],
        )
        return f_prime, p_prime, leg_sides.setdefault(side, len(leg_sides)) * len(f_sides)

    def verdict(f, p, f_prime, p_prime):
        counts["verdicts"] += 1
        key = (
            img_id[p_prime], pre_id[f_prime], img_id[p], pre_id[f],
            sub_id[cod[f_prime]], sub_id[cod[p_prime]],
        )
        bcp = bcps.get(key)
        if bcp is None:
            bcp = bcps[key] = check_bcp(PullbackSquare(fib, f_prime, p, p_prime, f))
        if not bcp.lemma_inequality_holds:
            return _INEQUALITY
        if not bcp.bcp_equality:
            return _NO_BCP
        key = (flag_id[f_prime], flag_id[p], flag_id[p_prime], flag_id[f])
        if key not in transfers:
            transfers[key] = tuple(
                law for cls in classes
                for law in transfer_laws(cls[f_prime], cls[p], cls[p_prime], cls[f]))
        return transfers[key]

    def sweep(weights):
        """(checked, violations, skipped squares per cause) over the cospans
        whose corners have nonzero ``weights``, each counted as the product
        of its corners' weights; None at the first violation when some
        weight is not 1."""
        by_class = any(w != 1 for w in weights)
        violations = []
        checked, skips = 0, dict.fromkeys((_BUDGET, _NO_CORNER, _NO_BCP), 0)
        block, ends = None, {}
        for p in sorted(fib.eclass | fib.mclass):
            y = cod[p]
            w_p = weights[dom[p]] * weights[y]
            if not w_p:
                continue
            if dom[p] != block:
                block, by_relation = dom[p], {}
            row = rows[graph_id[p]]
            if row is None:
                row = rows[graph_id[p]] = [None] * len(graph_ids)
            verdicts = by_p_side.setdefault(p_side[p], {})
            into = ends.get(y)
            if into is None:
                into = ends[y] = [(f, weights[dom[f]]) for f in cat.morphisms_to[y] if weights[dom[f]]]
            counts["cospans"] += len(into)
            for f, w_f in into:
                key = row[graph_id[f]]
                if key is None:
                    key = row[graph_id[f]] = relation_key(p, f)
                key += dom[f]
                legs = by_relation.get(key, _MISSING)
                if legs is _MISSING:
                    relation = masks[key // n_objects]
                    legs = by_relation[key] = _BUDGET if relation is None else legs_of(f, p, relation)
                if type(legs) is str:
                    skips[legs] += w_p * w_f
                    continue
                f_prime, p_prime, base = legs
                key = base + f_side[f]
                found = verdicts.get(key)
                if found is None:
                    found = verdicts[key] = verdict(f, p, f_prime, p_prime)
                if not found:  # nearly every square: checked, nothing violated
                    checked += w_p * w_f
                    continue
                if found is _NO_BCP:
                    skips[found] += w_p * w_f
                    continue
                if by_class:
                    return None
                checked += 1
                if found is _INEQUALITY:
                    violations.append(Violation(
                        "image-preimage-inequality", where=f"{fib.name}:{names[f]}"))
                else:
                    where = PullbackSquare(fib, f_prime, p, p_prime, f).name
                    violations.extend(Violation(law, where=where) for law in found)
        return checked, violations, skips

    weights = _class_weights(fib, img_id, pre_id, flag_id)
    checked, violations, skips = sweep(weights) or sweep((1,) * n_objects)
    skipped = tuple(f"{fib.name}: {n} squares {cause}" for cause, n in skips.items() if n)
    counts.update(
        classes=sum(map(bool, weights)), relations=len(masks), check_bcp=len(bcps))
    return Report(f"pullback-transfer {fib.name}", checked, tuple(violations), skipped, counts)


# ---------------------------------------------------------------------------
# operator-class crosschecks


def closure_classes(f: int, c: ClosureOperator) -> dict[str, Optional[bool]]:
    """The four closure-operator morphism classes, by direct table equalities."""
    fib = c.fib
    x, y = fib.dom(f), fib.cod(f)
    img, pre, fstar = fib.img[f], fib.pre[f], fib.fstar[f]
    cx, cy = c.cmap[x], c.cmap[y]
    nx, ny = len(cx), len(cy)
    out: dict[str, Optional[bool]] = {}
    out["strict"] = all(cy[img[m]] == img[cx[m]] for m in range(nx))
    out["final"] = all(cy[n] == img[cx[pre[n]]] for n in range(ny))
    if fstar is None:
        out["costrict"] = None
        out["initial"] = None
    else:
        out["costrict"] = all(pre[cy[n]] == cx[pre[n]] for n in range(ny))
        out["initial"] = all(pre[cy[img[m]]] == cx[m] for m in range(nx))
    return out


def interior_classes(f: int, i: InteriorOperator) -> dict[str, Optional[bool]]:
    """The four interior-operator morphism classes, by direct table equalities."""
    fib = i.fib
    x, y = fib.dom(f), fib.cod(f)
    img, pre, fstar = fib.img[f], fib.pre[f], fib.fstar[f]
    ix, iy = i.imap[x], i.imap[y]
    nx, ny = len(ix), len(iy)
    out: dict[str, Optional[bool]] = {}
    out["strict"] = all(pre[iy[n]] == ix[pre[n]] for n in range(ny))
    if fstar is None:
        out["costrict"] = None
        out["initial"] = None
        out["final"] = None
    else:
        out["costrict"] = all(iy[fstar[n]] == fstar[ix[n]] for n in range(nx))
        out["initial"] = all(pre[iy[fstar[n]]] == ix[n] for n in range(nx))
        out["final"] = all(iy[n] == fstar[ix[pre[n]]] for n in range(ny))
    return out


def _converted(t: TopogenousOrder, structure_class):
    """t's operator of ``structure_class``, or None if its orders exclude t."""
    picks, convert, _ = CORRESPONDENCE[structure_class]
    return convert(t) if picks(t) else None


def crosscheck_operator_classes(t: TopogenousOrder) -> Report:
    """Order-relative classes of every morphism against the associated
    operators' classes, each operator converted once.

    Needs preimages to commute with joins fibration-wide (so the operator
    formulations are faithful), plus the relevant preservation property of
    the order.
    """
    fib = t.fib
    if not fib.preimage_join_commuting():
        raise PreconditionError("preimages do not commute with joins in this fibration")
    operators = []
    for cls, classes_of in ((ClosureOperator, closure_classes), (InteriorOperator, interior_classes)):
        op = _converted(t, cls)
        if op is not None:
            operators.append((cls.kind, classes_of, op))
    if not operators:
        raise PreconditionError("order preserves neither meets nor joins")
    violations = []
    checked = 0
    for f, (name, cls) in enumerate(zip(fib.category.mor_names, classifications(t))):
        flags = class_flags(cls)
        for op_kind, classes_of, op in operators:
            oper = classes_of(f, op)
            for kind, flag in zip(_CLASSES, flags):
                checked += 1
                if flag != oper[kind]:
                    violations.append(Violation(f"{op_kind}-class-{kind}", where=name))
    return Report(f"operator-crosscheck {fib.name}", checked, tuple(violations))


# ---------------------------------------------------------------------------
# weak finality formulas


def weakly_final_formulas(t: TopogenousOrder) -> Report:
    """Weak finality of every morphism against its two operator formulas,
    each operator converted once.

    Meet-preserving order: weakly final iff c(m) = m v f(c(f^{-1}(m))) for
    all m downstairs.  Join-preserving order (and f_* available): weakly
    final iff i(m) = m ^ f_*(i(f^{-1}(m))).
    """
    fib = t.fib
    c, i = _converted(t, ClosureOperator), _converted(t, InteriorOperator)
    violations = []
    checked = 0
    for f, (name, cls) in enumerate(zip(fib.category.mor_names, classifications(t))):
        x, y = fib.dom(f), fib.cod(f)
        img, pre, fstar = fib.img[f], fib.pre[f], fib.fstar[f]
        if c is None and (i is None or fstar is None):
            raise PreconditionError(
                "weak-finality formulas need a meet-preserving order, or a "
                "join-preserving order with the right adjoint of preimage"
            )
        ly = fib.sub[y]
        if c is not None:
            formula = all(
                c.cmap[y][m] == ly.join(m, img[c.cmap[x][pre[m]]]) for m in range(ly.size)
            )
            checked += ly.size
            if formula != cls.weakly_final:
                violations.append(Violation("closure-formula-vs-weak-finality", where=name))
        if i is not None and fstar is not None:
            formula = all(
                i.imap[y][m] == ly.meet(m, fstar[i.imap[x][pre[m]]]) for m in range(ly.size)
            )
            checked += ly.size
            if formula != cls.weakly_final:
                violations.append(Violation("interior-formula-vs-weak-finality", where=name))
    return Report(f"weak-finality {fib.name}", checked, tuple(violations))
