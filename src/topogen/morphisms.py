"""Morphism classes relative to a topogenous order, and their calculus.

Each class of f: X -> Y is one biconditional, "bit of rel_Y iff bit of
rel_X", over rows m and columns n ranging over sub X or sub Y.  A column
over Y compares bit n with bit f^{-1}(n), and a column over X compares bit
f_*(n) with bit n.  So pulling whole rows back along the table of the
columns (``_pulled_rows``) makes each class an equality of row tuples.  With
px = rel_X pulled back along f^{-1} and qy = rel_Y pulled back along f_*:

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

The calculus of the classes and their ascent and descent across pullback
squares is one table, ``LAWS``: per scope (isos, composable pairs, single
morphisms, pullback squares), laws (id, premises, conclusion) over (role,
fact) pairs.  A law is violated where every premise is True and its
conclusion is False, so a flag that is None neither fires a law nor fails
one.  ``check_class_calculus`` decides the table once per key of interned
fact ids, and ``transfer_laws`` per square.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Optional

from .errors import CapabilityError, InternalConsistencyError, PreconditionError
from .reporting import Report, Violation
from .structures import (
    ClosureOperator,
    InteriorOperator,
    TopogenousOrder,
    closure_from_topogenous,
    interior_from_topogenous,
    is_interpolative,
    is_join_preserving,
    is_meet_preserving,
)
from .site import PullbackSquare, SubobjectFibration, check_bcp, intern


@dataclass(frozen=True)
class MorphismClassification:
    morphism: int
    continuous: bool
    strict: bool
    final: bool
    costrict: Optional[bool]
    initial: Optional[bool]
    weakly_final: bool


_CLASSES = ("strict", "final", "costrict", "initial")
class_flags = attrgetter(*_CLASSES)  # a classification's flags, in _CLASSES order


@lru_cache(maxsize=None)
def _pulled_rows(rows: tuple[int, ...], table: tuple[int, ...]) -> tuple[int, ...]:
    """Each row with bit n set to bit ``table[n]`` of that row; memoised by
    value, since many morphisms share a relation and a table."""
    return tuple(sum(1 << n for n, k in enumerate(table) if row >> k & 1) for row in rows)


def _weakly_final(below, up, rely) -> bool:
    # only the direction not already forced by preimage-stability: for
    # m <= n in sub Y, f^{-1}(m) ⊏ f^{-1}(n) (bit n of below[m]) implies m ⊏ n
    return not any(b & u & ~r for b, u, r in zip(below, up, rely))


def classify(f: int, t: TopogenousOrder) -> MorphismClassification:
    fib = t.fib
    img, pre, fstar = fib.img[f], fib.pre[f], fib.fstar[f]
    relx, rely = t.rel[fib.dom(f)], t.rel[fib.cod(f)]
    px = _pulled_rows(relx, pre)
    below = tuple(map(px.__getitem__, pre))
    final = rely == below
    costrict = initial = None
    if fstar is not None:
        qy = _pulled_rows(rely, fstar)
        costrict = qy == tuple(map(relx.__getitem__, pre))
        initial = tuple(map(qy.__getitem__, img)) == relx
    return MorphismClassification(
        morphism=f,
        continuous=not any(r & ~b for r, b in zip(rely, below)),
        strict=tuple(map(rely.__getitem__, img)) == px,
        final=final,
        costrict=costrict,
        initial=initial,
        # final implies weakly final
        weakly_final=final or _weakly_final(below, fib.sub_cod(f).up, rely),
    )


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
    qy = _pulled_rows(rely, fib.fstar[f])
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


def check_strict_transfer(f: int, t: TopogenousOrder) -> Report:
    """Strict subobjects against final/initial morphisms.

    For a final f, n is strict in the codomain iff its preimage is strict;
    for an interpolative order and initial f, every strict subobject of the
    domain is a preimage.
    """
    fib = t.fib
    cat = fib.category
    name = cat.mor_names[f]
    pre = fib.pre[f]
    violations = []
    checked = 0
    cls = classify(f, t)
    ly, lx = fib.sub_cod(f), fib.sub_dom(f)
    if cls.final:
        x, y = fib.dom(f), fib.cod(f)
        for n in range(ly.size):
            checked += 1
            if (t.rel[y][n] >> n & 1) != (t.rel[x][pre[n]] >> pre[n] & 1):
                violations.append(
                    Violation("final-strictness-transfer", where=name, witness=(ly.labels[n],))
                )
    if cls.initial and is_interpolative(t):
        x = fib.dom(f)
        preimages = set(pre)
        for m in strict_subobjects(x, t):
            checked += 1
            if m not in preimages:
                violations.append(
                    Violation("initial-strict-is-preimage", where=name, witness=(lx.labels[m],))
                )
    return Report(f"strict-transfer {name}", checked, tuple(violations))


# ---------------------------------------------------------------------------
# the class calculus and pullback transfer, stated once as data

# The facts a law may read of a morphism, in ``morphism_facts`` order; the
# square laws read class flags only.
FACTS = (*_CLASSES, "weakly_final", "m", "e", "raw_e", "identity")


def morphism_facts(fib: SubobjectFibration, cls: MorphismClassification) -> tuple:
    """f's class flags, weak finality, f in M, f in E where E is
    pullback-stable, f in E, and whether f is an identity."""
    f, in_e = cls.morphism, cls.morphism in fib.eclass
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
    fact_id, index = intern(morphism_facts(fib, classify(f, t)) for f in range(cat.n_morphisms))
    facts = tuple(index)
    iso, pair, one = (
        lru_cache(maxsize=None)(lambda *ids, s=scope: violated(s, map(facts.__getitem__, ids)))
        for scope in ("iso", "pair", "morphism")
    )
    isos = cat.isomorphisms()
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
    The verdict reads only the four classifications' flags, so sweeps may
    memoise it on them."""
    return violated("square", map(class_flags, (c_f_prime, c_p, c_p_prime, c_f)))


def check_pullback_transfer(sq: PullbackSquare, t: TopogenousOrder, cache=None) -> Report:
    """Ascent along an initial p' and descent along a final p, per class.

    The violations are those of :func:`transfer_laws` on the four
    classifications.  ``cache`` may map morphism ids to precomputed
    classifications.  A square without the Beck-Chevalley equality raises
    ``PreconditionError``.

    The sweep calls :func:`transfer_laws` directly; this per-square form
    stays public because the benchmark's tracer (``benchmark/tracing.py``,
    ``TARGETS``) names it and ``tests/test_tooling.py``'s
    ``test_every_traced_function_resolves`` requires every traced name to
    resolve.
    """
    if not check_bcp(sq).bcp_equality:
        raise PreconditionError("square does not satisfy the Beck-Chevalley equality")
    cache = cache or {}
    c_f_prime, c_p, c_p_prime, c_f = (
        cache.get(m) or classify(m, t) for m in (sq.f_prime, sq.p, sq.p_prime, sq.f)
    )
    checked = len(_CLASSES) * ((c_p_prime.initial is True) + bool(c_p.final))
    where = sq.name
    violations = tuple(
        Violation(law, where=where) for law in transfer_laws(c_f_prime, c_p, c_p_prime, c_f)
    )
    return Report(f"pullback-transfer {where}", checked, violations)


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
    if is_meet_preserving(t):
        operators.append(("closure", closure_classes, closure_from_topogenous(t)))
    if is_join_preserving(t):
        operators.append(("interior", interior_classes, interior_from_topogenous(t)))
    if not operators:
        raise PreconditionError("order preserves neither meets nor joins")
    violations = []
    checked = 0
    for f, name in enumerate(fib.category.mor_names):
        flags = class_flags(classify(f, t))
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
    c = closure_from_topogenous(t) if is_meet_preserving(t) else None
    i = interior_from_topogenous(t) if is_join_preserving(t) else None
    violations = []
    checked = 0
    for f, name in enumerate(fib.category.mor_names):
        x, y = fib.dom(f), fib.cod(f)
        img, pre, fstar = fib.img[f], fib.pre[f], fib.fstar[f]
        if c is None and (i is None or fstar is None):
            raise PreconditionError(
                "weak-finality formulas need a meet-preserving order, or a "
                "join-preserving order with the right adjoint of preimage"
            )
        ly = fib.sub[y]
        px = _pulled_rows(t.rel[x], pre)
        wf = _weakly_final(map(px.__getitem__, pre), ly.up, t.rel[y])
        if c is not None:
            formula = all(
                c.cmap[y][m] == ly.join(m, img[c.cmap[x][pre[m]]]) for m in range(ly.size)
            )
            checked += ly.size
            if formula != wf:
                violations.append(Violation("closure-formula-vs-weak-finality", where=name))
        if i is not None and fstar is not None:
            formula = all(
                i.imap[y][m] == ly.meet(m, fstar[i.imap[x][pre[m]]]) for m in range(ly.size)
            )
            checked += ly.size
            if formula != wf:
                violations.append(Violation("interior-formula-vs-weak-finality", where=name))
    return Report(f"weak-finality {fib.name}", checked, tuple(violations))
