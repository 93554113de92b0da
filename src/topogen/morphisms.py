"""Morphism classes relative to a topogenous order, and their calculus.

The four classes (strict, final, co-strict, initial) plus weak finality are
decided by exhaustive quantification over subobject pairs.  Classes whose
definition needs the right adjoint of preimage are tri-state: ``None`` means
"not applicable" because that adjoint does not exist for the morphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from .errors import CapabilityError, InternalConsistencyError, PreconditionError
from .lattice import mask_iter
from .reporting import Report, Violation
from .structures import (
    ClosureOperator,
    InteriorOperator,
    TopogenousOrder,
    closure_from_topogenous,
    interior_from_topogenous,
    is_interpolative,
    predicates,
)
from .site import PullbackSquare, SubobjectFibration, check_bcp


@dataclass(frozen=True)
class MorphismClassification:
    morphism: int
    continuous: bool
    strict: bool
    final: bool
    costrict: Optional[bool]
    initial: Optional[bool]
    weakly_final: bool
    fstar_available: bool


def _is_strict(t: TopogenousOrder, f: int) -> bool:
    fib = t.fib
    img, pre = fib.img[f], fib.pre[f]
    relx, rely = t.rel[fib.dom(f)], t.rel[fib.cod(f)]
    for m in range(len(relx)):
        row_y = rely[img[m]]
        row_x = relx[m]
        for p in range(len(rely)):
            if (row_y >> p & 1) != (row_x >> pre[p] & 1):
                return False
    return True


def _is_final(t: TopogenousOrder, f: int) -> bool:
    fib = t.fib
    pre = fib.pre[f]
    relx, rely = t.rel[fib.dom(f)], t.rel[fib.cod(f)]
    for m in range(len(rely)):
        row_x = relx[pre[m]]
        for n in range(len(rely)):
            if (rely[m] >> n & 1) != (row_x >> pre[n] & 1):
                return False
    return True


def _is_costrict(t: TopogenousOrder, f: int) -> bool:
    fib = t.fib
    pre, fstar = fib.pre[f], fib.fstar[f]
    relx, rely = t.rel[fib.dom(f)], t.rel[fib.cod(f)]
    for m in range(len(rely)):
        row_y = rely[m]
        row_x = relx[pre[m]]
        for n in range(len(relx)):
            if (row_y >> fstar[n] & 1) != (row_x >> n & 1):
                return False
    return True


def _is_initial(t: TopogenousOrder, f: int) -> bool:
    fib = t.fib
    img, fstar = fib.img[f], fib.fstar[f]
    relx, rely = t.rel[fib.dom(f)], t.rel[fib.cod(f)]
    for m in range(len(relx)):
        row_y = rely[img[m]]
        row_x = relx[m]
        for n in range(len(relx)):
            if (row_y >> fstar[n] & 1) != (row_x >> n & 1):
                return False
    return True


def _is_weakly_final(t: TopogenousOrder, f: int) -> bool:
    # only the direction not already forced by preimage-stability:
    # for m <= n in sub Y, preimages related implies m ⊏ n
    fib = t.fib
    pre = fib.pre[f]
    ly = fib.sub_cod(f)
    relx, rely = t.rel[fib.dom(f)], t.rel[fib.cod(f)]
    for m in range(ly.size):
        row_x = relx[pre[m]]
        for n in mask_iter(ly.up[m]):
            if row_x >> pre[n] & 1 and not rely[m] >> n & 1:
                return False
    return True


def classify(f: int, t: TopogenousOrder) -> MorphismClassification:
    fib = t.fib
    has_fstar = fib.fstar[f] is not None
    return MorphismClassification(
        morphism=f,
        continuous=t.law_holds(f),
        strict=_is_strict(t, f),
        final=_is_final(t, f),
        costrict=_is_costrict(t, f) if has_fstar else None,
        initial=_is_initial(t, f) if has_fstar else None,
        weakly_final=_is_weakly_final(t, f),
        fstar_available=has_fstar,
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
    fstar = fib.fstar[f]
    if fstar is None:
        raise CapabilityError(
            f"{fib.category.mor_names[f]}: preimage has no right adjoint"
        )
    img, pre = fib.img[f], fib.pre[f]
    relx, rely = t.rel[fib.dom(f)], t.rel[fib.cod(f)]
    form1 = t.law_holds(f)
    form2 = all(
        not (rely[m] >> fstar[n] & 1) or relx[pre[m]] >> n & 1
        for m in range(len(rely))
        for n in range(len(relx))
    )
    form3 = all(
        not (rely[img[m]] >> fstar[n] & 1) or relx[m] >> n & 1
        for m in range(len(relx))
        for n in range(len(relx))
    )
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
# class calculus: composition, cancellation, containments, sections


_CLASSES = ("strict", "final", "costrict", "initial")
class_flags = attrgetter(*_CLASSES)  # a classification's flags, in _CLASSES order


def check_class_calculus(fib: SubobjectFibration, t: TopogenousOrder) -> Report:
    """Composition closure, cancellation, containments, and split pairs.

    Items conditioned on pullback stability of the E-class are gated by the
    fibration's flag.  Flags that need the right adjoint of preimage are
    skipped (not failed) where it does not exist.
    """
    cat = fib.category
    violations = []
    checked = 0
    cache = {f: classify(f, t) for f in range(cat.n_morphisms)}
    isos = cat.isomorphisms()

    for f in isos:
        cls = cache[f]
        checked += 1
        for kind, flag in zip(_CLASSES, class_flags(cls)):
            if flag is False:
                violations.append(
                    Violation(f"iso-{kind}", where=cat.mor_names[f])
                )

    stable = fib.e_pullback_stable
    for g, f in cat.composable_pairs():
        h = cat.compose(g, f)
        cf, cg, ch = cache[f], cache[g], cache[h]
        pair = (cat.mor_names[g], cat.mor_names[f])
        checked += 1
        for kind, a, b, c in zip(_CLASSES, class_flags(cf), class_flags(cg), class_flags(ch)):
            # composition closure
            if a is True and b is True and c is False:
                violations.append(Violation(f"compose-{kind}", witness=pair))
            # left cancellation: initial fully, the others along M
            if kind == "initial":
                if c is True and a is False:
                    violations.append(Violation("left-cancel-initial", witness=pair))
            elif c is True and g in fib.mclass and a is False:
                violations.append(Violation(f"left-cancel-{kind}-along-m", witness=pair))
            # right cancellation: final fully, the others along stable E
            if kind == "final":
                if c is True and b is False:
                    violations.append(Violation("right-cancel-final", witness=pair))
            elif stable and c is True and f in fib.eclass and b is False:
                violations.append(Violation(f"right-cancel-{kind}-along-e", witness=pair))
        # split pairs: g∘f an identity makes f initial, and g final when g in E
        if cat.is_identity(h):
            if cf.initial is False:
                violations.append(Violation("section-initial", witness=pair))
            if g in fib.eclass and cg.final is False:
                violations.append(Violation("retraction-final", witness=pair))

    for f in range(cat.n_morphisms):
        cls = cache[f]
        name = cat.mor_names[f]
        in_m, in_e = f in fib.mclass, f in fib.eclass
        checked += 1
        if in_m and cls.costrict is True and cls.initial is False:
            violations.append(Violation("costrict-in-m-initial", where=name))
        if stable and in_e and cls.initial is True and cls.costrict is False:
            violations.append(Violation("initial-in-e-costrict", where=name))
        if in_m and cls.strict and cls.initial is False:
            violations.append(Violation("strict-in-m-initial", where=name))
        if stable and in_e and cls.strict and not cls.final:
            violations.append(Violation("strict-in-e-final", where=name))
        if in_m and cls.final and not cls.strict:
            violations.append(Violation("final-in-m-strict", where=name))
        if stable and in_e and cls.costrict is True and not cls.final:
            violations.append(Violation("costrict-in-e-final", where=name))
        # weak finality coincides with finality on stable E
        if stable and in_e and cls.weakly_final != cls.final:
            violations.append(Violation("weak-final-vs-final-in-e", where=name))
    return Report("class-calculus", checked, tuple(violations))


# ---------------------------------------------------------------------------
# pullback transfer


def transfer_laws(
    c_f_prime: MorphismClassification,
    c_p: MorphismClassification,
    c_p_prime: MorphismClassification,
    c_f: MorphismClassification,
) -> tuple[str, ...]:
    """The transfer laws a Beck-Chevalley square p∘f' = f∘p' violates.

    Ascent along an initial p': each class of f holds for f'.  Descent
    along a final p: each class of f' holds for f.  The verdict reads only
    the four classifications' flags, so sweeps may memoise it on them.
    """
    laws = []
    if c_p_prime.initial is True:
        laws.extend(
            f"ascent-{kind}"
            for kind, a, b in zip(_CLASSES, class_flags(c_f), class_flags(c_f_prime))
            if a is True and b is False
        )
    if c_p.final:
        laws.extend(
            f"descent-{kind}"
            for kind, a, b in zip(_CLASSES, class_flags(c_f_prime), class_flags(c_f))
            if a is True and b is False
        )
    return tuple(laws)


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


def crosscheck_operator_classes(f: int, t: TopogenousOrder) -> Report:
    """Order-relative classes against the associated operator's classes.

    Needs preimages to commute with joins fibration-wide (so the operator
    formulations are faithful), plus the relevant preservation property of
    the order.
    """
    fib = t.fib
    if not fib.preimage_join_commuting():
        raise PreconditionError("preimages do not commute with joins in this fibration")
    preds = predicates(t)
    name = fib.category.mor_names[f]
    cls = classify(f, t)
    violations = []
    checked = 0
    if preds.meet_preserving:
        oper = closure_classes(f, closure_from_topogenous(t))
        for kind, flag in zip(_CLASSES, class_flags(cls)):
            checked += 1
            if flag != oper[kind]:
                violations.append(Violation(f"closure-class-{kind}", where=name))
    if preds.join_preserving:
        oper = interior_classes(f, interior_from_topogenous(t))
        for kind, flag in zip(_CLASSES, class_flags(cls)):
            checked += 1
            if flag != oper[kind]:
                violations.append(Violation(f"interior-class-{kind}", where=name))
    if not (preds.meet_preserving or preds.join_preserving):
        raise PreconditionError("order preserves neither meets nor joins")
    return Report(f"operator-crosscheck {name}", checked, tuple(violations))


# ---------------------------------------------------------------------------
# weak finality formulas


def weakly_final_formulas(f: int, t: TopogenousOrder) -> Report:
    """Weak finality against its two operator formulas.

    Meet-preserving order: weakly final iff c(m) = m v f(c(f^{-1}(m))) for
    all m downstairs.  Join-preserving order (and f_* available): weakly
    final iff i(m) = m ^ f_*(i(f^{-1}(m))).
    """
    fib = t.fib
    cat = fib.category
    name = cat.mor_names[f]
    x, y = fib.dom(f), fib.cod(f)
    img, pre, fstar = fib.img[f], fib.pre[f], fib.fstar[f]
    ly = fib.sub[y]
    preds = predicates(t)
    wf = _is_weakly_final(t, f)
    violations = []
    checked = 0
    ran_any = False
    if preds.meet_preserving:
        ran_any = True
        c = closure_from_topogenous(t)
        formula = all(
            c.cmap[y][m] == ly.join(m, img[c.cmap[x][pre[m]]]) for m in range(ly.size)
        )
        checked += ly.size
        if formula != wf:
            violations.append(Violation("closure-formula-vs-weak-finality", where=name))
    if preds.join_preserving and fstar is not None:
        ran_any = True
        i = interior_from_topogenous(t)
        formula = all(
            i.imap[y][m] == ly.meet(m, fstar[i.imap[x][pre[m]]]) for m in range(ly.size)
        )
        checked += ly.size
        if formula != wf:
            violations.append(Violation("interior-formula-vs-weak-finality", where=name))
    if not ran_any:
        raise PreconditionError(
            "weak-finality formulas need a meet-preserving order, or a "
            "join-preserving order with the right adjoint of preimage"
        )
    return Report(f"weak-finality {name}", checked, tuple(violations))
