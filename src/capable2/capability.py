"""Capability of two-generator 2-groups of class two, as executable procedures.

A group is capable when it is the central quotient K/Z(K) of some group K.
For the classified two-generator class-two 2-groups the answer depends only on
the presentation parameters:

  (a) type i  with alpha = beta
  (b) type i  with alpha = beta+1 = gamma+1
  (c) type ii with alpha = beta and gamma < beta-1
  (d) type ii with alpha = beta+1 = gamma+1 = sigma+2

and type iii is never capable.  ``decide`` evaluates the clause table;
``build_witness`` builds one class-three ambient for every positive clause,
straight from the target's presentation: K_G = F/[R,F]<a^(2^alpha),
b^(2^beta)>, with F free on a, b and R the kernel of F -> G (the group behind
the epicenter of Beyl, Felgner and Schmid, J. Algebra 61, 1979).  K_G is the
recipe, and the largest witness in its family of quotients; ``small_witness``
is K_G modulo one weight-three commutator, fixed by the presentation type and
confirmed by the congruence solver's count of the center, and that is what
the CLI's ``verify`` and ``sweep`` check (i(4,4,4): 2^16 elements, against
K_G's 2^19).  A ``WitnessSpec`` carries its built group (``spec.group``,
cached on the spec object only), so the small witness that
``small_witness`` builds and counts the center of is the group
``verify_witness`` referees: a sweep row builds K and solves its center
once.  ``verify_witness`` recomputes everything else at the element level,
for either witness: it matches K's solved center keys with a brute-force
scan of a table of its own, forms K/Z(K), and searches for an explicit
generator-image isomorphism onto a fresh model of G.

Negative answers are reported from the characterization; there is no finite
bound on witness size, so non-capability cannot be refuted by search.  The
proof mechanisms behind the negative clauses are exercised separately by the
three hypothesis-gated lemma checkers at the bottom of this module.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import class2, hall_core as hall, nilprod, oracle
from .class2 import Class2Group, TypeParams
from .errors import BuildIntegrityError, NotCapableError, ParameterError
from .group import is_int
from .hall_core import FreeElt
from .lattice import CommLattice, canonical_basis
from .nilprod import GroupSpec, NilGroup

NONCERT_NOTE = (
    "non-capability is reported from the characterization theorem, not from "
    "exhaustive search: no finite bound on witness size exists"
)


@dataclass(frozen=True)
class Verdict:
    capable: bool
    clause: str | None  # 'a' | 'b' | 'c' | 'd' | None
    rationale: str


@dataclass(frozen=True)
class WitnessSpec:
    """Ambient class-three group plus the target it is a witness for."""

    ambient: GroupSpec
    target: TypeParams

    @functools.cached_property
    def group(self) -> NilGroup:
        """The ambient, built once per spec object by :func:`nilprod.build`
        and kept with it, together with any center the congruence solver
        caches on it; a spec made afresh, even from the same ambient,
        builds its own."""
        return nilprod.build(self.ambient)


@dataclass
class Report:
    """Outcome of an element-level witness verification."""

    target: TypeParams
    ambient: GroupSpec
    passed: bool = False
    group_order: int = 0
    center_order: int = 0
    quotient_order: int = 0
    generator_images: tuple | None = None
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"target {self.target}: |K|={self.group_order} |Z(K)|={self.center_order} "
            f"|K/Z(K)|={self.quotient_order} iso={'PASS' if self.passed else 'FAIL'}"
        ]
        for name, ok, detail in self.checks:
            lines.append(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")
        if self.generator_images:
            lines.append(f"  generator images: {self.generator_images}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


@dataclass(frozen=True)
class LemmaOutcome:
    holds: bool
    vacuous: bool = False
    note: str = ""

    def __bool__(self) -> bool:
        return self.holds


# ---------------------------------------------------------------------------
# necessary conditions


def _int_exponents(name: str, values) -> list:
    """``values`` as a list; ``ParameterError`` unless each is an int, not a bool."""
    values = list(values)
    if not all(map(is_int, values)):
        raise ParameterError(f"integer {name} required, got {values!r}")
    return values


def _int_elements(name: str, elems) -> list:
    """Each of ``elems`` as a tuple; ``ParameterError`` unless each is five
    ints, not bools.  Coordinates outside the box still name an element."""
    elems = [tuple(x) if isinstance(x, (tuple, list)) else x for x in elems]
    for x in elems:
        if not (isinstance(x, tuple) and len(x) == 5 and all(map(is_int, x))):
            raise ParameterError(f"{name} must be five integer coordinates, got {x!r}")
    return elems


def order_conditions(exponents) -> bool:
    """Necessary condition on generator orders 2^r1 <= ... <= 2^rm.

    A capable group of class two needs more than one generator and
    r_m <= r_(m-1) + 1.  ``ParameterError`` unless they are integers >= 1.
    """
    exps = _int_exponents("order exponents", exponents)
    if not exps:
        raise ParameterError("at least one generator order is required")
    if any(r < 1 for r in exps):
        raise ParameterError("order exponents must be >= 1")
    if exps != sorted(exps):
        raise ParameterError("order exponents must be nondecreasing")
    return len(exps) > 1 and exps[-1] <= exps[-2] + 1


def commutator_order_condition(g: Class2Group) -> bool:
    """Commutator-order necessary condition on a two-generator model.

    When the generator order exponents satisfy r2 = r1 + 1, capability forces
    [a,b] to have order exactly 2^r1; otherwise the condition is vacuous.
    """
    r1, r2 = sorted(g.order_of(x).bit_length() - 1 for x in g.gens)
    if r2 != r1 + 1:
        return True
    return g.order_of(g.commutator(g.a, g.b)) == (1 << r1)


# ---------------------------------------------------------------------------
# the decision


def decide(p: TypeParams) -> Verdict:
    """Capability verdict with the clause of the characterization that fires."""
    if p.kind == "iii":
        return Verdict(False, None, f"exceptional type is never capable; {NONCERT_NOTE}")
    if p.kind == "i":
        if p.alpha == p.beta:
            return Verdict(True, "a", "coproduct type with alpha=beta")
        if p.alpha == p.beta + 1 and p.gamma == p.beta:
            return Verdict(True, "b", "coproduct type with alpha=beta+1=gamma+1")
        if p.alpha > p.beta + 1:
            reason = (
                f"generator orders violate the necessary condition "
                f"r2 <= r1+1 (alpha={p.alpha}, beta={p.beta})"
            )
        else:
            reason = (
                f"alpha=beta+1 forces the commutator order 2^{p.beta}, "
                f"but gamma={p.gamma} < beta={p.beta}"
            )
        return Verdict(False, None, f"{reason}; {NONCERT_NOTE}")

    # type ii
    if p.alpha == p.beta and p.gamma < p.beta - 1:
        return Verdict(True, "c", "general type with alpha=beta and gamma<beta-1")
    if p.alpha == p.beta + 1 and p.gamma == p.beta and p.sigma == p.beta - 1:
        return Verdict(True, "d", "general type with alpha=beta+1=gamma+1=sigma+2")
    lo, hi = sorted((p.alpha, p.beta))
    if hi > lo + 1:
        reason = (
            f"generator orders violate the necessary condition r2 <= r1+1 "
            f"(alpha={p.alpha}, beta={p.beta})"
        )
    elif hi == lo + 1 and p.gamma != lo:
        reason = (
            f"generator orders 2^{lo} and 2^{hi} force commutator order 2^{lo}, "
            f"but gamma={p.gamma}"
        )
    elif p.alpha == p.beta:
        # valid parameters leave exactly gamma = beta-1 here
        reason = (
            f"general type with alpha=beta is capable only for gamma<beta-1; "
            f"gamma={p.gamma}=beta-1 is obstructed (half-step lemma)"
        )
    else:
        # alpha = beta+1 with gamma = beta forces sigma = beta-1 at validation
        raise AssertionError(f"unreachable parameter combination {p}")
    return Verdict(False, None, f"{reason}; {NONCERT_NOTE}")


# ---------------------------------------------------------------------------
# witnesses


def build_witness(p: TypeParams) -> WitnessSpec:
    """The group K_G = F/[R,F]<a^(2^alpha), b^(2^beta)> of the presentation,
    from the relation lattice that :func:`_relation_lattice` gives for the
    model of ``p``.  Raises :class:`NotCapableError` with ``decide``'s
    rationale when the verdict is negative."""
    verdict = decide(p)
    if not verdict.capable:
        raise NotCapableError(verdict.rationale)
    return _witness_spec(p, *_relation_lattice(Class2Group(p)))


def _relation_lattice(model: Class2Group) -> tuple[int, int, CommLattice]:
    """The exponents alpha >= beta of the generator orders 2^alpha and
    2^beta, and K_G's relation lattice, for any model, capable or not:
    K_G = F/[R,F]T with T = <a^ord(a), b^ord(b)>, which lies in R and is
    central modulo [R,F].  No verdict is asked for; :func:`build_witness`
    refuses a tuple that ``decide`` finds not capable.

    When ord(a) < ord(b), a and b are exchanged first
    (:meth:`Class2Group.exchanged`), since :func:`nilprod.build` takes the
    larger exponent first.

    F is free on a, b and R is the kernel of F -> G.  Modulo gamma_3(F), R
    is N, the elements whose coordinates lie in the model's lattice, so
    R = N gamma_3(F); the three rows of that lattice, exchanged or not,
    generate N (:func:`capable2.oracle.iso_2gen` gives the argument).  Each
    row (r, s, t) is lifted to rho = a^r b^s [a,b]^t in hall_core's free
    class-three group F/gamma_4(F); the lift does not matter, since
    [gamma_3(F), F] = gamma_4(F).  There [R,F] is the (t, u, v) lattice
    spanned by [rho, x] and [[rho, x], y] for x, y in {a, b}.  Every
    capable tuple has alpha >= beta, and its model's generator orders are
    2^alpha and 2^beta.

    ``ParameterError`` naming the generator when a or b is trivial: the
    model is cyclic, and :func:`nilprod.build` takes beta >= 1.
    """
    ea, eb = (model.order_of(x).bit_length() - 1 for x in model.gens)
    if not ea or not eb:
        raise ParameterError(f"generator {'ab'[ea > 0]} of the model is trivial "
                             "(a cyclic model): K_G needs two nontrivial generators")
    gens = []
    for row in (model if ea >= eb else model.exchanged()).lattice.rows:
        rho = (*row, 0, 0)
        for x in (hall.A, hall.B):
            rx = hall.commutator_coords(rho, x)
            gens.append(rx[2:])
            gens += [hall.commutator_coords(rx, y)[2:] for y in (hall.A, hall.B)]
    return max(ea, eb), min(ea, eb), canonical_basis(gens)


def _witness_spec(p: TypeParams, alpha: int, beta: int, lattice: CommLattice) -> WitnessSpec:
    """The quotient of the (alpha, beta) product whose relation lattice is
    ``lattice``, as a witness for ``p``.  The canonical basis rows become the
    extras, weight-three rows first; :func:`nilprod.build` accepts them in
    any order, so the rotation only fixes the order that ``witness`` and
    ``export-cas`` print."""
    rows = lattice.rows
    extras = tuple(FreeElt(0, 0, *row) for row in rows[1:] + rows[:1])
    return WitnessSpec(GroupSpec(alpha, beta, extras), p)


def small_witness(p: TypeParams) -> WitnessSpec:
    """K_G modulo one weight-three commutator, fixed by the presentation
    type: a smaller group that is still a witness for ``p``.

    The relator is [a,b,b] for type i with gamma < alpha, [a,b,a][a,b,b]
    for type i with gamma = alpha, and [a,b,a] for type ii.  K_G has class
    three, so the relator is central, and K = K_G/<relator> is F/M with
    [R,F] <= M <= R.  R/M is central in K, of order |K|/|G|, with quotient
    G; so K is a witness exactly when |Z(K)| |G| = |K|, with |G| read
    from the closed form ``p.order`` and no model of G built.  The congruence
    solver counts |Z(K)| as ``len(K.center_keys())`` on the spec's own
    :attr:`WitnessSpec.group`, and a count that differs raises
    :class:`BuildIntegrityError`.  The spec returned carries that group
    and its solved center, so :func:`verify_witness` builds K and solves
    its center no second time.  On every tuple the tests check
    (exponents <= 10) the lattice's pivots multiply to 2^(beta+gamma)
    (type i) and 2^(alpha+sigma) (type ii), so |Z(K)| is 2^beta and
    2^alpha.  :func:`verify_witness` referees the result.  K_G's rows are
    read from the spec of :func:`build_witness`, which raises
    :class:`NotCapableError` when ``decide`` is negative, and this raises
    ``ParameterError`` when K's keys are too large for int64 (from
    i(16,16,16) on).
    """
    kg = build_witness(p).ambient
    relator = (0, 1, 0) if p.kind == "ii" else (0, 0, 1) if p.gamma < p.alpha else (0, 1, 1)
    rows = [x.comm_coords() for x in kg.extra_central] + [relator]
    spec = _witness_spec(p, kg.alpha, kg.beta, canonical_basis(rows))
    K = spec.group
    center_order = len(K.center_keys())
    if center_order * p.order != K.order:
        raise BuildIntegrityError(
            f"K_G modulo {relator} is no witness for {p}: "
            f"|Z(K)| = {center_order}, |K| = {K.order}"
        )
    return spec


def verify_witness(w: WitnessSpec, max_order: int | None = None) -> Report:
    """Certify K/Z(K) isomorphic to the target, for K the spec's
    :attr:`WitnessSpec.group` (built on first use, or carried over from
    :func:`small_witness` with its solved center).

    The congruence solver's center keys (:meth:`NilGroup.center_keys`) must
    equal those of the brute-force scan of K's table before the quotient is
    formed.  The table, the scan, the quotient and the isomorphism search
    are this call's own, and the target's model is built afresh, so the
    referees share nothing with the solver but the group it solved.
    Verification stops at the first failed check.
    """
    report = Report(target=w.target, ambient=w.ambient)
    K = w.group
    report.group_order = K.order
    table = oracle.GroupTable.from_group(K, max_order)

    solved = K.center_keys()
    brute = oracle.brute_center(table)
    report.center_order = len(brute)
    # both in key order: the solver's keys are sorted, the scan keeps table order
    agree = np.array_equal(solved, K.key_rows(brute))
    report.checks.append(
        ("center agreement", agree, f"congruence solver {len(solved)}, scan {len(brute)}")
    )
    if not agree:
        return report

    q = oracle.quotient_central(table, brute)
    report.quotient_order = q.order
    target_model = class2.model(w.target)
    sizes_ok = q.order == target_model.order
    report.checks.append(
        (
            "quotient order",
            sizes_ok,
            f"|K/Z(K)| = {q.order}, model order = {target_model.order}",
        )
    )
    if not sizes_ok:
        return report

    iso = oracle.iso_2gen(q, target_model)
    report.checks.append(
        ("generator-image isomorphism", iso is not None, f"images {iso}")
    )
    if iso is None:
        return report
    report.generator_images = iso
    if w.ambient.alpha == w.ambient.beta:
        report.notes.append(
            "ambient has alpha=beta, where a^(2^beta) is already central; "
            "the quotient was computed directly from the element table"
        )
    report.passed = True
    return report


# ---------------------------------------------------------------------------
# lemma checkers (hypothesis-gated implications, swept by the property tests)


def lemma_check_commcond(K: NilGroup, ys, rs, gammas) -> LemmaOutcome:
    """If y_1..y_m generate K modulo Z(K), each y_i^(2^r_i) is central, and
    for each i < m some power [y_m, y_i]^(2^gamma_i) with gamma_i < r_(m-1)
    commutes with y_i and y_m, then y_m^(2^r_(m-1)) is central.

    Unmet hypotheses yield a vacuous true with a note, so sweeps can scan
    blindly.  ``ParameterError`` for non-integer exponents, malformed
    elements or bad lengths.
    """
    ys = _int_elements("elements y_i", ys)
    rs = _int_exponents("exponents r_i", rs)
    gammas = _int_exponents("exponents gamma_i", gammas)
    if len(ys) != len(rs) or len(gammas) != len(ys) - 1 or len(ys) < 2:
        raise ParameterError("need m >= 2 elements, m exponents and m-1 commutator exponents")

    if any(r < 1 for r in rs) or rs != sorted(rs):
        return LemmaOutcome(True, True, "hypotheses unmet: exponents not nondecreasing >= 1")
    for y, r in zip(ys, rs):
        if not K.is_central(K.power(y, 1 << r)):
            return LemmaOutcome(True, True, "hypotheses unmet: y_i^(2^r_i) not central")
    r_pen = rs[-2]
    ym = ys[-1]
    for y, g in zip(ys[:-1], gammas):
        if not (0 <= g < r_pen):
            return LemmaOutcome(True, True, "hypotheses unmet: gamma_i not in [0, r_(m-1))")
        c = K.power(K.commutator(ym, y), 1 << g)
        if not K.commutes(c, (y, ym)):
            return LemmaOutcome(
                True, True, "hypotheses unmet: commutator power does not commute"
            )
    if not K.generates_with_center(ys):
        return LemmaOutcome(
            True, True, "hypotheses unmet: elements do not generate modulo the center"
        )
    return LemmaOutcome(K.is_central(K.power(ym, 1 << r_pen)))


def lemma_check_halfstep(K: NilGroup, x, y, alpha: int) -> LemmaOutcome:
    """If x^(2^alpha), [x,y]^(2^(alpha-1)) and x^(2^(alpha-1))[x,y]^(-2^(alpha-2))
    all centralize <x, y>, then y^(2^(alpha-1)) commutes with x.
    ``ParameterError`` unless alpha is an integer > 1 and x, y are five
    integer coordinates each."""
    if not (is_int(alpha) and alpha > 1):
        raise ParameterError(f"integer alpha > 1 required, got {alpha!r}")
    x, y = _int_elements("elements x, y", (x, y))
    c = K.commutator(x, y)
    witnesses = (
        K.power(x, 1 << alpha),
        K.power(c, 1 << (alpha - 1)),
        K.mul(K.power(x, 1 << (alpha - 1)), K.power(c, -(1 << (alpha - 2)))),
    )
    for z in witnesses:
        if not K.commutes(z, (x, y)):
            return LemmaOutcome(
                True, True, "hypotheses unmet: a listed element does not centralize <x,y>"
            )
    return LemmaOutcome(K.commutes(x, [K.power(y, 1 << (alpha - 1))]))


def exceptional_obstruction_check(K: NilGroup, x, y, gamma: int) -> LemmaOutcome:
    """If x^(2^gamma) y^(-2^gamma) is central, then x^(2^gamma) centralizes
    the subgroup generated by x, y and the center.

    When x and y generate K modulo its center this makes x^(2^gamma) central
    in K, which is the obstruction that kills the exceptional type; the note
    records whether that stronger conclusion applies.  ``ParameterError``
    unless gamma is an integer >= 0 and x, y are five integer coordinates
    each.
    """
    if not (is_int(gamma) and gamma >= 0):
        raise ParameterError(f"integer gamma >= 0 required, got {gamma!r}")
    x, y = _int_elements("elements x, y", (x, y))
    diff = K.mul(K.power(x, 1 << gamma), K.power(y, -(1 << gamma)))
    if not K.is_central(diff):
        return LemmaOutcome(
            True, True, "hypotheses unmet: x^(2^gamma) y^(-2^gamma) is not central"
        )
    xg = K.power(x, 1 << gamma)
    holds = K.commutes(xg, (x, y))
    note = ""
    if holds and K.generates_with_center([x, y]):
        note = "x, y and the center generate K, so x^(2^gamma) is central in K"
        holds = K.is_central(xg)
    return LemmaOutcome(holds, note=note)
