"""Command-line surface: classify, decide, build/verify witnesses, sweep, and
export cross-check scripts for an external computer algebra system.

Exit codes: 0 success / verification passed, 1 a verification or witness
operation failed or the reader closed standard output early, 2 invalid
parameters (the message names the violated constraint).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import capability, class2, nilprod, oracle
from .class2 import TypeParams
from .errors import (
    BuildIntegrityError,
    CentralityError,
    EnumerationBudgetError,
    NotCapableError,
    ParameterError,
    RankDeficientError,
)
from .group import is_int

TSV_COLUMNS = ("type", "alpha", "beta", "gamma", "sigma", "order", "verdict", "clause", "verified")


@dataclass
class SweepRow:
    params: TypeParams
    verdict: capability.Verdict
    verified: str  # 'PASS' | 'FAIL' | 'n/a' | 'SKIPPED'

    def cells(self) -> tuple[str, ...]:
        p = self.params
        dash = "-"
        return (
            p.kind,
            str(p.alpha) if p.alpha is not None else dash,
            str(p.beta) if p.beta is not None else dash,
            str(p.gamma),
            str(p.sigma) if p.sigma is not None else dash,
            str(p.order),
            "capable" if self.verdict.capable else "not_capable",
            self.verdict.clause or dash,
            self.verified,
        )


def sweep_rows(max_alpha: int, max_order: int | None = None, verify: bool = True):
    """One row per valid parameter tuple with every exponent <= max_alpha."""
    rows = []
    warnings = []
    for p in class2.iter_valid_params(max_alpha):
        verdict = capability.decide(p)
        status = "n/a"
        if verdict.capable and verify:
            try:
                report = capability.verify_witness(_small_witness(p, max_order), max_order)
                status = "PASS" if report.passed else "FAIL"
            except EnumerationBudgetError as exc:
                status = "SKIPPED"
                warnings.append(f"{p}: {exc}")
        rows.append(SweepRow(p, verdict, status))
    return rows, warnings


def _small_witness(p: TypeParams, max_order: int | None) -> capability.WitnessSpec:
    """``p``'s small witness, or, for a capable ``p``,
    ``EnumerationBudgetError`` before it is built when no witness fits the
    budget: K/Z(K) = G with Z(K) nontrivial, since K is a 2-group, so every
    witness has at least 2|G| elements, |G| being ``p.order``.  The
    witness's center count would otherwise scan for a table that is refused
    anyway, and from exponent 16 on refuse its int64 keys with a
    ``ParameterError``."""
    limit = oracle.DEFAULT_MAX_ORDER if max_order is None else max_order
    least = 2 * p.order
    if is_int(limit) and least > limit and capability.decide(p).capable:
        raise EnumerationBudgetError(
            f"every witness for {p} has at least {least} elements, which exceeds "
            f"the enumeration bound {limit}"
        )
    return capability.small_witness(p)


def _params_from_args(args) -> TypeParams:
    return class2.validate(
        args.type, alpha=args.alpha, beta=args.beta, gamma=args.gamma, sigma=args.sigma
    )


def _add_param_flags(sub):
    sub.add_argument("--type", required=True, choices=["i", "ii", "iii"],
                     help="presentation type")
    sub.add_argument("--alpha", type=int, default=None)
    sub.add_argument("--beta", type=int, default=None)
    sub.add_argument("--gamma", type=int, default=None)
    sub.add_argument("--sigma", type=int, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capable2",
        description="Capability of two-generator 2-groups of class two, "
        "with verified class-three witnesses.",
    )
    budget_help = ("enumeration budget: the largest group whose element table is "
                   "built, for every table a command enumerates (default 2^16)")
    parser.add_argument("--max-order", type=int, default=oracle.DEFAULT_MAX_ORDER,
                        help=budget_help)
    # the enumerating subcommands also accept the budget after their name; the
    # suppressed default leaves a value given before the name in place
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--max-order", type=int, default=argparse.SUPPRESS, help=budget_help)
    subs = parser.add_subparsers(dest="command", required=True)

    for name, run, helptext in (
        ("classify", _cmd_classify, "validate parameters and print model invariants"),
        ("decide", _cmd_decide, "print the capability verdict and clause"),
        ("witness", _cmd_witness, "print the witness recipe for a capable group"),
        ("verify", _cmd_verify, "build the small witness and verify the central quotient"),
        ("export-cas", _cmd_export, "emit a GAP script re-checking a verified witness"),
    ):
        parents = [budget] if name in ("classify", "verify", "export-cas") else []
        sub = subs.add_parser(name, help=helptext, parents=parents)
        sub.set_defaults(run=run)
        _add_param_flags(sub)

    sweep = subs.add_parser("sweep", help="capability table over all valid tuples",
                            parents=[budget])
    sweep.set_defaults(run=_cmd_sweep)
    sweep.add_argument("--max-alpha", type=int, required=True)
    sweep.add_argument("--format", choices=["text", "tsv"], default="tsv")
    sweep.add_argument("--no-verify", action="store_true",
                       help="skip witness verification, report verdicts only")

    selftest = subs.add_parser("selftest", help="run a quick built-in check battery",
                               parents=[budget])
    selftest.set_defaults(run=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.max_order < 1:
            raise ParameterError(f"--max-order >= 1 required, got {args.max_order}")
        code = args.run(args)
        # flushed here, so that a reader who closed the pipe early is
        # caught below and not at the interpreter's exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # nothing more reaches the reader; stdout goes to the null device
        # so that the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParameterError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except (
        NotCapableError,
        CentralityError,
        EnumerationBudgetError,
        BuildIntegrityError,
        RankDeficientError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_classify(args) -> int:
    p = _params_from_args(args)
    fp = class2.fingerprint(oracle.GroupTable.from_group(class2.model(p), args.max_order))
    print(
        f"params={p} order={fp.order} exponent={fp.exponent} "
        f"center={fp.center_order} derived={fp.derived_order} "
        f"abelianization={'x'.join(str(i) for i in fp.abelian_invariants)}"
    )
    return 0


def _cmd_decide(args) -> int:
    p = _params_from_args(args)
    v = capability.decide(p)
    print(f"verdict={'capable' if v.capable else 'not_capable'} clause={v.clause or '-'}")
    print(f"rationale: {v.rationale}")
    return 0


def _cmd_witness(args) -> int:
    p = _params_from_args(args)
    w = capability.build_witness(p)
    K = w.group
    print(f"target {p}: ambient {K.describe()} of order {K.order}")
    for e in w.ambient.extra_central:
        print(f"  extra central relator: {e}")
    try:
        small = capability.small_witness(p).group
    except ParameterError as exc:  # the witness's center is counted by int64 keys
        print(f"  no small witness, K_G modulo the weight-three relator of its type: {exc}")
    else:
        print(f"  small witness, K_G modulo the weight-three relator of its type, which verify "
              f"and sweep check: {small.describe()} of order {small.order}")
    return 0


def _cmd_verify(args) -> int:
    p = _params_from_args(args)
    report = capability.verify_witness(_small_witness(p, args.max_order), args.max_order)
    print(report.describe())
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    if args.max_alpha < 1:
        raise ParameterError(f"--max-alpha >= 1 required, got {args.max_alpha}")
    rows, warnings = sweep_rows(
        args.max_alpha, args.max_order, verify=not args.no_verify
    )
    if args.format == "tsv":
        print("\t".join(TSV_COLUMNS))
        for row in rows:
            print("\t".join(row.cells()))
    else:
        for row in rows:
            print(" ".join(row.cells()))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if warnings:
        print(
            "warning: table is partial; raise --max-order to verify skipped rows",
            file=sys.stderr,
        )
    print(f"# {capability.NONCERT_NOTE}", file=sys.stderr)
    return 1 if any(r.verified == "FAIL" for r in rows) else 0


def _cmd_selftest(args) -> int:
    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1

    g21 = nilprod.build(nilprod.GroupSpec(2, 1))
    check("normal-form count of the (2,1) product is 64", g21.order == 64)
    g22 = nilprod.build(nilprod.GroupSpec(2, 2))
    check("normal-form count of the (2,2) product is 512", g22.order == 512)

    table = oracle.GroupTable.from_group(g21, args.max_order)
    brute = oracle.brute_center(table)
    # both in key order: the solver's keys are sorted, the scan keeps table order
    check("center of the (2,1) product agrees with the brute-force scan",
          np.array_equal(g21.center_keys(), g21.key_rows(brute)))

    named = [
        (class2.type_i(1, 1, 1), True, "a"),
        (class2.type_i(3, 2, 2), True, "b"),
        (class2.type_ii(3, 2, 2, 1), True, "d"),
        (class2.type_ii(4, 4, 2, 1), True, "c"),
        (class2.type_iii(1), False, None),
    ]
    for p, capable, clause in named:
        v = capability.decide(p)
        check(f"decide {p} -> {clause or 'not capable'}",
              v.capable == capable and v.clause == clause)
        if capable:
            rep = capability.verify_witness(_small_witness(p, args.max_order), args.max_order)
            check(f"witness for {p} verifies", rep.passed)

    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# GAP export


def _gap_word(word) -> str:
    """Render a word over a, b, c(=[a,b]), d, e as a GAP expression."""
    names = {
        "a": "a",
        "b": "b",
        "c": "Comm(a,b)",
        "d": "Comm(Comm(a,b),a)",
        "e": "Comm(Comm(a,b),b)",
    }
    parts = [f"{names[sym]}^({exp})" for sym, exp in word if exp]
    return "*".join(parts) if parts else "One(a)"


def _cmd_export(args) -> int:
    p = _params_from_args(args)
    w = _small_witness(p, args.max_order)
    report = capability.verify_witness(w, args.max_order)
    if not report.passed:
        print("refusing to export: witness verification failed", file=sys.stderr)
        print(report.describe(), file=sys.stderr)
        return 1
    print(export_cas(p, w, report))
    return 0


def _pretty_relation(lhs, rhs) -> str:
    def side(word):
        if not word:
            return "1"
        return "*".join(
            f"{'[a,b]' if sym == 'c' else sym}^{exp}" if exp != 1 else sym
            for sym, exp in word
        )

    return f"{side(lhs)} = {side(rhs)}"


def export_cas(p: TypeParams, w: capability.WitnessSpec, report: capability.Report) -> str:
    """GAP script that rebuilds target and witness from presentations and
    re-checks the central-quotient isomorphism.

    Only exported for verified witnesses: pass the successful report of
    :func:`capable2.capability.verify_witness` on ``w`` (the CLI verifies
    first).
    """
    if not report.passed:
        raise NotCapableError("witness has not been verified; refusing to export")

    model = class2.model(p)
    target_rels = ["Comm(Comm(a,b),a)", "Comm(Comm(a,b),b)"]
    pretty = []
    for lhs, rhs in model.relations():
        lw = _gap_word(lhs)
        rw = _gap_word(rhs)
        target_rels.append(lw if not rhs else f"({lw})*({rw})^-1")
        pretty.append(_pretty_relation(lhs, rhs))

    spec = w.ambient
    witness_rels = [f"a^({1 << spec.alpha})", f"b^({1 << spec.beta})"]
    for x in spec.extra_central:
        witness_rels.append(_gap_word(list(zip("abcde", x.coords()))))
    # class-three cutoff: all left-normed weight-four commutators on a, b
    for g2 in "ab":
        for g3 in "ab":
            for g4 in "ab":
                for g1 in "ab":
                    if g1 != g2:
                        witness_rels.append(
                            f"Comm(Comm(Comm({g1},{g2}),{g3}),{g4})"
                        )

    lines = [
        "# GAP cross-check script (generated).",
        f"# target: type {p}  --  relations: " + "; ".join(pretty),
        f"# witness: {w.group.describe()} of order {report.group_order}",
        'F := FreeGroup("a", "b");;',
        "a := F.1;; b := F.2;;",
        "relsG := [",
        "  " + ",\n  ".join(target_rels),
        "];;",
        "G := Image(EpimorphismPGroup(F / relsG, 2, 2));;",
        f"Assert(0, Size(G) = {model.order});",
        "relsK := [",
        "  " + ",\n  ".join(sorted(set(witness_rels), key=witness_rels.index)),
        "];;",
        "K := Image(EpimorphismPGroup(F / relsK, 2, 3));;",
        f"Assert(0, Size(K) = {report.group_order});",
        "Q := K / Centre(K);;",
        f"Assert(0, Size(Centre(K)) = {report.center_order});",
        "Assert(0, Size(Q) = Size(G));",
        "iso := IsomorphismGroups(Q, G);;",
        "Assert(0, iso <> fail);",
        'Print("central quotient isomorphic to target: OK\\n");',
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    raise SystemExit(main())
