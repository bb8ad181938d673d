"""The three benchmark workloads and their output checks.

Each workload is built from a seed (its constructor is the set-up the
``setup_s`` metric times) and then runs fixed-size *passes*.  A pass returns
the time of each item it verified, how many items it attempted and how many
failed, and whether its outputs passed the workload's correctness gate.  The
library is driven only through its public functions; item timings and the
values the gate needs are taken with short-lived wrappers (:class:`Patch`)
that are removed when the pass ends.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from capable2 import capability, class2, cli, nilprod, oracle
from capable2.hall_core import FreeElt
from capable2.nilprod import GroupSpec


class Patch:
    """Replace attributes for the duration of a ``with`` block.

    ``replace(owner, attr, make)`` installs ``make(current_function)`` and
    remembers the raw attribute, so a staticmethod comes back as one.
    """

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        raw = owner.__dict__[attr]
        fn = getattr(owner, attr) if isinstance(raw, staticmethod) else raw
        wrapped = make(fn)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        return False


@dataclass
class PassResult:
    items_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    largest_s: float = 0.0  # time spent on the workload's largest groups
    attempted: int = 0
    failed: int = 0
    gate_ok: bool = True
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str, items: int = 1) -> None:
        self.failed += items
        self.gate_ok = False
        self.problems.append(message)


def killed_spec(alpha: int, beta: int, gamma: int) -> GroupSpec:
    """The ambient with [a,b,a]^(2^gamma) and [a,b,b]^(2^gamma) imposed."""
    e = 1 << gamma
    return GroupSpec(alpha, beta, (FreeElt(u=e), FreeElt(v=e)))


def label(spec: GroupSpec) -> str:
    if not spec.extra_central:
        return f"G({spec.alpha},{spec.beta})"
    return f"K({spec.alpha},{spec.beta},{spec.extra_central[0].u.bit_length() - 1})"


# ---------------------------------------------------------------------------
# witness_sweep

# criterion 6: the clause table over every valid tuple with exponents <= 4,
# frozen by hand from the four clauses of the characterization
EXPECTED_CAPABLE = {
    "i(1,1,1)": "a", "i(2,2,1)": "a", "i(2,2,2)": "a", "i(3,3,1)": "a",
    "i(3,3,2)": "a", "i(3,3,3)": "a", "i(4,4,1)": "a", "i(4,4,2)": "a",
    "i(4,4,3)": "a", "i(4,4,4)": "a",
    "i(2,1,1)": "b", "i(3,2,2)": "b", "i(4,3,3)": "b",
    "ii(3,3,1,0)": "c", "ii(4,4,1,0)": "c", "ii(4,4,2,0)": "c", "ii(4,4,2,1)": "c",
    "ii(3,2,2,1)": "d", "ii(4,3,3,2)": "d",
}
# the sweep verifies witnesses of every order up to this bound (i(4,4,4) is 2^19)
MAX_ORDER = 1 << 20


class WitnessSweep:
    """``cli.sweep_rows(max_exp)``: decide every valid tuple and verify every
    capable tuple's witness.  The inputs are the paper's table, so the seed
    does not change them."""

    name = "witness_sweep"

    def __init__(self, seed: int, max_exp: int = 4):
        self.max_exp = max_exp
        self.params = list(class2.iter_valid_params(max_exp))
        self.expected = {
            str(p): EXPECTED_CAPABLE[str(p)] for p in self.params if str(p) in EXPECTED_CAPABLE
        }
        self.largest = max(
            (p for p in self.params if str(p) in self.expected),
            key=lambda p: nilprod.build(capability.build_witness(p).ambient).order,
        )

    def run_pass(self, index: int) -> PassResult:
        res = PassResult()
        reports = []

        def timed(fn):
            def wrapper(w, *args, **kwargs):
                t0 = time.perf_counter()
                report = fn(w, *args, **kwargs)
                dt = time.perf_counter() - t0
                res.items_s.append(dt)
                if w.target == self.largest:
                    res.largest_s = dt
                reports.append(report)
                return report

            return wrapper

        res.attempted = len(self.params)
        try:
            with Patch() as patch:
                patch.replace(capability, "verify_witness", timed)
                rows, _ = cli.sweep_rows(self.max_exp, max_order=MAX_ORDER)
        except Exception as exc:  # every row of the pass is lost
            res.fail(f"sweep raised {exc!r}", len(self.params))
            return res

        if [r.params for r in rows] != self.params:
            res.fail("sweep rows differ from the valid tuples", len(self.params))
            return res
        by_target = {str(r.target): r for r in reports}
        for row in rows:
            name = str(row.params)
            want = self.expected.get(name)
            got = row.verdict.clause if row.verdict.capable else None
            rep = by_target.get(name)
            if got != want:
                res.fail(f"{name}: clause {got}, expected {want}")
            elif want is None and row.verified != "n/a":
                res.fail(f"{name}: not capable but verified={row.verified}")
            elif want is not None and (
                row.verified != "PASS" or rep is None or rep.generator_images is None
            ):
                res.fail(f"{name}: witness verified={row.verified}")
        return res


# ---------------------------------------------------------------------------
# recognize

# K/Z(K) for every ambient G(alpha,beta) and K(alpha,beta,gamma) with
# exponents <= 4 and |K| <= 2^16.  Where the ambient is a witness the entry is
# its target; the rest were frozen from the classification.  Every pass also
# checks that the brute-force center the recognition used has the order of
# the congruence solver's center (K.center() closed in the table), and that
# |K/Z(K)| = |K| / |Z(K)| for that independently solved center.
EXPECTED_QUOTIENT = {
    "G(1,1)": "i(1,1,1)", "G(2,1)": "i(2,1,1)", "G(2,2)": "i(2,2,2)",
    "K(2,2,1)": "i(2,2,1)", "G(3,1)": "i(2,1,1)", "G(3,2)": "i(3,2,2)",
    "K(3,2,1)": "i(2,2,1)", "G(3,3)": "i(3,3,3)", "K(3,3,1)": "i(3,3,1)",
    "K(3,3,2)": "i(3,3,2)", "G(4,1)": "i(2,1,1)", "G(4,2)": "i(3,2,2)",
    "K(4,2,1)": "i(2,2,1)", "G(4,3)": "i(4,3,3)", "K(4,3,1)": "i(3,3,1)",
    "K(4,3,2)": "i(3,3,2)", "K(4,4,1)": "i(4,4,1)", "K(4,4,2)": "i(4,4,2)",
}


def ambient_specs(max_exp: int, max_order: int) -> list[tuple[GroupSpec, int]]:
    """(spec, |K|) for every ambient with exponents <= max_exp and |K| <= max_order."""
    specs = []
    for alpha in range(1, max_exp + 1):
        for beta in range(1, alpha + 1):
            specs.append(GroupSpec(alpha, beta))
            specs.extend(killed_spec(alpha, beta, g) for g in range(1, beta))
    sized = [(s, nilprod.build(s).order) for s in specs]
    return [(s, n) for s, n in sized if n <= max_order]


def center_mismatch(K, p, scans) -> str | None:
    """Why K/Z(K) ~ p disagrees with the congruence solver's center, given the
    (table, |center|) of each brute-force center scan of K; None if it agrees.
    A function of its own, so that K's table is freed before the next group."""
    if len(scans) != 1:
        return f"{len(scans)} brute-force center scans"
    table, brute = scans[0]
    solved = len(oracle.closure(table, K.center()))
    if brute != solved or class2.Class2Group(p).order * solved != K.order:
        return f"|K/Z(K)| != |K| / |Z(K)| (scan {brute}, solver {solved})"
    return None


class Recognize:
    """``NilGroup.central_quotient()`` on every small ambient, in an order the
    seed shuffles on each pass."""

    name = "recognize"

    def __init__(self, seed: int, max_exp: int = 4, max_order: int = 1 << 16):
        self.seed = seed
        self.specs = ambient_specs(max_exp, max_order)
        self.top = max(n for _, n in self.specs)

    def run_pass(self, index: int) -> PassResult:
        res = PassResult()
        specs = list(self.specs)
        random.Random(f"{self.name}:{self.seed}:{index}").shuffle(specs)
        centers = []

        def capture(fn):
            def wrapper(table, *args, **kwargs):
                center = fn(table, *args, **kwargs)
                centers.append((table, len(center)))
                return center

            return wrapper

        with Patch() as patch:
            patch.replace(oracle, "brute_center", capture)
            for spec, order in specs:
                name = label(spec)
                res.attempted += 1
                centers.clear()
                t0 = time.perf_counter()
                try:
                    K = nilprod.build(spec)
                    p = K.central_quotient()
                except Exception as exc:
                    res.fail(f"{name}: raised {exc!r}")
                    continue
                dt = time.perf_counter() - t0
                res.items_s.append(dt)
                if order == self.top:
                    res.largest_s += dt
                if str(p) != EXPECTED_QUOTIENT.get(name):
                    res.fail(f"{name}: recognized {p}, expected {EXPECTED_QUOTIENT.get(name)}")
                elif problem := center_mismatch(K, p, [c for c in centers if c[0].group is K]):
                    res.fail(f"{name}: {problem}")
        return res


# ---------------------------------------------------------------------------
# lemma_scan

# the criterion-9 groups, all of order <= 2^12, with the number of random
# (x, y) draws each gets per pass: the test's counts times a fixed factor
LEMMA_GROUPS = (
    (GroupSpec(1, 1), 250),
    (GroupSpec(2, 1), 250),
    (killed_spec(2, 2, 1), 250),
    (GroupSpec(2, 2), 40),
    (GroupSpec(3, 2), 40),
    (killed_spec(3, 3, 1), 40),
)
LEMMA_FACTOR = 3
CHECKERS = ("commcond", "halfstep", "obstruction")


def draw_lemma_instance(rng: random.Random, elements) -> tuple:
    """One seeded draw for the three checkers: a pair (x, y) of elements and
    the parameters r1 <= r2, gam < r1, alpha and gamma."""
    x = elements[rng.randrange(len(elements))]
    y = elements[rng.randrange(len(elements))]
    r1 = rng.randint(1, 3)
    r2 = rng.randint(r1, 4)
    return x, y, r1, r2, rng.randint(0, max(r1 - 1, 0)), rng.randint(2, 3), rng.randint(1, 2)


def check_lemmas(g, x, y, r1, r2, gam, alpha, gamma) -> tuple:
    """The outcomes of the three checkers on one draw, in CHECKERS order."""
    return (
        capability.lemma_check_commcond(g, [x, y], [r1, r2], [gam]),
        capability.lemma_check_halfstep(g, x, y, alpha),
        capability.exceptional_obstruction_check(g, x, y, gamma),
    )


class LemmaScan:
    """The three lemma checkers on seeded random draws in the criterion-9
    groups; every pass draws fresh instances and builds the groups afresh, so
    no cached center carries over between passes."""

    name = "lemma_scan"

    def __init__(self, seed: int, groups=LEMMA_GROUPS, factor: int = LEMMA_FACTOR):
        self.seed = seed
        self.plan = [(spec, count * factor) for spec, count in groups]
        self.elements = [list(nilprod.build(spec).elements()) for spec, _ in self.plan]
        top = max(len(e) for e in self.elements)
        self.is_top = [len(e) == top for e in self.elements]

    def run_pass(self, index: int) -> PassResult:
        res = PassResult()
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        hits = dict.fromkeys(CHECKERS, 0)
        for (spec, count), elems, top in zip(self.plan, self.elements, self.is_top):
            g = nilprod.build(spec)
            for _ in range(count):
                draw = draw_lemma_instance(rng, elems)
                x, y = draw[:2]
                res.attempted += 1
                t0 = time.perf_counter()
                try:
                    outs = check_lemmas(g, *draw)
                except Exception as exc:
                    res.fail(f"{label(spec)} x={x} y={y}: raised {exc!r}")
                    continue
                dt = time.perf_counter() - t0
                res.items_s.append(dt)
                if top:
                    res.largest_s += dt
                wrong = [c for c, out in zip(CHECKERS, outs) if not out.holds]
                if wrong:
                    res.fail(f"{label(spec)} x={x} y={y}: counterexample to {wrong}")
                for checker, out in zip(CHECKERS, outs):
                    hits[checker] += not out.vacuous
        for checker, n in hits.items():
            if n == 0:
                res.gate_ok = False
                res.problems.append(f"{checker}: no non-vacuous instance in the pass")
        return res


WORKLOADS = {w.name: w for w in (WitnessSweep, Recognize, LemmaScan)}
