"""Layer tracing and per-operation micro-timings for the benchmark.

The tracer wraps public attributes of the library's modules and classes for
the duration of a ``with`` block and puts the originals back afterwards; the
library itself carries no instrumentation.  Two kinds of wrapper exist:

* a *span* times a call and records, per ``(name, parent)`` pair, the number
  of calls, the total time and the self time (total minus the time of the
  spans opened inside it);
* a *counter* adds to a count charged to the innermost open span: one per
  call, or the number of rows a vectorized product returned after
  broadcasting.

Everything is aggregated in memory; nothing is written until the run ends.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import defaultdict

import numpy as np

from capable2 import capability, class2, cli, hall_core, lattice, nilprod, oracle
from workloads import Patch, check_lemmas, draw_lemma_instance

ROOT = "<root>"

# (owner, attribute, span name, size of the call in group elements or None)
SPANS = (
    (oracle.GroupTable, "from_group", "oracle.table", lambda a, k: a[0].order),
    (oracle, "brute_center", "oracle.brute_center", lambda a, k: a[0].order),
    (oracle, "quotient_central", "oracle.quotient_central", lambda a, k: a[0].order),
    (oracle, "iso_2gen", "oracle.iso_2gen", None),
    (oracle, "closure", "oracle.closure", None),
    (oracle, "normal_closure", "oracle.normal_closure", None),
    (nilprod, "build", "nilprod.build", None),
    (nilprod.NilGroup, "center", "nilprod.center", None),
    (nilprod.NilGroup, "central_quotient", "nilprod.central_quotient", None),
    (nilprod.NilGroup, "generates_with_center", "nilprod.generates_with_center", None),
    (class2, "fingerprint", "class2.fingerprint", None),
    (class2, "model", "class2.model", None),
    (capability, "verify_witness", "capability.verify_witness", None),
    (capability, "lemma_check_commcond", "capability.lemma", None),
    (capability, "lemma_check_halfstep", "capability.lemma", None),
    (capability, "exceptional_obstruction_check", "capability.lemma", None),
    (cli, "sweep_rows", "cli.sweep_rows", None),
)


def _rows(result) -> int:
    return result.size // result.shape[-1]


# (owner, attribute, counter name, amount per call from the result or None for 1)
COUNTERS = (
    (nilprod.NilGroup, "mul_arrays", "nilprod.mul_arrays.rows", _rows),
    (class2.Class2Group, "mul_arrays", "class2.mul_arrays.rows", _rows),
    (nilprod.NilGroup, "mul", "nilprod.mul.calls", None),
    (hall_core, "mul", "hall_core.mul.calls", None),
    (lattice.CommLattice, "reduce", "lattice.reduce.calls", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in SPANS))
COUNTER_NAMES = tuple(name for _, _, name, _ in COUNTERS)
# spans whose work is also reported per element of the table they scan
ROWS_PER_ELT = ("oracle.brute_center", "oracle.quotient_central")
ROW_COUNTERS = ("nilprod.mul_arrays.rows", "class2.mul_arrays.rows")


class Tracer(Patch):
    """Spans and counters over the attributes listed in SPANS and COUNTERS."""

    def __init__(self):
        super().__init__()
        self.frames = [[ROOT, 0.0]]  # [name, time spent in child spans]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> calls, total, self
        self.counts = defaultdict(int)  # (counter, innermost span) -> amount

    def __enter__(self):
        for owner, attr, name, size in SPANS:
            self.replace(owner, attr, lambda fn, n=name, sz=size: self._span(fn, n, sz))
        for owner, attr, name, amount in COUNTERS:
            self.replace(owner, attr, lambda fn, n=name, am=amount: self._counter(fn, n, am))
        return self

    def _span(self, fn, name, size):
        frames, spans, counts = self.frames, self.spans, self.counts

        def wrapper(*args, **kwargs):
            if size is not None:
                counts[("elts", name)] += size(args, kwargs)
            frame = [name, 0.0]
            frames.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                frames.pop()
                parent = frames[-1]
                parent[1] += dt
                rec = spans[(name, parent[0])]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]

        return wrapper

    def _counter(self, fn, name, amount):
        frames, counts = self.frames, self.counts
        if amount is None:

            def wrapper(*args, **kwargs):
                counts[(name, frames[-1][0])] += 1
                return fn(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[(name, frames[-1][0])] += amount(result)
                return result

        return wrapper

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer totals divided by the number of traced passes: calls,
        time and self time per span name, counter totals, and rows per table
        element for the two table-level referees."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            recs = [v for (n, _), v in self.spans.items() if n == name]
            out[f"{name}.calls"] = (sum(r[0] for r in recs) / passes, "count")
            out[f"{name}.s"] = (sum(r[1] for r in recs) / passes, "s")
            out[f"{name}.self_s"] = (sum(r[2] for r in recs) / passes, "s")
        for name in COUNTER_NAMES:
            total = sum(v for (c, _), v in self.counts.items() if c == name)
            out[name] = (total / passes, "count")
        out["oracle.table.rows"] = (self.counts[("elts", "oracle.table")] / passes, "count")
        for name in ROWS_PER_ELT:
            rows = sum(self.counts[(c, name)] for c in ROW_COUNTERS)
            elts = self.counts[("elts", name)]
            out[f"{name}.rows_per_elt"] = (rows / elts if elts else 0.0, "rows/elt")
        return out

    def table(self) -> str:
        """The (name, parent) aggregate over every traced pass, one line per
        pair, slowest first."""
        lines = [f"{'span':34} {'parent':34} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
        for (name, parent), (calls, total, own) in sorted(
            self.spans.items(), key=lambda kv: -kv[1][1]
        ):
            lines.append(f"{name:34} {parent:34} {calls:9d} {total:10.4f} {own:10.4f}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# micro-timings

MICRO_ROWS = 1 << 19
MICRO_CALLS = 20_000
MICRO_BFS_CALLS = 40
MICRO_LEMMA_CALLS = 100
MICRO_REPEATS = 5


def _per_call_ns(fn, calls) -> float:
    times = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        for args in calls:
            fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(calls) * 1e9


def micro_metrics(seed: int) -> dict[str, tuple[float, str]]:
    """Cost of one product in each law, on seeded random elements of the
    order-2^19 ambient that witnesses i(4,4,4) and of the model i(4,4,4), and
    of one generates_with_center BFS on seeded pairs and of one lemma_scan
    instance (all three checkers) on seeded draws in the order-2^11 ambient
    G(3,2), with its center already solved."""
    rng = random.Random(f"micro:{seed}")
    K = nilprod.build(nilprod.GroupSpec(4, 4))
    M = class2.model(class2.type_i(4, 4, 4))
    G = nilprod.build(nilprod.GroupSpec(3, 2))
    G.center()

    def draw(radices):
        return tuple(rng.randrange(m) for m in radices)

    nil_pairs = [(draw(K.radices), draw(K.radices)) for _ in range(MICRO_CALLS)]
    free_pairs = [(K.lift(x), K.lift(y)) for x, y in nil_pairs]
    model_pairs = [(draw(M.radices), draw(M.radices)) for _ in range(MICRO_CALLS)]
    bfs_pairs = [(draw(G.radices), draw(G.radices)) for _ in range(MICRO_BFS_CALLS)]
    G_elements = list(G.elements())
    lemma_draws = [draw_lemma_instance(rng, G_elements) for _ in range(MICRO_LEMMA_CALLS)]

    np_rng = np.random.default_rng(rng.randrange(1 << 32))
    radices = np.asarray(K.radices, dtype=np.int64)
    X = np_rng.integers(0, radices, size=(MICRO_ROWS, 5), dtype=np.int64)
    Y = np_rng.integers(0, radices, size=(MICRO_ROWS, 5), dtype=np.int64)
    array_times = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        K.mul_arrays(X, Y)
        array_times.append(time.perf_counter() - t0)

    return {
        "hall_core.mul.ns": (_per_call_ns(hall_core.mul, free_pairs), "ns"),
        "nilprod.mul.ns": (_per_call_ns(K.mul, nil_pairs), "ns"),
        "class2.mul.ns": (_per_call_ns(M.mul, model_pairs), "ns"),
        "nilprod.generates_with_center.ms": (
            _per_call_ns(lambda x, y: G.generates_with_center([x, y]), bfs_pairs) / 1e6,
            "ms",
        ),
        "capability.lemma.ms": (
            _per_call_ns(lambda *draw: check_lemmas(G, *draw), lemma_draws) / 1e6,
            "ms",
        ),
        "nilprod.mul_arrays.ns_per_row": (
            statistics.median(array_times) / MICRO_ROWS * 1e9,
            "ns/row",
        ),
    }
