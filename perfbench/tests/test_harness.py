"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/tests -q

Each workload runs with exponents <= 2, two small ambients or a few lemma
instances, plain and traced, and must pass its correctness gate and emit
every metric that BENCHMARK.json names.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from capable2.nilprod import GroupSpec  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "witness_sweep": lambda seed: workloads.WitnessSweep(seed, max_exp=2),
    "recognize": lambda seed: workloads.Recognize(seed, max_exp=2, max_order=64),
    "lemma_scan": lambda seed: workloads.LemmaScan(
        seed, groups=((GroupSpec(1, 1), 8), (GroupSpec(2, 1), 8)), factor=1
    ),
}


def test_every_workload_is_tiny_tested():
    assert sorted(TINY) == sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert {w["name"] for w in SPEC["workloads"]} <= set(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
def test_plain_run_emits_every_end_to_end_metric(name):
    results = run.run_plain(TINY[name](7), seconds=0.0)
    assert len(results) == 1
    res = results[0]
    assert res.gate_ok, res.problems
    assert res.failed == 0 and res.attempted > 0 and res.items_s
    metrics = run.end_to_end(results, setup_s=0.1)
    for m in SPEC["end_to_end"]:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"]
        assert value > 0, m["name"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_emits_every_layer_metric(name, monkeypatch):
    monkeypatch.setattr(tracing, "MICRO_ROWS", 1 << 10)
    monkeypatch.setattr(tracing, "MICRO_CALLS", 100)
    monkeypatch.setattr(tracing, "MICRO_BFS_CALLS", 2)
    monkeypatch.setattr(tracing, "MICRO_LEMMA_CALLS", 2)
    results, metrics = run.run_traced(TINY[name](7), seed=7, seconds=0.0)
    assert all(r.gate_ok for r in results)
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]][1] == m["unit"], m["name"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}


def test_traced_counts_repeat_exactly():
    def counts():
        _, metrics = run.run_traced(TINY["lemma_scan"](3), seed=3, seconds=0.5)
        return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "rows/elt")}

    first = counts()
    assert first["nilprod.mul.calls"] > 0
    assert counts() == first


def test_tracer_removes_its_wrappers():
    from capable2 import hall_core, nilprod, oracle

    before = (hall_core.mul, oracle.brute_center, nilprod.NilGroup.__dict__["mul"],
              oracle.GroupTable.__dict__["from_group"])
    with tracing.Tracer():
        assert hall_core.mul is not before[0]
    after = (hall_core.mul, oracle.brute_center, nilprod.NilGroup.__dict__["mul"],
             oracle.GroupTable.__dict__["from_group"])
    assert after == before


def test_wrong_output_fails_the_gate(monkeypatch):
    monkeypatch.setitem(workloads.EXPECTED_QUOTIENT, "G(2,1)", "i(1,1,1)")
    res = TINY["recognize"](1).run_pass(0)
    assert not res.gate_ok and res.failed == 1


def test_center_disagreement_fails_the_gate(monkeypatch):
    from capable2 import nilprod

    monkeypatch.setattr(nilprod.NilGroup, "center", lambda self: [self.identity])
    res = TINY["recognize"](1).run_pass(0)
    assert not res.gate_ok and res.failed == res.attempted


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name)
    out = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "recognize",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert out.stdout == ""
