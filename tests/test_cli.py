"""CLI surface: exit codes, output formats, sweep table, GAP export."""

import functools
import os
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from capable2 import class2, cli, nilprod, oracle
from capable2.cli import TSV_COLUMNS, main, sweep_rows
from capable2.errors import BuildIntegrityError, NotCapableError, RankDeficientError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_capable(capsys):
    code, out, _ = run(capsys, "decide", "--type", "ii", "--alpha", "4",
                       "--beta", "4", "--gamma", "2", "--sigma", "1")
    assert code == 0
    assert "verdict=capable clause=c" in out


def test_decide_not_capable(capsys):
    code, out, _ = run(capsys, "decide", "--type", "iii", "--gamma", "1")
    assert code == 0
    assert "verdict=not_capable" in out
    assert "exhaustive search" in out


def test_invalid_parameters_exit_2(capsys):
    code, _, err = run(capsys, "decide", "--type", "ii", "--alpha", "2",
                       "--beta", "1", "--gamma", "1", "--sigma", "0")
    assert code == 2
    assert "alpha+beta+sigma > 3" in err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--type", "i", "--alpha", "1",
                       "--beta", "1", "--gamma", "1")
    assert code == 0
    assert "|K|=16" in out and "|Z(K)|=2" in out and "iso=PASS" in out


def test_witness_refused_for_non_capable(capsys):
    code, _, err = run(capsys, "witness", "--type", "i", "--alpha", "3",
                       "--beta", "2", "--gamma", "1")
    assert code == 1
    assert "error" in err


def test_witness_prints_recipe(capsys):
    code, out, _ = run(capsys, "witness", "--type", "ii", "--alpha", "3",
                       "--beta", "2", "--gamma", "2", "--sigma", "1")
    assert code == 0
    assert "C_8 * C_4" in out
    # the canonical basis of the relation lattice, weight-three rows first
    assert "<<[a,b,a]^2, [a,b,b]^4, [a,b]^4 [a,b,b]^2>> of order 1024" in out
    assert out.count("extra central relator") == 3


def test_witness_prints_both_orders(capsys):
    code, out, _ = run(capsys, "witness", "--type", "i", "--alpha", "4",
                       "--beta", "4", "--gamma", "4")
    assert code == 0
    recipe, small = out.splitlines()[0], out.splitlines()[-1]
    assert recipe.endswith("of order 524288")
    assert small.startswith("  small witness, K_G modulo the weight-three relator of its type, "
                            "which verify and sweep check: ")
    assert small.endswith("of order 65536")
    # K_G's keys outgrow int64 here, the small witness's do not
    code, out, _ = run(capsys, "witness", "--type", "i", "--alpha", "13",
                       "--beta", "13", "--gamma", "13")
    assert code == 0
    assert out.splitlines()[0].endswith(f"of order {1 << 64}")
    assert out.splitlines()[-1].endswith(f"of order {1 << 52}")
    # past the small witness's int64 key bound the recipe is still printed
    code, out, _ = run(capsys, "witness", "--type", "i", "--alpha", "16",
                       "--beta", "16", "--gamma", "16")
    assert code == 0
    assert out.splitlines()[0].endswith(f"of order {1 << 79}")
    assert out.splitlines()[-1].startswith(
        "  no small witness, K_G modulo the weight-three relator of its type: radices")


def test_verify_checks_the_small_witness(capsys):
    # i(4,4,4)'s small witness fits the default budget of 2^16, K_G does not
    params = ("--type", "i", "--alpha", "4", "--beta", "4", "--gamma", "4")
    code, out, _ = run(capsys, "verify", *params)
    assert code == 0
    assert "|K|=65536" in out and "|Z(K)|=16" in out and "iso=PASS" in out
    # every witness has at least 2|G| elements: past the budget, the tuple is
    # refused before its witness's center is counted
    code, _, err = run(capsys, "verify", "--type", "i", "--alpha", "13", "--beta", "13",
                       "--gamma", "13")
    assert code == 1
    assert "at least 1099511627776 elements, which exceeds the enumeration bound 65536" in err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--type", "i", "--alpha", "2",
                       "--beta", "2", "--gamma", "1")
    assert code == 0
    assert "order=32" in out


def test_classify_honours_the_enumeration_budget(capsys):
    # i(6,6,5) has order 2^17; the default budget is 2^16.  A successful
    # larger budget leaves nothing behind that a later default call reuses
    flags = ["--type", "i", "--alpha", "6", "--beta", "6", "--gamma", "5"]
    code, _, err = run(capsys, "classify", *flags)
    assert code == 1
    assert "exceeds the enumeration bound 65536" in err
    for argv in (["--max-order", "131072", "classify", *flags],
                 ["classify", "--max-order", "131072", *flags]):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert "order=131072" in out
    code, _, err = run(capsys, "classify", *flags)
    assert code == 1
    assert "exceeds the enumeration bound 65536" in err


def test_build_integrity_error_exits_1(capsys, monkeypatch):
    def broken(table):
        raise BuildIntegrityError("the designated generators do not generate the table")

    monkeypatch.setattr(oracle, "brute_center", broken)
    code, out, err = run(capsys, "verify", "--type", "i", "--alpha", "1",
                         "--beta", "1", "--gamma", "1")
    assert code == 1
    assert out == ""
    assert err == "error: the designated generators do not generate the table\n"


def test_rank_deficient_error_exits_1(capsys, monkeypatch):
    def broken(spec):
        raise RankDeficientError("relation lattice has rank 2 < 3")

    monkeypatch.setattr(nilprod, "build", broken)
    code, out, err = run(capsys, "witness", "--type", "ii", "--alpha", "3",
                         "--beta", "2", "--gamma", "2", "--sigma", "1")
    assert code == 1
    assert out == ""
    assert err == "error: relation lattice has rank 2 < 3\n"


def test_sweep_alpha_1_rows(capsys):
    code, out, _ = run(capsys, "sweep", "--max-alpha", "1")
    assert code == 0
    # stdout is exactly the TSV: header plus one line per tuple
    assert out.splitlines() == [
        "\t".join(TSV_COLUMNS),
        "\t".join(["i", "1", "1", "1", "-", "8", "capable", "a", "PASS"]),
        "\t".join(["iii", "-", "-", "1", "-", "8", "not_capable", "-", "n/a"]),
    ]


def test_sweep_text_format_matches_tsv(capsys):
    code, tsv, _ = run(capsys, "sweep", "--max-alpha", "2")
    assert code == 0
    code, text, _ = run(capsys, "sweep", "--max-alpha", "2", "--format", "text")
    assert code == 0
    # no header: one space-separated row per tuple, with the TSV's cells
    rows = [line.split(" ") for line in text.splitlines()]
    assert rows == [line.split("\t") for line in tsv.splitlines()[1:]]
    assert len(rows) == len(sweep_rows(2, verify=False)[0])


def test_sweep_known_row_and_statement(capsys):
    code, out, err = run(capsys, "sweep", "--max-alpha", "2")
    assert code == 0
    assert "i\t2\t2\t1\t-\t32\tcapable\ta\tPASS" in out
    assert "exhaustive search" in err  # limitation statement printed


@pytest.mark.parametrize("max_alpha", ["0", "-3"])
def test_sweep_rejects_max_alpha_below_one(capsys, max_alpha):
    code, out, err = run(capsys, "sweep", "--max-alpha", max_alpha)
    assert code == 2
    assert out == ""
    assert "--max-alpha >= 1" in err


@pytest.mark.parametrize("command", [
    ("verify", "--type", "i", "--alpha", "2", "--beta", "2", "--gamma", "2"),
    ("sweep", "--max-alpha", "1"),
    ("selftest",),
])
@pytest.mark.parametrize("max_order", ["0", "-3"])
def test_max_order_below_one_exits_2(capsys, command, max_order):
    for argv in [(*command, "--max-order", max_order), ("--max-order", max_order, *command)]:
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--max-order >= 1" in err


def test_sweep_rows_round_trip():
    rows, warnings = sweep_rows(2, verify=False)
    assert not warnings
    for row in rows:
        cells = dict(zip(TSV_COLUMNS, row.cells()))
        kwargs = {
            k: (None if cells[k] == "-" else int(cells[k]))
            for k in ("alpha", "beta", "gamma", "sigma")
        }
        p = class2.validate(cells["type"], **kwargs)
        assert p == row.params


def test_sweep_row_builds_and_solves_its_witness_once(monkeypatch):
    # a capable row's small witness is built and its center solved by
    # small_witness, and verify_witness referees that same group; a row reads
    # its order from the closed form, so only a capable row builds models:
    # one for its relation lattice and the referee's own in verify_witness
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(nilprod, "build", counting("build", nilprod.build))
    solve = functools.cached_property(counting("solve", nilprod.NilGroup._center_rows.func))
    solve.__set_name__(nilprod.NilGroup, "_center_rows")
    monkeypatch.setattr(nilprod.NilGroup, "_center_rows", solve)
    monkeypatch.setattr(class2.Class2Group, "__init__",
                        counting("model", class2.Class2Group.__init__))
    rows, warnings = sweep_rows(3)
    capable = sum(row.verdict.capable for row in rows)
    assert not warnings and capable == 10 and len(rows) == 20
    assert all(row.verified == "PASS" for row in rows if row.verdict.capable)
    assert counts == {"build": capable, "solve": capable, "model": 2 * capable}


def test_sweep_budget_warning(capsys):
    # a tiny budget forces SKIPPED rows plus a warning, but still exits 0
    code, out, err = run(capsys, "--max-order", "32", "sweep", "--max-alpha", "2")
    assert code == 0
    assert "SKIPPED" in out
    assert "partial" in err


def test_max_order_after_the_subcommand(capsys):
    # the budget is accepted after the subcommand name, where README puts it,
    # and there it overrides a value given before the name
    params = ("--type", "i", "--alpha", "1", "--beta", "1", "--gamma", "1")
    code, out, _ = run(capsys, "verify", *params, "--max-order", "100")
    assert code == 0 and "iso=PASS" in out
    code, _, err = run(capsys, "verify", *params, "--max-order", "8")
    assert code == 1 and "exceeds the enumeration bound 8" in err
    code, _, _ = run(capsys, "--max-order", "8", "verify", *params, "--max-order", "100")
    assert code == 0
    code, out, err = run(capsys, "sweep", "--max-alpha", "2", "--max-order", "32")
    assert code == 0 and "SKIPPED" in out and "partial" in err
    code, _, err = run(capsys, "export-cas", *params, "--max-order", "8")
    assert code == 1 and "exceeds the enumeration bound 8" in err
    code, _, err = run(capsys, "selftest", "--max-order", "8")
    assert code == 1 and "exceeds the enumeration bound 8" in err


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out


def test_selftest_honours_the_enumeration_budget(capsys):
    # the (2,1) product has order 64, so its table is refused
    code, out, err = run(capsys, "--max-order", "32", "selftest")
    assert code == 1
    assert "order 64 exceeds the enumeration bound 32" in err
    assert "center" not in out


def test_export_cas_renders_presentations(capsys):
    code, out, _ = run(capsys, "export-cas", "--type", "ii", "--alpha", "3",
                       "--beta", "2", "--gamma", "2", "--sigma", "1")
    assert code == 0
    assert "a^4 = [a,b]^2" in out  # the power-to-commutator relation
    assert "EpimorphismPGroup" in out
    assert "IsomorphismGroups" in out
    # the small witness, K_G modulo [a,b,a], not K_G of order 1024
    assert "Assert(0, Size(K) = 512);" in out


def test_export_cas_checks_the_small_witness(capsys):
    # i(4,4,4)'s small witness fits the default budget of 2^16, K_G (2^19)
    # does not
    code, out, err = run(capsys, "export-cas", "--type", "i", "--alpha", "4",
                         "--beta", "4", "--gamma", "4")
    assert code == 0 and err == ""
    assert "Assert(0, Size(K) = 65536);" in out
    assert "Assert(0, Size(Centre(K)) = 16);" in out


def test_export_cas_refuses_unverified():
    w = cli.capability.build_witness(class2.type_i(2, 2, 1))
    bad = cli.capability.WitnessSpec(w.ambient, class2.type_i(2, 2, 2))
    report = cli.capability.verify_witness(bad)
    assert not report.passed
    # the hand-made spec built a group of its own
    assert "group" not in vars(w) and bad.group.spec == w.ambient
    with pytest.raises(NotCapableError, match="refusing to export"):
        cli.export_cas(class2.type_i(2, 2, 2), bad, report)


def test_exit_codes_are_total(capsys):
    # a representative invocation of every subcommand terminates with 0, 1 or 2
    invocations = [
        ("classify", "--type", "iii", "--gamma", "1"),
        ("decide", "--type", "i", "--alpha", "4", "--beta", "2", "--gamma", "1"),
        ("witness", "--type", "iii", "--gamma", "2"),
        ("verify", "--type", "i", "--alpha", "2", "--beta", "1", "--gamma", "1"),
        ("sweep", "--max-alpha", "1"),
        ("decide", "--type", "i", "--alpha", "0", "--beta", "1", "--gamma", "1"),
    ]
    for argv in invocations:
        code, _, _ = run(capsys, *argv)
        assert code in (0, 1, 2)


def readme_cli_lines():
    """Each ``capable2 ...`` line of the README's CLI block, as (argv, the
    first output line shown under it or None); a shown line ending in
    " ..." is a prefix, and a redirection ends the argv."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    out = []
    for i, line in enumerate(lines):
        if line.startswith("capable2 "):
            shown = lines[i + 1] if i + 1 < len(lines) else ""
            argv = shlex.split(line.split(">")[0])[1:]
            out.append((argv, shown[2:] if shown.startswith("# ") else None))
    return out


def test_readme_cli_examples_run(capsys):
    examples = readme_cli_lines()
    assert len(examples) == 7 and sum(shown is not None for _, shown in examples) == 2
    for argv, shown in examples:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        if shown is not None:
            first = out.splitlines()[0]
            if shown.endswith(" ..."):
                assert first.startswith(shown[:-4]), (argv, first)
            else:
                assert first == shown, (argv, first)


def test_a_closed_pipe_exits_1_without_a_traceback():
    # the read end is closed before the process starts, so its first
    # write to standard output fails
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "capable2.cli", "verify", "--type", "i", "--alpha", "1",
             "--beta", "1", "--gamma", "1"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr, proc.stderr.decode()
