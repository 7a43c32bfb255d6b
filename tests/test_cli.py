import itertools
import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

from hopflike import cli

from hopflike.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_simplicial(capsys):
    code, out, _ = run_cli(capsys, "verify", "simplicial", "--max-n", "5")
    assert code == 0
    assert "suite: simplicial" in out
    assert "failures: 0" in out
    assert out.strip().endswith("PASS")


def test_verify_simplicial_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "simplicial", "--max-n", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "simplicial"
    assert payload["failures"] == []
    assert payload["millis"] == 0


def test_verify_relations(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "relations", "--family", "dd",
        "--max-sum", "5", "--max-len", "3",
    )
    assert code == 0
    assert "relations-dd" in out


def test_verify_square_per_k_fails_with_exit_one(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "square", "--alpha", "(1,1)", "--beta", "(1,1)",
        "--reading", "per-k",
    )
    assert code == 1
    assert "K=[[1,0],[0,1]]" in out
    code, out, _ = run_cli(
        capsys, "verify", "square", "--alpha", "(1,1)", "--beta", "(1,1)",
    )
    assert code == 0


def test_verify_bidegree12(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "bidegree12", "--max-total", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [p["suite"] for p in payload] == [
        "bidegree12-defect", "bidegree12-six-cases"
    ]


def test_bidegree12_timing_is_per_report(capsys, monkeypatch):
    ticks = itertools.count()  # clock readings 0, 1, 4, 9 seconds
    monkeypatch.setattr(
        cli, "time", SimpleNamespace(monotonic=lambda: next(ticks) ** 2)
    )
    code, out, _ = run_cli(
        capsys, "verify", "bidegree12", "--max-total", "3",
        "--format", "json", "--timing",
    )
    assert code == 0
    assert [p["millis"] for p in json.loads(out)] == [1000, 5000]


def test_matrices_listing(capsys):
    code, out, _ = run_cli(capsys, "matrices", "--alpha", "(1,1)", "--beta", "(1,1)")
    assert code == 0
    assert out.splitlines() == ["[[1,0],[0,1]]", "[[0,1],[1,0]]", "total: 2"]


def test_compositions_listing(capsys):
    code, out, _ = run_cli(capsys, "compositions", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["(3)", "(1,2)", "(2,1)", "(1,1,1)", "total: 4"]


def test_compositions_negative_max_length_exit_two(capsys):
    code, out, err = run_cli(
        capsys, "compositions", "--n", "3", "--max-length", "-2"
    )
    assert code == 2
    assert "max_length must be non-negative" in err
    assert out == ""
    code, out, _ = run_cli(
        capsys, "compositions", "--n", "3", "--max-length", "0"
    )
    assert code == 0
    assert out.splitlines() == ["total: 0"]


def test_normalize(capsys):
    code, out, _ = run_cli(capsys, "normalize", "(7) ; s[1,1,3]")
    assert code == 0
    assert "source: (7)" in out
    assert "target: (3,4)" in out
    assert "map: A(3,4) -> A(7)" in out


def test_normalize_parse_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "normalize", "(3) ; d[2,1]")
    assert code == 2
    assert "step 1" in err
    code, _, err = run_cli(capsys, "normalize", "(2,")
    assert code == 2
    assert "column 4" in err


def test_relations_bad_bounds_exit_two(capsys):
    for family in ("dd", "ss", "tautau", "mixed"):
        for bound in (["--max-sum", "0"], ["--max-len", "-1"]):
            code, out, err = run_cli(
                capsys, "verify", "relations", "--family", family, *bound
            )
            assert code == 2, (family, bound)
            assert "bounds must be >= 1" in err
            assert out == ""


@pytest.mark.parametrize("argv", [
    ["normalize", "(²)"],
    ["verify", "square", "--alpha", "(²)", "--beta", "(2)"],
])
def test_non_ascii_digit_exit_two(capsys, argv):
    # '²' is a digit to str.isdigit() but not to int().
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: unexpected character '²' (line 1, column 2)\n"


@pytest.mark.parametrize("argv", [
    ["verify", "simplicial", "--max-n", "0"],
    ["verify", "relations", "--family", "mixed", "--max-sum", "0"],
    ["verify", "hopf", "--max-degree", "0"],
    ["verify", "square", "--alpha", "(1,1)", "--beta", "(3)"],
    ["verify", "bidegree12", "--max-total", "0"],
    ["explore", "mixed", "--a", "-1", "--beta", "(1,1)"],
    ["matrices", "--alpha", "(1,", "--beta", "(1)"],
    ["compositions", "--n", "-1"],
    ["normalize", "(2) ; x[1]"],
], ids=lambda argv: " ".join(argv[:2]))
def test_every_command_exits_two_on_bad_input(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_explore_mixed_json(capsys):
    code, out, _ = run_cli(
        capsys, "explore", "mixed", "--a", "1", "--beta", "(1,1)",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "explore-mixed"
    assert "upper" in payload and "lower" in payload


def test_every_subcommand_has_help():
    for argv in [
        ["--help"],
        ["verify", "--help"],
        ["verify", "simplicial", "--help"],
        ["verify", "relations", "--help"],
        ["verify", "hopf", "--help"],
        ["verify", "square", "--help"],
        ["verify", "bidegree12", "--help"],
        ["explore", "--help"],
        ["explore", "mixed", "--help"],
        ["matrices", "--help"],
        ["compositions", "--help"],
        ["normalize", "--help"],
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "hopflike", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, argv
        assert "usage" in proc.stdout.lower()


def test_json_output_byte_identical_across_processes():
    argv = [
        sys.executable, "-m", "hopflike", "verify", "relations",
        "--family", "ss", "--max-sum", "5", "--max-len", "3",
        "--format", "json",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
