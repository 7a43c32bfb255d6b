import argparse
import gc
import itertools
import json
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from hopflike import cli
from hopflike.compositions import enumerate_compositions
from hopflike.contingency import enumerate_matrices
from hopflike.errors import UsageError
from hopflike.parsing import parse_composition

from hopflike.cli import main
from reference import stray_fault


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


def test_verify_square_stray_splitting_exit_two(capsys, monkeypatch):
    # the route's coproduct grows h[2]'s row expansion from a left label
    # outside degree 1: one line and exit 2, not a KeyError traceback
    stray_fault(monkeypatch)
    code, out, err = run_cli(
        capsys, "verify", "square", "--alpha", "(2)", "--beta", "(1,1)",
    )
    assert code == 2 and out == ""
    assert err == "error: splitting of h[2]: (1, 1) is not a partition of 1\n"


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
    code, out, _ = run_cli(
        capsys, "matrices", "--alpha", "(3,3)", "--beta", "(3,3)",
        "--mode", "strictly-positive",
    )
    assert code == 0
    assert out.splitlines() == ["[[2,1],[1,2]]", "[[1,2],[2,1]]", "total: 2"]


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


@pytest.mark.parametrize("argv, estimate", [
    (["compositions", "--n", "40"], "40 has 2^39 = 549755813888 compositions"),
    (["compositions", "--n", "40", "--max-length", "6"],
     "40 has at least 667928 compositions of at most 6 parts"),
    # these ids keep the names the cases had when they matched part of the line
    pytest.param(
        ["compositions", "--n", "1000000000000"],
        "1000000000000 has 2^999999999999 compositions",
        id="argv2-has 2^999999999999 compositions",
    ),
    pytest.param(
        ["normalize", "(60)"],
        "the matrix of A(60) -> A(60) has 966467 rows and 966467 columns, "
        "934058462089 entries",
        id="argv3-A(60) -> A(60) has 966467 rows and 966467 columns, "
        "934058462089 entries",
    ),
    pytest.param(
        ["normalize", "(1000000000)"],
        "the matrix of A(1000000000) -> A(1000000000) has at least 3972999029388 "
        "rows and at least 3972999029388 columns, at least "
        "15784721287517990087654544 entries",
        id="argv4-has at least 3972999029388 rows",
    ),
    pytest.param(
        ["normalize", "(30,30) ; d[2,1]"],
        "the matrix of A(60) -> A(30,30) has 31404816 rows and 966467 columns, "
        "30351718305072 entries",
        id="argv5-A(60) -> A(30,30) has 31404816 rows and 966467 columns",
    ),
    pytest.param(
        ["normalize", "(300,30) ; d[2,1]"],
        "the matrix of A(330) -> A(300,30) has at least 3972999029388 rows and "
        "at least 3972999029388 columns, at least 15784721287517990087654544 "
        "entries",
        id="argv6-A(330) -> A(300,30) has at least",
    ),
])
def test_oversized_output_exits_two_at_once(capsys, argv, estimate):
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert err == (
        f"error: {estimate}, more than the {cli.MAX_OUTPUT} this command lists\n"
    )


def test_output_limit_is_exact(capsys, monkeypatch):
    # (4) has 8 compositions and A(4) has 5 basis elements, so a 5 x 5 map
    monkeypatch.setattr(cli, "MAX_OUTPUT", 8)
    assert run_cli(capsys, "compositions", "--n", "4")[0] == 0
    assert run_cli(capsys, "compositions", "--n", "5")[0] == 2
    assert run_cli(capsys, "compositions", "--n", "8", "--max-length", "2")[0] == 0
    assert run_cli(capsys, "compositions", "--n", "9", "--max-length", "2")[0] == 2
    monkeypatch.setattr(cli, "MAX_OUTPUT", 25)
    assert run_cli(capsys, "normalize", "(4)")[0] == 0
    assert run_cli(capsys, "normalize", "(4) ; s[1,1,1]")[0] == 0
    code, _, err = run_cli(capsys, "normalize", "(5)")
    assert code == 2 and err == (
        "error: the matrix of A(5) -> A(5) has 7 rows and 7 columns, 49 entries, "
        "more than the 25 this command lists\n"
    )


@pytest.mark.parametrize("margins, mode", [
    ("(1,1,1)", "nonnegative"),
    # shifted by 3 in every margin: the (1,1,1) problem again
    ("(4,4,4)", "strictly-positive"),
])
def test_matrices_limit_is_exact(capsys, monkeypatch, margins, mode):
    argv = ["matrices", "--alpha", margins, "--beta", margins, "--mode", mode]
    monkeypatch.setattr(cli, "MAX_OUTPUT", 6)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    parts = parse_composition(margins)
    assert out.splitlines() == [
        str(K) for K in enumerate_matrices(parts, parts, mode)
    ] + ["total: 6"]
    monkeypatch.setattr(cli, "MAX_OUTPUT", 5)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (
        f"error: margins {margins} and {margins} have at least 6 {mode} "
        "matrices, more than the 5 this command lists\n"
    )


@pytest.mark.parametrize("alpha, beta, mode", [
    ("(10,10,10,10)", "(10,10,10,10)", "nonnegative"),
    ("(40,40,40,40,40)", "(50,50,50,50)", "nonnegative"),
    ("(20,20,20,20)", "(20,20,20,20)", "strictly-positive"),
])
def test_matrices_refusal_stops_at_the_limit(capsys, monkeypatch, alpha, beta, mode):
    # millions of matrices or more: only a walk that stops can answer fast
    monkeypatch.setattr(cli, "MAX_OUTPUT", 100)
    start = time.monotonic()
    code, out, err = run_cli(
        capsys, "matrices", "--alpha", alpha, "--beta", beta, "--mode", mode
    )
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert err == (
        f"error: margins {alpha} and {beta} have at least 101 {mode} matrices, "
        "more than the 100 this command lists\n"
    )


@pytest.mark.parametrize("argv, size", [
    (["verify", "hopf", "--max-degree", "40"], "38361236"),
    (["verify", "bidegree12", "--max-total", "30"], "53828275"),
    # the id keeps the name the case had when it matched part of the line
    pytest.param(
        ["verify", "bidegree12", "--max-total", "1000000000"],
        "at least 401459229083595557518174", id="argv2-at least ",
    ),
])
def test_oversized_sweep_exits_two_at_once(capsys, argv, size):
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert err == (
        f"error: {argv[2]} {argv[3]} gives {size} h-basis inputs, more than the "
        f"{cli.MAX_OUTPUT} this command checks\n"
    )


@pytest.mark.parametrize("suite, option, bound, size", [
    ("hopf", "--max-degree", 12, 3132),
    ("bidegree12", "--max-total", 7, 844),
])
def test_sweep_limit_is_exact(capsys, monkeypatch, suite, option, bound, size):
    # the closed-form count is the number of inputs the sweep checks
    argv = ["verify", suite, option, str(bound), "--format", "json"]
    monkeypatch.setattr(cli, "MAX_OUTPUT", size)
    code, out, _ = run_cli(capsys, *argv)
    payload = json.loads(out)
    assert code == 0
    assert (payload if suite == "hopf" else payload[0])["checked"] == size
    monkeypatch.setattr(cli, "MAX_OUTPUT", size - 1)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (
        f"error: {option} {bound} gives {size} h-basis inputs, more than the "
        f"{size - 1} this command checks\n"
    )


def test_oversized_simplicial_sweep_exits_two_at_once(capsys):
    start = time.monotonic()
    code, out, err = run_cli(capsys, "verify", "simplicial", "--max-n", "400")
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert err == (
        f"error: --max-n 400 gives 43229002 checks, more than the "
        f"{cli.MAX_OUTPUT} this command checks\n"
    )


def test_simplicial_limit_is_exact(capsys, monkeypatch):
    argv = ["verify", "simplicial", "--max-n", "6", "--format", "json"]
    monkeypatch.setattr(cli, "MAX_OUTPUT", 307)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["checked"] == 307
    monkeypatch.setattr(cli, "MAX_OUTPUT", 306)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (
        "error: --max-n 6 gives 307 checks, more than the 306 this command checks\n"
    )


def test_oversized_square_exits_two_at_once(capsys):
    # 40,176 matrices times 2,401 basis elements: the walk stops at 110
    start = time.monotonic()
    code, out, err = run_cli(
        capsys, "verify", "square", "--alpha", "(5,5,5,5)", "--beta", "(5,5,5,5)"
    )
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert err == (
        "error: margins (5,5,5,5) and (5,5,5,5) give at least 264110 tower "
        "inputs (at least 110 matrices times 2401 basis elements), more than "
        f"the {cli.MAX_OUTPUT} this command checks\n"
    )


def test_square_limit_is_exact(capsys, monkeypatch):
    # 3 margin matrices times the 4 basis elements of A(2,2)
    argv = ["verify", "square", "--alpha", "(2,2)", "--beta", "(2,2)"]
    monkeypatch.setattr(cli, "MAX_OUTPUT", 12)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["checked"] == 4
    monkeypatch.setattr(cli, "MAX_OUTPUT", 11)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (
        "error: margins (2,2) and (2,2) give at least 12 tower inputs (at least 3 "
        "matrices times 4 basis elements), more than the 11 this command checks\n"
    )


def test_square_sum_mismatch_is_left_to_the_sweep(capsys):
    code, out, err = run_cli(
        capsys, "verify", "square", "--alpha", "(1,1)", "--beta", "(3)"
    )
    assert code == 2 and out == ""
    assert err == "error: margins (1,1) and (3) have different sums\n"


def test_small_squares_are_within_the_limit():
    # every margin pair the benchmark's seeded squares draw from
    margins = [c for n in (5, 6) for c in enumerate_compositions(n, 3)]
    for alpha in margins:
        for beta in margins:
            if alpha.sum == beta.sum:
                assert cli._square_margins(alpha, beta) == (alpha, beta)


def test_bidegree12_at_twelve_is_within_the_limit(monkeypatch):
    # 18240 inputs; the sweep itself takes seconds, so only the guard runs
    assert cli._sweep_bound(12, 3, "--max-total") == 12
    monkeypatch.setattr(cli, "MAX_OUTPUT", 18239)
    with pytest.raises(UsageError, match="--max-total 12 gives 18240 h-basis"):
        cli._sweep_bound(12, 3, "--max-total")


def test_small_outputs_are_unchanged(capsys):
    code, out, _ = run_cli(capsys, "normalize", "(3) ; s[1,1,1]")
    assert code == 0 and out.splitlines() == [
        "word: (3) ; s[1,1,1]",
        "source: (3)",
        "target: (1,2)",
        "map: A(1,2) -> A(3)",
        "columns (domain basis): h[1] (x) h[2], h[1] (x) h[1,1]",
        "rows (codomain basis): h[3], h[2,1], h[1,1,1]",
        "  [  0   0]",
        "  [  1   0]",
        "  [  0   1]",
    ]
    code, out, _ = run_cli(
        capsys, "compositions", "--n", "4", "--max-length", "2", "--format", "json"
    )
    assert code == 0 and json.loads(out) == {
        "n": 4, "compositions": ["(4)", "(1,3)", "(2,2)", "(3,1)"],
    }


def rendered(command, payload) -> list:
    """The text lines that show the JSON ``payload`` of ``command``."""
    if command in ("matrices", "compositions"):
        items = payload[command]
        return [*items, f"total: {len(items)}"]
    if command == "normalize":
        return [
            *(f"{key}: {payload[key]}" for key in ("word", "source", "target", "map")),
            "columns (domain basis): " + ", ".join(payload["domain_basis"]),
            "rows (codomain basis): " + ", ".join(payload["codomain_basis"]),
            *("  [" + " ".join(f"{v:3d}" for v in row) + "]"
              for row in payload["matrix"]),
        ]
    lines = [f"suite: {payload['suite']}", f"element: {payload['element']}"]
    for section in ("upper", "lower", "difference"):
        block = payload[section]
        lines.append(f"{section}:")
        lines += [f"  {key}: {block[key]}" for key in block] or ["  (empty)"]
    return lines


@pytest.mark.parametrize("argv", [
    ["matrices", "--alpha", "(2,1)", "--beta", "(1,1,1)"],
    ["compositions", "--n", "4", "--max-length", "3"],
    ["normalize", "(3) ; s[1,1,1]"],
    ["explore", "mixed", "--a", "1", "--beta", "(1,1)"],
    # an empty section: the difference at a = 0
    ["explore", "mixed", "--a", "0", "--beta", "(1,1)"],
], ids=" ".join)
def test_text_renders_the_json_payload(capsys, argv):
    code, text, _ = run_cli(capsys, *argv)
    json_code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == json_code == 0
    assert text.splitlines() == rendered(argv[0], json.loads(out))


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


@pytest.mark.parametrize("family", ["dd", "mixed"])
def test_oversized_relations_exit_two_at_once(capsys, family):
    # the sweep lists every source first: 300/40 used to run out of memory
    start = time.monotonic()
    code, out, err = run_cli(
        capsys, "verify", "relations", "--family", family,
        "--max-sum", "300", "--max-len", "40",
    )
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert err == (
        "error: --max-sum 300 --max-len 40 give at least 524288 compositions, "
        f"more than the {cli.MAX_OUTPUT} this command lists\n"
    )


def test_relations_limit_counts_every_listed_composition(capsys, monkeypatch):
    # compositions of n <= 4 with at most 2 parts, the empty one included:
    # 1 + 1 + 2 + 3 + 4
    argv = ["verify", "relations", "--family", "dd", "--max-sum", "4",
            "--max-len", "2"]
    monkeypatch.setattr(cli, "MAX_OUTPUT", 11)
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "MAX_OUTPUT", 10)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (
        "error: --max-sum 4 --max-len 2 give at least 11 compositions, more than "
        "the 10 this command lists\n"
    )


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


@pytest.mark.parametrize("a", ["3000000", "200000"])
def test_oversized_explore_exits_two_at_once(capsys, a):
    # 3000000 used to end in a MemoryError traceback under a 1 GB limit
    start = time.monotonic()
    code, out, err = run_cli(capsys, "explore", "mixed", "--a", a, "--beta", "(1,1)")
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert err == (
        f"error: --a {a} --beta (1,1) give a size (a+1)(b1+1)(b2+1) of "
        f"{(int(a) + 1) * 4}, more than the {cli.MAX_OUTPUT} this command "
        "computes\n"
    )


def test_explore_limit_is_exact(capsys, monkeypatch):
    argv = ["explore", "mixed", "--a", "2", "--beta", "(2,2)"]
    monkeypatch.setattr(cli, "MAX_OUTPUT", 27)
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "MAX_OUTPUT", 26)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (
        "error: --a 2 --beta (2,2) give a size (a+1)(b1+1)(b2+1) of 27, more than "
        "the 26 this command computes\n"
    )


def test_repeated_calls_leave_no_cyclic_garbage(capsys):
    # A parser is a web of reference cycles, so building one per call left
    # hundreds of objects per call for the cyclic collector.
    argvs = [
        ["compositions", "--n", "3"],
        ["verify", "square", "--alpha", "(1,1)", "--beta", "(1,1)"],
        ["explore", "mixed", "--a", "3", "--beta", "(1,1)"],
    ]
    for argv in argvs:
        main(argv)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            for argv in argvs:
                assert main(argv) == 0
        found = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert found == 0


def help_argvs(parser, prefix=()):
    """``--help`` after the names of this parser and of each one below it."""
    yield [*prefix, "--help"]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from help_argvs(sub, (*prefix, name))


def test_every_subcommand_has_help(capsys):
    argvs = list(help_argvs(cli.build_parser()))
    assert ["verify", "bidegree12", "--help"] in argvs and len(argvs) >= 12
    for argv in argvs:
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0, argv
        assert "usage" in capsys.readouterr().out.lower(), argv
    # the entry point, once
    proc = subprocess.run(
        [sys.executable, "-m", "hopflike", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0 and "usage" in proc.stdout.lower()


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
