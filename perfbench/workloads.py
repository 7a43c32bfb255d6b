"""The benchmark's workloads: the operations one pass runs, and their checks.

A pass is one cold interpreter running every operation of one workload,
in an order drawn from the seed.  Sweeps that the command line can reach
go through ``hopflike.cli.main([... "--format", "json"])`` with stdout
captured, so the checked bytes are the bytes a user gets; the rest go
through the public ``hopflike`` API.  Every operation raises
:class:`CheckFailed` (or any other exception) when its output is wrong,
and returns the number of instances it checked otherwise.

Exhaustive reports are compared with the SHA-256 digests in
``digests.json``, recorded at the seed commit and independent of the
seed.  Seeded inputs are checked by identities that need no stored
answer.  The program is always looked up through module attributes at
call time, so the tracer's wrappers are the ones that run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
PER_K_FIXTURE = ROOT / "tests" / "data" / "square_per_k_11.json"

# Every exhaustive sweep reached through the command line, by op name.
CLI_SWEEPS = {
    "simplicial-6": ["verify", "simplicial", "--max-n", "6"],
    "relations-dd-8-4": [
        "verify", "relations", "--family", "dd", "--max-sum", "8", "--max-len", "4",
    ],
    "relations-ss-8-4": [
        "verify", "relations", "--family", "ss", "--max-sum", "8", "--max-len", "4",
    ],
    "relations-tautau-4-4": [
        "verify", "relations", "--family", "tautau", "--max-sum", "4",
        "--max-len", "4",
    ],
    "relations-mixed-6-3": [
        "verify", "relations", "--family", "mixed", "--max-sum", "6",
        "--max-len", "3",
    ],
    "square-11-summed": [
        "verify", "square", "--alpha", "(1,1)", "--beta", "(1,1)",
        "--reading", "summed",
    ],
    "square-11-per-k": [
        "verify", "square", "--alpha", "(1,1)", "--beta", "(1,1)",
        "--reading", "per-k",
    ],
    "hopf-12": ["verify", "hopf", "--max-degree", "12"],
    "bidegree12-11": ["verify", "bidegree12", "--max-total", "11"],
}

# The per-matrix reading of the (1,1) square is false by design: its
# report documents the counterexample and the command exits 1.
PER_K = "square-11-per-k"

SEEDED_SQUARES = 8  # towers: summed squares on margin pairs of sum 5-6
SQUARE_MAX_LEN = 3  # keeps each seeded square near 10 ms on any seed
SEEDED_COMBOS = 16  # psh: integer h-combinations of degree 2-12


class CheckFailed(Exception):
    """An operation's output differs from what the check expects."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[["Context"], int]


@dataclass
class Context:
    """What the checks compare against; loaded before timing starts."""

    digests: dict
    per_k_fixture: bytes


def load_context() -> Context:
    return Context(
        digests=json.loads(DIGESTS.read_text(encoding="utf-8")),
        per_k_fixture=PER_K_FIXTURE.read_bytes(),
    )


# ---------------------------------------------------------------------------
# independent enumerations used to build inputs and expected counts


def partitions(n: int, cap: int | None = None) -> list:
    """Partitions of n as weakly decreasing tuples, largest first."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, cap), 0, -1):
        out.extend((first,) + rest for rest in partitions(n - first, first))
    return out


def compositions(n: int) -> list:
    """All 2**(n-1) compositions of n >= 1."""
    out = []
    for mask in range(1 << (n - 1)):
        parts, run = [], 1
        for bit in range(n - 1):
            if mask >> bit & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return out


def fmt(parts) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"


# ---------------------------------------------------------------------------
# checks


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv) -> tuple:
    """Exit status and stdout bytes of ``hopflike`` with JSON output."""
    from hopflike import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            status = cli.main(list(argv) + ["--format", "json"])
        except SystemExit as exc:  # argparse rejected the arguments
            status = exc.code
    return status, buf.getvalue().encode("utf-8")


def check_reports(name, status, out, expect_status=0, expect_failures=False):
    """Verdict check on a JSON report or list of reports; returns checked."""
    if status != expect_status:
        raise CheckFailed(f"{name}: exit status {status}, expected {expect_status}")
    payload = json.loads(out)
    reports = payload if isinstance(payload, list) else [payload]
    for report in reports:
        if bool(report["failures"]) != expect_failures:
            raise CheckFailed(
                f"{name}: suite {report['suite']} has "
                f"{len(report['failures'])} failures, expected "
                f"{'some' if expect_failures else 'none'}"
            )
    return sum(report["checked"] for report in reports)


def check_digest(name, out, ctx: Context):
    want = ctx.digests.get(name)
    if want is None:
        raise CheckFailed(f"{name}: no recorded digest")
    got = digest(out)
    if got != want:
        raise CheckFailed(f"{name}: report digest {got[:12]} != recorded {want[:12]}")


def cli_sweep(name) -> Op:
    def run(ctx):
        status, out = run_cli(CLI_SWEEPS[name])
        if name == PER_K:
            checked = check_reports(name, status, out, 1, expect_failures=True)
            if out != ctx.per_k_fixture:
                raise CheckFailed(f"{name}: differs from {PER_K_FIXTURE.name}")
        else:
            checked = check_reports(name, status, out)
        check_digest(name, out, ctx)
        return checked

    return Op(name, run)


def worked_report_bytes() -> bytes:
    import hopflike

    return hopflike.check_worked_examples(8).to_json().encode("utf-8")


def worked_examples(ctx) -> int:
    out = worked_report_bytes()
    checked = check_reports("worked-8", 0, out)
    check_digest("worked-8", out, ctx)
    return checked


def seeded_square(alpha, beta) -> Op:
    name = f"square-{fmt(alpha)}-{fmt(beta)}"

    def run(ctx):
        status, out = run_cli(
            ["verify", "square", "--alpha", fmt(alpha), "--beta", fmt(beta)]
        )
        checked = check_reports(name, status, out)
        report = json.loads(out)
        bounds = {"alpha": fmt(alpha), "beta": fmt(beta), "reading": "summed"}
        if report["bounds"] != bounds:
            raise CheckFailed(f"{name}: bounds {report['bounds']}")
        want = 1
        for part in alpha:
            want *= len(partitions(part))
        if checked != want:
            raise CheckFailed(f"{name}: checked {checked}, basis has {want}")
        return checked

    return Op(name, run)


# psh: exhaustive identities


def h_element(lam):
    import hopflike

    return hopflike.SymElement(sum(lam), "h", {tuple(lam): 1})


def round_trip(ctx) -> int:
    """h -> m -> h returns every h_lambda up to degree 12."""
    import hopflike as hk

    checked = 0
    for n in range(1, 13):
        for lam in partitions(n):
            x = h_element(lam)
            if hk.m_to_h(hk.h_to_m(x)) != x:
                raise CheckFailed(f"h->m->h changed h{list(lam)}")
            checked += 1
    return checked


def schur_orthonormal(ctx) -> int:
    """hall_inner(s_lam, s_mu) = delta on every pair up to degree 10.

    Every partition of 10 is kept, (1^10) with its 10! row permutations
    included, so the factorial Jacobi-Trudi cost stays in the workload.
    """
    import hopflike as hk

    checked = 0
    for n in range(1, 11):
        parts = partitions(n)
        expansions = [hk.schur(lam) for lam in parts]
        for i, x in enumerate(expansions):
            for j, y in enumerate(expansions):
                if hk.hall_inner(x, y) != (i == j):
                    raise CheckFailed(
                        f"<s{list(parts[i])}, s{list(parts[j])}> != {int(i == j)}"
                    )
                checked += 1
    return checked


def hall_counts(ctx) -> int:
    """hall_inner(h_alpha, h_beta) = count_matrices(alpha, beta) up to 8."""
    import hopflike as hk

    checked = 0
    for n in range(1, 9):
        comps = compositions(n)
        elements = [h_element(sorted(c, reverse=True)) for c in comps]
        for alpha, x in zip(comps, elements):
            for beta, y in zip(comps, elements):
                if hk.hall_inner(x, y) != hk.count_matrices(alpha, beta):
                    raise CheckFailed(
                        f"<h{fmt(alpha)}, h{fmt(beta)}> != count_matrices"
                    )
                checked += 1
    return checked


def seeded_combination(x_coeffs, y_coeffs) -> Op:
    degree = sum(next(iter(x_coeffs)))
    name = f"combination-{degree}-{len(x_coeffs)}x{len(y_coeffs)}"

    def run(ctx):
        import hopflike as hk

        x = hk.SymElement(degree, "h", dict(x_coeffs))
        y = hk.SymElement(degree, "h", dict(y_coeffs))
        if hk.m_to_h(hk.h_to_m(x)) != x:
            raise CheckFailed(f"{name}: h->m->h changed the element")
        if hk.hall_inner(x, y) != hk.hall_inner(y, x):
            raise CheckFailed(f"{name}: hall_inner is not symmetric")
        return 2

    return Op(name, run)


# ---------------------------------------------------------------------------
# plans


def _random_combination(rng, parts):
    labels = rng.sample(parts, min(len(parts), rng.randint(1, 4)))
    return {lam: rng.choice([-1, 1]) * rng.randint(1, 9) for lam in labels}


def plan(workload: str, seed: int) -> list:
    """Operations of one pass, inputs and order drawn from ``seed``.

    The seed only picks seeded inputs and the order of operations; the
    exhaustive sweeps and their digests are the same on every seed.
    """
    rng = random.Random(seed)
    if workload == "towers":
        ops = [
            cli_sweep("relations-mixed-6-3"),
            Op("worked-8", worked_examples),
            cli_sweep("square-11-summed"),
            cli_sweep(PER_K),
        ]
        margins = [
            c for n in (5, 6) for c in compositions(n) if len(c) <= SQUARE_MAX_LEN
        ]
        for _ in range(SEEDED_SQUARES):
            alpha = rng.choice(margins)
            beta = rng.choice([c for c in margins if sum(c) == sum(alpha)])
            ops.append(seeded_square(alpha, beta))
    elif workload == "relations":
        ops = [
            cli_sweep("simplicial-6"),
            cli_sweep("relations-dd-8-4"),
            cli_sweep("relations-ss-8-4"),
            cli_sweep("relations-tautau-4-4"),
        ]
    elif workload == "coalgebra":
        ops = [cli_sweep("hopf-12"), cli_sweep("bidegree12-11")]
    elif workload == "psh":
        ops = [
            Op("round-trip-12", round_trip),
            Op("schur-orthonormal-10", schur_orthonormal),
            Op("hall-counts-8", hall_counts),
        ]
        for _ in range(SEEDED_COMBOS):
            parts = partitions(rng.randint(2, 12))
            ops.append(seeded_combination(
                _random_combination(rng, parts), _random_combination(rng, parts)
            ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def run_ops(ops, ctx, span=None) -> dict:
    """Run a pass's operations; an exception or a failed check fails one op."""
    span = span or (lambda name: contextlib.nullcontext())
    checked = 0
    errors = []
    for op in ops:
        try:
            with span(f"op.{op.name}"):
                checked += op.run(ctx)
        except Exception as exc:  # a broken op must not stop the pass
            errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
    return {"attempted": len(ops), "failed": len(errors), "checked": checked,
            "errors": errors}
