"""Command-line front end.

Subcommands: verify (simplicial | relations | hopf | square |
bidegree12), explore mixed, matrices, compositions, normalize.
All sweeps are exhaustive within their bounds and every run is
deterministic; JSON output is byte-identical across runs unless
``--timing`` is given.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from itertools import islice
from math import prod

from .compositions import _count_compositions, enumerate_compositions
from .contingency import _matrices, enumerate_matrices
from .errors import HopflikeError, UsageError
from .parsing import parse_composition, parse_word
from .symfunc import _partition_counts, default_realization, format_tensor
from . import hopfverify, simplicial

# The most compositions, margin matrices or matrix entries that one
# command lists, the most h-basis inputs a Hopf or bidegree-(1,2) sweep
# checks, the most tower inputs (margin matrices times basis elements) a
# square sweep checks, and the most identities the simplicial sweep
# checks.  Larger outputs and sweeps are refused before they start.
MAX_OUTPUT = 2**18


@cache  # built once: a parser is about 480 objects in reference cycles
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopflike",
        description="Composition-category kernel with exhaustive identity sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def handled_by(p, run, *sweeps):
        """Add ``--format`` and declare the handler.  A verify suite also
        gets ``--timing`` and its sweeps, each a function of the args."""
        p.add_argument("--format", choices=("text", "json"), default="text")
        if sweeps:
            p.add_argument(
                "--timing", action="store_true", help="include measured wall "
                "time in reports (breaks byte determinism)",
            )
        p.set_defaults(run=run, sweeps=sweeps)

    verify = sub.add_parser("verify", help="run an identity sweep")
    vsub = verify.add_subparsers(dest="suite", required=True)

    p = vsub.add_parser("simplicial", help="face/degeneracy identity families")
    p.add_argument("--max-n", type=int, default=6)
    handled_by(p, _run_verify, lambda a: simplicial.verify_simplicial_identities(
        _simplicial_bound(a.max_n)
    ))

    p = vsub.add_parser("relations", help="generator relation families")
    p.add_argument(
        "--family", required=True, choices=("dd", "ss", "tautau", "mixed"),
        help="dd: merge-merge, ss: split-split, tautau: shuffle chains, "
        "mixed: split/shuffle/merge towers (summed reading)",
    )
    p.add_argument("--max-sum", type=int, default=6)
    p.add_argument("--max-len", type=int, default=4)
    handled_by(p, _run_verify, lambda a: hopfverify.check_relation_family(
        a.family, *_relation_bounds(a.max_sum, a.max_len)
    ))

    p = vsub.add_parser("hopf", help="product/coproduct compatibility")
    p.add_argument("--max-degree", type=int, default=6)
    handled_by(p, _run_verify, lambda a: hopfverify.check_hopf_compat(
        _sweep_bound(a.max_degree, 2, "--max-degree")
    ))

    p = vsub.add_parser("square", help="towers against the coarse route")
    p.add_argument("--alpha", required=True, help="row margins, e.g. '(1,1)'")
    p.add_argument("--beta", required=True, help="column margins, e.g. '(1,1)'")
    p.add_argument("--reading", choices=("summed", "per-k"), default="summed")
    handled_by(p, _run_verify, lambda a: hopfverify.check_square_condition(
        *_square_margins(parse_composition(a.alpha), parse_composition(a.beta)),
        a.reading,
    ))

    p = vsub.add_parser("bidegree12", help="modified multiplication defect")
    p.add_argument("--max-total", type=int, default=6)
    handled_by(
        p, _run_verify,
        lambda a: hopfverify.check_bidegree12_defect(
            _sweep_bound(a.max_total, 3, "--max-total")
        ),
        lambda a: hopfverify.check_bidegree12_cases(a.max_total),
    )

    explore = sub.add_parser("explore", help="exploratory computations")
    esub = explore.add_subparsers(dest="what", required=True)
    p = esub.add_parser("mixed", help="both Hopf-square routes, no verdict")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--beta", required=True, help="two-part shape, e.g. '(1,1)'")
    handled_by(p, _run_explore)

    p = sub.add_parser("matrices", help="margin matrices")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument(
        "--mode", choices=("nonnegative", "strictly-positive"),
        default="nonnegative",
    )
    handled_by(p, _run_matrices)

    p = sub.add_parser("compositions", help="compositions of n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-length", type=int, default=None)
    handled_by(p, _run_compositions)

    p = sub.add_parser("normalize", help="parse a word; print its realized map")
    p.add_argument("word")
    handled_by(p, _run_normalize)

    return parser


def _refuse(stated: str, verb: str):
    """Refuse a command whose ``stated`` size passes MAX_OUTPUT."""
    raise UsageError(f"{stated}, more than the {MAX_OUTPUT} this command {verb}")


def _p_counts(top: int) -> list:
    """p(0), ..., p(min(top, 200)): p(200) alone is far above MAX_OUTPUT."""
    return _partition_counts(min(max(top, 0), 200))


def _matrix_count(alpha, beta, mode: str, limit: int) -> int:
    """How many ``mode`` matrices have margins ``alpha`` and ``beta``, walked
    lazily and no further than ``limit``: a full count can take minutes."""
    return sum(1 for _ in islice(_matrices(alpha, beta, mode), limit))


def _basis_size(comp) -> tuple:
    """``(size, exact)`` for A(comp): the product of p(part) over its parts.

    A part above 200 counts as p(200), and the product stops once it is
    above MAX_OUTPUT; either makes ``size`` a lower bound, and ``exact``
    False.
    """
    counts = _p_counts(max(comp.parts, default=0))
    size, exact = 1, True
    for part in comp.parts:
        if size > MAX_OUTPUT:
            return size, False
        exact = exact and part < len(counts)
        size *= counts[min(part, len(counts) - 1)]
    return size, exact


def _sweep_bound(bound: int, slots: int, option: str) -> int:
    """``bound``, once the sweep it bounds is known to be small enough.

    The sweep checks every h-basis element of A(a1, ..., a_slots) with
    a1 + ... + a_slots <= bound: the sum of p(a1) ... p(a_slots), here
    from ``slots`` convolutions of the partition counts.  Above
    MAX_OUTPUT it raises ``UsageError`` with that count.
    """
    counts = _p_counts(bound)
    top = len(counts) - 1
    series = [1] + [0] * top
    for _ in range(slots):
        series = [
            sum(series[i] * counts[n - i] for i in range(n + 1))
            for n in range(top + 1)
        ]
    size = sum(series)
    if size > MAX_OUTPUT:
        least = "at least " if bound > top else ""
        _refuse(f"{option} {bound} gives {least}{size} h-basis inputs", "checks")
    return bound


def _relation_bounds(max_sum: int, max_len: int) -> tuple:
    """The bounds, once the compositions the sweep lists before it starts
    (n <= max_sum, at most max_len parts) are counted in closed form and
    found no more than MAX_OUTPUT.  Bounds below 1 are the sweep's to refuse."""
    total = 0
    for n in range(max_sum + 1 if max_len >= 1 else 0):
        total += _count_compositions(n, max_len, stop=MAX_OUTPUT)
        if total > MAX_OUTPUT:
            _refuse(
                f"--max-sum {max_sum} --max-len {max_len} give at least "
                f"{total} compositions", "lists",
            )
    return max_sum, max_len


def _square_margins(alpha, beta) -> tuple:
    """``(alpha, beta)``, once their square sweep is known to be small enough.

    The sweep evaluates the towers of every margin matrix on every
    h-basis element of A(alpha).  The matrices have no closed form, so
    they are walked until the product passes MAX_OUTPUT; then it raises
    ``UsageError`` with that count.  Margins with different sums are
    left for the sweep to refuse.
    """
    if alpha.sum != beta.sum:
        return alpha, beta
    basis, exact = _basis_size(alpha)
    matrices = _matrix_count(alpha, beta, "nonnegative", MAX_OUTPUT // basis + 1)
    if matrices * basis > MAX_OUTPUT:
        # the walk stopped early, so the matrix count is a lower bound
        least = "" if exact else "at least "
        _refuse(
            f"margins {alpha} and {beta} give at least {matrices * basis} "
            f"tower inputs (at least {matrices} matrices times {least}{basis} "
            "basis elements)", "checks",
        )
    return alpha, beta


def _simplicial_bound(max_n: int) -> int:
    """``max_n``, once its sweep is known to be small enough.

    The check count is in closed form; above MAX_OUTPUT it raises
    ``UsageError`` with the count.  A ``max_n`` below 1 is left for the
    sweep to refuse.
    """
    size = simplicial.identity_check_count(max_n) if max_n >= 1 else 0
    if size > MAX_OUTPUT:
        _refuse(f"--max-n {max_n} gives {size} checks", "checks")
    return max_n


def _run_verify(args) -> tuple:
    """Run the suite's sweeps; under ``--timing`` each report carries the
    time of its own sweep."""
    reports = []
    for sweep in args.sweeps:
        start = time.monotonic()
        reports.append(sweep(args))
        if args.timing:
            reports[-1].millis = int((time.monotonic() - start) * 1000)
    payload = [r.to_json_dict() for r in reports]
    return (
        0 if all(r.passed for r in reports) else 1,
        payload[0] if len(payload) == 1 else payload,
        (r.to_text() for r in reports),
    )


def _run_explore(args) -> tuple:
    beta = parse_composition(args.beta)
    # tables, work and output grow as (a+1)(b1+1)(b2+1); bad a or beta is the sweep's
    size = (args.a + 1) * prod(b + 1 for b in beta.parts)
    if args.a >= 0 and beta.length == 2 and size > MAX_OUTPUT:
        _refuse(
            f"--a {args.a} --beta {beta} give a size (a+1)(b1+1)(b2+1) of {size}",
            "computes",
        )
    report = hopfverify.explore_mixed_bidegree(args.a, beta)
    lines = [f"suite: {report['suite']}", f"element: {report['element']}"]
    for section in ("upper", "lower", "difference"):
        entries = [f"  {key}: {value}" for key, value in report[section].items()]
        lines += [f"{section}:", *(entries or ["  (empty)"])]
    return 0, report, lines


def _run_matrices(args) -> tuple:
    alpha = parse_composition(args.alpha)
    beta = parse_composition(args.beta)
    if _matrix_count(alpha, beta, args.mode, MAX_OUTPUT + 1) > MAX_OUTPUT:
        _refuse(
            f"margins {alpha} and {beta} have at least {MAX_OUTPUT + 1} "
            f"{args.mode} matrices", "lists",
        )
    matrices = [str(K) for K in enumerate_matrices(alpha, beta, args.mode)]
    payload = dict(alpha=str(alpha), beta=str(beta), mode=args.mode, matrices=matrices)
    return 0, payload, [*matrices, f"total: {len(matrices)}"]


def _run_compositions(args) -> tuple:
    n, cap = args.n, args.max_length
    count = _count_compositions(n, cap, stop=MAX_OUTPUT)
    if count > MAX_OUTPUT:
        if cap is None or cap >= n:
            size = f"2^{n - 1}" + (f" = {1 << n - 1}" if n <= 64 else "")
        else:
            size = f"at least {count}"
        _refuse(
            f"{n} has {size} compositions"
            + ("" if cap is None else f" of at most {cap} parts"), "lists",
        )
    comps = [str(c) for c in enumerate_compositions(n, cap)]
    return 0, {"n": n, "compositions": comps}, [*comps, f"total: {len(comps)}"]


def _run_normalize(args) -> tuple:
    word = parse_word(args.word)
    rows, rows_exact = _basis_size(word.source)
    cols, cols_exact = _basis_size(word.target)
    if rows * cols > MAX_OUTPUT:
        bound = "" if rows_exact and cols_exact else "at least "
        _refuse(
            f"the matrix of A{word.target} -> A{word.source} has {bound}{rows} "
            f"rows and {bound}{cols} columns, {bound}{rows * cols} entries",
            "lists",
        )
    real = default_realization()
    realized = real.realize_word(word)
    domain_basis = real.tensor_basis(word.target)
    codomain_basis = real.tensor_basis(word.source)
    images = [realized(col).coeffs for col in domain_basis]
    payload = {
        "word": str(word),
        "source": str(word.source),
        "target": str(word.target),
        "map": f"A{word.target} -> A{word.source}",
        "domain_basis": [format_tensor(b) for b in domain_basis],
        "codomain_basis": [format_tensor(b) for b in codomain_basis],
        "matrix": [
            [image.get(next(iter(row.coeffs)), 0) for image in images]
            for row in codomain_basis
        ],
    }
    lines = [f"{key}: {payload[key]}" for key in ("word", "source", "target", "map")]
    lines += [
        "columns (domain basis): " + ", ".join(payload["domain_basis"]),
        "rows (codomain basis): " + ", ".join(payload["codomain_basis"]),
        *("  [" + " ".join(f"{v:3d}" for v in row) + "]" for row in payload["matrix"]),
    ]
    return 0, payload, lines


def main(argv=None) -> int:
    """Run one command; its handler returns (exit status, payload, text
    lines), and it prints the payload as JSON or the lines as text."""
    args = build_parser().parse_args(argv)
    try:
        status, payload, lines = args.run(args)
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line)
    except HopflikeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
