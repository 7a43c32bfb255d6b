#!/usr/bin/env python3
"""Run every verification sweep at its acceptance bounds.

Each suite is a ``hopflike verify`` argument list, parsed by the CLI's
own parser, so a suite runs the sweeps and passes the preflights that
the command does.  The worked diagrams have no command and are called
directly.  Prints one text report per sweep and exits nonzero if any
sweep fails.  The last line gives the size of the package (its source
line count and the number of public names), the line count of the
tests and the peak RSS of the process.  Pass --json PATH to also write
the combined reports as a JSON array.
"""

import argparse
import json
import resource
import sys
import time
from functools import partial
from pathlib import Path

import hopflike as hk
from hopflike import cli

SUITES = [
    "simplicial --max-n 6",
    "relations --family dd --max-sum 8 --max-len 4",
    "relations --family ss --max-sum 8 --max-len 4",
    "relations --family tautau --max-sum 4 --max-len 4",
    "relations --family mixed --max-sum 6 --max-len 3",
    partial(hk.check_worked_examples, 8),
    "hopf --max-degree 8",
    "square --alpha (1,1) --beta (1,1)",
    "bidegree12 --max-total 8",
]


def sweeps():
    """Every suite's sweeps in report order, each a call of no arguments."""
    parser = cli.build_parser()
    for suite in SUITES:
        if callable(suite):
            yield suite
        else:
            args = parser.parse_args(["verify", *suite.split()])
            yield from (partial(sweep, args) for sweep in args.sweeps)


def line_count(directory: Path) -> int:
    """Lines of ``directory/*.py``, as ``wc -l`` counts them."""
    return sum(
        path.read_text(encoding="utf-8").count("\n")
        for path in directory.glob("*.py")
    )


def size_line() -> str:
    """Lines of ``src/hopflike`` and of ``tests``, ``__all__`` and this
    process's peak RSS (``ru_maxrss`` is in KiB on Linux)."""
    package = line_count(Path(hk.__file__).parent)
    tests = line_count(Path(__file__).resolve().parents[1] / "tests")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return (
        f"size: src/hopflike {package} lines, {len(hk.__all__)} public names, "
        f"tests {tests} lines, peak RSS {peak_mb:.1f} MB"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", help="also write all reports to this file")
    args = parser.parse_args()

    reports = []
    for run in sweeps():
        start = time.monotonic()
        report = run()
        elapsed = time.monotonic() - start
        reports.append(report)
        print(report.to_text())
        print(f"elapsed: {elapsed:.2f}s")
        print()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump([r.to_json_dict() for r in reports], fh, indent=2)
        print(f"wrote {args.json}")
    failed = [r.suite for r in reports if not r.passed]
    if failed:
        print("FAILED:", ", ".join(failed))
    else:
        print(f"all {len(reports)} suites passed")
    print(size_line())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
