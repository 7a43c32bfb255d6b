#!/usr/bin/env python3
"""Run every verification sweep at its acceptance bounds.

Prints one text report per suite and exits nonzero if any sweep fails.
The last line gives the size of the package (its source line count and
the number of public names) and the peak RSS of the process.  Pass
--json PATH to also write the combined reports as a JSON array.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import hopflike as hk
from hopflike.compositions import Composition
from hopflike.hopfverify import check_bidegree12_cases, check_bidegree12_defect


def size_line() -> str:
    """Lines of ``src/hopflike/*.py`` (as ``wc -l`` counts), ``__all__``
    and this process's peak RSS (``ru_maxrss`` is in KiB on Linux)."""
    lines = sum(
        path.read_text(encoding="utf-8").count("\n")
        for path in Path(hk.__file__).parent.glob("*.py")
    )
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return (
        f"size: src/hopflike {lines} lines, {len(hk.__all__)} public names, "
        f"peak RSS {peak_mb:.1f} MB"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", help="also write all reports to this file")
    args = parser.parse_args()

    sweeps = [
        ("simplicial identities", lambda: hk.verify_simplicial_identities(6)),
        ("merge relations", lambda: hk.check_relation_family("dd", 8, 4)),
        ("split relations", lambda: hk.check_relation_family("ss", 8, 4)),
        ("shuffle relations", lambda: hk.check_relation_family("tautau", 4, 4)),
        ("mixed relations (summed)", lambda: hk.check_mixed_relations(6, 3)),
        ("worked diagrams", lambda: hk.check_worked_examples(8)),
        ("Hopf compatibility", lambda: hk.check_hopf_compat(8)),
        (
            "square condition (summed)",
            lambda: hk.check_square_condition(
                Composition([1, 1]), Composition([1, 1]), "summed"
            ),
        ),
        ("bidegree (1,2) defect", lambda: check_bidegree12_defect(8)),
        ("bidegree (1,2) six cases", lambda: check_bidegree12_cases(8)),
    ]
    reports = []
    for name, run in sweeps:
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
