#!/usr/bin/env python3
"""Regenerate the recorded fixtures under tests/data.

The per-matrix square reports and the exploratory mixed-bidegree
reports are frozen byte-for-byte; rerun this after any deliberate change
to report formatting and review the diff.
"""

import json
import sys
from pathlib import Path

import hopflike as hk
from hopflike.compositions import Composition


def main() -> int:
    data = Path(__file__).resolve().parent.parent / "tests" / "data"
    data.mkdir(parents=True, exist_ok=True)
    # per-matrix readings of alpha = beta; their failures carry the
    # tower values, so they pin the evaluator's numbers, not only verdicts
    for parts in ((1, 1), (2, 2), (1, 2, 1)):
        margins = Composition(parts)
        report = hk.check_square_condition(margins, margins, "per-k")
        target = data / f"square_per_k_{''.join(map(str, parts))}.json"
        target.write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"wrote {target}")
    # every a <= 3 and two-part beta with a + |beta| <= 6
    explore = [
        hk.explore_mixed_bidegree(a, Composition([b1, b2]))
        for a in range(4)
        for b1 in range(1, 7)
        for b2 in range(1, 7)
        if a + b1 + b2 <= 6
    ]
    target = data / "explore_mixed_6.json"
    target.write_text(json.dumps(explore, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
