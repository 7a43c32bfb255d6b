#!/usr/bin/env python3
"""Record the SHA-256 digest of every exhaustive report into digests.json.

    PYTHONPATH=src python3 perfbench/record_digests.py

Run from the root of a checkout at the commit whose reports are the
reference.  The benchmark fails any operation whose report bytes differ
from the recorded digest, so re-record only when a change to report
bytes is intended and has been reviewed.
"""

import json
import sys

import workloads


def main() -> int:
    digests = {}
    for name, argv in workloads.CLI_SWEEPS.items():
        status, out = workloads.run_cli(argv)
        expect = 1 if name == workloads.PER_K else 0
        if status != expect:
            print(f"{name}: exit status {status}, expected {expect}", file=sys.stderr)
            return 1
        digests[name] = workloads.digest(out)
    digests["worked-8"] = workloads.digest(workloads.worked_report_bytes())
    workloads.DIGESTS.write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(digests)} digests to {workloads.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
