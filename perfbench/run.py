#!/usr/bin/env python3
"""hopflike benchmark: one workload, checked, with every metric by name.

    python3 perfbench/run.py --workload towers --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Load is one closed-loop client: passes
run one after another, each in a fresh single-threaded interpreter with
cold memo caches, as every CLI invocation has.  ``--trace 0`` repeats
passes for ``--seconds`` and reports the end-to-end metrics (medians
over passes, times scaled to reference host speed by ``speed.py``);
``--trace 1`` runs one plain pass and one traced pass and reports the
per-layer metrics.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("towers", "relations", "coalgebra", "psh")
SETUP_PROBES = 10  # set-up-only interpreters per run, besides one per pass
DEADLINE_S = 170  # the whole run, so that it ends within 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "checked_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class HarnessError(Exception):
    """A pass ended without a result; the benchmark cannot report."""


def run_child(workload, seed, mode, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    ref_s = speed.reference_time()
    cmd = [
        sys.executable, str(HERE / "worker.py"), workload, str(seed),
        repr(time.monotonic()), mode, str(OUT_DIR),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{mode} pass of {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{mode} pass of {workload} exited {proc.returncode}")
    result = json.loads(lines[-1])
    # Set-up is short, so the host's speed is taken as the mean of the
    # reference times just before the start and just after set-up.
    result["raw_setup_s"] = result["setup_s"]
    result["setup_s"] *= speed.REFERENCE_S / ((ref_s + result["setup_ref_s"]) / 2)
    return result


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, passes, setup_runs):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_raw_wall_s": [p["raw_wall_s"] for p in passes],
        "pass_reference_s": [p.get("reference_s") for p in passes],
        "setup_s_samples": [p["setup_s"] for p in setup_runs + passes],
        "raw_setup_s_samples": [p["raw_setup_s"] for p in setup_runs + passes],
        "errors": [e for p in passes for e in p["errors"]],
    }


def measure(args, deadline):
    """Plain passes for ``--seconds``; medians of the end-to-end metrics."""
    begin = time.monotonic()
    setup_runs = [run_child(args.workload, args.seed, "setup", deadline)
              for _ in range(SETUP_PROBES)]
    passes = []
    while True:
        started = time.monotonic()
        passes.append(run_child(args.workload, args.seed, "plain", deadline))
        now = time.monotonic()
        if now - begin + (now - started) > args.seconds:
            break
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in setup_runs + passes),
        "checked_per_s": statistics.median(p["checked"] / p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    return passes, setup_runs, metrics


def trace(args, deadline):
    """One plain and one traced pass; per-layer metrics and the overhead.

    The overhead compares raw times, as the traced pass runs no probe.
    """
    import tracer

    plain = run_child(args.workload, args.seed, "plain", deadline)
    traced = run_child(args.workload, args.seed, "traced", deadline)
    metrics = traced["metrics"]
    metrics[tracer.OVERHEAD] = {
        "value": traced["raw_wall_s"] - plain["raw_wall_s"], "unit": "s",
    }
    return [plain, traced], [], metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    needed = [
        ROOT / "src" / "hopflike" / "__init__.py",
        ROOT / "tests" / "data" / "square_per_k_11.json",
    ]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"not a hopflike checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        passes, setup_runs, metrics = (trace if args.trace else measure)(
            args, deadline
        )
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    record = run_record(args, passes, setup_runs)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"record-{stem}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps({"run_record": record}))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
