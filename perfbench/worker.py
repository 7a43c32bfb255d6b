"""One pass of one workload in a fresh interpreter; started by run.py.

Usage: worker.py WORKLOAD SEED T0 MODE OUT_DIR

T0 is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, ``import hopflike``
and input generation.  MODE is ``setup`` (stop after set-up), ``plain``
(one untraced pass, timed by the host-speed probe of ``speed.py``) or
``traced`` (one pass under the span tracer, raw time).  Prints one JSON
object on the last line of stdout; times are raw seconds except
``wall_s`` of a plain pass, which is scaled to reference speed.
"""

import json
import resource
import statistics
import sys
import time
from pathlib import Path


def main(argv) -> int:
    workload, seed, t0, mode, out_dir = argv
    import hopflike
    import hopflike.cli  # noqa: F401  (part of what a CLI user loads)
    import speed
    import workloads

    source = Path(hopflike.__file__).resolve()
    if workloads.ROOT / "src" not in source.parents:
        print(f"hopflike imported from {source}, not from this checkout",
              file=sys.stderr)
        return 2
    ctx = workloads.load_context()
    ops = workloads.plan(workload, int(seed))
    setup_s = time.monotonic() - float(t0)
    result = {"setup_s": setup_s, "setup_ref_s": speed.reference_time()}
    if mode == "plain":
        probe = speed.Probe()
        probe.start()
        outcome = workloads.run_ops(ops, ctx)
        probe.stop()
        result.update(outcome, wall_s=probe.scaled_s, raw_wall_s=probe.raw_s,
                      reference_s=statistics.median(probe.references))
    elif mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        start = time.perf_counter()
        outcome = workloads.run_ops(ops, ctx, tracer.span)
        wall_s = time.perf_counter() - start
        result.update(outcome, wall_s=wall_s, raw_wall_s=wall_s,
                      metrics=tracer.metrics())
        tracer.write(str(Path(out_dir) / f"trace-{workload}"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
