"""The benchmark's checks can fail, and its metric lists match BENCHMARK.json.

    PYTHONPATH=src python3 perfbench/test_checks.py
"""

import json
import unittest
from unittest import mock

from hopflike import symfunc

import run
import tracer
import workloads

SQUARE = "square-11-summed"


class ChecksCanFail(unittest.TestCase):
    def setUp(self):
        self.ctx = workloads.load_context()

    def run_op(self, op, ctx=None):
        return workloads.run_ops([op], ctx or self.ctx)

    def test_recorded_outputs_pass(self):
        for op in (workloads.cli_sweep(SQUARE), workloads.cli_sweep(workloads.PER_K),
                   workloads.seeded_square((2, 3), (1, 2, 2)),
                   workloads.seeded_combination({(2, 1): 3}, {(3,): 1})):
            outcome = self.run_op(op)
            self.assertEqual(outcome["failed"], 0, outcome["errors"])

    def test_corrupted_digest_counts_as_failed(self):
        digests = dict(self.ctx.digests, **{SQUARE: "0" * 64})
        ctx = workloads.Context(digests, self.ctx.per_k_fixture)
        outcome = self.run_op(workloads.cli_sweep(SQUARE), ctx)
        self.assertEqual(outcome["failed"], 1)
        self.assertIn("digest", outcome["errors"][0])

    def test_wrong_verdict_counts_as_failed(self):
        # Doubling every shuffle breaks the summed square.  The faulty
        # report's own digest is accepted, so only the verdict can fail it.
        original = symfunc.tensor_permute
        with mock.patch.object(
            symfunc, "tensor_permute", lambda el, sources: 2 * original(el, sources)
        ):
            _, out = workloads.run_cli(workloads.CLI_SWEEPS[SQUARE])
            digests = dict(self.ctx.digests, **{SQUARE: workloads.digest(out)})
            ctx = workloads.Context(digests, self.ctx.per_k_fixture)
            sweep = self.run_op(workloads.cli_sweep(SQUARE), ctx)
            seeded = self.run_op(workloads.seeded_square((2, 3), (1, 2, 2)))
        for outcome in (sweep, seeded):
            self.assertEqual(outcome["failed"], 1)
            self.assertIn("exit status 1", outcome["errors"][0])

    def test_per_k_report_must_match_fixture(self):
        ctx = workloads.Context(self.ctx.digests, self.ctx.per_k_fixture + b" ")
        outcome = self.run_op(workloads.cli_sweep(workloads.PER_K), ctx)
        self.assertEqual(outcome["failed"], 1)
        self.assertIn(workloads.PER_K_FIXTURE.name, outcome["errors"][0])

    def test_broken_basis_change_counts_as_failed(self):
        original = symfunc._inverse_transition

        def skewed(degree):
            rows = [list(row) for row in original(degree)]
            rows[0][0] += 1
            return tuple(tuple(row) for row in rows)

        with mock.patch.object(symfunc, "_inverse_transition", skewed):
            outcome = self.run_op(
                workloads.seeded_combination({(2, 1): 3}, {(3,): 1})
            )
        self.assertEqual(outcome["failed"], 1)
        self.assertIn("h->m->h", outcome["errors"][0])


class MetricLists(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, tracer.metric_units()
        )
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
