"""Tests of the benchmark harness itself, on small inputs.

    python3 -m unittest discover -s perfbench/tests

They take a few seconds and are not part of the package's test suite.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import statistics
import tempfile
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import harness  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    HELDOUT_SEED,
    ChainWorkload,
    CliWorkload,
    PosetWorkload,
    WitnessWorkload,
    all_pairs,
    element_key,
)

import lineflags as lf  # noqa: E402


def instant_ops(count: int) -> list[harness.Op]:
    return [harness.Op(f"op {k}", lambda k=k: k, lambda r: (str(r), None)) for k in range(count)]


class PercentileRule(unittest.TestCase):
    def test_percentiles_of_known_samples(self):
        samples = [float(v) for v in range(1, 202)]
        self.assertEqual(harness.percentile(samples, 50), 101.0)
        self.assertEqual(harness.percentile(samples, 95), 191.0)
        with self.assertRaises(ValueError):
            harness.percentile([1.0], 50)

    def test_tail_percent_keeps_ten_samples_beyond_it(self):
        self.assertEqual(harness.tail_percent(200), 95)
        self.assertEqual(harness.tail_percent(199), 94)
        self.assertEqual(harness.tail_percent(25), 60)
        self.assertEqual(harness.tail_percent(10), 0)

    def test_untraced_run_repeats_the_batch_and_prices_every_op(self):
        m = harness.measure(instant_ops(7), seconds=0.0, min_batches=4)
        self.assertEqual(len(m.walls), 4)
        self.assertEqual([len(ts) for ts in m.times], [4] * 7)
        self.assertEqual([len(cs) for cs in m.costs], [4] * 7)
        self.assertEqual(len(m.probes), 8)  # instant ops: one probe opens, one closes a batch
        m.costs[3] = [5.0, 2.0, 9.0, 3.0]
        metrics, notes = harness.end_to_end(m)
        self.assertEqual(notes["latency_samples"], 28)  # every timed execution
        self.assertEqual(notes["repeats"], 4)
        self.assertEqual(notes["p95_samples_beyond"], 28 * 5 / 100)
        self.assertGreaterEqual(metrics["wall_ref"][0], 4.0)  # op 3 at its median cost
        self.assertLess(metrics["wall_ref"][0], 5.0)
        self.assertEqual(metrics["op_p95_ref"][0], harness.percentile(
            [c for cs in m.costs for c in cs], 95))

    def test_small_batches_repeat_enough_for_a_trusted_p95(self):
        for workload in (CliWorkload(None), PosetWorkload(None)):
            size = (len(workload.invocations(lf, 1)) if isinstance(workload, CliWorkload)
                    else len(workload.steps()))
            self.assertGreaterEqual(harness.tail_percent(size * workload.min_batches), 95,
                             workload.name)

    def test_cost_is_time_over_the_nearby_probes(self):
        ops = [harness.Op("sleep", lambda: time.sleep(0.03), lambda r: ("", None))] * 2
        m = harness.Measurement()
        harness.run_batch(ops, m, None)
        self.assertEqual(len(m.probes), 3)  # each 30 ms op closes a probe interval
        for k in range(2):
            ref = m.times[k][0] / m.costs[k][0]
            self.assertAlmostEqual(ref, statistics.median(m.probes))

    def test_cost_is_time_over_the_workload_probe(self):
        probe = harness.Probe(lambda: 0.5, every_s=0.0, bracket=1, ref_s=0.5)
        m = harness.Measurement()
        harness.run_batch(instant_ops(3), m, None, probe=probe)
        self.assertEqual(m.probes, [0.5] * 4)  # one opens the batch, one follows each op
        for k in range(3):
            self.assertEqual(m.costs[k][0], m.times[k][0] / 0.5)

    def test_declared_metrics_match_what_the_run_reports(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics, _ = harness.end_to_end(harness.measure(instant_ops(7), 0.0))
        self.assertEqual({(m["name"], m["unit"]) for m in spec["end_to_end"]},
                         {(name, unit) for name, (_, unit) in metrics.items()}
                         | {("setup_s", "s"), ("peak_rss_mb", "MB")})
        per_layer = set(Tracer().metrics(1)) | {"cli.import_s", "trace_overhead_s"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, per_layer)


class Goldens(unittest.TestCase):
    NAMED = (
        ("verify", (2, 1, 1), (1, 1, 2)),
        ("poset", (2, 2), (1, 2, 1)),
        ("twoflag", (1, 1, 1, 1), (1, 1, 1, 1)),
    )

    def poset(self, goldens):
        return PosetWorkload(goldens, named=self.NAMED, pairs=[((4,), (4,))])

    def test_pinned_goldens_pass(self):
        ops = self.poset(harness.load_goldens("poset-n5")).setup(lf, 1)
        m = harness.measure(ops, 0.0, min_batches=1)
        self.assertEqual((m.attempted, m.failed), (12, 0))  # warm-up and one timed batch

    def test_corrupted_golden_counts_as_failed(self):
        goldens = copy.deepcopy(harness.load_goldens("poset-n5"))
        goldens["results"]["poset 2,2|1,2,1"]["digest"] = "0" * 16
        m = harness.measure(self.poset(goldens).setup(lf, 1), 0.0, min_batches=1)
        self.assertEqual((m.attempted, m.failed), (12, 2))
        self.assertIn("golden mismatch", m.problems[0])

    def test_corrupted_cli_golden_counts_as_failed(self):
        argv = ("enum", "--b", "1,1,1", "--c", "1,1,1")
        goldens = copy.deepcopy(harness.load_goldens("cli-small"))
        workload = CliWorkload(goldens, pairs=0, fixed=(argv,))
        m = harness.measure(workload.setup(lf, 1), 0.0, min_batches=1)
        self.assertEqual(m.failed, 0)
        goldens["fixed"][" ".join(argv)] = "0:" + "0" * 16
        m = harness.measure(CliWorkload(goldens, pairs=0, fixed=(argv,)).setup(lf, 1), 0.0,
                            min_batches=1)
        self.assertEqual((m.attempted, m.failed), (2, 2))

    def test_golden_left_out_counts_as_failed(self):
        goldens = copy.deepcopy(harness.load_goldens("poset-n5"))
        del goldens["results"]["poset 2,2|1,2,1"]
        m = harness.measure(self.poset(goldens).setup(lf, 1), 0.0, min_batches=1)
        self.assertEqual((m.attempted, m.failed), (12, 2))
        self.assertIn("no golden pinned", m.problems[0])
        goldens = {"n": 3, "orbits": 28, "seed": 1, "answers": ["0" * 16]}
        ops = ChainWorkload(goldens, n=3, comparable=2, incomparable=1).setup(lf, 1)
        m = harness.measure(ops, 0.0, min_batches=1)
        self.assertEqual((m.attempted, m.failed), (6, 6))
        self.assertEqual(sum("no golden pinned" in p for p in m.problems), 4)

    def test_missing_goldens_raise(self):
        with self.assertRaises(FileNotFoundError):
            harness.load_goldens("no-such-workload")
        with self.assertRaises(KeyError):
            CliWorkload({"seed": 1, "seeded": {}}).setup(lf, 1)
        with self.assertRaises(harness.GoldenMismatch):
            WitnessWorkload(harness.load_goldens("witness-n4"), n=3)

    def test_setup_golden_mismatch_raises(self):
        goldens = {"n": 3, "orbits": 27, "seed": 1, "answers": []}
        with self.assertRaises(harness.GoldenMismatch):
            ChainWorkload(goldens, n=3, comparable=1, incomparable=1).setup(lf, 1)


class Tracing(unittest.TestCase):
    def test_traced_and_untraced_batches_give_identical_digests(self):
        workloads = [
            ChainWorkload(None, n=4, comparable=6, incomparable=2),
            WitnessWorkload(None, n=3, stride=3),
            PosetWorkload(None, named=(), pairs=all_pairs(3)),
        ]
        for workload in workloads:
            tracer = Tracer()
            m = harness.measure(workload.setup(lf, HELDOUT_SEED, tracer), 0.0, tracer)
            self.assertEqual(m.failed, 0, m.problems)
            self.assertEqual(len(m.batch_digests), 2)
            self.assertEqual(m.batch_digests[0], m.batch_digests[1], workload.name)
        metrics = tracer.metrics(1)
        self.assertEqual(metrics["moves.verify_equivalence.calls"][0], 16)  # mass-3 pairs
        self.assertGreater(metrics["moves.order_residual_s"][0], 0)

    def test_chain_probe_and_geometric_variants_are_recorded(self):
        tracer = Tracer()
        ops = ChainWorkload(None, n=4, comparable=4, incomparable=0).setup(lf, 2, tracer)
        harness.measure(ops, 0.0, tracer)
        metrics = tracer.metrics(1)
        self.assertEqual(metrics["moves.find_chain.calls"][0], 4)
        self.assertEqual(metrics["moves.applicable_moves.chain_probe.calls"][0],
                         metrics["moves.find_chain.steps"][0])
        tracer = Tracer()
        harness.measure(WitnessWorkload(None, n=3, stride=9).setup(lf, 2, tracer), 0.0, tracer)
        metrics = tracer.metrics(1)
        for variant, calls in (("standard", 28), ("basis", 28)):
            self.assertEqual(metrics[f"witness.geometric_rank_tables.{variant}.calls"][0], calls)
        degenerations = metrics["witness.verify_move_degeneration.calls"][0]
        self.assertEqual(degenerations, 8)  # one of every 9 of the 72 covers
        self.assertEqual(metrics["witness.geometric_rank_tables.limit.calls"][0], degenerations)
        self.assertEqual(metrics["witness.geometric_rank_tables.family.calls"][0],
                         3 * degenerations)

    def test_tracer_restores_the_package(self):
        original = lf.moves.apply_move
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(lf.moves.apply_move, original)
        finally:
            tracer.uninstall()
        self.assertIs(lf.moves.apply_move, original)
        self.assertIs(lf.witness.apply_move, original)


class Oracle(unittest.TestCase):
    def test_oracle_agrees_with_the_program_on_n3(self):
        orbits = lf.enumerate_orbits((1, 1, 1), (1, 1, 1))
        for x in orbits:
            for y in orbits:
                self.assertEqual(oracle.leq(element_key(x), element_key(y)),
                                 lf.rk_leq_dec(x, y))


class Command(unittest.TestCase):
    def run_in_copy(self, with_source: bool, drop_golden: str | None = None):
        """Run a short cli-small run in a copy of the benchmark, with or
        without the program's source, and with one golden file left out."""
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            ignore = shutil.ignore_patterns("__pycache__")
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench", ignore=ignore)
            if with_source:
                shutil.copytree(ROOT / "src", Path(tmp) / "src", ignore=ignore)
            if drop_golden:
                (Path(tmp) / "perfbench" / "goldens" / f"{drop_golden}.json").unlink()
            return subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cli-small",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )

    def test_run_fails_without_the_program_source(self):
        proc = self.run_in_copy(with_source=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_run_fails_without_its_goldens(self):
        proc = self.run_in_copy(with_source=True, drop_golden="cli-small")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
