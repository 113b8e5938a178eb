"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that every metric named in
BENCHMARK.json is emitted with its unit, that each checker catches a wrong
output (a wrong (r, w), a bit-flipped RMSE, a staleness estimate outside
4 sigma), and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import struct
import subprocess
import sys
import unittest

import run

run._use_checkout_sources()

import checks  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@contextlib.contextmanager
def tiny_sizes():
    """Shrink every workload's op shapes and set-up repeats for the test."""
    control_shapes = tuple(
        dict(shape, bootstrap=min(shape["bootstrap"], 40), size=min(shape["size"], 20))
        for shape in workloads.Control.SHAPES
    )
    sizes = {
        workloads.Sweep: dict(BOOTSTRAP=40, CAPACITIES=(2, 5, 10, 20), TESTS=5, BLOCKS=1),
        workloads.Control: dict(SHAPES=control_shapes, BLOCKS=1),
        workloads.MonteCarlo: dict(TRIALS=2000, WARM_TRIALS=100, BLOCKS=1),
    }
    saved = {cls: {name: getattr(cls, name) for name in attrs} for cls, attrs in sizes.items()}
    repeats = run.SETUP_REPEATS
    try:
        for cls, attrs in sizes.items():
            for name, value in attrs.items():
                setattr(cls, name, value)
        run.SETUP_REPEATS = 1
        yield
    finally:
        run.SETUP_REPEATS = repeats
        for cls, attrs in saved.items():
            for name, value in attrs.items():
                setattr(cls, name, value)


def run_benchmark(workload: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with tiny_sizes(), contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "0.4", "--trace", str(trace)]
        )
    return code, json.loads(out.getvalue().splitlines()[-1])


def flip_last_bit(value: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


class EmittedMetrics(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            for workload in (w["name"] for w in BENCHMARK["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run_benchmark(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)


class CheckersCatchWrongOutputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with tiny_sizes():
            cls.sweep = workloads.Sweep(5)
            cls.control = workloads.Control(5)
            cls.montecarlo = workloads.MonteCarlo(5)

    def test_wrong_quorum_pair(self):
        op = next(op for op in self.control.ops if op[0]["n"] == 25)
        entries = self.control.run(op)
        self.assertIsNone(self.control.check(op, entries))
        first = entries[0]
        wrong_r = first.r + 1 if first.r < 25 else first.r - 1
        bad = [dataclasses.replace(first, r=wrong_r)] + entries[1:]
        self.assertIn("brute force", self.control.check(op, bad))

    def test_wrong_achieved_indicator(self):
        op = next(op for op in self.control.ops if op[2])
        entries = self.control.run(op)
        bad = [dataclasses.replace(entries[0], chi_achieved=flip_last_bit(entries[0].chi_achieved))]
        self.assertIn("chi_achieved", self.control.check(op, bad + entries[1:]))

    def test_bit_flipped_rmse(self):
        for op in self.sweep.ops[:8]:
            report = self.sweep.run(op)
            self.assertIsNone(self.sweep.check(op, report))
            (row,) = report.rows
            flipped = dataclasses.replace(report, rows=(dataclasses.replace(row, rmse=flip_last_bit(row.rmse)),))
            self.assertIn("rmse", self.sweep.check(op, flipped))

    def test_staleness_outside_four_sigma(self):
        op = self.montecarlo.ops[0]
        (r, w, n), _ = op
        code, stdout, stderr = self.montecarlo.run(op)
        self.assertIsNone(self.montecarlo.check(op, (code, stdout, stderr)))
        exact = checks.exact_staleness(r, w, n)
        sigma = (float(exact * (1 - exact)) / self.montecarlo.trials) ** 0.5
        analytic = float(exact)
        far = analytic + 4.0 * sigma + 2e-3
        bad = f"empirical={far!r} analytic={analytic!r}\n"
        self.assertIn("4 sigma", self.montecarlo.check(op, (0, bad, "")))
        off_by_one_ulp = f"empirical={analytic!r} analytic={flip_last_bit(analytic)!r}\n"
        self.assertIn("exact staleness", self.montecarlo.check(op, (0, off_by_one_ulp, "")))
        self.assertIn("exited", self.montecarlo.check(op, (2, "", "error")))

    def test_reference_solver_tie_breaks(self):
        # phi = 0.9 at n = 5 is reached by (2, 3) and (3, 2); the canonical
        # pair is (2, 3), and write bias gives w the smaller quorum.
        self.assertEqual(checks.brute_force_solve(0.9, 5, False, False), (2, 3))
        self.assertEqual(checks.brute_force_solve(0.9, 5, False, True), (3, 2))
        # phi = 1 ties every strong pair; the smallest r + w wins: (1, n).
        self.assertEqual(checks.brute_force_solve(1.0, 7, False, False), (1, 7))
        self.assertEqual(checks.brute_force_solve(1.0, 7, True, False), (3, 4))


class RefusesWithoutSources(unittest.TestCase):
    def test_no_result_without_src(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )  # fmt: skip
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
