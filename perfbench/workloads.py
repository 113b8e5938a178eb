"""The benchmark's three workloads: input generation, one op, its check.

Every workload is a closed loop: one caller in one thread sends the next op
when the previous one returns.  Inputs come from the workload seed only.
Each workload repeats a fixed block of op shapes, shuffled per block; the
seed draws the order, the targets and the per-op program seeds.  Fixing the
shapes keeps the cost distribution the same from seed to seed, and every
complete block is the same amount of work, so block times compare within a
run and across runs.  ``block`` is the number of ops in a block.

There are no production traces.  Each block is instead made of the calls
that the repository itself documents or tests; every shape below names the
README example, acceptance criterion, test or ROADMAP line it comes from,
and every source counts once.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math

import numpy as np

import quorumtune as qt
from quorumtune import cli

import checks

_SEED_LIMIT = 2**63


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(name.encode())])


class Sweep:
    """Single-point ``evaluate_sequential`` / ``evaluate_incremental`` calls.

    One block is the reproduction grid of acceptance criteria 5 and 6, run
    point by point: every relation family with its default constants, at
    the sequential capacities {5, 10, 50, 100} (criterion 5 and the
    README's ``evaluate --algo seq`` example) and the incremental
    thresholds {0.01, 0.02, 0.05, 0.1, 0.2} (criterion 6; the README's
    ``--algo incr`` example is a subset), each with bootstrap 1000 and 100
    tests (both criteria, and the CLI defaults).
    """

    name = "sweep"
    CAPACITIES = (5, 10, 50, 100)
    THRESHOLDS = (0.01, 0.02, 0.05, 0.1, 0.2)
    BOOTSTRAP = 1000
    TESTS = 100
    BLOCKS = 60  # 2160 ops; the loop wraps around if a run gets through them

    def __init__(self, seed: int):
        rng = _rng(seed, self.name)
        shapes = [("seq", size) for size in self.CAPACITIES]
        shapes += [("incr", size) for size in self.THRESHOLDS]
        shapes = list(itertools.product(qt.RelationFamily, shapes))
        self.block = len(shapes)
        self.ops = []
        for _ in range(self.BLOCKS):
            for index in rng.permutation(len(shapes)).tolist():
                family, (algo, size) = shapes[index]
                spec = qt.RelationSpec(family)
                op_seed = int(rng.integers(_SEED_LIMIT))
                self.ops.append((spec, algo, size, op_seed))
        # Warm numpy's and the clusterers' first-call paths.
        warm = qt.RelationSpec(qt.RelationFamily.LINEAR)
        qt.evaluate_sequential(warm, [2], 10, 5, 0)
        qt.evaluate_incremental(warm, [0.1], 10, 5, 0)

    def run(self, op):
        spec, algo, size, op_seed = op
        if algo == "seq":
            return qt.evaluate_sequential(spec, [size], self.BOOTSTRAP, self.TESTS, op_seed)
        return qt.evaluate_incremental(spec, [size], self.BOOTSTRAP, self.TESTS, op_seed)

    def check(self, op, report) -> str | None:
        spec, algo, size, op_seed = op
        if len(report.rows) != 1:
            return f"{len(report.rows)} rows for a single-point sweep"
        (row,) = report.rows
        constants = (spec.a, spec.b, spec.c, spec.d)
        expected = checks.reference_point(
            spec.family.value, constants, algo, size, self.BOOTSTRAP, self.TESTS, op_seed
        )
        return checks.check_sweep_row(expected, row.clusters, row.rmse)


_README_LOOP = dict(  # README `loop` example; capacity and bootstrap are the CLI defaults
    expr="A*phi + C", constants={"A": 1.0, "C": 0.0}, algo="seq", size=1000,
    bootstrap=1000, targets=2, n=5, faithful=False, bias="balanced",
)  # fmt: skip


def _episode(source, expr, constants, algo, size, bootstrap, targets, n):
    return dict(_README_LOOP, source=source, expr=expr, constants=constants, algo=algo,
                size=size, bootstrap=bootstrap, targets=targets, n=n)  # fmt: skip


class Control:
    """``run_adaptation_loop`` episodes, one fresh clusterer each.

    One block is every closed-loop call in the README and the tests, once
    each and as written (relation, constants, clusterer, bootstrap, number
    of targets, n); the README's three ``solve`` examples' options
    (faithful mode, read bias, write bias), each on the README loop
    example; and the ROADMAP's solver sizes n = 25 and n = 100, each on the
    README loop example.  The seed draws the targets over the relation's
    range and the episode seeds.
    """

    name = "control"
    A1C0 = {"A": 1.0, "C": 0.0}
    SHAPES = (
        _README_LOOP | {"source": "README loop example"},
        _episode("README Python API sketch", "A*phi + C", A1C0, "seq", 1000, 1000, 1, 5),
        _episode("acceptance criterion 8", "phi", {}, "seq", 1000, 1000, 1, 5),
        _episode("test_simulate identity relation", "phi", {}, "seq", 1000, 1000, 1, 5),
        _episode("test_simulate constant relation", "C", {"C": 1.0}, "incr", 0.5, 500, 2, 5),
        _episode("test_simulate empty targets", "phi", {}, "incr", 0.1, 50, 0, 3),
        _episode("test_simulate deterministic trace", "A*phi + C", A1C0, "seq", 100, 400, 3, 7),
        _episode("test_simulate trains in place", "phi", {}, "seq", 10, 50, 0, 3),
        _episode("test_simulate trace CSV", "phi", {}, "seq", 100, 100, 2, 5),
        _episode("test_cli loop to stdout", "phi", {}, "seq", 1000, 1000, 1, 5),
        _episode("test_cli loop to file", "A*phi + C", A1C0, "incr", 0.05, 1000, 2, 5),
        _README_LOOP | {"source": "README solve --mode faithful", "faithful": True},
        _README_LOOP | {"source": "README solve --bias reads", "bias": "reads"},
        _README_LOOP | {"source": "README solve --bias writes", "bias": "writes"},
        _README_LOOP | {"source": "ROADMAP solver size n = 25", "n": 25},
        _README_LOOP | {"source": "ROADMAP solver size n = 100", "n": 100},
    )
    BIASES = {
        "balanced": qt.ReadWriteBias.BALANCED,
        "reads": qt.ReadWriteBias.READS_DOMINATE,
        "writes": qt.ReadWriteBias.WRITES_DOMINATE,
    }
    BLOCKS = 200  # 3200 episodes; the loop wraps around if a run gets through them

    def __init__(self, seed: int):
        rng = _rng(seed, self.name)
        programs = {shape["expr"]: qt.parse(shape["expr"]) for shape in self.SHAPES}
        grid = [checks.PHI_FLOOR] + np.geomspace(1e-5, 1.0, 63).tolist()
        ranges = []
        for shape in self.SHAPES:
            program, constants = programs[shape["expr"]], shape["constants"]
            chis = [qt.evaluate(program, dict(constants, phi=phi)) for phi in grid]
            ranges.append((min(chis), max(chis)))
        self.block = len(self.SHAPES)
        self.ops = []
        for _ in range(self.BLOCKS):
            for index in rng.permutation(len(self.SHAPES)).tolist():
                shape = self.SHAPES[index]
                targets = tuple(rng.uniform(*ranges[index], shape["targets"]).tolist())
                options = qt.SolveOptions(
                    mode=qt.SolveMode.FAITHFUL if shape["faithful"] else qt.SolveMode.EXTENDED,
                    read_write_bias=self.BIASES[shape["bias"]],
                )
                op_seed = int(rng.integers(_SEED_LIMIT))
                self.ops.append((shape, programs[shape["expr"]], targets, options, op_seed))
        # The first solve at each n builds the solver's spectrum cache.
        for n in sorted({shape["n"] for shape in self.SHAPES}):
            qt.solve_quorum(0.5, n)

    def run(self, op):
        shape, program, targets, options, op_seed = op
        if shape["algo"] == "incr":
            clusterer = qt.IncrementalClusterer(shape["size"])
        else:
            clusterer = qt.SequentialClusterer(shape["size"])
        loop = qt.LoopConfig(
            relation=program,
            clusterer=clusterer,
            bootstrap_samples=shape["bootstrap"],
            targets=targets,
            seed=op_seed,
            n=shape["n"],
            constants=shape["constants"],
            options=options,
        )
        return qt.run_adaptation_loop(loop)

    def check(self, op, entries) -> str | None:
        shape, program, targets, options, _ = op
        n = shape["n"]
        if len(entries) != len(targets):
            return f"{len(entries)} trace entries for {len(targets)} targets"
        for entry in entries:
            problem = checks.check_solve(
                entry.phi_chosen,
                n,
                options.mode is qt.SolveMode.FAITHFUL,
                options.read_write_bias is qt.ReadWriteBias.WRITES_DOMINATE,
                entry.r,
                entry.w,
            )
            if problem:
                return problem
            achieved = qt.consistency_level(qt.QuorumConfig(entry.r, entry.w, n)).phi
            chi = qt.evaluate(program, dict(shape["constants"], phi=achieved))
            if chi.hex() != entry.chi_achieved.hex():
                return f"chi_achieved {entry.chi_achieved!r} != evaluate at its level {chi!r}"
        return None

    @staticmethod
    def misrounded(op, entries) -> int:
        """Achieved levels that differ from float(exact phi): the known
        double-rounding defect of ``consistency_level``, counted, not failed."""
        n = op[0]["n"]
        return sum(
            qt.consistency_level(qt.QuorumConfig(e.r, e.w, n)).phi
            != float(checks.exact_phi(e.r, e.w, n))
            for e in entries
        )


def _criterion_3_weak_pairs(n: int) -> list[tuple[int, int, int]]:
    sizes = sorted({1, math.ceil(n / 2), n})
    return [(n, r, w) for r in sizes for w in sizes if r + w <= n]


class MonteCarlo:
    """``quorumtune simulate`` driven in-process through ``cli.main``.

    One block is the README's ``simulate`` example (r = 2, w = 3, n = 5)
    and acceptance criterion 3's quorum sizes {1, ceil(n/2), n} at the
    ROADMAP's simulator sizes n in {5, 20, 100}, weak pairs (r + w <= n)
    only, since a strong pair is never stale; 10^5 trials as in both.
    """

    name = "montecarlo"
    CONFIGS = ((5, 2, 3), *(c for n in (5, 20, 100) for c in _criterion_3_weak_pairs(n)))
    TRIALS = 100_000
    WARM_TRIALS = 65_536  # the simulator's chunk size
    BLOCKS = 40  # 480 ops; the loop wraps around if a run gets through them

    def __init__(self, seed: int):
        rng = _rng(seed, self.name)
        self.trials = self.TRIALS
        self.block = len(self.CONFIGS)
        self.ops = []
        for _ in range(self.BLOCKS):
            for index in rng.permutation(len(self.CONFIGS)).tolist():
                n, r, w = self.CONFIGS[index]
                argv = [
                    "simulate", "--r", str(r), "--w", str(w), "--n", str(n),
                    "--trials", str(self.trials), "--seed", str(int(rng.integers(_SEED_LIMIT))),
                ]  # fmt: skip
                self.ops.append(((r, w, n), argv))
        # Warm argparse, and the allocator with one full chunk of trials at
        # each n: the first large allocations run slower than later ones.
        for n in (5, 20, 100):
            argv = ["--r", "1", "--w", "1", "--n", str(n), "--trials", str(self.WARM_TRIALS), "--seed", "0"]
            self.run((None, ["simulate", *argv]))

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op[1])
        return code, out.getvalue(), err.getvalue()

    def check(self, op, result) -> str | None:
        (r, w, n), _ = op
        code, stdout, stderr = result
        problem = checks.check_simulate(r, w, n, self.trials, code, stdout)
        return f"{problem}; stderr {stderr.strip()!r}" if problem and stderr else problem

WORKLOADS = {cls.name: cls for cls in (Sweep, Control, MonteCarlo)}


def probe() -> None:
    """A small fixed call of every layer.

    A traced run calls it after the workload so that layers the workload
    never reaches still report a measured per-layer time.
    """
    qt.parse("A*phi^2 + B*phi + C")
    qt.parse("abs(A*log10(phi) + B) + C*phi")
    qt.evaluate_sequential(qt.RelationSpec(qt.RelationFamily.LINEAR), [50], 500, 20, 1)
    qt.evaluate_incremental(qt.RelationSpec(qt.RelationFamily.CUBIC), [0.05], 500, 20, 1)
    for n, clusterer in (
        (5, qt.SequentialClusterer(20)),
        (5, qt.IncrementalClusterer(0.05)),
        (25, qt.SequentialClusterer(20)),
        (100, qt.SequentialClusterer(20)),
    ):
        qt.run_adaptation_loop(
            qt.LoopConfig(qt.parse("A*phi + C"), clusterer, 100, (0.2, 0.5, 0.8), 1, n, {"A": 1.0, "C": 0.0})
        )
    for n, r, w in ((5, 1, 2), (20, 3, 5), (100, 10, 20)):
        argv = ["simulate", "--r", str(r), "--w", str(w), "--n", str(n), "--trials", "20000", "--seed", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
