"""Acceptance gate: one test per release criterion.

Each test prints a single report line

    ACCEPTANCE <criterion>: PASS|FAIL (<elapsed>s)

so that ``pytest -s tests/test_acceptance.py`` doubles as the acceptance
report.  Runtime budgets are part of the criteria and are asserted inside
the corresponding test.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from oracles import _spectrum, bitmask_staleness_table, random_ast, tuple_eval, tuple_to_source
from quorumtune import (
    EvaluationError,
    IncrementalClusterer,
    LoopConfig,
    QuorumConfig,
    RelationFamily,
    RelationSpec,
    Sample,
    SequentialClusterer,
    SimConfig,
    SolveMode,
    SolveOptions,
    consistency_level,
    empirical_staleness,
    evaluate,
    evaluate_incremental,
    evaluate_sequential,
    parse,
    run_adaptation_loop,
    solve_quorum,
    staleness_probability,
    unparse,
)
from oracles import _phi_fraction

FAMILIES = (
    RelationFamily.LINEAR,
    RelationFamily.QUADRATIC,
    RelationFamily.CUBIC,
    RelationFamily.LOGARITHMIC,
)


@contextmanager
def criterion(name: str, budget: float | None = None):
    """Print the pass/fail report line for one criterion, enforcing its
    runtime budget (in seconds) when one is pinned."""
    start = time.perf_counter()
    ok = False
    try:
        yield
        if budget is not None:
            elapsed = time.perf_counter() - start
            assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds the {budget}s budget"
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")


def test_criterion_1_exact_consistency_math():
    """staleness_probability / consistency_level match exhaustive quorum
    enumeration for every (r, w) with n <= 12, to relative 1e-12, in < 5 s."""
    with criterion("exact-consistency-math", budget=5.0):
        checked = 0
        for n in range(1, 13):
            table = bitmask_staleness_table(n)
            for (r, w), expected in table.items():
                cfg = QuorumConfig(r, w, n)
                got_ps = staleness_probability(cfg)
                assert math.isclose(got_ps, float(expected), rel_tol=1e-12, abs_tol=0.0), (
                    f"staleness({r},{w},{n}) = {got_ps!r}, enumeration says {expected}"
                )
                got_phi = consistency_level(cfg).phi
                assert math.isclose(got_phi, float(1 - expected), rel_tol=1e-12, abs_tol=0.0), (
                    f"level({r},{w},{n}) = {got_phi!r}, enumeration says {1 - expected}"
                )
                checked += 1
        assert checked == sum(n * n for n in range(1, 13))


def test_criterion_2_symmetry_boundary_monotonicity():
    """Symmetry in (r, w), the strong boundary phi == 1 <=> r + w > n, and
    monotonicity in each argument, exhaustively for n <= 25, in < 5 s."""
    with criterion("symmetry-boundary-monotonicity", budget=5.0):
        for n in range(1, 26):
            levels = {
                (r, w): consistency_level(QuorumConfig(r, w, n)).phi
                for r in range(1, n + 1)
                for w in range(1, n + 1)
            }
            for (r, w), phi in levels.items():
                # Read/write symmetry is exact in floats by construction.
                assert phi == levels[(w, r)]
                # The strong boundary is an exact iff at this scale.
                assert (phi == 1.0) == (r + w > n), (r, w, n, phi)
            for r in range(1, n + 1):
                for w in range(1, n):
                    # Non-decreasing in floats; strictly increasing as exact
                    # rationals until the strong region is reached.
                    assert levels[(r, w)] <= levels[(r, w + 1)]
                    if r + w < n:
                        assert _phi_fraction(r, w, n) < _phi_fraction(r, w + 1, n)
            for w in range(1, n + 1):
                for r in range(1, n):
                    assert levels[(r, w)] <= levels[(r + 1, w)]


def test_criterion_3_monte_carlo_agreement():
    """Empirical staleness within 4 sigma + 1e-3 of the analytic value over
    the pinned (n, r, w) grid at 1e5 trials, in < 10 s."""
    with criterion("monte-carlo-agreement", budget=10.0):
        trials = 100_000
        for n in (3, 5, 10, 20):
            quorum_sizes = sorted({1, math.ceil(n / 2), n})
            for r in quorum_sizes:
                for w in quorum_sizes:
                    cfg = QuorumConfig(r, w, n)
                    analytic = staleness_probability(cfg)
                    sim = SimConfig(
                        config=cfg,
                        trials=trials,
                        seed=n * 10_000 + r * 100 + w,
                    )
                    empirical = empirical_staleness(sim)
                    sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
                    assert abs(empirical - analytic) <= 4.0 * sigma + 1e-3, (
                        f"(r={r}, w={w}, n={n}): empirical {empirical} vs "
                        f"analytic {analytic} (sigma {sigma:.2e})"
                    )


def test_criterion_4_solver_optimality():
    """Extended solve_quorum equals the brute-force argmin (exact rational
    distance, same tie-breaks) for phi in {0.00..1.00 step 0.01}, n <= 25;
    faithful mode returns (2, 3) for (phi=0.9, n=5)."""
    with criterion("solver-optimality"):
        for n in range(1, 26):
            spectrum = _spectrum(n)
            for hundredths in range(101):
                target = hundredths / 100
                target_frac = Fraction(target)
                best = min(
                    (abs(phi - target_frac), i + j, i, j) for i, j, phi in spectrum
                )
                got = solve_quorum(target, n)
                assert (got.r, got.w) == (best[2], best[3]), (
                    f"solve({target}, {n}) returned ({got.r}, {got.w}), "
                    f"brute force says ({best[2]}, {best[3]})"
                )
        faithful = solve_quorum(0.9, 5, SolveOptions(mode=SolveMode.FAITHFUL))
        assert (faithful.r, faithful.w) == (2, 3)


SEQ_RMSE_CEILING = {
    RelationFamily.LINEAR: 0.02,
    RelationFamily.QUADRATIC: 0.025,
    RelationFamily.CUBIC: 0.035,
    RelationFamily.LOGARITHMIC: 1.6,
}


def test_criterion_5_sequential_rmse_reproduction():
    """Sequential sweeps at seed 42 (bootstrap 1000, tests 100): RMSE falls
    strictly across capacities {5, 10, 50, 100} for every relation family and
    ends below the oracle-pinned per-family ceiling, in < 30 s."""
    with criterion("sequential-rmse-reproduction", budget=30.0):
        for family in FAMILIES:
            spec = RelationSpec(family)
            report = evaluate_sequential(
                spec, [5, 10, 50, 100], bootstrap=1000, tests=100, seed=42
            )
            rmses = [row.rmse for row in report.rows]
            assert all(a > b for a, b in zip(rmses, rmses[1:])), (
                f"{family.value}: RMSE not strictly decreasing: {rmses}"
            )
            assert rmses[-1] < SEQ_RMSE_CEILING[family], (
                f"{family.value}: RMSE at 100 clusters is {rmses[-1]}, "
                f"ceiling {SEQ_RMSE_CEILING[family]}"
            )


def test_criterion_6_incremental_threshold_reproduction():
    """Incremental sweeps at seed 42: tau = 0.01 yields >= 50 clusters on the
    1000-sample bootstrap for the linear family, cluster count is
    non-increasing in tau, and under a common sample stream RMSE at tau = 0.01
    beats tau = 0.2 for every family, in < 30 s."""
    with criterion("incremental-threshold-reproduction", budget=30.0):
        taus = [0.01, 0.02, 0.05, 0.1, 0.2]
        for family in FAMILIES:
            spec = RelationSpec(family)
            report = evaluate_incremental(spec, taus, bootstrap=1000, tests=100, seed=42)
            counts = [row.clusters for row in report.rows]
            assert all(a >= b for a, b in zip(counts, counts[1:])), (
                f"{family.value}: cluster count not non-increasing in tau: {counts}"
            )
            if family is RelationFamily.LINEAR:
                assert counts[0] >= 50, f"linear tau=0.01 produced {counts[0]} clusters"
            # Single-point sweeps share sweep index 0, hence the exact same
            # training and test draws: the comparison isolates tau.
            tight = evaluate_incremental(spec, [0.01], bootstrap=1000, tests=100, seed=42)
            loose = evaluate_incremental(spec, [0.2], bootstrap=1000, tests=100, seed=42)
            assert tight.rows[0].rmse < loose.rows[0].rmse, (
                f"{family.value}: RMSE(tau=0.01) = {tight.rows[0].rmse} not below "
                f"RMSE(tau=0.2) = {loose.rows[0].rmse}"
            )


def _stream_properties(clusterer, chis: np.ndarray, phis: np.ndarray, capacity: int | None):
    """Drive one stream through ``clusterer`` and check count conservation,
    the capacity bound, mean exactness against recorded assignments, and
    deterministic replay on a fresh twin."""
    samples = [Sample(float(c), float(p)) for c, p in zip(chis, phis)]
    assigned = np.fromiter(
        (clusterer.learn(s) for s in samples), dtype=np.int64, count=len(samples)
    )
    size = len(clusterer)

    if capacity is not None:
        assert size == min(capacity, len(samples))
    counts = np.bincount(assigned, minlength=size)
    clusters = clusterer.clusters
    assert [c.count for c in clusters] == counts.tolist()
    assert sum(c.count for c in clusters) == len(samples) == clusterer.total_seen

    mean_chi = np.bincount(assigned, weights=chis, minlength=size) / counts
    mean_phi = np.bincount(assigned, weights=phis, minlength=size) / counts
    for k, c in enumerate(clusters):
        assert math.isclose(c.chi_centroid, mean_chi[k], rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(c.phi_centroid, mean_phi[k], rel_tol=1e-9, abs_tol=1e-12)

    twin = (
        SequentialClusterer(capacity)
        if capacity is not None
        else IncrementalClusterer(clusterer.threshold)
    )
    for s in samples:
        twin.learn(s)
    assert twin.clusters == clusters


def test_criterion_7_clustering_algebra():
    """Count conservation, capacity bound, mean exactness (<= 1e-9 relative)
    and deterministic replay over 100 randomized streams of 1e4 samples each,
    in < 10 s."""
    with criterion("clustering-algebra", budget=10.0):
        stream_length = 10_000
        rng = np.random.Generator(np.random.PCG64(20260825))
        for stream in range(100):
            chis = (rng.random(stream_length) - 0.5) * 100.0
            phis = rng.random(stream_length)
            if stream % 2 == 0:
                capacity = int(rng.integers(1, 129))
                clusterer = SequentialClusterer(capacity)
            else:
                capacity = None
                tau = float(10.0 ** rng.uniform(math.log10(0.02), math.log10(0.5)))
                clusterer = IncrementalClusterer(tau)
            _stream_properties(clusterer, chis, phis, capacity)


def test_criterion_8_closed_loop_identity():
    """The closed loop with the identity relation and target chi = 0.9 at
    n = 5 lands on the (2,3)/(3,2) orbit whose level is exactly 0.9."""
    with criterion("closed-loop-identity"):
        loop = LoopConfig(
            relation=parse("phi"),
            clusterer=SequentialClusterer(1000),
            bootstrap_samples=1000,
            targets=(0.9,),
            seed=7,
            n=5,
        )
        entries = run_adaptation_loop(loop)
        assert len(entries) == 1
        entry = entries[0]
        assert (entry.r, entry.w) in {(2, 3), (3, 2)}
        assert consistency_level(QuorumConfig(entry.r, entry.w, 5)).phi == 0.9
        assert entry.chi_achieved == 0.9


PRECEDENCE_GOLDENS = [
    ("1 + 2 * 3", 7.0),
    ("(1 + 2) * 3", 9.0),
    ("2 ^ 3 ^ 2", 512.0),
    ("-2 ^ 2", 4.0),
    ("2 ^ -3", 0.125),
    ("6 / 3 / 2", 1.0),
    ("1 - 2 - 3", -4.0),
    ("2 * 3 ^ 2", 18.0),
    ("-(1 + 2)", -3.0),
    ("log10(100)", 2.0),
    ("abs(-3.5)", 3.5),
]


def test_criterion_9_indicator_language():
    """Precedence goldens, 1000 random-AST evaluations against the recursive
    oracle (relative 1e-12), and 1000 parse/unparse round trips."""
    with criterion("indicator-language"):
        for source, expected in PRECEDENCE_GOLDENS:
            assert evaluate(parse(source), {}) == expected, source

        rnd = random.Random(20260825)
        compared = 0
        round_tripped = 0
        attempts = 0
        while compared < 1000 or round_tripped < 1000:
            attempts += 1
            assert attempts < 20_000, "random-AST generator starved"
            ast = random_ast(rnd, depth=6)
            source = tuple_to_source(ast)
            program = parse(source)

            if round_tripped < 1000:
                assert parse(unparse(program)).ast == program.ast
                round_tripped += 1

            if compared < 1000:
                env = {
                    name: rnd.uniform(-5.0, 5.0)
                    for name in ("phi", "A", "B", "C", "D", "x_1")
                    if rnd.random() < 0.9
                }
                try:
                    expected_value = tuple_eval(ast, env)
                except ArithmeticError:
                    with pytest.raises(EvaluationError):
                        evaluate(program, env)
                    continue
                if not math.isfinite(expected_value):
                    continue
                got = evaluate(program, env)
                assert math.isclose(got, expected_value, rel_tol=1e-12, abs_tol=0.0), (
                    f"{source} -> {got!r}, oracle says {expected_value!r}"
                )
                compared += 1
