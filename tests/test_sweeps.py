"""Unit tests for the RMSE sweep harness."""

import math

import numpy as np
import pytest

from quorumtune import (
    ConfigError,
    IncrementalClusterer,
    IncrementalRow,
    LoopConfig,
    RelationFamily,
    RelationSpec,
    RmseReport,
    SequentialClusterer,
    SequentialRow,
    chi_range,
    evaluate_incremental,
    evaluate_sequential,
    parse,
)

LINEAR = RelationSpec(RelationFamily.LINEAR)

# Determinism anchors: values produced by this package (seeded PCG64 streams)
# and cross-checked against an independent list-based reference
# implementation of the same protocol.  A change here means the seeded
# protocol changed, which breaks reproducibility of published CSVs.
PINNED_SEQ_RMSE = {
    RelationFamily.LINEAR: [0.060228554948130814, 0.04119360993751346, 0.0088283566188103, 0.004264431789020751],
    RelationFamily.QUADRATIC: [0.1661870892499243, 0.10831502512870295, 0.019106502478197878, 0.01037045637938442],
    RelationFamily.CUBIC: [0.20906192333684728, 0.16762450502140702, 0.026204526265640737, 0.01608644491862839],
    RelationFamily.LOGARITHMIC: [2.1290304749258997, 2.0870688843820484, 1.879592322325097, 1.2827086507528793],
}
PINNED_INCR_CLUSTERS = {
    RelationFamily.LINEAR: [212, 143, 62, 42, 25],
    RelationFamily.QUADRATIC: [246, 161, 71, 46, 29],
    RelationFamily.CUBIC: [352, 235, 117, 75, 41],
    RelationFamily.LOGARITHMIC: [295, 186, 89, 52, 32],
}
PINNED_INCR_RMSE_LINEAR = [
    0.002870165090482929,
    0.005103174735868714,
    0.012746427574885559,
    0.021837486662603205,
    0.036642000109861794,
]
SWEEP_COUNTS = [5, 10, 50, 100]
SWEEP_TAUS = [0.01, 0.02, 0.05, 0.1, 0.2]


class TestRelationSpec:
    def test_sources_and_values(self):
        spec = RelationSpec(RelationFamily.CUBIC, a=2.0, b=-1.0, c=0.5, d=3.0)
        assert spec.source == "A*phi^3 + B*phi^2 + C*phi + D"
        phi = 0.7
        expected = 2.0 * phi**3 + -1.0 * phi**2 + 0.5 * phi + 3.0
        assert spec.chi(phi) == pytest.approx(expected, rel=1e-15)

        log_spec = RelationSpec(RelationFamily.LOGARITHMIC, a=3.0, c=1.0)
        assert log_spec.chi(0.1) == pytest.approx(3.0 * math.log10(0.1) + 1.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RelationSpec("linear")
        with pytest.raises(ConfigError):
            RelationSpec(RelationFamily.LINEAR, a=float("nan"))
        with pytest.raises(ConfigError):
            RelationSpec(RelationFamily.LINEAR, a=10**400)


class TestChiRange:
    def test_linear_identity(self):
        assert chi_range(LINEAR) == (1e-6, 1.0)

    def test_quadratic_endpoints_when_vertex_outside(self):
        spec = RelationSpec(RelationFamily.QUADRATIC)  # vertex at -0.5
        lo, hi = chi_range(spec)
        assert lo == pytest.approx(spec.chi(1e-6), rel=1e-15)
        assert hi == pytest.approx(2.0, rel=1e-15)

    def test_quadratic_interior_vertex(self):
        spec = RelationSpec(RelationFamily.QUADRATIC, a=1.0, b=-1.0, c=0.0)
        lo, hi = chi_range(spec)
        assert lo == pytest.approx(-0.25, rel=1e-12)  # minimum at phi = 0.5
        assert hi == pytest.approx(0.0, abs=1e-12)

    def test_cubic_interior_extrema(self):
        spec = RelationSpec(RelationFamily.CUBIC, a=1.0, b=-1.5, c=0.6, d=0.0)
        lo, hi = chi_range(spec)
        grid = np.linspace(1e-6, 1.0, 200001)
        values = spec.a * grid**3 + spec.b * grid**2 + spec.c * grid + spec.d
        assert lo <= values.min() + 1e-9 and lo == pytest.approx(values.min(), abs=1e-8)
        assert hi >= values.max() - 1e-9 and hi == pytest.approx(values.max(), abs=1e-8)

    @pytest.mark.parametrize(
        "spec,coefficients,root",
        [
            # The derivative 2*phi - 1 is linear, with its root at 0.5.
            (RelationSpec(RelationFamily.CUBIC, a=0.0, b=1.0, c=-1.0), (0.0, 1.0, -1.0, 0.0), 0.5),
            # The vertex -B/(2A) lies inside the interval, at 0.25.
            (RelationSpec(RelationFamily.QUADRATIC, a=2.0, b=-1.0, c=0.5), (2.0, -1.0, 0.5), 0.25),
        ],
        ids=["cubic-a0", "quadratic-vertex"],
    )
    def test_root_of_a_linear_derivative(self, spec, coefficients, root):
        lo, hi = chi_range(spec)
        assert lo == spec.chi(root)
        values = np.polyval(coefficients, np.linspace(1e-6, 1.0, 200001))
        assert lo <= values.min() and hi >= values.max()
        assert hi == pytest.approx(values.max(), abs=1e-12)

    def test_logarithmic(self):
        spec = RelationSpec(RelationFamily.LOGARITHMIC)
        lo, hi = chi_range(spec)
        assert lo == pytest.approx(-6.0, rel=1e-12)
        assert hi == 0.0


class TestValidation:
    def test_sequential_preconditions(self):
        with pytest.raises(ConfigError):
            evaluate_sequential(LINEAR, [], seed=1)
        with pytest.raises(ConfigError):
            evaluate_sequential(LINEAR, [0], seed=1)
        with pytest.raises(ConfigError):
            evaluate_sequential(LINEAR, [2000], bootstrap=1000, seed=1)
        with pytest.raises(ConfigError):
            evaluate_sequential(LINEAR, [5], tests=0, seed=1)
        with pytest.raises(ConfigError):
            evaluate_sequential(LINEAR, [5], seed=-1)

    def test_incremental_preconditions(self):
        with pytest.raises(ConfigError):
            evaluate_incremental(LINEAR, [], seed=1)
        with pytest.raises(ConfigError):
            evaluate_incremental(LINEAR, [0.0], seed=1)
        with pytest.raises(ConfigError):
            evaluate_incremental(LINEAR, ["x"], seed=1)

    def test_seeding_rule_has_one_message(self):
        with pytest.raises(ConfigError, match="seeding") as sweep:
            evaluate_sequential(LINEAR, [5, 2000], bootstrap=1000, seed=1)
        with pytest.raises(ConfigError) as loop:
            LoopConfig(
                relation=parse("phi"),
                clusterer=SequentialClusterer(2000),
                bootstrap_samples=1000,
                targets=[0.5],
                seed=1,
                n=5,
            )
        assert str(sweep.value) == str(loop.value)

    def test_empty_sweep_has_one_message(self):
        with pytest.raises(ConfigError) as seq:
            evaluate_sequential(LINEAR, [], seed=1)
        with pytest.raises(ConfigError) as incr:
            evaluate_incremental(LINEAR, [], seed=1)
        assert str(seq.value) == str(incr.value)

    def test_check_order(self):
        # Sizes and seed, then each sweep value, then emptiness, then seeding.
        with pytest.raises(ConfigError, match="tests"):
            evaluate_sequential(LINEAR, [], tests=0, seed=1)
        with pytest.raises(ConfigError, match="capacity must be >= 1"):
            evaluate_sequential(LINEAR, [2000, 0], bootstrap=1000, seed=1)
        # Each value is checked as it is built, before any two are compared.
        for counts in ([5, "x"], ["x", 5]):
            with pytest.raises(ConfigError, match="capacity must be an integer, got 'x'"):
                evaluate_sequential(LINEAR, counts, seed=1)
        with pytest.raises(ConfigError, match="threshold must be a real number, got 'x'"):
            evaluate_incremental(LINEAR, [0.1, "x"], seed=1)

    @pytest.mark.parametrize(
        "spec,tests",
        [
            # One error too large to square.
            (RelationSpec(RelationFamily.QUADRATIC, a=1.5, b=1e308, c=1.5), 1),
            # Squares that are finite one by one but not in sum.
            (RelationSpec(RelationFamily.LINEAR, a=1e154, c=0.0), 1000),
        ],
        ids=["square", "sum"],
    )
    def test_overflowing_squared_error(self, spec, tests):
        with pytest.raises(ConfigError, match="squared errors overflow"):
            evaluate_sequential(spec, [1], bootstrap=1, tests=tests, seed=0)

    def test_sweep_values_may_be_a_generator(self):
        report = evaluate_incremental(LINEAR, (tau for tau in reversed(SWEEP_TAUS)), seed=1)
        assert report == evaluate_incremental(LINEAR, SWEEP_TAUS, seed=1)

    def test_report_invariants(self):
        with pytest.raises(ConfigError):
            RmseReport(LINEAR, "seq", 1, 10, 10, (SequentialRow(5, -0.1),))
        with pytest.raises(ConfigError):
            RmseReport(LINEAR, "incr", 1, 10, 10, (IncrementalRow(0.1, 0, 0.5),))

    @pytest.mark.parametrize("algorithm", ["bogus", "SEQ", "", None, ["seq"]])
    def test_report_rejects_unknown_algorithm(self, algorithm):
        with pytest.raises(ConfigError, match="algorithm must be 'seq' or 'incr'"):
            RmseReport(LINEAR, algorithm, 1, 10, 10, (SequentialRow(5, 0.1),))

    @pytest.mark.parametrize(
        "algorithm, row",
        [
            ("seq", IncrementalRow(0.1, 5, 0.1)),
            ("incr", SequentialRow(5, 0.1)),
            ("seq", (5, 0.1)),
        ],
        ids=["seq-incr-row", "incr-seq-row", "seq-tuple"],
    )
    def test_report_rejects_rows_of_the_other_layout(self, algorithm, row):
        # Each algorithm's CSV header comes from its own row type, so a row of
        # another type would be written under the wrong columns.
        with pytest.raises(ConfigError, match=f"^{algorithm} rows must be "):
            RmseReport(LINEAR, algorithm, 1, 10, 10, (row,))


class TestProtocol:
    def test_rows_sorted_and_order_independent(self):
        shuffled = evaluate_sequential(LINEAR, [100, 5, 50, 10], seed=42)
        ordered = evaluate_sequential(LINEAR, SWEEP_COUNTS, seed=42)
        assert [r.clusters for r in shuffled.rows] == SWEEP_COUNTS
        assert shuffled == ordered  # per-point RNG follows the sorted order

    def test_single_point_sweep_matches_full_sweep_head(self):
        # Point i derives its generator from (seed, i), so the first point of
        # any sorted sweep equals a one-point sweep.
        full = evaluate_sequential(LINEAR, SWEEP_COUNTS, seed=42)
        head = evaluate_sequential(LINEAR, [5], seed=42)
        assert full.rows[0] == head.rows[0]

    def test_constant_relation_zero_rmse(self):
        spec = RelationSpec(RelationFamily.LINEAR, a=0.0, c=7.0)
        report = evaluate_sequential(spec, [1, 10], bootstrap=50, tests=20, seed=3)
        assert [r.rmse for r in report.rows] == [0.0, 0.0]

    def test_memorization_limit(self):
        report = evaluate_sequential(LINEAR, [1000], seed=42)
        assert report.rows[0].rmse == pytest.approx(0.0009041977803115619, rel=1e-9)
        assert report.rows[0].rmse < 0.01

    def test_incremental_tracks_sequential_at_equal_cluster_count(self):
        # tau = 0.01 on the linear family earns its cluster count: a
        # sequential clusterer given that same capacity (and, via the
        # single-point sweeps, the same sample stream) is at most 2x better.
        incr = evaluate_incremental(LINEAR, [0.01], seed=42).rows[0]
        seq = evaluate_sequential(LINEAR, [incr.clusters], seed=42).rows[0]
        assert incr.clusters >= 50
        assert incr.rmse <= 2.0 * seq.rmse

    def test_huge_threshold_is_global_mean_predictor(self):
        report = evaluate_incremental(LINEAR, [1e9], bootstrap=300, tests=80, seed=9)
        (row,) = report.rows
        assert row.clusters == 1
        # Replay the documented protocol: same derived generator, same draws.
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([9, 0])))
        phis = 1.0 - rng.random(300) * (1.0 - 1e-6)
        targets = 1e-6 + rng.random(80) * (1.0 - 1e-6)
        prediction = float(np.mean(phis))  # single cluster: running mean of phi
        expected = math.sqrt(float(np.mean((targets - prediction) ** 2)))
        assert row.rmse == pytest.approx(expected, rel=1e-9)


class TestRegressionPins:
    @pytest.mark.parametrize("family", list(RelationFamily))
    def test_sequential_rmse_anchors(self, family):
        report = evaluate_sequential(RelationSpec(family), SWEEP_COUNTS, seed=42)
        got = [row.rmse for row in report.rows]
        assert got == pytest.approx(PINNED_SEQ_RMSE[family], rel=1e-9)

    @pytest.mark.parametrize("family", list(RelationFamily))
    def test_incremental_cluster_counts(self, family):
        report = evaluate_incremental(RelationSpec(family), SWEEP_TAUS, seed=42)
        assert [row.clusters for row in report.rows] == PINNED_INCR_CLUSTERS[family]

    def test_incremental_rmse_anchor_linear(self):
        report = evaluate_incremental(LINEAR, SWEEP_TAUS, seed=42)
        got = [row.rmse for row in report.rows]
        assert got == pytest.approx(PINNED_INCR_RMSE_LINEAR, rel=1e-9)


class TestCsv:
    def test_sequential_layout(self):
        report = evaluate_sequential(LINEAR, [5, 10], bootstrap=100, tests=10, seed=1)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "# family=linear algo=seq seed=1 bootstrap=100 tests=10 A=1.0 B=1.0 C=0.0 D=0.0"
        assert lines[1] == "clusters,rmse"
        assert len(lines) == 4
        for line in lines[2:]:
            clusters, rmse = line.split(",")
            int(clusters), float(rmse)
        # The whole text: RMSEs are pinned to the last bit, not to a tolerance.
        assert report.to_csv() == (
            "# family=linear algo=seq seed=1 bootstrap=100 tests=10 A=1.0 B=1.0 C=0.0 D=0.0\n"
            "clusters,rmse\n"
            "5,0.07178976445009529\n"
            "10,0.031686938353335685\n"
        )
        # Ten targets are too few for a re-ordered sum to move a digit; at a
        # hundred it does.
        assert evaluate_sequential(LINEAR, SWEEP_COUNTS, seed=42).to_csv() == (
            "# family=linear algo=seq seed=42 bootstrap=1000 tests=100 A=1.0 B=1.0 C=0.0 D=0.0\n"
            "clusters,rmse\n"
            "5,0.060228554948130814\n"
            "10,0.04119360993751346\n"
            "50,0.0088283566188103\n"
            "100,0.004264431789020751\n"
        )

    def test_incremental_layout(self):
        report = evaluate_incremental(LINEAR, [0.2, 0.1], bootstrap=100, tests=10, seed=1)
        lines = report.to_csv().strip().split("\n")
        assert lines[1] == "threshold,clusters,rmse"
        assert len(lines) == 4
        first = lines[2].split(",")
        assert float(first[0]) == 0.1  # sorted ascending by threshold
        assert len(first) == 3
        assert report.to_csv() == (
            "# family=linear algo=incr seed=1 bootstrap=100 tests=10 A=1.0 B=1.0 C=0.0 D=0.0\n"
            "threshold,clusters,rmse\n"
            "0.1,20,0.03345532852476071\n"
            "0.2,12,0.04688193406453404\n"
        )
        assert evaluate_incremental(LINEAR, SWEEP_TAUS, seed=42).to_csv() == (
            "# family=linear algo=incr seed=42 bootstrap=1000 tests=100 A=1.0 B=1.0 C=0.0 D=0.0\n"
            "threshold,clusters,rmse\n"
            "0.01,212,0.002870165090482929\n"
            "0.02,143,0.005103174735868714\n"
            "0.05,62,0.012746427574885559\n"
            "0.1,42,0.021837486662603205\n"
            "0.2,25,0.036642000109861794\n"
        )

    @pytest.mark.parametrize(
        "algorithm, header", [("seq", "clusters,rmse\n"), ("incr", "threshold,clusters,rmse\n")]
    )
    def test_no_rows_is_comment_and_header(self, algorithm, header):
        report = RmseReport(LINEAR, algorithm, 1, 10, 10, ())
        assert report.to_csv().endswith("D=0.0\n" + header)

    def test_byte_identical_reruns(self):
        a = evaluate_incremental(LINEAR, SWEEP_TAUS, seed=42).to_csv()
        b = evaluate_incremental(LINEAR, SWEEP_TAUS, seed=42).to_csv()
        assert a == b
