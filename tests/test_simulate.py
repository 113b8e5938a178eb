"""Unit tests for the Monte-Carlo simulator and the closed adaptation loop."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from quorumtune import (
    PHI_FLOOR,
    ConfigError,
    EvaluationError,
    IncrementalClusterer,
    LoopConfig,
    LoopTraceEntry,
    QuorumConfig,
    Sample,
    SequentialClusterer,
    SimConfig,
    empirical_staleness,
    parse,
    run_adaptation_loop,
    solve_quorum,
    staleness_probability,
    trace_to_csv,
)
from quorumtune import simulate


def sim(r, w, n, trials=100_000, seed=1234):
    return SimConfig(config=QuorumConfig(r=r, w=w, n=n), trials=trials, seed=seed)


def stepped_replay(r, w, n, trials, seed):
    """The stepped region's documented stream layout, replayed: each chunk
    reads the smaller quorum one replica at a time, over the trials that
    have not yet met the larger quorum.  Before step j, n - j replicas are
    unread, numbered so that the max(r, w) of the larger quorum come first."""
    small, large = sorted((r, w))
    rng = np.random.Generator(np.random.PCG64(seed))
    stale = 0
    for start in range(0, trials, 65_536):
        alive = min(trials - start, 65_536)
        for j in range(small):
            if alive == 0:
                break
            alive -= int(np.sum(rng.integers(n - j, size=alive) < large))
        stale += alive
    return stale / trials


def hypergeometric_replay(r, w, n, trials, seed):
    """The documented stream layout outside the stepped region, replayed:
    one hypergeometric draw of the overlap per chunk, stale at overlap 0."""
    small, large = sorted((r, w))
    rng = np.random.Generator(np.random.PCG64(seed))
    stale = 0
    for start in range(0, trials, 65_536):
        rows = min(trials - start, 65_536)
        stale += int(np.sum(rng.hypergeometric(large, n - large, small, size=rows) == 0))
    return stale / trials


class TestSimConfig:
    @pytest.mark.parametrize("trials", [0, -5, 1.0])
    def test_rejects_bad_trials(self, trials):
        with pytest.raises(ConfigError):
            sim(1, 1, 3, trials=trials)

    @pytest.mark.parametrize(
        "seed", [-1, 2**64, 0.5, None, pytest.param(10**5000, id="10**5000")]
    )
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            sim(1, 1, 3, seed=seed)

    def test_rejects_non_config(self):
        with pytest.raises(ConfigError):
            SimConfig(config=(1, 1, 3), trials=10, seed=0)

    def test_rejects_n_beyond_the_sampler(self):
        # numpy's hypergeometric sampler takes fewer than 10**9 items a side.
        with pytest.raises(ConfigError, match=r"n must be < 10\*\*9"):
            sim(1, 1, 10**9, trials=10)
        assert empirical_staleness(sim(1, 1, 10**9 - 1, trials=10)) == 1.0


class TestEmpiricalStaleness:
    def test_strong_consistency_never_stale(self):
        assert empirical_staleness(sim(3, 3, 5, trials=2000)) == 0.0
        assert empirical_staleness(sim(1, 5, 5, trials=2000)) == 0.0

    def test_strong_pair_draws_nothing(self, monkeypatch):
        def no_generator(*entropy):
            raise AssertionError("a strong pair built a generator")

        monkeypatch.setattr(simulate, "_generator", no_generator)
        for r, w, n in [(3, 3, 5), (1, 5, 5), (10, 11, 20), (50, 51, 100)]:
            assert empirical_staleness(sim(r, w, n)) == 0.0, (r, w, n)
        with pytest.raises(AssertionError, match="built a generator"):
            empirical_staleness(sim(3, 2, 5))

    def test_matches_analytic_within_noise(self):
        estimate = empirical_staleness(sim(2, 3, 5))
        assert abs(estimate - 0.1) <= 0.005

        estimate = empirical_staleness(sim(1, 1, 20))
        assert abs(estimate - 0.95) <= 0.01

    def test_deterministic_given_seed(self):
        first = empirical_staleness(sim(1, 2, 6, seed=77))
        second = empirical_staleness(sim(1, 2, 6, seed=77))
        assert first == second
        third = empirical_staleness(sim(1, 2, 6, seed=78))
        assert third != first  # fixed seeds, so this inequality is stable

    @pytest.mark.parametrize("r, w", [(10, 10), (10, 12), (12, 10)])
    def test_stream_layout_hrua(self, r, w):
        # Outside the stepped region (min(r, w) >= 10 and 2 * max(r, w) < n)
        # each chunk is one hypergeometric call, which numpy serves by HRUA.
        expected = hypergeometric_replay(r, w, 100, trials=70_000, seed=5)
        assert expected > 0
        assert empirical_staleness(sim(r, w, 100, trials=70_000, seed=5)) == expected

    def test_region_boundary_at_a_sample_of_ten(self):
        # With 2 * max(r, w) < n, a smaller quorum of 9 is still read one
        # replica at a time and one of 10 is one hypergeometric draw.  The two
        # layouts give different estimates at each shape, so each assert
        # tells them apart.
        for r, (replay, other) in {
            9: (stepped_replay, hypergeometric_replay),
            10: (hypergeometric_replay, stepped_replay),
        }.items():
            estimate = empirical_staleness(sim(r, r, 100, trials=70_000, seed=5))
            assert estimate == replay(r, r, 100, trials=70_000, seed=5), r
            assert estimate != other(r, r, 100, trials=70_000, seed=5), r

    @pytest.mark.parametrize("n", [3, 5, 10, 20])
    def test_symmetric_in_r_and_w(self, n):
        # Every pair, weak and strong, gives its mirror's estimate bit for bit.
        for r in range(1, n + 1):
            for w in range(1, r):
                assert empirical_staleness(sim(r, w, n, trials=3000)) == empirical_staleness(
                    sim(w, r, n, trials=3000)
                ), (r, w, n)

    def test_symmetric_at_large_n(self):
        r, w, n = 2, 10**7, 10**8 - 1
        assert empirical_staleness(sim(r, w, n, trials=3000)) == empirical_staleness(
            sim(w, r, n, trials=3000)
        )

    @pytest.mark.parametrize(
        "r, w, n", [(10, 10, 100), (10, 12, 100)], ids=["hrua", "hrua-10-12"]
    )
    def test_chunk_size_changes_no_estimate(self, monkeypatch, r, w, n):
        # Outside the stepped region the generator's state carries across
        # calls, so smaller batches consume the same stream.
        expected = empirical_staleness(sim(r, w, n, trials=70_000, seed=5))
        monkeypatch.setattr(simulate, "_CHUNK", 1000)
        assert empirical_staleness(sim(r, w, n, trials=70_000, seed=5)) == expected

    @pytest.mark.parametrize(
        "r, w, n", [(30, 30, 1000), (1000, 1000, 10**6), (2, 10**7, 10**8 - 1)]
    )
    def test_matches_analytic_at_large_n(self, r, w, n):
        cfg = QuorumConfig(r, w, n)
        analytic = staleness_probability(cfg)
        trials = 100_000
        estimate = empirical_staleness(sim(r, w, n, trials=trials, seed=n + r))
        sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
        assert abs(estimate - analytic) <= 4.0 * sigma + 1e-3

    @pytest.mark.parametrize(
        "r, w, n", [(10, 20, 40), (2, 3, 5), (1, 3, 5), (2, 3, 7), (3, 2, 7), (1, 1, 5)]
    )
    def test_stream_layout_stepped(self, r, w, n):
        # Where 2 * max(r, w) >= n, whatever the sample size, or where the
        # smaller quorum is below 10, each chunk reads the smaller quorum one
        # replica at a time (see stepped_replay), and the mirrored pair reads
        # the same stream.
        expected = stepped_replay(r, w, n, trials=70_000, seed=5)
        assert expected > 0
        assert empirical_staleness(sim(r, w, n, trials=70_000, seed=5)) == expected
        assert empirical_staleness(sim(w, r, n, trials=70_000, seed=5)) == expected

    def test_stepped_matches_analytic(self):
        analytic = staleness_probability(QuorumConfig(10, 20, 40))  # about 2.18e-4
        trials = 10**6
        estimate = empirical_staleness(sim(10, 20, 40, trials=trials, seed=11))
        sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
        assert abs(estimate - analytic) <= 4.0 * sigma + 1e-3

    @pytest.mark.parametrize(
        "r, w, n",
        [
            (10, 100, 200), (10, 1000, 2000), (1, 10, 20), (5, 50, 100),
            (1, 1, 20), (3, 7, 30), (9, 9, 100),
        ],
    )  # fmt: skip
    def test_stepped_matches_analytic_without_slack(self, r, w, n):
        # Where 2 * max(r, w) >= n each of the min(r, w) replicas misses the
        # larger quorum with probability at most 1/2, so phi <= 2**-min(r, w)
        # and at min(r, w) = 10 the 1e-3 slack above would hide any error:
        # allow only noise.  (1, 10, 20) sits on the edge, 2 * max(r, w) = n.
        # The last three are stepped only because min(r, w) < 10.
        analytic = staleness_probability(QuorumConfig(r, w, n))
        trials = 10**6
        estimate = empirical_staleness(sim(r, w, n, trials=trials, seed=n + r))
        sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
        assert abs(estimate - analytic) <= 4.0 * sigma

    def test_small_quorum_time_bounded_at_large_n(self):
        # The costliest step-1 shape: 9 replicas read from 10**8 - 1, almost
        # every trial stale, so each chunk makes all 9 integer draws.  Best of
        # 5 took 3.5 ms for 10**5 trials on a 2-vCPU VM, where one
        # hypergeometric call per chunk (numpy's urn walk) took 9 ms.
        config = sim(9, 9, 10**8 - 1)
        empirical_staleness(sim(9, 9, 10**8 - 1, trials=1))  # first-call imports aside
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            assert empirical_staleness(config) > 0.99
            best = min(best, time.perf_counter() - start)
        assert best < 0.025

    @pytest.mark.parametrize("r, w, n", [(10, 11, 20), (15, 15, 20), (20, 20, 20)])
    def test_stepped_strong_pair_never_stale(self, r, w, n):
        # Every trial meets the larger quorum before the urn runs out of
        # replicas outside it.
        assert empirical_staleness(sim(r, w, n, trials=70_000)) == 0.0

    def test_stepped_stops_when_no_trial_is_left(self):
        # Each step meets the larger quorum with probability at least 1/2,
        # so a chunk ends after a few dozen steps, not 10**6.
        config = sim(10**6, 10**6, 2 * 10**6)
        start = time.perf_counter()
        assert empirical_staleness(config) == 0.0
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("r, w, n", [(10, 10, 20), (2, 3, 5)])
    def test_stepped_memory_bounded(self, r, w, n):
        config = sim(r, w, n, trials=200_000)
        empirical_staleness(sim(r, w, n, trials=1))  # first-call imports aside
        tracemalloc.start()
        try:
            empirical_staleness(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    def test_memory_bounded_in_n(self):
        config = sim(1, 1, 10**8, trials=200_000)
        empirical_staleness(sim(1, 1, 5, trials=1))  # first-call imports aside
        tracemalloc.start()
        try:
            assert empirical_staleness(config) > 0.99
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    def test_chunk_boundary(self):
        # More trials than one internal batch; still deterministic and sane.
        a = empirical_staleness(sim(1, 1, 4, trials=70_000, seed=5))
        b = empirical_staleness(sim(1, 1, 4, trials=70_000, seed=5))
        assert a == b
        expected = staleness_probability(QuorumConfig(1, 1, 4))
        assert abs(a - expected) < 0.01


class TestMonitoring:
    def test_chunked_draws_match_one_draw(self):
        # Past several draw chunks, the loop learns exactly what one draw of
        # all the levels teaches a clusterer.
        count = 3 * 4096 + 5
        loop = LoopConfig(
            relation=parse("2*phi + 1"),
            clusterer=SequentialClusterer(40),
            bootstrap_samples=count,
            targets=[2.0],
            seed=9,
            n=5,
        )
        run_adaptation_loop(loop)
        reference = SequentialClusterer(40)
        rng = np.random.Generator(np.random.PCG64(9))
        for phi in (1.0 - rng.random(count) * (1.0 - PHI_FLOOR)).tolist():
            reference.learn(Sample(2 * phi + 1, phi))
        assert loop.clusterer.csv_snapshot() == reference.csv_snapshot()

    def test_memory_bounded_in_bootstrap(self):
        def peak(count):
            loop = LoopConfig(
                relation=parse("phi"),
                clusterer=SequentialClusterer(10),
                bootstrap_samples=count,
                targets=[0.5],
                seed=3,
                n=5,
            )
            tracemalloc.start()
            try:
                run_adaptation_loop(loop)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # first-call allocations aside
        # Holding every level at once costs about 30 bytes a sample.
        assert peak(200_000) < 1.5 * peak(50_000)


class TestLoopConfig:
    def test_sequential_capacity_must_fit_bootstrap(self):
        with pytest.raises(ConfigError, match="seeding"):
            LoopConfig(
                relation=parse("phi"),
                clusterer=SequentialClusterer(2000),
                bootstrap_samples=1000,
                targets=[0.5],
                seed=1,
                n=5,
            )

    def test_rejects_bad_fields(self):
        program = parse("phi")
        clusterer = IncrementalClusterer(0.1)
        with pytest.raises(ConfigError):
            LoopConfig(relation="phi", clusterer=clusterer, bootstrap_samples=10, targets=[], seed=1, n=5)
        with pytest.raises(ConfigError):
            LoopConfig(relation=program, clusterer=object(), bootstrap_samples=10, targets=[], seed=1, n=5)
        with pytest.raises(ConfigError):
            LoopConfig(relation=program, clusterer=clusterer, bootstrap_samples=0, targets=[], seed=1, n=5)
        with pytest.raises(ConfigError):
            LoopConfig(relation=program, clusterer=clusterer, bootstrap_samples=10, targets=[], seed=-1, n=5)
        with pytest.raises(ConfigError):
            LoopConfig(relation=program, clusterer=clusterer, bootstrap_samples=10, targets=[], seed=1, n=0)

    @pytest.mark.parametrize("targets", [[0.5, math.inf], [math.nan]])
    def test_rejects_non_finite_targets(self, targets):
        # Checked here, before any training, not at the first lookup.
        with pytest.raises(ConfigError, match="target must be finite"):
            LoopConfig(
                relation=parse("phi"),
                clusterer=SequentialClusterer(10),
                bootstrap_samples=10,
                targets=targets,
                seed=1,
                n=5,
            )


class TestAdaptationLoop:
    def test_identity_relation_reaches_exact_level(self):
        loop = LoopConfig(
            relation=parse("phi"),
            clusterer=SequentialClusterer(1000),
            bootstrap_samples=1000,
            targets=[0.9],
            seed=7,
            n=5,
        )
        (entry,) = run_adaptation_loop(loop)
        assert abs(entry.phi_chosen - 0.9) < 0.01
        assert (entry.r, entry.w) == (2, 3)
        assert entry.chi_achieved == 0.9
        # The recorded pair is exactly what the solver yields for phi_chosen.
        solved = solve_quorum(entry.phi_chosen, 5)
        assert (solved.r, solved.w) == (entry.r, entry.w)

    def test_constant_relation_returns_global_phi_mean(self):
        clusterer = IncrementalClusterer(0.5)
        loop = LoopConfig(
            relation=parse("C"),
            clusterer=clusterer,
            bootstrap_samples=500,
            targets=[5.0, -3.0],
            seed=11,
            n=5,
            constants={"C": 1.0},
        )
        entries = run_adaptation_loop(loop)
        (only,) = clusterer.clusters  # constant chi collapses to one cluster
        assert only.count == 500
        assert entries[0].phi_chosen == entries[1].phi_chosen == only.phi_centroid
        # The centroid is the running mean of every bootstrap phi.
        rng = np.random.Generator(np.random.PCG64(11))
        phis = 1.0 - rng.random(500) * (1.0 - 1e-6)
        assert only.phi_centroid == pytest.approx(float(np.mean(phis)), rel=1e-12)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (math.inf, "constant 'A' must be finite, got inf"),
            (math.nan, "constant 'A' must be finite, got nan"),
            (None, "constant 'A' must be a real number, got None"),
            ("x", "constant 'A' must be a real number, got 'x'"),
            ("2.5", "constant 'A' must be a real number, got '2.5'"),
            (True, "constant 'A' must be a real number, got True"),
            (10**400, f"constant 'A' must be a real number, got {str(10**400)[:77]}..."),
        ],
        ids=["inf", "nan", "none", "str", "str-number", "bool", "10**400"],
    )
    def test_a_constant_that_is_not_a_finite_number_is_rejected_when_built(self, bad, message):
        # Checked by LoopConfig, as its targets are, not at the first sample.
        with pytest.raises(ConfigError) as info:
            LoopConfig(parse("A*phi"), SequentialClusterer(5), 10, [0.5], 1, 5, {"A": bad})
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "value, number",
        [(np.int64(2), 2.0), (np.float32(2.5), 2.5)],
        ids=["numpy-int", "numpy-float"],
    )
    def test_a_constant_is_taken_as_its_float(self, value, number):
        def trace(a):
            loop = LoopConfig(
                parse("A*phi + B"), SequentialClusterer(5), 50, [0.5, 1.0], 1, 5, {"A": a, "B": 0}
            )
            assert [type(v) for v in loop.constants.values()] == [float, float]
            return trace_to_csv(run_adaptation_loop(loop))

        assert trace(value) == trace(number)

    def test_overflowing_relation_is_evaluation_error(self):
        # The overflow is named, before an inf chi reaches the clusterer.
        loop = LoopConfig(
            relation=parse("phi*1e308*1e308"),
            clusterer=SequentialClusterer(5),
            bootstrap_samples=10,
            targets=[0.5],
            seed=1,
            n=5,
        )
        with pytest.raises(EvaluationError, match="overflow"):
            run_adaptation_loop(loop)

    def test_empty_targets_empty_trace(self):
        loop = LoopConfig(
            relation=parse("phi"),
            clusterer=IncrementalClusterer(0.1),
            bootstrap_samples=50,
            targets=[],
            seed=3,
            n=3,
        )
        assert run_adaptation_loop(loop) == []

    def test_deterministic_trace(self):
        def build():
            return LoopConfig(
                relation=parse("A*phi + C"),
                clusterer=SequentialClusterer(100),
                bootstrap_samples=400,
                targets=[0.25, 0.5, 0.75],
                seed=21,
                n=7,
                constants={"A": 1.0, "C": 0.0},
            )

        assert run_adaptation_loop(build()) == run_adaptation_loop(build())

    def test_trains_clusterer_in_place(self):
        clusterer = SequentialClusterer(10)
        loop = LoopConfig(
            relation=parse("phi"),
            clusterer=clusterer,
            bootstrap_samples=50,
            targets=[],
            seed=1,
            n=3,
        )
        run_adaptation_loop(loop)
        assert clusterer.total_seen == 50


class TestTraceCsv:
    def test_header_and_rows(self):
        loop = LoopConfig(
            relation=parse("phi"),
            clusterer=SequentialClusterer(100),
            bootstrap_samples=100,
            targets=[0.9, 0.2],
            seed=13,
            n=5,
        )
        text = trace_to_csv(run_adaptation_loop(loop))
        lines = text.strip().split("\n")
        assert lines[0] == "chi_target,phi_chosen,r,w,chi_achieved"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert len(first) == 5
        assert float(first[0]) == 0.9
        int(first[2]), int(first[3])  # r and w columns parse as integers

    def test_empty_trace_is_header_only(self):
        assert trace_to_csv([]) == "chi_target,phi_chosen,r,w,chi_achieved\n"


class TestConstantsWrittenIn:
    def test_negative_zero_after_zero_matches_a_cold_run(self):
        # The loop writes its constants into the program once; a run with
        # A = -0.0 after one with A = 0.0 on the same program must not reuse
        # the 0.0 literal, which compares equal but has the other sign.
        def run(program, a):
            loop = LoopConfig(
                relation=program,
                clusterer=SequentialClusterer(50),
                bootstrap_samples=50,
                targets=[0.0, -1.0],
                seed=4,
                n=5,
                constants={"A": a},
            )
            trace = trace_to_csv(run_adaptation_loop(loop))
            return loop.clusterer.csv_snapshot(), trace

        cold = run(parse("A*phi"), -0.0)
        assert "-0.0" in cold[0] and cold[1].endswith(",-0.0\n")
        program = parse("A*phi")
        assert run(program, 0.0) != cold
        assert run(program, -0.0) == cold


class TestContainersAndRows:
    @pytest.mark.parametrize("targets", ["12", b"12"], ids=["str", "bytes"])
    def test_targets_are_not_read_one_character_at_a_time(self, targets):
        with pytest.raises(ConfigError) as info:
            LoopConfig(parse("phi"), SequentialClusterer(5), 10, targets, 1, 5)
        assert str(info.value) == f"targets must be a collection of numbers, got {targets!r}"

    def test_numpy_scalars_become_plain_numbers(self):
        entry = LoopTraceEntry(np.float64(0.5), np.float64(0.9), 2, 3, np.float32(0.5))
        assert trace_to_csv([entry]).split("\n")[1] == "0.5,0.9,2,3,0.5"
        assert [type(value) for value in vars(entry).values()] == [float, float, int, int, float]

    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("chi_achieved", "x", "a real number"), ("r", None, "an integer"),
            ("w", True, "an integer"), ("phi_chosen", "0.5", "a real number"),
            ("chi_target", [1.0], "a real number"), ("r", np.int64(5), "an integer"),
            ("w", 2.5, "an integer"), ("r", 0, ">= 1"),
            ("chi_achieved", math.nan, "finite"), ("chi_target", -math.inf, "finite"),
        ],
    )
    def test_a_field_that_is_not_a_number_is_rejected(self, field, value, rule):
        # Each field is checked by its declared type: r and w are counts, the
        # rest finite reals.
        fields = dict(chi_target=0.5, phi_chosen=0.9, r=2, w=3, chi_achieved=0.5)
        fields[field] = value
        with pytest.raises(ConfigError) as info:
            LoopTraceEntry(**fields)
        assert str(info.value) == f"{field} must be {rule}, got {value!r}"
