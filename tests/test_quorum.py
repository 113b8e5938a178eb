"""Unit tests for the exact quorum consistency math."""

import time
import tracemalloc
from bisect import bisect_left
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _spectrum, enumeration_staleness
from quorumtune import (
    PHI_FLOOR,
    ConfigError,
    ConsistencyLevel,
    DomainError,
    QuorumConfig,
    ReadWriteBias,
    SolveError,
    SolveMode,
    SolveOptions,
    consistency_level,
    enumerate_levels,
    iter_levels,
    solve_quorum,
    staleness_probability,
)

EXTENDED = SolveOptions(mode=SolveMode.EXTENDED)
FAITHFUL = SolveOptions(mode=SolveMode.FAITHFUL)


class TestQuorumConfig:
    def test_valid(self):
        cfg = QuorumConfig(r=2, w=3, n=5)
        assert (cfg.r, cfg.w, cfg.n) == (2, 3, 5)
        assert not cfg.is_strong
        assert QuorumConfig(3, 3, 5).is_strong

    @pytest.mark.parametrize(
        "r,w,n",
        [(0, 1, 1), (1, 0, 1), (1, 1, 0), (6, 3, 5), (3, 6, 5), (-1, 1, 5)],
    )
    def test_out_of_range(self, r, w, n):
        with pytest.raises(ConfigError):
            QuorumConfig(r=r, w=w, n=n)

    @pytest.mark.parametrize("bad", [1.0, "2", True, None])
    def test_non_integer(self, bad):
        with pytest.raises(ConfigError):
            QuorumConfig(r=bad, w=1, n=3)


class TestConsistencyLevelType:
    def test_range_enforced(self):
        assert ConsistencyLevel(0.5).phi == 0.5
        with pytest.raises(DomainError):
            ConsistencyLevel(-0.01)
        with pytest.raises(DomainError):
            ConsistencyLevel(1.01)
        with pytest.raises(DomainError):
            ConsistencyLevel(float("nan"))
        with pytest.raises(DomainError):
            ConsistencyLevel(10**400)


@pytest.mark.parametrize(
    "call,name",
    [
        pytest.param(lambda: ConsistencyLevel(10**5000), "consistency level", id="level"),
        pytest.param(lambda: solve_quorum(10**5000, 5), "phi_target", id="solve"),
    ],
)
def test_rejects_int_too_long_to_print(call, name):
    with pytest.raises(DomainError, match=name):
        call()


class TestStalenessProbability:
    def test_golden_examples(self):
        assert staleness_probability(QuorumConfig(2, 3, 5)) == 0.1
        assert staleness_probability(QuorumConfig(1, 5, 5)) == 0.0
        assert staleness_probability(QuorumConfig(1, 1, 20)) == 0.95

    def test_no_overflow_at_wide_n(self):
        assert staleness_probability(QuorumConfig(1, 1, 64)) == 63 / 64
        # C(32, 32)/C(64, 32) survives exactly via integer products.
        value = staleness_probability(QuorumConfig(32, 32, 64))
        assert value == float(enumeration_fraction_fast(32, 32, 64))

    def test_matches_enumeration_small(self):
        for n in range(1, 8):
            for r in range(1, n + 1):
                for w in range(1, n + 1):
                    expected = enumeration_staleness(r, w, n)
                    got = staleness_probability(QuorumConfig(r, w, n))
                    assert got == float(expected), (r, w, n)
                    phi = consistency_level(QuorumConfig(r, w, n)).phi
                    assert phi == float(1 - expected), (r, w, n)


def enumeration_fraction_fast(r: int, w: int, n: int) -> Fraction:
    """Closed-form C(n-w, r)/C(n, r) via exact binomials (independent arithmetic)."""
    return Fraction(comb(n - w, r), comb(n, r))


def comb_argmin_table(n: int, faithful: bool) -> tuple[list[Fraction], list[tuple[int, int, int]]]:
    """Every canonical pair's exact level from ``math.comb``, grouped by level.

    Returns the distinct levels in ascending order and, for each, the
    smallest tie-break key ``(i + j, i, j)`` among the pairs at that level.
    Faithful mode drops the strong pairs ``i + j > n``.
    """
    best: dict[Fraction, tuple[int, int, int]] = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if faithful and i + j > n:
                continue
            level = 1 - Fraction(comb(n - j, i), comb(n, i))
            key = (i + j, i, j)
            if level not in best or key < best[level]:
                best[level] = key
    levels = sorted(best)
    return levels, [best[level] for level in levels]


def comb_argmin(levels, keys, target: float) -> tuple[int, int]:
    """The canonical pair minimising ``(|phi - target|, i + j, i, j)``: only
    the levels adjacent to the target in sorted order can be nearest."""
    exact = Fraction(target)
    k = bisect_left(levels, exact)
    _, _, i, j = min(
        (abs(levels[m] - exact), *keys[m]) for m in (k - 1, k) if 0 <= m < len(levels)
    )
    return i, j


class TestConsistencyLevel:
    def test_golden_examples(self):
        assert consistency_level(QuorumConfig(3, 3, 5)).phi == 1.0
        assert consistency_level(QuorumConfig(2, 3, 5)).phi == 0.9
        assert consistency_level(QuorumConfig(1, 1, 20)).phi == pytest.approx(0.05, rel=1e-12)

    def test_minimum_at_fixed_n(self):
        for n in range(1, 30):
            assert consistency_level(QuorumConfig(1, 1, n)).phi == pytest.approx(1 / n, rel=1e-12)

    @given(
        n=st.integers(min_value=1, max_value=40),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_symmetry_exact(self, n, data):
        r = data.draw(st.integers(min_value=1, max_value=n))
        w = data.draw(st.integers(min_value=1, max_value=n))
        assert (
            consistency_level(QuorumConfig(r, w, n)).phi
            == consistency_level(QuorumConfig(w, r, n)).phi
        )

    def test_boundary_and_monotonicity_spot(self):
        for n in (1, 2, 5, 11):
            for r in range(1, n + 1):
                previous = None
                for w in range(1, n + 1):
                    phi = consistency_level(QuorumConfig(r, w, n)).phi
                    assert (phi == 1.0) == (r + w > n)
                    if previous is not None:
                        assert phi >= previous
                    previous = phi


class TestEnumerateLevels:
    def test_single_replica(self):
        levels = enumerate_levels(1)
        assert len(levels) == 1
        cfg, level = levels[0]
        assert (cfg.r, cfg.w, cfg.n) == (1, 1, 1)
        assert level.phi == 1.0

    def test_n5_contents_and_order(self):
        levels = enumerate_levels(5)
        assert len(levels) == 15  # the canonical triangle 1 <= r <= w <= 5
        as_dict = {(cfg.r, cfg.w): level.phi for cfg, level in levels}
        assert as_dict[(2, 3)] == 0.9
        assert as_dict[(1, 4)] == 0.8
        phis = [level.phi for _, level in levels]
        assert phis == sorted(phis)
        expected_ladder = [0.2, 0.4, 0.6, 0.7, 0.8, 0.9] + [1.0] * 9
        assert phis == pytest.approx(expected_ladder, rel=1e-12)
        # Within equal phi, rows are sorted by quorum sum.
        for (cfg_a, lvl_a), (cfg_b, lvl_b) in zip(levels, levels[1:]):
            if lvl_a.phi == lvl_b.phi:
                assert cfg_a.r + cfg_a.w <= cfg_b.r + cfg_b.w

    def test_n20_strong_region(self):
        for cfg, level in enumerate_levels(20):
            assert (level.phi == 1.0) == (cfg.r + cfg.w > 20)

    def test_rejects_bad_n(self):
        with pytest.raises(ConfigError):
            enumerate_levels(0)

    def test_iter_levels_rejects_bad_n_at_the_call(self):
        with pytest.raises(ConfigError):
            iter_levels(0)  # before any next()

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_merge_matches_a_full_sort(self, n):
        key = lambda t: (t[2], t[0] + t[1], t[0], t[1])  # noqa: E731
        expected = [(i, j, float(phi)) for i, j, phi in sorted(_spectrum(n), key=key)]
        got = [(cfg.r, cfg.w, level.phi) for cfg, level in iter_levels(n)]
        assert got == expected

    @pytest.mark.parametrize("n", [61, 97])
    def test_merge_keys_give_consistency_levels(self, n):
        # The rows share one integer scale; each key still yields the float
        # consistency_level rounds from the exact ratio, in exact order.
        got = [(cfg, level.phi) for cfg, level in iter_levels(n)]
        assert [phi for _, phi in got] == [consistency_level(cfg).phi for cfg, _ in got]
        exact = [
            (-enumeration_fraction_fast(cfg.r, cfg.w, n), cfg.r + cfg.w, cfg.r, cfg.w)
            for cfg, _ in got
        ]
        assert exact == sorted(exact)
        assert len(got) == n * (n + 1) // 2

    def test_iter_levels_memory_is_linear_in_n(self):
        # The merge holds one entry per row; a list of all 20,100 pairs at
        # n = 200 takes about 9 MB.
        levels = iter_levels(200)
        tracemalloc.start()
        try:
            count = sum(1 for _ in levels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 200 * 201 // 2
        assert peak < 0.5 * 1024 * 1024

    def test_iter_levels_first_line_at_large_n_is_prompt(self):
        # The scale and each row's first key come from small exact integer
        # steps, not from n binomials of up to n bits and their lcm, which
        # took 17.5 s to the first line at n = 10**4.
        start = time.perf_counter()
        cfg, level = next(iter_levels(10**4))
        assert time.perf_counter() - start < 1.0
        assert (cfg.r, cfg.w, cfg.n, level.phi) == (1, 1, 10**4, 1e-4)


class TestSolveQuorum:
    def test_golden_examples(self):
        cfg = solve_quorum(0.9, 5, FAITHFUL)
        assert (cfg.r, cfg.w) == (2, 3)

        cfg = solve_quorum(1.0, 5, SolveOptions(read_write_bias=ReadWriteBias.READS_DOMINATE))
        assert (cfg.r, cfg.w) == (1, 5)

        cfg = solve_quorum(0.0, 5, EXTENDED)
        assert (cfg.r, cfg.w) == (1, 1)

    def test_tie_breaks(self):
        # phi=0.5 at n=5 is exactly between levels 0.4 (1,2) and 0.6 (1,3);
        # the smaller quorum sum wins.
        cfg = solve_quorum(0.5, 5)
        assert (cfg.r, cfg.w) == (1, 2)
        # All strong configs with sum 6 tie at distance 0; the smallest
        # small-element pair wins.
        cfg = solve_quorum(1.0, 5)
        assert (cfg.r, cfg.w) == (1, 5)

    def test_bias_orientation(self):
        balanced = solve_quorum(1.0, 5, SolveOptions(read_write_bias=ReadWriteBias.BALANCED))
        reads = solve_quorum(1.0, 5, SolveOptions(read_write_bias=ReadWriteBias.READS_DOMINATE))
        writes = solve_quorum(1.0, 5, SolveOptions(read_write_bias=ReadWriteBias.WRITES_DOMINATE))
        assert (balanced.r, balanced.w) == (1, 5)
        assert (reads.r, reads.w) == (1, 5)
        assert (writes.r, writes.w) == (5, 1)

    @given(
        phi=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        n=st.integers(min_value=1, max_value=20),
        bias=st.sampled_from(list(ReadWriteBias)),
    )
    @settings(max_examples=150)
    def test_orientation_neutrality(self, phi, n, bias):
        oriented = solve_quorum(phi, n, SolveOptions(read_write_bias=bias))
        canonical = solve_quorum(phi, n)
        assert consistency_level(oriented).phi == consistency_level(canonical).phi

    def test_faithful_excludes_strong_configs(self):
        # Nearest value within r + w <= n; never a strong pair.
        cfg = solve_quorum(1.0, 5, FAITHFUL)
        assert (cfg.r, cfg.w) == (2, 3)
        assert not cfg.is_strong

    def test_faithful_needs_two_replicas(self):
        with pytest.raises(SolveError):
            solve_quorum(0.5, 1, FAITHFUL)
        cfg = solve_quorum(0.5, 2, FAITHFUL)
        assert (cfg.r, cfg.w) == (1, 1)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"mode": "extended"}, "mode"),
            ({"mode": "faithful"}, "mode"),
            ({"mode": None}, "mode"),
            ({"read_write_bias": "balanced"}, "read_write_bias"),
            ({"read_write_bias": SolveMode.EXTENDED}, "read_write_bias"),
        ],
        ids=["mode-extended-str", "mode-faithful-str", "mode-none", "bias-str", "bias-mode"],
    )
    def test_options_reject_non_enum_fields(self, fields, name):
        # The solver compares these fields with `is` against the enum, so a
        # string would pick a branch silently: mode="extended" would solve as
        # faithful, and mode="faithful" at n = 1 would fail deep in the walk.
        with pytest.raises(ConfigError, match=f"^{name} must be a "):
            SolveOptions(**fields)

    def test_rejects_out_of_range_targets(self):
        for bad in (-0.1, 1.1, float("nan"), 10**400):
            with pytest.raises(DomainError):
                solve_quorum(bad, 5)
        with pytest.raises(ConfigError):
            solve_quorum(0.5, 0)

    def test_brute_force_optimality_small(self):
        # The acceptance suite covers n <= 25 at step 0.01; keep a smaller
        # smoke version close to the unit tests.  Distances are exact, as in
        # the solver, so exact ties (1/3 and 2/3 around 0.5 at n=3) stay ties.
        for n in range(1, 9):
            table = {
                (r, w): 1 - enumeration_staleness(r, w, n)
                for r in range(1, n + 1)
                for w in range(1, n + 1)
            }
            for i in range(0, 21):
                target = Fraction(i / 20)
                best = min(abs(value - target) for value in table.values())
                got = solve_quorum(i / 20, n)
                assert abs(table[(got.r, got.w)] - target) == best

    @pytest.mark.parametrize("bias", list(ReadWriteBias))
    def test_target_one_takes_the_strong_pair_at_once(self, bias):
        # A walk over all n/2 weak rows on n-bit integers takes seconds here.
        n = 10**5
        start = time.perf_counter()
        got = solve_quorum(1.0, n, SolveOptions(SolveMode.EXTENDED, bias))
        elapsed = time.perf_counter() - start
        want = (n, 1) if bias is ReadWriteBias.WRITES_DOMINATE else (1, n)
        assert (got.r, got.w) == want
        assert elapsed < 0.05

    @pytest.mark.parametrize("bias", list(ReadWriteBias))
    @pytest.mark.parametrize("n", [10**5, 10**5 + 1])
    def test_faithful_target_one_takes_the_middle_pair_at_once(self, n, bias):
        start = time.perf_counter()
        got = solve_quorum(1.0, n, SolveOptions(SolveMode.FAITHFUL, bias))
        elapsed = time.perf_counter() - start
        small, large = n // 2, n - n // 2
        want = (large, small) if bias is ReadWriteBias.WRITES_DOMINATE else (small, large)
        assert (got.r, got.w) == want
        assert elapsed < 0.05

    @pytest.mark.parametrize("bias", list(ReadWriteBias))
    def test_faithful_target_one_matches_brute_force(self, bias):
        for n in range(2, 41):
            levels, keys = comb_argmin_table(n, faithful=True)
            i, j = comb_argmin(levels, keys, 1.0)
            got = solve_quorum(1.0, n, SolveOptions(SolveMode.FAITHFUL, bias))
            want = (j, i) if bias is ReadWriteBias.WRITES_DOMINATE else (i, j)
            assert (got.r, got.w) == want, n

    @pytest.mark.parametrize("n", [50, 100])
    def test_brute_force_optimality_large_n(self, n):
        """The monotone walk agrees with an argmin over the whole spectrum, in
        both modes and all three orientations, on targets at, between and
        exactly midway between achievable levels."""
        row_levels = [
            float(1 - Fraction(comb(n - j, i), comb(n, i)))
            for i in (1, 2, n // 2)
            for j in range(i, n + 1)
        ]
        targets = [0.0, 1.0, PHI_FLOOR] + [k / 20 for k in range(21)] + row_levels
        exact_ties = 0
        for faithful in (False, True):
            levels, keys = comb_argmin_table(n, faithful)
            midpoints = [(a + b) / 2 for a, b in zip(levels, levels[1:])]
            exact_ties += sum(Fraction(float(m)) == m for m in midpoints)
            for target in targets + [float(m) for m in midpoints]:
                i, j = comb_argmin(levels, keys, target)
                mode = SolveMode.FAITHFUL if faithful else SolveMode.EXTENDED
                for bias in ReadWriteBias:
                    got = solve_quorum(target, n, SolveOptions(mode, bias))
                    want = (j, i) if bias is ReadWriteBias.WRITES_DOMINATE else (i, j)
                    assert (got.r, got.w) == want, (target, mode, bias)
        # 0.25 at n = 50 and 0.125 at n = 100 lie exactly midway between two
        # adjacent levels, so the equal-distance tie-break is exercised.
        assert exact_ties >= 2
