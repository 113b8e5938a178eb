"""Unit tests for the online clusterers."""

import copy
import dataclasses
import math
import pickle
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RefIncremental, RefSequential
from quorumtune import (
    Cluster,
    ConfigError,
    DomainError,
    IncrementalClusterer,
    Sample,
    SequentialClusterer,
    UnlearnedError,
)


class TestSample:
    def test_coercion(self):
        s = Sample(chi=1, phi=0)
        assert isinstance(s.chi, float) and isinstance(s.phi, float)

    @pytest.mark.parametrize(
        "chi,phi",
        [
            (float("inf"), 0.5),
            (float("nan"), 0.5),
            (0.0, -0.1),
            (0.0, 1.1),
            (0.0, float("nan")),
            pytest.param(10**400, 0.5, id="10**400-0.5"),
            pytest.param(10**5000, 0.5, id="10**5000-0.5"),
        ],
    )
    def test_rejects_bad_values(self, chi, phi):
        with pytest.raises(DomainError):
            Sample(chi=chi, phi=phi)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda sample: pickle.loads(pickle.dumps(sample))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_equal_and_frozen(self, clone):
        sample = Sample(chi=-2.5, phi=0.75)
        copied = clone(sample)
        assert copied == sample and type(copied) is Sample
        with pytest.raises(dataclasses.FrozenInstanceError):
            copied.chi = 0.0
        assert (copied.chi, copied.phi) == (-2.5, 0.75)


class TestSequential:
    def test_seeding_then_absorption(self):
        clusterer = SequentialClusterer(capacity=2)
        clusterer.learn(Sample(0.0, 0.0))
        clusterer.learn(Sample(1.0, 1.0))
        assert [c.count for c in clusterer.clusters] == [1, 1]

        k = clusterer.learn(Sample(0.9, 0.8))
        assert k == 1
        first, second = clusterer.clusters
        assert first == Cluster(0.0, 0.0, 1)
        assert second.count == 2
        assert second.chi_centroid == pytest.approx(0.95, rel=1e-15)
        assert second.phi_centroid == pytest.approx(0.9, rel=1e-15)

    def test_capacity_one_tracks_global_means(self):
        clusterer = SequentialClusterer(capacity=1)
        chis = [3.0, -1.0, 7.5, 0.25, 2.0]
        phis = [0.1, 0.9, 0.5, 0.3, 1.0]
        for x, p in zip(chis, phis):
            clusterer.learn(Sample(x, p))
        (only,) = clusterer.clusters
        assert only.count == 5
        assert only.chi_centroid == pytest.approx(np.mean(chis), rel=1e-12)
        assert only.phi_centroid == pytest.approx(np.mean(phis), rel=1e-12)

    def test_centroid_of_huge_samples_stays_finite(self):
        # centroid * count overflows here although the mean is finite.
        clusterer = SequentialClusterer(capacity=1)
        for _ in range(3):
            clusterer.learn(Sample(1.5e308, 0.5))
        assert clusterer.csv_snapshot() == "chi_centroid,phi_centroid,count\n1.5e+308,0.5,3\n"
        clusterer.learn(Sample(-1.5e308, 0.5))
        (only,) = clusterer.clusters
        assert only.chi_centroid == pytest.approx(0.75e308, rel=1e-15)

    def test_capacity_bound_and_counts(self):
        clusterer = SequentialClusterer(capacity=3)
        for i in range(10):
            clusterer.learn(Sample(float(i), 0.5))
        assert len(clusterer) == 3
        assert clusterer.total_seen == 10
        assert sum(c.count for c in clusterer.clusters) == 10

    def test_filling_a_large_capacity_is_fast(self):
        # Seeds only append; the first lookup sorts them once.  Inserting
        # each seed into the sorted index as it arrives took about 27 s on
        # a 2-vCPU VM.
        size = 300_000
        samples = [Sample(float(i * 7919 % size), i / size) for i in range(size)]
        clusterer = SequentialClusterer(size)
        start = time.perf_counter()
        for sample in samples:
            clusterer.learn(sample)
        level = clusterer.lookup(float(123 * 7919 % size))
        elapsed = time.perf_counter() - start
        assert level.phi == 123 / size
        assert elapsed < 5.0, f"seeding and one lookup took {elapsed:.2f}s"

    def test_seeding_equal_keys_into_a_built_index_is_fast(self):
        # A lookup during seeding builds the index, so each later seed is
        # inserted; one that steps past every equal key took 16 s here.
        size = 20_000
        clusterer = SequentialClusterer(size)
        clusterer.learn(Sample(0.5, 0.0))
        assert clusterer.lookup(0.5).phi == 0.0
        start = time.perf_counter()
        for i in range(1, size):
            assert clusterer.learn(Sample(0.5, i / size)) == i
        elapsed = time.perf_counter() - start
        assert clusterer.lookup(0.5).phi == 0.0  # the lowest id wins the tie
        assert elapsed < 2.0, f"{size} seeds took {elapsed:.2f}s"

    @pytest.mark.parametrize("bad", [0, -1, 1.0, True, "3"])
    def test_rejects_bad_capacity(self, bad):
        with pytest.raises(ConfigError):
            SequentialClusterer(bad)


class TestIncremental:
    def test_golden_trace(self):
        clusterer = IncrementalClusterer(threshold=0.1)
        clusterer.learn(Sample(1.0, 0.5))
        assert clusterer.clusters == (Cluster(1.0, 0.5, 1),)

        k = clusterer.learn(Sample(1.05, 0.6))  # relative error 0.05 < 0.1
        assert k == 0
        (merged,) = clusterer.clusters
        assert merged.count == 2
        assert merged.chi_centroid == pytest.approx(1.025, rel=1e-15)
        assert merged.phi_centroid == pytest.approx(0.55, rel=1e-15)

        k = clusterer.learn(Sample(2.0, 0.9))  # relative error ~0.95 > 0.1
        assert k == 1
        assert len(clusterer) == 2

    def test_huge_threshold_collapses_to_one_cluster(self):
        clusterer = IncrementalClusterer(threshold=1e6)
        chis = [5.0, 9.0, 5.5, 8.25]
        phis = [0.25, 0.75, 0.5, 1.0]
        for x, p in zip(chis, phis):
            clusterer.learn(Sample(x, p))
        (only,) = clusterer.clusters
        assert only.count == 4
        assert only.chi_centroid == pytest.approx(np.mean(chis), rel=1e-12)
        assert only.phi_centroid == pytest.approx(np.mean(phis), rel=1e-12)

    def test_total_seen_property(self):
        clusterer = IncrementalClusterer(threshold=0.05)
        for i in range(25):
            clusterer.learn(Sample(float(i * i + 1), 0.5))
        assert clusterer.total_seen == 25
        assert sum(c.count for c in clusterer.clusters) == 25

    def test_growth_beyond_initial_room(self):
        clusterer = IncrementalClusterer(threshold=0.01)
        for i in range(100):
            clusterer.learn(Sample(float(2 ** (i % 50)) + 1e6 * (i // 50), 0.5))
        assert len(clusterer) > 16  # grew past the initial array room

    @pytest.mark.parametrize("bad", [0.0, -0.5, "x", None, pytest.param(10**400, id="10**400")])
    def test_rejects_bad_threshold(self, bad):
        with pytest.raises(ConfigError):
            IncrementalClusterer(bad)


class TestLookup:
    def test_single_cluster_answers_everything(self):
        clusterer = IncrementalClusterer(0.1)
        clusterer.learn(Sample(1.0, 0.5))
        for target in (-100.0, 0.0, 1.0, 42.0):
            assert clusterer.lookup(target).phi == 0.5

    def test_nearest_of_two(self):
        clusterer = SequentialClusterer(2)
        clusterer.learn(Sample(0.0, 0.0))
        clusterer.learn(Sample(1.0, 1.0))
        assert clusterer.lookup(0.1).phi == 0.0
        assert clusterer.lookup(0.9).phi == 1.0

    def test_equidistant_tie_prefers_insertion_order(self):
        clusterer = SequentialClusterer(2)
        clusterer.learn(Sample(1.0, 0.25))
        clusterer.learn(Sample(3.0, 0.75))
        assert clusterer.lookup(2.0).phi == 0.25

    def test_unlearned_errors(self):
        clusterer = SequentialClusterer(2)
        with pytest.raises(UnlearnedError):
            clusterer.lookup(0.0)
        clusterer.learn(Sample(0.0, 0.5))
        clusterer.reset()
        with pytest.raises(UnlearnedError):
            clusterer.lookup(0.0)

    def test_rejects_non_finite_target(self):
        clusterer = SequentialClusterer(2)
        clusterer.learn(Sample(0.0, 0.5))
        for bad in (float("nan"), "x", 10**400):
            with pytest.raises(DomainError):
                clusterer.lookup(bad)


class TestReset:
    def test_configuration_survives(self):
        seq = SequentialClusterer(50)
        seq.learn(Sample(1.0, 0.5))
        seq.reset()
        assert seq.capacity == 50 and seq.total_seen == 0 and len(seq) == 0

        incr = IncrementalClusterer(0.25)
        incr.learn(Sample(1.0, 0.5))
        incr.reset()
        assert incr.threshold == 0.25 and len(incr) == 0

    def test_learn_reset_learn_replays_identically(self):
        rng = np.random.Generator(np.random.PCG64(99))
        stream = [Sample(float(x), float(p)) for x, p in zip(rng.normal(size=500), rng.random(500))]

        fresh = SequentialClusterer(20)
        recycled = SequentialClusterer(20)
        for sample in stream:
            recycled.learn(sample)
        recycled.reset()
        for sample in stream:
            fresh.learn(sample)
            recycled.learn(sample)
        assert fresh.clusters == recycled.clusters
        assert fresh.total_seen == recycled.total_seen


class TestSnapshot:
    def test_csv_shape(self):
        clusterer = SequentialClusterer(2)
        clusterer.learn(Sample(1.5, 0.25))
        clusterer.learn(Sample(-2.0, 1.0))
        text = clusterer.csv_snapshot()
        lines = text.strip().split("\n")
        assert lines[0] == "chi_centroid,phi_centroid,count"
        assert lines[1] == "1.5,0.25,1"
        assert lines[2] == "-2.0,1.0,1"

    def test_empty_is_header_only(self):
        assert SequentialClusterer(3).csv_snapshot() == "chi_centroid,phi_centroid,count\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (("x", None, 1.5), "chi_centroid must be a real number, got 'x'"),
            ((0.5, None, 1), "phi_centroid must be a real number, got None"),
            ((0.5, 0.5, True), "count must be an integer, got True"),
            ((math.inf, 0.5, 1), "chi_centroid must be finite, got inf"),
            ((0.5, math.nan, 1), "phi_centroid must be finite, got nan"),
            ((0.5, 0.5, -3), "count must be >= 1, got -3"),
            ((0.5, 0.5, 0), "count must be >= 1, got 0"),
            ((0.5, 0.5, 1.5), "count must be an integer, got 1.5"),
            ((0.5, 0.5, np.int64(3)), f"count must be an integer, got {np.int64(3)!r}"),
        ],
        ids=[
            "chi-str", "phi-none", "count-bool", "chi-inf", "phi-nan", "count-negative",
            "count-zero", "count-fraction", "count-numpy-int",
        ],
    )
    def test_a_cluster_field_that_is_not_a_number_is_rejected(self, args, message):
        # Each field is checked by its declared type: the centroids are
        # finite reals, the count an int >= 1.
        with pytest.raises(ConfigError) as info:
            Cluster(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("phi", [2.0, -0.5], ids=["phi-above-1", "phi-below-0"])
    def test_a_cluster_out_of_range_is_rejected(self, phi):
        with pytest.raises(ConfigError) as info:
            Cluster(0.5, phi, 1)
        assert str(info.value) == f"phi_centroid must lie in [0, 1], got {phi!r}"

    def test_a_cluster_holds_plain_numbers(self):
        cluster = Cluster(np.float64(0.5), np.float32(0.25), 3)
        assert [type(value) for value in vars(cluster).values()] == [float, float, int]
        assert cluster == Cluster(0.5, 0.25, 3)


@st.composite
def sample_streams(draw):
    size = draw(st.integers(min_value=1, max_value=120))
    chis = draw(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=size,
            max_size=size,
        )
    )
    phis = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=size,
            max_size=size,
        )
    )
    return list(zip(chis, phis))


# Keys whose rounded distances tie often: repeats, and 0.0 and 1.0 seen from
# +-1e16, where both round to the distance 1e16 (as in the
# far-sample-rounded-tie stream below).  Means of a few hundred of them stay
# finite, so the oracles' running means apply.
_TIE_KEYS = [0.0, 1.0, 0.5, 2.0, -1.0, 1e16, -1e16]
_TIE_CHI = st.integers(0, 7).flatmap(
    lambda k: st.floats(-3.0, 3.0) if k == 7 else st.sampled_from(_TIE_KEYS)
)


@st.composite
def tie_dense_streams(draw):
    """Learns and lookups interleaved, as ``(chi, phi)`` with ``phi`` None
    for a lookup.  Each learned level is distinct, so a tie broken toward
    the wrong cluster shows in the level looked up."""
    size = draw(st.integers(min_value=1, max_value=80))
    chis = draw(st.lists(_TIE_CHI, min_size=size, max_size=size))
    lookups = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return [
        (chi, None if lookup else (i + 1) / (size + 1))
        for i, (chi, lookup) in enumerate(zip(chis, lookups))
    ]


class TestAgainstReference:
    @given(stream=sample_streams(), capacity=st.integers(min_value=1, max_value=12))
    @settings(max_examples=120, deadline=None)
    def test_sequential_matches_reference(self, stream, capacity):
        ours = SequentialClusterer(capacity)
        ref = RefSequential(capacity)
        for x, p in stream:
            got = ours.learn(Sample(x, p))
            expected = ref.learn(x, p)
            assert got == expected
        assert [c.chi_centroid for c in ours.clusters] == ref.chi
        assert [c.phi_centroid for c in ours.clusters] == ref.phi
        assert [c.count for c in ours.clusters] == ref.count

    @given(
        stream=sample_streams(),
        threshold=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_incremental_matches_reference(self, stream, threshold):
        ours = IncrementalClusterer(threshold)
        ref = RefIncremental(threshold)
        for x, p in stream:
            assert ours.learn(Sample(x, p)) == ref.learn(x, p)
        assert [c.chi_centroid for c in ours.clusters] == ref.chi
        assert [c.phi_centroid for c in ours.clusters] == ref.phi
        assert [c.count for c in ours.clusters] == ref.count

    @given(
        stream=tie_dense_streams(),
        pair=st.integers(1, 6).map(lambda c: (SequentialClusterer(c), RefSequential(c)))
        | st.sampled_from([1e-3, 0.5, 2.0]).map(
            lambda t: (IncrementalClusterer(t), RefIncremental(t))
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_tie_dense_stream_matches_reference(self, stream, pair):
        ours, ref = pair
        for x, p in stream:
            if p is not None:
                assert ours.learn(Sample(x, p)) == ref.learn(x, p), (x, p)
            elif ref.chi:
                assert ours.lookup(x).phi == ref.lookup(x), x
            else:
                with pytest.raises(UnlearnedError):
                    ours.lookup(x)
        assert [c.chi_centroid for c in ours.clusters] == ref.chi
        assert [c.phi_centroid for c in ours.clusters] == ref.phi
        assert [c.count for c in ours.clusters] == ref.count
        for target in _TIE_KEYS + ref.chi if ref.chi else ():
            assert ours.lookup(target).phi == ref.lookup(target), target

    # Deterministic ties that the +-50 Hypothesis streams never reach.  Each
    # stream is replayed through both clusterers and their oracles; the
    # targets are then looked up on both.
    TIE_STREAMS = {
        # Three clusters on one centroid: every later sample at 1.0 ties on
        # all of them, and absorbing 2.0 moves cluster 0 past its duplicates.
        "duplicate-centroids": (
            [(1.0, 0.1), (1.0, 0.2), (1.0, 0.3), (1.0, 0.9), (2.0, 0.5), (1.0, 0.7), (1.0, 0.4)],
            [1.0, 1.5, 2.0, 0.0],
        ),
        # 2.0 is exactly halfway between 3.0 (id 0) and 1.0 (id 1), and
        # between 1.0 (id 2) and 3.0 (id 3) once those are seeded.
        "equidistant-neighbours": (
            [(3.0, 0.25), (1.0, 0.75), (2.0, 0.5), (1.0, 0.0), (3.0, 1.0), (2.0, 0.125)],
            [2.0, 1.0, 3.0],
        ),
        # Seen from 1e16 both 0.0 (id 0) and 1.0 (id 1) are at the rounded
        # distance 1e16, so the tie must reach past the adjacent key 1.0.
        "far-sample-rounded-tie": (
            [(0.0, 0.25), (1.0, 0.75), (1e16, 0.5), (-1e16, 1.0), (0.5, 0.0), (1e16, 0.125)],
            [1e16, -1e16, 0.5, 1.0],
        ),
        # |delta chi| overflows to inf: 1.7e308 lies past every key with both
        # neighbour distances inf, and so does the largest double as a target
        # once the capacity-2 clusterer has absorbed 1.7e308.
        "overflowing-distance": (
            [(-1.7e308, 0.25), (-8e307, 0.75), (1.7e308, 0.5), (-1e307, 0.125)],
            [1.7976931348623157e308, -1.7976931348623157e308, 1.7e308, -1.7e308, 0.0],
        ),
    }

    @pytest.mark.parametrize("name", sorted(TIE_STREAMS))
    @pytest.mark.parametrize(
        "make",
        [
            lambda: (SequentialClusterer(2), RefSequential(2)),
            lambda: (SequentialClusterer(3), RefSequential(3)),
            lambda: (IncrementalClusterer(0.5), RefIncremental(0.5)),
            lambda: (IncrementalClusterer(1e-3), RefIncremental(1e-3)),
        ],
        ids=["seq2", "seq3", "incr0.5", "incr1e-3"],
    )
    def test_ties_match_reference(self, name, make):
        stream, targets = self.TIE_STREAMS[name]
        ours, ref = make()
        for x, p in stream:
            assert ours.learn(Sample(x, p)) == ref.learn(x, p), (x, p)
        assert [c.chi_centroid for c in ours.clusters] == ref.chi
        assert [c.phi_centroid for c in ours.clusters] == ref.phi
        assert [c.count for c in ours.clusters] == ref.count
        for target in targets + ref.chi:
            assert ours.lookup(target).phi == ref.lookup(target), target

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (SequentialClusterer(1), RefSequential(1)),
            lambda: (SequentialClusterer(4), RefSequential(4)),
            lambda: (SequentialClusterer(12), RefSequential(12)),
            lambda: (IncrementalClusterer(0.5), RefIncremental(0.5)),
            lambda: (IncrementalClusterer(1e-3), RefIncremental(1e-3)),
        ],
        ids=["seq1", "seq4", "seq12", "incr0.5", "incr1e-3"],
    )
    def test_lookups_interleaved_with_seeding_and_reset(self, make):
        # Lookups land during seeding, on the first search that builds the
        # index, after later seeds and after resets.  Keys repeat and include
        # both zeros and the smallest subnormal; a target at the largest
        # double is at distance inf from every key of the opposite sign, so
        # the walk ties across all of them when they share a sign.  Sums of
        # a few thousand keys stay finite, so the oracles' running means apply.
        values = [-2e300, -1e300, -1.0, -0.0, 0.0, 5e-324, 1.0, 1e300, 2e300]
        targets = values + [1.7976931348623157e308, -1.7976931348623157e308]
        rng = random.Random(4021)
        ours, ref = make()
        for _ in range(3000):
            roll = rng.random()
            if roll < 0.03:
                ours.reset()
                ref = make()[1]
            elif roll < 0.5:
                x, p = rng.choice(values), rng.random()
                assert ours.learn(Sample(x, p)) == ref.learn(x, p), (x, p)
            elif ref.chi:
                target = rng.choice(targets)
                assert ours.lookup(target).phi == ref.lookup(target), target
            else:
                with pytest.raises(UnlearnedError):
                    ours.lookup(rng.choice(targets))
        assert [c.chi_centroid for c in ours.clusters] == ref.chi
        assert [c.count for c in ours.clusters] == ref.count

    @given(stream=sample_streams())
    @settings(max_examples=60, deadline=None)
    def test_lookup_stability(self, stream):
        clusterer = IncrementalClusterer(0.05)
        for x, p in stream:
            clusterer.learn(Sample(x, p))
        centroids = [c.chi_centroid for c in clusterer.clusters]
        if len(set(centroids)) != len(centroids):
            return  # lookup is only pinned for pairwise-distinct centroids
        for k, cluster in enumerate(clusterer.clusters):
            assert clusterer.lookup(cluster.chi_centroid).phi == cluster.phi_centroid, k
