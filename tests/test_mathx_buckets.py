"""Unit tests for distance bucketing (the Fig. 3(a) pipeline)."""

import numpy as np
import pytest

from repro.mathx.buckets import (
    bucket_following_pairs,
    log_spaced_bucket_following_pairs,
)


class TestUniformBuckets:
    def test_basic_counting(self):
        d = np.array([0.5, 0.7, 1.5, 1.9, 5.2])
        e = np.array([True, False, True, True, False])
        b = bucket_following_pairs(d, e, bucket_miles=1.0)
        # Buckets 0, 1 and 5 are occupied.
        assert len(b) == 3
        assert b.totals.tolist() == [2.0, 2.0, 1.0]
        assert b.edges.tolist() == [1.0, 2.0, 0.0]

    def test_probabilities(self):
        d = np.array([0.5, 0.7, 1.5, 1.9])
        e = np.array([True, False, True, True])
        b = bucket_following_pairs(d, e)
        assert b.probabilities.tolist() == [0.5, 1.0]

    def test_first_bucket_center_clamped_to_width(self):
        b = bucket_following_pairs(
            np.array([0.1]), np.array([True]), bucket_miles=1.0
        )
        assert b.centers[0] == 1.0

    def test_later_bucket_centers_are_midpoints(self):
        b = bucket_following_pairs(
            np.array([10.2]), np.array([False]), bucket_miles=1.0
        )
        assert b.centers[0] == pytest.approx(10.5)

    def test_max_miles_filter(self):
        d = np.array([1.0, 500.0])
        e = np.array([True, True])
        b = bucket_following_pairs(d, e, max_miles=100.0)
        assert b.totals.sum() == 1.0

    def test_empty_input(self):
        b = bucket_following_pairs(np.array([]), np.array([]))
        assert len(b) == 0

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError):
            bucket_following_pairs(np.array([1.0]), np.array([True, False]))

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            bucket_following_pairs(np.array([1.0]), np.array([1]), bucket_miles=0)

    def test_nonzero_filters_empty_edge_buckets(self):
        d = np.array([0.5, 10.0])
        e = np.array([True, False])
        b = bucket_following_pairs(d, e).nonzero()
        assert len(b) == 1
        assert b.edges[0] == 1.0


class TestLogSpacedBuckets:
    def test_total_preserved(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(1.0, 2500.0, size=500)
        e = rng.random(500) < 0.1
        b = log_spaced_bucket_following_pairs(d, e, n_buckets=20)
        assert b.totals.sum() == 500
        assert b.edges.sum() == e.sum()

    def test_centers_increase(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(1.0, 2500.0, size=200)
        e = rng.random(200) < 0.5
        b = log_spaced_bucket_following_pairs(d, e, n_buckets=15)
        assert np.all(np.diff(b.centers) > 0)

    def test_out_of_range_clamped(self):
        d = np.array([0.01, 9999.0])
        e = np.array([True, True])
        b = log_spaced_bucket_following_pairs(
            d, e, n_buckets=5, min_miles=1.0, max_miles=3000.0
        )
        assert b.totals.sum() == 2

    def test_weighted_equals_expanded_pairs(self):
        rng = np.random.default_rng(3)
        d = rng.uniform(0.5, 2800.0, size=60)
        pairs = rng.integers(0, 9, size=60)
        edges = np.minimum(rng.integers(0, 4, size=60), pairs)
        got = log_spaced_bucket_following_pairs(
            d, edges, n_buckets=12, weights=pairs
        )
        expanded = np.repeat(d, pairs)
        flags = np.concatenate(
            [np.arange(p) < e for p, e in zip(pairs, edges)]
        )
        want = log_spaced_bucket_following_pairs(expanded, flags, n_buckets=12)
        for field in ("centers", "totals", "edges"):
            assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_weights_must_be_parallel(self):
        with pytest.raises(ValueError):
            log_spaced_bucket_following_pairs(
                np.array([1.0, 2.0]), np.array([0, 1]), weights=np.array([1.0])
            )

    def test_rejects_too_few_buckets(self):
        with pytest.raises(ValueError):
            log_spaced_bucket_following_pairs(
                np.array([1.0]), np.array([True]), n_buckets=1
            )

    def test_power_law_recoverable_through_pipeline(self):
        """End-to-end: pairs drawn from a power law refit to it."""
        from repro.mathx.powerlaw import PowerLaw, fit_power_law

        rng = np.random.default_rng(7)
        truth = PowerLaw(alpha=-0.55, beta=0.05)
        d = np.exp(rng.uniform(0.0, np.log(2000.0), size=200_000))
        e = rng.random(d.size) < truth(d)
        b = log_spaced_bucket_following_pairs(d, e, n_buckets=25).nonzero()
        law = fit_power_law(b.centers, b.probabilities, weights=b.totals)
        assert law.alpha == pytest.approx(-0.55, abs=0.08)
        assert law.beta == pytest.approx(0.05, rel=0.3)
