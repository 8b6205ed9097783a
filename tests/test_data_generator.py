"""Unit tests for the synthetic world generator."""

import numpy as np
import pytest

from repro.data.generator import SyntheticWorldConfig, generate_world
from repro.data.stats import compute_stats


class TestConfigValidation:
    def test_rejects_tiny_world(self):
        with pytest.raises(ValueError):
            SyntheticWorldConfig(n_users=1)

    def test_rejects_bad_labeled_fraction(self):
        with pytest.raises(ValueError):
            SyntheticWorldConfig(labeled_fraction=1.5)

    def test_rejects_unnormalized_location_probs(self):
        with pytest.raises(ValueError):
            SyntheticWorldConfig(n_location_probs=(0.5, 0.5, 0.5))

    def test_rejects_positive_alpha(self):
        with pytest.raises(ValueError):
            SyntheticWorldConfig(alpha=0.5)

    def test_rejects_noise_probability_one(self):
        with pytest.raises(ValueError):
            SyntheticWorldConfig(noise_following=1.0)


class TestDeterminism:
    def test_same_seed_same_world(self):
        cfg = SyntheticWorldConfig(n_users=80, seed=21)
        a = generate_world(cfg)
        b = generate_world(cfg)
        assert [u.true_locations for u in a.users] == [
            u.true_locations for u in b.users
        ]
        assert a.following == b.following
        assert a.tweeting == b.tweeting

    def test_different_seeds_differ(self):
        a = generate_world(SyntheticWorldConfig(n_users=80, seed=1))
        b = generate_world(SyntheticWorldConfig(n_users=80, seed=2))
        assert a.following != b.following


class TestGroundTruthConsistency:
    def test_every_user_has_truth(self, small_world):
        assert small_world.has_ground_truth

    def test_home_is_argmax_of_profile(self, small_world):
        for u in small_world.users:
            assert u.true_home == u.true_locations[0]
            weights = u.true_profile_weights
            assert weights[0] == max(weights)

    def test_profile_weights_normalized(self, small_world):
        for u in small_world.users:
            assert sum(u.true_profile_weights) == pytest.approx(1.0)

    def test_locations_distinct_per_user(self, small_world):
        for u in small_world.users:
            assert len(set(u.true_locations)) == len(u.true_locations)

    def test_labeled_users_registered_at_true_home(self, small_world):
        for u in small_world.users:
            if u.is_labeled:
                assert u.registered_location == u.true_home

    def test_location_count_distribution(self):
        ds = generate_world(SyntheticWorldConfig(n_users=600, seed=3))
        counts = np.array([len(u.true_locations) for u in ds.users])
        assert set(counts) <= {1, 2, 3}
        # Defaults: 50% single, 38% double, 12% triple.
        assert 0.40 < np.mean(counts == 1) < 0.60
        assert np.mean(counts == 3) < 0.25


class TestEdgeGroundTruth:
    def test_noise_edges_have_no_assignments(self, small_world):
        for e in small_world.following:
            if e.is_noise:
                assert e.true_x is None and e.true_y is None
            else:
                assert e.true_x is not None and e.true_y is not None

    def test_location_edge_assignments_in_profiles(self, small_world):
        for e in small_world.following:
            if not e.is_noise:
                assert e.true_x in small_world.users[e.follower].true_locations
                assert e.true_y in small_world.users[e.friend].true_locations

    def test_no_duplicate_edges(self, small_world):
        pairs = [(e.follower, e.friend) for e in small_world.following]
        assert len(pairs) == len(set(pairs))

    def test_tweet_assignments_in_profiles(self, small_world):
        for t in small_world.tweeting:
            if not t.is_noise:
                assert t.true_z in small_world.users[t.user].true_locations
            else:
                assert t.true_z is None


class TestCorpusShape:
    """The generated world matches the paper's corpus statistics."""

    @pytest.fixture(scope="class")
    def stats(self):
        return compute_stats(generate_world(SyntheticWorldConfig(n_users=800, seed=5)))

    def test_mean_friends_near_config(self, stats):
        assert 8.0 < stats.mean_friends < 12.0

    def test_mean_venues_near_config(self, stats):
        assert 11.0 < stats.mean_venues < 17.0

    def test_labeled_fraction_near_config(self, stats):
        assert 0.74 < stats.labeled_fraction < 0.86

    def test_noise_fractions_near_config(self, stats):
        # Nominal 0.12, but retries after duplicate/self edges re-roll
        # the mixture choice, inflating the realized rate slightly.
        assert 0.08 < stats.noise_following_fraction < 0.22
        assert 0.15 < stats.noise_tweeting_fraction < 0.26

    def test_multi_location_fraction(self, stats):
        assert 0.40 < stats.multi_location_fraction < 0.60

    def test_candidacy_coverage_is_high(self, stats):
        # The paper reports ~92%; the synthetic world must be in the
        # same regime for candidacy vectors to make sense.
        assert stats.candidacy_coverage > 0.65


class TestDistanceDecay:
    def test_location_edges_are_mostly_local(self, small_world):
        """Non-noise edges should be far more local than noise edges."""
        gaz = small_world.gazetteer
        loc_d, noise_d = [], []
        for e in small_world.following:
            follower_home = small_world.users[e.follower].true_home
            friend_home = small_world.users[e.friend].true_home
            d = gaz.distance(follower_home, friend_home)
            (noise_d if e.is_noise else loc_d).append(d)
        assert np.median(loc_d) < np.median(noise_d)


class TestTweetRendering:
    def test_tweets_rendered_when_enabled(self):
        ds = generate_world(
            SyntheticWorldConfig(n_users=30, seed=2, render_tweets=True)
        )
        assert len(ds.tweets) == ds.n_tweeting
        assert all(t.text for t in ds.tweets)

    def test_rendered_tweets_mention_their_venue(self):
        from repro.text.venues import VenueExtractor

        ds = generate_world(
            SyntheticWorldConfig(n_users=30, seed=2, render_tweets=True)
        )
        extractor = VenueExtractor(ds.gazetteer)
        hits = 0
        for tweet, edge in zip(ds.tweets[:50], ds.tweeting[:50]):
            mentioned = extractor.extract_venue_ids(tweet.text)
            if edge.venue_id in mentioned:
                hits += 1
        # Template filler can collide with venue tokens, but the named
        # venue must be recovered in the overwhelming majority.
        assert hits >= 45

    def test_no_tweets_by_default(self, small_world):
        assert small_world.tweets == ()


class TestCustomGazetteer:
    def test_generate_on_synthetic_gazetteer(self):
        from repro.geo.us_cities import synthetic_gazetteer

        gaz = synthetic_gazetteer(40, seed=0)
        ds = generate_world(SyntheticWorldConfig(n_users=50, seed=1), gazetteer=gaz)
        assert ds.n_users == 50
        assert len(ds.gazetteer) == 40


class TestShardedGenerator:
    """The array-native sharded path: determinism, shape, compile-once."""

    @pytest.fixture(scope="class")
    def sharded(self):
        return generate_world(
            SyntheticWorldConfig(n_users=400, seed=21), shards=4
        )

    def test_deterministic_given_seed_and_shards(self, sharded):
        again = generate_world(
            SyntheticWorldConfig(n_users=400, seed=21), shards=4
        )
        assert [u for u in again.users] == [u for u in sharded.users]
        assert again.following == sharded.following
        assert again.tweeting == sharded.tweeting

    def test_shard_count_changes_stream(self, sharded):
        other = generate_world(
            SyntheticWorldConfig(n_users=400, seed=21), shards=2
        )
        assert other.following != sharded.following

    def test_ground_truth_preserved(self, sharded):
        assert sharded.has_ground_truth
        for user in sharded.users:
            assert user.true_home == user.true_locations[0]
            weights = np.array(user.true_profile_weights)
            assert weights[0] == weights.max()
            assert abs(weights.sum() - 1.0) < 1e-9
            if user.is_labeled:
                assert user.registered_location == user.true_home

    def test_noise_edges_carry_no_assignments(self, sharded):
        for edge in sharded.following:
            if edge.is_noise:
                assert edge.true_x is None and edge.true_y is None
            else:
                assert edge.true_x in sharded.users[edge.follower].true_locations

    def test_no_self_follows_or_duplicates(self, sharded):
        pairs = [(e.follower, e.friend) for e in sharded.following]
        assert len(pairs) == len(set(pairs))
        assert all(f != g for f, g in pairs)

    def test_statistical_shape(self):
        ds = generate_world(
            SyntheticWorldConfig(n_users=1500, seed=3), shards=8
        )
        stats = compute_stats(ds)
        # Dropped duplicates shave the configured mean; the shape holds.
        assert 6.0 <= stats.mean_friends <= 11.0
        assert 11.0 <= stats.mean_venues <= 17.0
        assert 0.7 <= stats.labeled_fraction <= 0.9
        assert 0.08 <= stats.noise_following_fraction <= 0.18
        assert 0.15 <= stats.noise_tweeting_fraction <= 0.26
        assert stats.candidacy_coverage >= 0.85

    def test_compiled_world_registered(self, sharded):
        from repro.data import columnar

        before = columnar.compile_count()
        world = columnar.compile_world(sharded)
        assert columnar.compile_count() == before  # pre-registered
        assert world.n_users == sharded.n_users

    def test_columnar_only_path_matches_dataset_path(self):
        from repro.data.columnar import compile_world
        from repro.data.generator import generate_columnar_world

        cfg = SyntheticWorldConfig(n_users=150, seed=9)
        via_dataset = compile_world(generate_world(cfg, shards=3))
        bare = generate_columnar_world(cfg, shards=3)
        assert bare.content_hash == via_dataset.content_hash

    def test_render_tweets(self):
        ds = generate_world(
            SyntheticWorldConfig(n_users=60, seed=4, render_tweets=True),
            shards=2,
        )
        assert len(ds.tweets) == ds.n_tweeting


#: Sharded-generator configurations checked against the per-draw oracle
#: (``tests/reference_generator.py``): ``(config, shards)``.
ORACLE_CASES = {
    "paper_900": (SyntheticWorldConfig(n_users=900, seed=3), 4),
    "sparse_3k": (
        SyntheticWorldConfig(
            n_users=3000, seed=1, mean_friends=3.0, mean_venues=4.0
        ),
        4,
    ),
    "no_noise": (
        SyntheticWorldConfig(
            n_users=200, seed=5, noise_following=0.0, noise_tweeting=0.0
        ),
        3,
    ),
    # The largest allowed noise weight (validation rejects 1.0): every
    # relationship takes the noise branch.
    "all_noise": (
        SyntheticWorldConfig(
            n_users=200,
            seed=5,
            noise_following=float(np.nextafter(1.0, 0.0)),
            noise_tweeting=float(np.nextafter(1.0, 0.0)),
        ),
        3,
    ),
    "empty_shards": (SyntheticWorldConfig(n_users=5, seed=2), 8),
    # Every distance kernel underflows to zero, so each y draw lands on
    # the last location, which no user of this world lives at: every
    # location edge takes the drop branch.
    "no_residents": (
        SyntheticWorldConfig(
            n_users=4, seed=6, alpha=-2000.0, min_distance_miles=2.0
        ),
        2,
    ),
    "render_tweets": (
        SyntheticWorldConfig(n_users=120, seed=4, render_tweets=True),
        2,
    ),
}


class TestShardedMatchesReference:
    """Block-drawn uniforms + Python CDF lookups == per-draw numpy calls."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_arrays_match_reference(self, case, gazetteer):
        from reference_generator import (
            reference_columnar_world,
            reference_sharded_arrays,
        )

        from repro.data.generator import _sharded_arrays, generate_columnar_world

        config, shards = ORACLE_CASES[case]
        builder, following, tweeting = _sharded_arrays(config, gazetteer, shards)
        _, ref_following, ref_tweeting = reference_sharded_arrays(
            config, gazetteer, shards
        )
        for got, want in zip(following + tweeting, ref_following + ref_tweeting):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

        world = generate_columnar_world(config, gazetteer, shards=shards)
        ref_world = reference_columnar_world(config, gazetteer, shards)
        arrays, ref_arrays = world.to_arrays(), ref_world.to_arrays()
        assert arrays.keys() == ref_arrays.keys()
        for key in arrays:
            assert np.array_equal(arrays[key], ref_arrays[key]), key

        dataset = generate_world(config, gazetteer, shards=shards)
        assert [e.friend for e in dataset.following] == following[1].tolist()
        assert [e.venue_id for e in dataset.tweeting] == tweeting[1].tolist()
        assert len(dataset.tweets) == (
            len(dataset.tweeting) if config.render_tweets else 0
        )
        if case == "no_residents":
            assert builder.res_indptr[-1] == builder.res_indptr[-2]
            assert following[4].size and following[4].all()  # noise only
        if case == "empty_shards":
            assert any(lo == hi for lo, hi in builder.shard_bounds)

    def test_uniform_stream_is_the_scalar_stream(self):
        """Values cross block boundaries unchanged; one block at a time."""
        from repro.data.generator import _UNIFORM_BLOCK, _uniform_stream

        n = _UNIFORM_BLOCK + 3
        stream = _uniform_stream(np.random.default_rng(11))
        scalar = np.random.default_rng(11)
        assert [stream() for _ in range(n)] == [
            scalar.random() for _ in range(n)
        ]
        # The stream has drawn exactly two blocks from its generator.
        rng = np.random.default_rng(11)
        stream = _uniform_stream(rng)
        for _ in range(n):
            stream()
        after = np.random.default_rng(11)
        after.random(2 * _UNIFORM_BLOCK)
        assert rng.random() == after.random()
