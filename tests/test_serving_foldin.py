"""Fold-in predictor tests: frozen-posterior scoring of users."""

import numpy as np
import pytest

from repro.core.model import MLPModel
from repro.core.params import MLPParams
from repro.data.generator import SyntheticWorldConfig, generate_world
from repro.serving.foldin import FoldInPredictor, UserSpec


@pytest.fixture(scope="module")
def world():
    return generate_world(SyntheticWorldConfig(n_users=120, seed=5))


@pytest.fixture(scope="module")
def result(world):
    params = MLPParams(
        n_iterations=20, burn_in=8, seed=0, engine="vectorized"
    )
    return MLPModel(params).fit(world)


@pytest.fixture(scope="module")
def predictor(result):
    return FoldInPredictor(result, artifact_id="test-artifact")


class TestTrainingReproduction:
    def test_labeled_training_users_reproduce_home(self, predictor, result, world):
        """Acceptance: fold-in of a training user reproduces the fitted
        home prediction (exactly for every labeled user -- the boosted
        prior pins the posterior mode)."""
        for uid in world.labeled_user_ids:
            spec = predictor.spec_for_training_user(uid)
            assert predictor.predict(spec).home == result.predicted_home(uid)

    def test_overall_agreement_rate(self, predictor, result, world):
        """Unlabeled multimodal users may resolve to a different mode;
        the overall agreement rate stays high."""
        agree = sum(
            predictor.predict(predictor.spec_for_training_user(uid)).home
            == result.predicted_home(uid)
            for uid in range(world.n_users)
        )
        assert agree / world.n_users >= 0.9

    def test_profiles_are_normalized(self, predictor, world):
        for uid in range(0, world.n_users, 7):
            prediction = predictor.predict(
                predictor.spec_for_training_user(uid)
            )
            total = sum(p for _, p in prediction.profile.entries)
            assert abs(total - 1.0) < 1e-9


class TestUnseenUsers:
    def test_empty_spec_falls_back_to_prior(self, predictor):
        prediction = predictor.predict(UserSpec())
        assert prediction.converged
        assert prediction.iterations == 0
        assert prediction.home is not None
        # Flat prior over the full gazetteer: uniform probabilities.
        probs = {p for _, p in prediction.profile.entries}
        assert len(probs) == 1

    def test_observed_location_dominates_empty_evidence(self, predictor):
        prediction = predictor.predict(UserSpec(observed_location=3))
        assert prediction.home == 3

    def test_new_user_with_edges_gets_plausible_home(self, predictor, world):
        # Follow two labeled users; the fold-in home must be a
        # candidate observed from those relationships.
        labeled = list(world.labeled_user_ids[:2])
        spec = UserSpec(friends=tuple(labeled))
        prediction = predictor.predict(spec)
        observed = {world.observed_locations[u] for u in labeled}
        assert prediction.home in observed

    def test_venue_only_user(self, predictor, world):
        vid = world.tweeting[0].venue_id
        prediction = predictor.predict(UserSpec(venues=(vid, vid, vid)))
        referents = set()
        gaz = world.gazetteer
        name = gaz.venue_vocabulary[vid]
        referents = {loc.location_id for loc in gaz.lookup_name(name)}
        assert prediction.home in referents

    def test_deterministic(self, predictor, world):
        spec = UserSpec(friends=tuple(world.labeled_user_ids[:3]))
        a = predictor.predict(spec, use_cache=False)
        b = predictor.predict(spec, use_cache=False)
        assert a.profile == b.profile
        assert a.iterations == b.iterations

    def test_validation_rejects_unknown_ids(self, predictor):
        with pytest.raises(ValueError, match="neighbour"):
            predictor.predict(UserSpec(friends=(10_000,)))
        with pytest.raises(ValueError, match="venue"):
            predictor.predict(UserSpec(venues=(10_000_000,)))
        with pytest.raises(ValueError, match="location"):
            predictor.predict(UserSpec(observed_location=-5))


class TestCache:
    def test_second_call_served_from_cache(self, predictor, world):
        spec = UserSpec(friends=tuple(world.labeled_user_ids[3:6]))
        first = predictor.predict(spec)
        second = predictor.predict(spec)
        assert not first.from_cache
        assert second.from_cache
        assert second.profile == first.profile

    def test_signature_is_order_insensitive(self):
        a = UserSpec(friends=(1, 2, 3), venues=(5, 9))
        b = UserSpec(friends=(3, 1, 2), venues=(9, 5))
        assert a.signature() == b.signature()
        assert a.signature() != UserSpec(friends=(1, 2)).signature()

    def test_permuted_evidence_solves_bit_identically(self, predictor, world):
        """The cache keys a spec by its evidence multiset, so every
        ordering of that multiset must solve to the very same bits."""
        compared = 0
        for uid in range(world.n_users):
            spec = predictor.spec_for_training_user(uid)
            if spec.n_relationships < 2:
                continue
            twin = UserSpec(
                friends=spec.friends[::-1],
                followers=spec.followers[::-1],
                venues=spec.venues[::-1],
                observed_location=spec.observed_location,
            )
            a = predictor.predict(spec, use_cache=False)
            b = predictor.predict(twin, use_cache=False)
            assert a.profile.entries == b.profile.entries, uid
            compared += 1
        assert compared >= 100

    def test_use_cache_false_bypasses(self, result, world):
        predictor = FoldInPredictor(result, artifact_id="bypass")
        spec = UserSpec(friends=tuple(world.labeled_user_ids[:2]))
        predictor.predict(spec, use_cache=False)
        assert len(predictor.cache) == 0

    def test_batch_primes_cache(self, result, world):
        predictor = FoldInPredictor(result, artifact_id="batch")
        specs = [
            predictor.spec_for_training_user(uid)
            for uid in world.labeled_user_ids[:5]
        ]
        cold = predictor.predict_batch(specs)
        warm = predictor.predict_batch(specs)
        assert not any(p.from_cache for p in cold)
        assert all(p.from_cache for p in warm)

    def test_clear_cache_resets_stats(self, result, world):
        """The artifact-reload story: /healthz hit rates must describe
        the current generation, not every artifact ever served."""
        predictor = FoldInPredictor(result, artifact_id="reload")
        spec = predictor.spec_for_training_user(1)
        predictor.predict(spec)
        predictor.predict(spec)
        assert predictor.cache.stats()["hits"] == 1
        predictor.clear_cache()
        assert len(predictor.cache) == 0
        assert predictor.cache.stats() == {
            "hits": 0, "misses": 0, "invalidations": 0, "size": 0,
            "max_size": predictor.cache.max_size,
        }

    def test_clear_cache_can_keep_stats(self, result):
        predictor = FoldInPredictor(result, artifact_id="keep")
        spec = predictor.spec_for_training_user(2)
        predictor.predict(spec)
        predictor.predict(spec)
        predictor.clear_cache(reset_stats=False)
        assert len(predictor.cache) == 0
        assert predictor.cache.stats()["hits"] == 1


class TestResolveRequest:
    def test_user_id_replays_training_user(self, predictor):
        spec = predictor.resolve_request({"user_id": 7})
        assert spec == predictor.spec_for_training_user(7)

    def test_explicit_spec(self, predictor):
        spec = predictor.resolve_request(
            {"friends": [1, 2], "venues": [0], "observed_location": 4}
        )
        assert spec.friends == (1, 2)
        assert spec.venues == (0,)
        assert spec.observed_location == 4

    def test_venue_names_resolved(self, predictor, world):
        name = world.gazetteer.venue_vocabulary[0]
        spec = predictor.resolve_request({"venue_names": [name]})
        assert spec.venues == (0,)

    def test_unknown_venue_name_rejected(self, predictor):
        with pytest.raises(ValueError, match="venue name"):
            predictor.resolve_request({"venue_names": ["atlantis"]})

    def test_user_id_with_evidence_rejected(self, predictor):
        """Extra evidence alongside user_id must error, not be dropped."""
        with pytest.raises(ValueError, match="cannot be combined"):
            predictor.resolve_request(
                {"user_id": 7, "venue_names": ["austin"]}
            )
        with pytest.raises(ValueError, match="friends"):
            predictor.resolve_request({"user_id": 7, "friends": [1]})

    def test_non_object_rejected(self, predictor):
        with pytest.raises(ValueError, match="JSON object"):
            predictor.resolve_request([1, 2])


class TestExplainEdge:
    def test_pairs_are_normalized_and_sorted(self, predictor, world):
        edge = world.following[0]
        spec = predictor.spec_for_training_user(edge.follower)
        explanation = predictor.explain_edge(
            spec, neighbor=edge.friend, direction="out", top=100_000
        )
        probs = [p.probability for p in explanation.pairs]
        assert abs(sum(probs) - 1.0) < 1e-9
        assert probs == sorted(probs, reverse=True)
        assert 0.0 <= explanation.noise_probability <= 1.0

    def test_direction_swaps_sides(self, predictor, world):
        edge = world.following[0]
        spec = predictor.spec_for_training_user(edge.follower)
        out = predictor.explain_edge(spec, neighbor=edge.friend, direction="out")
        rev = predictor.explain_edge(spec, neighbor=edge.friend, direction="in")
        assert out.pairs[0].x == rev.pairs[0].y
        assert out.pairs[0].y == rev.pairs[0].x

    def test_rejects_bad_direction(self, predictor):
        with pytest.raises(ValueError, match="direction"):
            predictor.explain_edge(UserSpec(), neighbor=0, direction="sideways")


class TestConstruction:
    def test_requires_frozen_venue_table(self, result):
        import dataclasses

        stripped = dataclasses.replace(result, venue_counts=None)
        with pytest.raises(ValueError, match="venue"):
            FoldInPredictor(stripped)

    def test_candidates_match_training_priors(self, predictor, result, world):
        """The fold-in prior of a training user equals the training prior."""
        from repro.core.priors import build_user_priors

        priors = build_user_priors(world, result.params)
        uids = range(0, world.n_users, 11)
        solutions = predictor.engine.solve(
            [predictor.spec_for_training_user(uid) for uid in uids]
        )
        for uid, solution in zip(uids, solutions):
            assert np.array_equal(solution.candidates, priors.candidates[uid])
            assert np.array_equal(solution.gamma, priors.gamma[uid])
