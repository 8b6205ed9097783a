"""Live serving refresh: streamed deltas vs from-scratch recompile.

The serving half of the streaming-ingest golden contract: a predictor
refreshed with N interleaved :class:`WorldDelta` batches must produce
**bit-identical** fold-in output (phi / theta / iterations / converged)
to a predictor built over a from-scratch recompile of the same final
dataset -- across ablations and interleavings -- and to the per-user
reference solve (``tests/reference_foldin.py``) over the refreshed
world.  Plus the surgical cache-invalidation policy that makes refresh
cheap.
"""

import numpy as np
import pytest
from reference_foldin import assert_solutions_identical, reference_solve

from repro.core.model import MLPModel
from repro.core.params import MLPParams
from repro.data.columnar import ColumnarWorld
from repro.data.delta import WorldDelta
from repro.data.generator import SyntheticWorldConfig, generate_world
from repro.serving.batch import BatchFoldInEngine, score_population
from repro.serving.foldin import KERNEL_ROWS, FoldInPredictor, UserSpec


@pytest.fixture(scope="module")
def world():
    return generate_world(SyntheticWorldConfig(n_users=110, seed=17))


@pytest.fixture(scope="module")
def result(world):
    params = MLPParams(n_iterations=14, burn_in=6, seed=0, engine="vectorized")
    return MLPModel(params).fit(world)


def stream_deltas(predictor, seed=42, rounds=3):
    """Apply a deterministic mixed-delta stream; returns the deltas."""
    rng = np.random.default_rng(seed)
    deltas = []
    for _ in range(rounds):
        n = predictor.world.n_users
        total = n + 4
        delta = WorldDelta(
            new_users=[
                int(rng.integers(predictor.n_locations))
                if rng.random() < 0.7
                else None
                for _ in range(4)
            ],
            edges=[
                (int(s), int(d))
                for s, d in zip(
                    rng.integers(0, total, 10), rng.integers(0, total, 10)
                )
                if s != d
            ],
            tweets=[
                (int(rng.integers(total)), int(rng.integers(predictor.n_venues)))
                for _ in range(8)
            ],
            labels={int(rng.integers(110)): int(rng.integers(predictor.n_locations))},
        )
        deltas.append(delta)
        predictor.refresh(delta)
    return deltas


def recompiled_twin(result, refreshed_world):
    """A fresh predictor over a from-scratch recompile of the final world."""
    scratch = ColumnarWorld.from_edge_arrays(
        refreshed_world.gazetteer,
        observed_location=refreshed_world.observed_location.copy(),
        edge_src=refreshed_world.edge_src.copy(),
        edge_dst=refreshed_world.edge_dst.copy(),
        tweet_user=refreshed_world.tweet_user.copy(),
        tweet_venue=refreshed_world.tweet_venue.copy(),
    )
    assert scratch.rehash() == refreshed_world.rehash()
    return FoldInPredictor(result, artifact_id="twin", world=scratch)


class TestGoldenRefresh:
    def test_interleaved_refreshes_match_recompile(self, result):
        """Acceptance: fold-in after N interleaved applies == recompile."""
        predictor = FoldInPredictor(result, artifact_id="live")
        stream_deltas(predictor)
        assert predictor.world.generation == 3
        twin = recompiled_twin(result, predictor.world)
        specs = [
            predictor.spec_for_training_user(uid)
            for uid in range(predictor.world.n_users)
        ]
        specs.append(UserSpec(friends=(3, predictor.world.n_users - 1)))
        for a, b in zip(predictor.engine.solve(specs), twin.engine.solve(specs)):
            assert_solutions_identical(a, b)

    def test_batch_path_matches_after_refresh(self, result):
        predictor = FoldInPredictor(result, artifact_id="live-batch")
        stream_deltas(predictor)
        specs = [
            predictor.spec_for_training_user(uid)
            for uid in range(0, predictor.world.n_users, 2)
        ]
        sequential = [reference_solve(predictor, spec) for spec in specs]
        batched = predictor.engine.solve(specs)
        for a, b in zip(sequential, batched):
            assert_solutions_identical(a, b)

    @pytest.mark.parametrize(
        "ablation",
        [
            {"use_tweeting": False},
            {"use_following": False},
            {"use_candidacy": False},
        ],
    )
    def test_refresh_matches_recompile_under_ablations(self, world, ablation):
        params = MLPParams(
            n_iterations=8, burn_in=3, seed=1, engine="vectorized", **ablation
        )
        result = MLPModel(params).fit(world)
        predictor = FoldInPredictor(result, artifact_id="abl")
        stream_deltas(predictor, rounds=2)
        twin = recompiled_twin(result, predictor.world)
        specs = [
            predictor.spec_for_training_user(uid)
            for uid in range(0, predictor.world.n_users, 3)
        ]
        live = predictor.engine.solve(specs)
        for spec, a, b in zip(specs, live, twin.engine.solve(specs)):
            assert_solutions_identical(a, b)
            assert_solutions_identical(reference_solve(predictor, spec), a)

    def test_frozen_tables_survive_refresh(self, result):
        """Ingest must not reweight the frozen posterior's noise models."""
        predictor = FoldInPredictor(result, artifact_id="frozen")
        fr, tr = predictor._fr_noise, predictor._tr_probs
        stream_deltas(predictor, rounds=1)
        assert predictor._fr_noise == fr
        assert predictor._tr_probs is tr


class TestNewArrivals:
    def test_new_user_scores_through_training_neighbours(self, result):
        predictor = FoldInPredictor(result, artifact_id="arrivals")
        labeled = [
            uid
            for uid in range(predictor.world.n_users)
            if predictor.world.observed_location[uid] >= 0
        ][:2]
        n = predictor.world.n_users
        predictor.refresh(
            WorldDelta(new_users=[None], edges=[(n, labeled[0]), (n, labeled[1])])
        )
        spec = predictor.spec_for_training_user(n)
        prediction = predictor.predict(spec)
        observed = {
            int(predictor.world.observed_location[u]) for u in labeled
        }
        assert prediction.home in observed

    def test_new_user_as_neighbour_contributes_noise_only(self, result):
        """An ingested user has no frozen profile: K_j = 0, noise branch."""
        predictor = FoldInPredictor(result, artifact_id="noise-only")
        n = predictor.world.n_users
        predictor.refresh(WorldDelta(new_users=[5]))
        locs, probs = predictor._profile_of(n)
        assert locs.size == 0 and probs.size == 0
        assert not predictor._kernel_row(n).any()
        explanation = predictor.explain_edge(
            UserSpec(observed_location=2), neighbor=n
        )
        assert explanation.noise_probability == 1.0
        assert explanation.pairs == ()

    def test_world_may_only_grow(self, result):
        small = generate_world(SyntheticWorldConfig(n_users=20, seed=1))
        from repro.data.columnar import compile_world

        with pytest.raises(ValueError, match="only grow"):
            FoldInPredictor(result, world=compile_world(small))


def grow_with_arrivals(predictor, n_new=4):
    """Ingest ``n_new`` users wired to training users and to each other;
    returns the new users' ids (none has a frozen profile)."""
    n = predictor.world.n_users
    new = list(range(n, n + n_new))
    edges = [(u, u % 7) for u in new] + [(3, u) for u in new]
    edges += [(a, b) for a, b in zip(new, new[1:])]
    predictor.refresh(WorldDelta(new_users=[None] * n_new, edges=edges))
    return new


class TestPostFitNeighbours:
    """Neighbours ingested after the fit share one zero kernel row, never
    enter the kernel-row cache, and the engine reads zeros for their
    cells."""

    def test_post_fit_neighbours_are_never_cached(self, result):
        predictor = FoldInPredictor(result, artifact_id="uncached")
        rows_before = KERNEL_ROWS.value
        new = grow_with_arrivals(predictor)
        specs = [predictor.spec_for_training_user(u) for u in new]
        specs.append(UserSpec(friends=(new[0], 5), followers=(new[1],)))
        for spec in specs:
            predictor.predict(spec)
        BatchFoldInEngine(predictor).solve(specs)
        assert predictor._kernel_rows
        assert max(predictor._kernel_rows) < predictor._n_train
        assert KERNEL_ROWS.value - rows_before == len(predictor._kernel_rows)

    def test_post_fit_neighbours_share_one_read_only_row(self, result):
        predictor = FoldInPredictor(result, artifact_id="shared-zero")
        a, b = grow_with_arrivals(predictor, n_new=2)
        row = predictor._kernel_row(a)
        assert predictor._kernel_row(b) is row
        assert not row.any()
        with pytest.raises(ValueError):
            row[0] = 1.0

    def test_batch_matches_sequential_mixed_neighbours(self, result):
        predictor = FoldInPredictor(result, artifact_id="mixed")
        new = grow_with_arrivals(predictor)
        specs = [predictor.spec_for_training_user(u) for u in new]
        specs += [
            predictor.spec_for_training_user(u)
            for u in range(0, predictor._n_train, 9)
        ]
        specs.append(UserSpec(friends=(new[0], 2, new[3]), followers=(8,)))
        batched = BatchFoldInEngine(predictor).solve(specs)
        for spec, solution in zip(specs, batched):
            assert_solutions_identical(reference_solve(predictor, spec), solution)

    def test_batch_matches_sequential_all_post_fit_neighbours(self, result):
        """No following cell survives the trained-neighbour mask."""
        predictor = FoldInPredictor(result, artifact_id="all-post-fit")
        new = grow_with_arrivals(predictor)
        specs = [
            UserSpec(friends=(new[0], new[1])),
            UserSpec(followers=(new[2],), venues=(1, 4)),
            UserSpec(friends=(new[3],), observed_location=2),
        ]
        batched = BatchFoldInEngine(predictor).solve(specs)
        for spec, solution in zip(specs, batched):
            assert_solutions_identical(reference_solve(predictor, spec), solution)
        assert not predictor._kernel_rows


class TestSurgicalInvalidation:
    def test_relabel_invalidates_exactly_tagged_entries(self, result):
        predictor = FoldInPredictor(result, artifact_id="tags")
        touched_spec = UserSpec(friends=(7,))
        untouched_spec = UserSpec(friends=(8,), venues=(3,))
        predictor.predict(touched_spec)
        predictor.predict(untouched_spec)
        assert predictor.predict(touched_spec).from_cache
        assert predictor.predict(untouched_spec).from_cache
        predictor.refresh(WorldDelta(labels={7: 2}))
        assert not predictor.predict(touched_spec).from_cache
        assert predictor.predict(untouched_spec).from_cache
        assert predictor.cache.stats()["invalidations"] == 1

    def test_edge_only_delta_keeps_cache(self, result):
        predictor = FoldInPredictor(result, artifact_id="keep")
        spec = UserSpec(friends=(5,), venues=(1,))
        predictor.predict(spec)
        predictor.refresh(WorldDelta(edges=[(5, 9)], tweets=[(5, 2)]))
        assert predictor.predict(spec).from_cache

    def test_kernel_rows_survive_refresh(self, result):
        predictor = FoldInPredictor(result, artifact_id="kernels")
        row = predictor._kernel_row(4)
        predictor.refresh(WorldDelta(labels={4: 1}))
        assert predictor._kernel_row(4) is row


class TestIncrementalScoring:
    def test_since_generation_scores_only_affected(self, result):
        predictor = FoldInPredictor(result, artifact_id="incr")
        world = predictor.world
        unlabeled = np.flatnonzero(~world.labeled_mask)
        target = int(unlabeled[0])
        other_unlabeled = int(unlabeled[1])
        base_generation = world.generation
        new_world = predictor.refresh(WorldDelta(edges=[(target, 3)]))
        scored = score_population(
            new_world,
            result,
            predictor=predictor,
            since_generation=base_generation,
        )
        assert target in scored
        assert other_unlabeled not in scored
        # Labeled touched users are not population-scoring targets.
        assert all(new_world.observed_location[uid] < 0 for uid in scored)

    def test_since_current_generation_is_empty(self, result):
        predictor = FoldInPredictor(result, artifact_id="incr2")
        new_world = predictor.refresh(WorldDelta(edges=[(1, 2)]))
        scored = score_population(
            new_world,
            result,
            predictor=predictor,
            since_generation=new_world.generation,
        )
        assert scored == {}

    def test_full_population_still_scores_after_refresh(self, result):
        predictor = FoldInPredictor(result, artifact_id="incr3")
        new_world = predictor.refresh(WorldDelta(new_users=[None]))
        scored = score_population(new_world, result, predictor=predictor)
        unlabeled = np.flatnonzero(~new_world.labeled_mask)
        assert sorted(scored) == unlabeled.tolist()


class TestRefreshRaces:
    def test_stale_solve_result_is_not_cached(self, result):
        """A prediction solved against a refreshed-away world snapshot
        must be dropped at put time, or it would serve stale *after*
        the refresh's invalidation pass."""
        predictor = FoldInPredictor(result, artifact_id="race")
        spec = UserSpec(friends=(7,))
        stale_world = predictor.world
        stale_prediction = predictor._render(
            predictor.engine.solve([spec], stale_world)[0]
        )
        predictor.refresh(WorldDelta(labels={7: 2}))
        key = (predictor.artifact_id, spec.signature())
        predictor._cache_put(
            [(key, stale_prediction, predictor._spec_tags(spec))], stale_world
        )
        assert predictor.cache.get(key) is None
        # The same put against the live world lands normally.
        predictor._cache_put(
            [(key, stale_prediction, predictor._spec_tags(spec))],
            predictor.world,
        )
        assert predictor.cache.get(key) is not None

    def test_malformed_label_payload_is_value_error(self, result):
        predictor = FoldInPredictor(result, artifact_id="shape")
        with pytest.raises(ValueError, match="labels"):
            WorldDelta.from_payload(
                {"labels": [1, 2]}, gazetteer=predictor.world.gazetteer
            )
