"""Fold-in engine tests: exactness, masking, dedupe, the lot.

The headline contract is **exactness**: for every spec, the vectorized
engine must produce *exactly* the floats the one-user-at-a-time
reference (``tests/reference_foldin.py``) produces -- same candidates,
same gamma, same phi, same theta, same iteration count, same
convergence flag -- regardless of batch composition, chunk boundaries,
or which other users converge first.
"""

import numpy as np
import pytest
from reference_foldin import assert_solutions_identical, reference_solve

from repro.core.model import MLPModel
from repro.core.params import MLPParams
from repro.data.generator import SyntheticWorldConfig, generate_world
from repro.serving.batch import (
    UNCONVERGED_TOTAL,
    BatchFoldInEngine,
    score_population,
)
from repro.serving.foldin import FoldInPredictor, UserSpec


@pytest.fixture(scope="module")
def world():
    return generate_world(SyntheticWorldConfig(n_users=120, seed=5))


@pytest.fixture(scope="module")
def result(world):
    params = MLPParams(n_iterations=16, burn_in=6, seed=0, engine="vectorized")
    return MLPModel(params).fit(world)


@pytest.fixture(scope="module")
def predictor(result):
    return FoldInPredictor(result, artifact_id="batch-test")


@pytest.fixture(scope="module")
def engine(predictor):
    return BatchFoldInEngine(predictor)


def assert_batch_matches_sequential(predictor, engine, specs):
    """The engine's batch solve equals the per-user reference, spec by
    spec."""
    solutions = engine.solve(specs)
    assert len(solutions) == len(specs)
    for spec, batch_solution in zip(specs, solutions):
        assert_solutions_identical(
            reference_solve(predictor, spec), batch_solution
        )


def assert_budget_run_matches_reference(result, world, budget):
    """Under an iteration budget of ``budget``, some users run out of
    budget and the engine still equals the reference, user by user."""
    short = FoldInPredictor(
        result, artifact_id="short", max_iterations=budget
    )
    specs = [
        short.spec_for_training_user(uid) for uid in range(world.n_users)
    ]
    solutions = BatchFoldInEngine(short, chunk_size=50).solve(specs)
    assert any(not s.converged for s in solutions)
    assert all(s.iterations <= budget for s in solutions)
    for spec, batch_solution in zip(specs, solutions):
        assert_solutions_identical(
            reference_solve(short, spec), batch_solution
        )


class TestBitIdentity:
    def test_every_training_user(self, predictor, engine, world):
        """Golden: the whole training population, user by user."""
        specs = [
            predictor.spec_for_training_user(uid)
            for uid in range(world.n_users)
        ]
        assert_batch_matches_sequential(predictor, engine, specs)

    def test_chunk_boundaries_do_not_change_results(self, predictor, world):
        specs = [
            predictor.spec_for_training_user(uid)
            for uid in range(world.n_users)
        ]
        small_chunks = BatchFoldInEngine(predictor, chunk_size=7).solve(specs)
        one_chunk = BatchFoldInEngine(
            predictor, chunk_size=len(specs)
        ).solve(specs)
        for spec, a, b in zip(specs, small_chunks, one_chunk):
            assert_solutions_identical(a, b)
            assert_solutions_identical(reference_solve(predictor, spec), a)

    def test_batch_composition_does_not_change_results(
        self, predictor, engine
    ):
        """A user solved alone equals the same user solved among many."""
        target = predictor.spec_for_training_user(11)
        alone = engine.solve([target])[0]
        crowd = [predictor.spec_for_training_user(u) for u in range(40)]
        among = engine.solve(crowd + [target])[-1]
        assert_solutions_identical(alone, among)

    def test_spec_alone_equals_spec_in_mixed_batch(self, predictor, world):
        """Every spec of a mixed window -- replayed users, explicit
        evidence, no evidence, an observed home, repeated venues --
        solves to the same bits alone as inside the window, whatever
        its position and whoever converges first."""
        labeled = list(world.labeled_user_ids[:3])
        unlabeled = [
            u for u in range(world.n_users)
            if u not in world.observed_locations
        ]
        window = [
            predictor.spec_for_training_user(unlabeled[0]),
            UserSpec(friends=tuple(labeled[:2]), venues=(0, 3)),
            UserSpec(),
            UserSpec(friends=(unlabeled[1], unlabeled[2])),
            predictor.spec_for_training_user(labeled[2]),
            UserSpec(observed_location=5, venues=(1, 1, 2)),
            predictor.spec_for_training_user(unlabeled[3]),
        ]
        engine = BatchFoldInEngine(predictor)
        for order in (window, window[::-1]):
            mixed = engine.solve(order)
            for spec, solution in zip(order, mixed):
                alone = engine.solve([spec])[0]
                assert_solutions_identical(alone, solution)
                assert_solutions_identical(
                    reference_solve(predictor, spec), solution
                )

    def test_non_converged_users_match(self, result, world):
        """A tiny iteration budget exercises the ran-out-of-budget path."""
        assert_budget_run_matches_reference(result, world, budget=3)

    def test_zero_iteration_budget_matches(self, result, world):
        """With no iterations at all every user leaves unconverged."""
        assert_budget_run_matches_reference(result, world, budget=0)

    @pytest.mark.parametrize(
        "ablation",
        [
            {"use_following": False},
            {"use_tweeting": False},
            {"use_candidacy": False},
        ],
    )
    def test_ablations_match(self, world, ablation):
        params = MLPParams(
            n_iterations=10, burn_in=4, seed=0, engine="vectorized", **ablation
        )
        result = MLPModel(params).fit(world)
        predictor = FoldInPredictor(result, artifact_id="ablate")
        engine = BatchFoldInEngine(predictor)
        specs = [
            predictor.spec_for_training_user(uid) for uid in range(0, 60)
        ]
        assert_batch_matches_sequential(predictor, engine, specs)


class TestEdgeCases:
    def test_empty_batch(self, predictor, engine):
        assert engine.solve([]) == []
        assert predictor.predict_batch([]) == []

    def test_spec_with_zero_signals(self, predictor, engine):
        """No evidence at all: the uniform-prior fallback, bit for bit."""
        spec = UserSpec()
        assert_batch_matches_sequential(predictor, engine, [spec])
        solution = engine.solve([spec])[0]
        assert solution.iterations == 0
        assert solution.converged
        assert solution.candidates.size == predictor.n_locations

    def test_spec_with_empty_candidate_set(self, predictor, engine, world):
        """Relationships but no candidacy evidence (unlabeled friends
        only): falls back to the full gazetteer with real iteration."""
        unlabeled = [
            u for u in range(world.n_users)
            if u not in world.observed_locations
        ]
        spec = UserSpec(friends=(unlabeled[0], unlabeled[1]))
        solution = engine.solve([spec])[0]
        assert solution.candidates.size == predictor.n_locations
        assert solution.iterations > 0
        assert_batch_matches_sequential(predictor, engine, [spec])

    def test_mixed_labeled_and_unseen_batch(self, predictor, engine, world):
        labeled = list(world.labeled_user_ids[:4])
        specs = [
            predictor.spec_for_training_user(labeled[0]),
            UserSpec(friends=tuple(labeled[:2]), venues=(0,)),
            UserSpec(),
            predictor.spec_for_training_user(labeled[3]),
            UserSpec(observed_location=5),
            UserSpec(venues=(1, 1, 2)),
        ]
        assert_batch_matches_sequential(predictor, engine, specs)

    def test_validation_matches_sequential_messages(self, predictor, engine):
        """A request spec is rejected at ``resolve_request`` with the
        same message a direct ``engine.solve`` caller gets."""
        for payload, spec, message in (
            ({"friends": [10_000]}, UserSpec(friends=(10_000,)),
             "neighbour user id 10000"),
            ({"followers": [-1]}, UserSpec(followers=(-1,)),
             "neighbour user id -1"),
            ({"venues": [10_000_000]}, UserSpec(venues=(10_000_000,)),
             "venue id 10000000"),
            ({"observed_location": -5}, UserSpec(observed_location=-5),
             "observed location -5"),
            # Beyond int64: still a ValueError (a 400), never an
            # OverflowError out of the id arrays.
            ({"friends": [3, 10**20]}, UserSpec(friends=(3, 10**20)),
             f"neighbour user id {10**20}"),
        ):
            with pytest.raises(ValueError, match=message):
                predictor.resolve_request(payload)
            with pytest.raises(ValueError, match=message):
                engine.solve([UserSpec(), spec])

    def test_rejects_nonpositive_chunk_size(self, predictor):
        with pytest.raises(ValueError, match="chunk_size"):
            BatchFoldInEngine(predictor, chunk_size=0)


class TestPredictBatchDelegation:
    def test_predict_is_a_batch_of_one(self, result):
        """``predict`` solves through the engine and answers exactly what
        ``predict_batch`` does."""
        predictor = FoldInPredictor(result, artifact_id="one")
        spec = predictor.spec_for_training_user(9)
        before = predictor.solve_count
        one = predictor.predict(spec, use_cache=False)
        assert predictor.solve_count == before + 1
        (batched,) = predictor.predict_batch([spec], use_cache=False)
        assert one == batched
        assert one.profile.entries == predictor._render(
            reference_solve(predictor, spec)
        ).profile.entries
        cached = predictor.predict(spec)
        assert not cached.from_cache
        assert predictor.predict(spec).from_cache

    def test_duplicates_solved_once_without_cache(self, result, world):
        """A batch of k identical specs costs exactly one solve."""
        predictor = FoldInPredictor(result, artifact_id="dedupe")
        spec = predictor.spec_for_training_user(3)
        before = predictor.solve_count
        predictions = predictor.predict_batch([spec] * 7, use_cache=False)
        assert predictor.solve_count == before + 1
        assert len(predictions) == 7
        assert len(predictor.cache) == 0
        first = predictions[0]
        assert all(p.profile == first.profile for p in predictions)
        assert not any(p.from_cache for p in predictions)

    def test_duplicates_with_cache_report_cache_hits(self, result):
        """With the cache on, later duplicates behave exactly like
        one-at-a-time ``predict`` calls: first solves, the rest are
        cache hits."""
        predictor = FoldInPredictor(result, artifact_id="dedupe-cache")
        spec = predictor.spec_for_training_user(7)
        first, second, third = predictor.predict_batch([spec] * 3)
        assert not first.from_cache
        assert second.from_cache and third.from_cache

    def test_mixed_cached_and_fresh(self, result):
        predictor = FoldInPredictor(result, artifact_id="mixed")
        warm = [predictor.spec_for_training_user(u) for u in range(3)]
        predictor.predict_batch(warm)
        cold = [predictor.spec_for_training_user(u) for u in range(3, 6)]
        predictions = predictor.predict_batch(warm + cold)
        assert [p.from_cache for p in predictions] == [True] * 3 + [False] * 3


class TestScorePopulation:
    def test_scores_exactly_the_unlabeled_users(self, world, result):
        predictions = score_population(world, result)
        unlabeled = {
            u for u in range(world.n_users)
            if u not in world.observed_locations
        }
        assert set(predictions) == unlabeled
        assert all(p.home is not None for p in predictions.values())

    def test_matches_per_user_prediction(self, world, result, predictor):
        predictions = score_population(world, result, predictor=predictor)
        some = sorted(predictions)[:5]
        for uid in some:
            expected = predictor.predict(
                predictor.spec_for_training_user(uid), use_cache=False
            )
            assert predictions[uid].profile == expected.profile

    def test_rejects_mismatched_world(self, result):
        other = generate_world(SyntheticWorldConfig(n_users=30, seed=8))
        with pytest.raises(ValueError, match="30 users"):
            score_population(other, result)

    def test_rejects_same_size_different_world(self, world, result):
        """Same user count, different edges: the specs would replay the
        training world's evidence, so this must error, not mis-score."""
        other = generate_world(
            SyntheticWorldConfig(n_users=world.n_users, seed=99)
        )
        with pytest.raises(ValueError, match="content does not match"):
            score_population(other, result)


class TestKernelRowCache:
    def test_cache_is_bounded(self, result):
        predictor = FoldInPredictor(result, artifact_id="bounded")
        predictor._kernel_cache_limit = 5
        engine = BatchFoldInEngine(predictor)
        specs = [predictor.spec_for_training_user(u) for u in range(40)]
        solutions = engine.solve(specs)
        assert len(predictor._kernel_rows) <= 5
        # Overflowing the cache must not change results.
        for spec, batch_solution in zip(specs[:10], solutions[:10]):
            assert_solutions_identical(
                reference_solve(predictor, spec), batch_solution
            )


class TestSolveMetrics:
    def test_unconverged_answers_are_counted(self, result, world):
        """One count per solution that stopped at ``max_iterations``."""
        short = FoldInPredictor(result, artifact_id="cap", max_iterations=1)
        specs = [short.spec_for_training_user(u) for u in range(30)]
        before = UNCONVERGED_TOTAL.value
        solutions = BatchFoldInEngine(short, chunk_size=8).solve(specs)
        unconverged = sum(not s.converged for s in solutions)
        assert unconverged > 0
        assert UNCONVERGED_TOTAL.value - before == unconverged
        before = UNCONVERGED_TOTAL.value
        FoldInPredictor(result, artifact_id="uncapped").engine.solve(specs)
        assert UNCONVERGED_TOTAL.value == before
