"""Tests for the Gibbs sampler: invariants, determinism, behaviour."""

import numpy as np
import pytest
from reference_setup import edgeless_world, irregular_world, reference_initialize

from repro.core.gibbs import NO_ASSIGNMENT, GibbsSampler, _draw_index
from repro.core.params import MLPParams


@pytest.fixture(scope="module")
def sampler_after_sweeps(small_world):
    params = MLPParams(n_iterations=4, burn_in=1, seed=7)
    sampler = GibbsSampler(small_world, params)
    sampler.initialize()
    for _ in range(3):
        sampler.sweep()
    return sampler


def check_count_consistency(sampler):
    """phi must equal the histogram of current non-noise assignments."""
    expected = np.zeros_like(sampler.state.user_counts.phi)
    followers = sampler._followers
    friends = sampler._friends
    for s in range(len(followers)):
        if sampler.state.mu[s] == 0:
            expected[followers[s], sampler.state.x[s]] += 1
            expected[friends[s], sampler.state.y[s]] += 1
    for k in range(len(sampler._tw_users)):
        if sampler.state.nu[k] == 0:
            expected[sampler._tw_users[k], sampler.state.z[k]] += 1
    assert np.array_equal(expected, sampler.state.user_counts.phi)
    assert np.array_equal(
        expected.sum(axis=1), sampler.state.user_counts.totals
    )


class TestDrawIndex:
    def test_point_mass(self, rng):
        w = np.array([0.0, 2.5, 0.0])
        assert _draw_index(rng, w) == 1

    def test_degenerate_raises(self, rng):
        with pytest.raises(RuntimeError):
            _draw_index(rng, np.zeros(3))
        with pytest.raises(RuntimeError):
            _draw_index(rng, np.array([np.inf, 1.0]))


class TestInvariants:
    def test_counts_match_assignments_after_init(self, small_world):
        params = MLPParams(n_iterations=2, burn_in=0, seed=1)
        sampler = GibbsSampler(small_world, params)
        sampler.initialize()
        check_count_consistency(sampler)

    @pytest.mark.parametrize("engine", ["loop", "vectorized", "partitioned"])
    def test_second_initialize_restarts_counts(self, small_world, engine):
        """A repeated ``initialize`` rebuilds the counts from the new
        assignments instead of adding onto the old ones -- in place, so
        the engines' views of the count arrays keep working."""
        from repro.engine import PartitionedGibbsSampler, VectorizedGibbsSampler

        cls = {
            "loop": GibbsSampler,
            "vectorized": VectorizedGibbsSampler,
            "partitioned": PartitionedGibbsSampler,
        }[engine]
        sampler = cls(small_world, MLPParams(n_iterations=2, burn_in=0, seed=4))
        try:
            for _ in range(2):
                sampler.initialize()
                live = 2 * int((sampler.state.mu == 0).sum()) + int(
                    (sampler.state.nu == 0).sum()
                )
                assert sampler.state.user_counts.totals.sum() == live
                check_count_consistency(sampler)
                venues = np.zeros_like(sampler.tweeting_model.counts_copy())
                for k in np.flatnonzero(sampler.state.nu == 0):
                    venues[sampler.state.z[k], sampler._tw_venues[k]] += 1
                assert np.array_equal(venues, sampler.tweeting_model.counts_copy())
                assert np.array_equal(
                    venues.sum(axis=1), sampler.tweeting_model._totals
                )
                sampler.sweep()
                check_count_consistency(sampler)
        finally:
            getattr(sampler, "close", lambda: None)()

    def test_counts_match_assignments_after_sweeps(self, sampler_after_sweeps):
        check_count_consistency(sampler_after_sweeps)

    def test_assignments_within_candidates(self, sampler_after_sweeps):
        sampler = sampler_after_sweeps
        priors = sampler.priors
        for s in range(len(sampler._followers)):
            if sampler.state.mu[s] == 0:
                i = sampler._followers[s]
                j = sampler._friends[s]
                assert sampler.state.x[s] in priors.candidates[i]
                assert sampler.state.y[s] in priors.candidates[j]
            else:
                assert sampler.state.x[s] == NO_ASSIGNMENT
                assert sampler.state.y[s] == NO_ASSIGNMENT

    def test_tweeting_assignments_within_candidates(self, sampler_after_sweeps):
        sampler = sampler_after_sweeps
        priors = sampler.priors
        for k in range(len(sampler._tw_users)):
            if sampler.state.nu[k] == 0:
                assert sampler.state.z[k] in priors.candidates[sampler._tw_users[k]]
            else:
                assert sampler.state.z[k] == NO_ASSIGNMENT

    def test_venue_counts_nonnegative(self, sampler_after_sweeps):
        counts = sampler_after_sweeps.tweeting_model.counts_copy()
        assert np.all(counts >= 0)

    def test_sweep_requires_initialize(self, small_world):
        sampler = GibbsSampler(small_world, MLPParams(n_iterations=2, burn_in=0))
        with pytest.raises(RuntimeError):
            sampler.sweep()


class TestDeterminism:
    def test_same_seed_same_chain(self, small_world):
        params = MLPParams(n_iterations=3, burn_in=1, seed=5)
        runs = []
        for _ in range(2):
            sampler = GibbsSampler(small_world, params)
            sampler.run()
            runs.append(
                (
                    sampler.state.x.copy(),
                    sampler.state.y.copy(),
                    sampler.state.z.copy(),
                    sampler.state.mu.copy(),
                )
            )
        for a, b in zip(runs[0], runs[1]):
            assert np.array_equal(a, b)

    def test_different_seed_differs(self, small_world):
        chains = []
        for seed in (1, 2):
            params = MLPParams(n_iterations=3, burn_in=1, seed=seed)
            sampler = GibbsSampler(small_world, params)
            sampler.run()
            chains.append(sampler.state.x.copy())
        assert not np.array_equal(chains[0], chains[1])


class TestAblations:
    def test_mlp_u_ignores_tweets(self, small_world):
        from repro.core.model import mlp_u_params

        params = mlp_u_params(MLPParams(n_iterations=2, burn_in=0, seed=1))
        sampler = GibbsSampler(small_world, params)
        assert len(sampler._tw_users) == 0
        assert len(sampler._followers) == small_world.n_following

    def test_mlp_c_ignores_following(self, small_world):
        from repro.core.model import mlp_c_params

        params = mlp_c_params(MLPParams(n_iterations=2, burn_in=0, seed=1))
        sampler = GibbsSampler(small_world, params)
        assert len(sampler._followers) == 0
        assert len(sampler._tw_users) == small_world.n_tweeting


class TestNoiseDetection:
    def test_noise_fraction_in_plausible_band(self, small_world):
        params = MLPParams(n_iterations=8, burn_in=4, seed=2)
        sampler = GibbsSampler(small_world, params)
        trace = sampler.run()
        last = trace.iterations[-1]
        # Generator noise is ~0.12 following / 0.20 tweeting; the model
        # must land in a broad band around those, not at 0 or 1.
        assert 0.02 < last.noise_following_fraction < 0.45
        assert 0.02 < last.noise_tweeting_fraction < 0.5

    def test_noise_edges_detected_better_than_chance(self, small_world):
        params = MLPParams(n_iterations=10, burn_in=5, seed=2)
        sampler = GibbsSampler(small_world, params)
        sampler.run()
        mu = sampler.state.mu
        truth = np.array([bool(e.is_noise) for e in small_world.following])
        flagged_rate_on_noise = mu[truth].mean()
        flagged_rate_on_clean = mu[~truth].mean()
        assert flagged_rate_on_noise > flagged_rate_on_clean

    def test_trace_metric_callback(self, small_world):
        params = MLPParams(n_iterations=3, burn_in=1, seed=2)
        sampler = GibbsSampler(small_world, params)
        seen = []

        def probe(s, it):
            seen.append(it)
            return float(it)

        trace = sampler.run(metric_callback=probe)
        assert seen == [0, 1, 2]
        assert trace.metrics() == [0.0, 1.0, 2.0]


class TestEstimates:
    def test_theta_normalized(self, sampler_after_sweeps):
        sampler = sampler_after_sweeps
        row = sampler.state.user_counts.row(0)
        theta = sampler.theta_for(0, row)
        assert theta.sum() == pytest.approx(1.0)
        assert np.all(theta >= 0)

    def test_current_home_estimates_valid(self, sampler_after_sweeps):
        homes = sampler_after_sweeps.current_home_estimates()
        n_loc = len(sampler_after_sweeps.dataset.gazetteer)
        assert homes.shape == (sampler_after_sweeps.dataset.n_users,)
        assert homes.min() >= 0 and homes.max() < n_loc

    def test_labeled_users_estimated_at_observed_location(
        self, sampler_after_sweeps
    ):
        """The gamma boost must anchor labeled users to their label."""
        sampler = sampler_after_sweeps
        homes = sampler.current_home_estimates()
        observed = sampler.dataset.observed_locations
        matches = sum(homes[u] == loc for u, loc in observed.items())
        assert matches / len(observed) > 0.9

    def test_set_following_law_swaps_model(self, small_world):
        from repro.mathx.powerlaw import PowerLaw

        sampler = GibbsSampler(
            small_world, MLPParams(n_iterations=2, burn_in=0, seed=1)
        )
        new_law = PowerLaw(alpha=-0.9, beta=0.02)
        sampler.set_following_law(new_law)
        assert sampler.following_model.law.alpha == -0.9


NEAR_ONE = float(np.nextafter(1.0, 0.0))  # rho must stay below 1.0


def _initialized(world, params, init, engine=GibbsSampler, priors=None):
    sampler = engine(world, params, priors=priors, alpha=-0.5, beta=0.01)
    init(sampler)
    return sampler


class TestBulkInitializeGolden:
    """``initialize`` equals the per-relationship reference walk exactly."""

    @pytest.fixture(scope="class")
    def worlds(self, small_world):
        return {
            "small": small_world,
            "irregular": irregular_world(small_world),
            "edgeless": edgeless_world(small_world),
        }

    @pytest.mark.parametrize("world_name", ["small", "irregular", "edgeless"])
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"rho_f": 0.0, "rho_t": 0.0},
            {"rho_f": NEAR_ONE, "rho_t": NEAR_ONE},
            {"rho_f": 0.0, "rho_t": NEAR_ONE},
            {"use_tweeting": False},
            {"use_following": False},
            {"use_candidacy": False},
        ],
        ids=["default", "rho0", "rho1", "rho01", "mlp_u", "mlp_c", "nocand"],
    )
    def test_matches_reference(self, worlds, world_name, overrides):
        params = MLPParams(n_iterations=2, burn_in=0, seed=11, **overrides)
        world = worlds[world_name]
        bulk = _initialized(world, params, GibbsSampler.initialize)
        ref = _initialized(world, params, reference_initialize)
        for name in ("mu", "x", "y", "nu", "z"):
            a, b = getattr(bulk.state, name), getattr(ref.state, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert np.array_equal(bulk.state.user_counts.phi, ref.state.user_counts.phi)
        assert np.array_equal(
            bulk.state.user_counts.totals, ref.state.user_counts.totals
        )
        assert np.array_equal(
            bulk.tweeting_model.counts_copy(), ref.tweeting_model.counts_copy()
        )
        assert np.array_equal(
            bulk.tweeting_model._totals, ref.tweeting_model._totals
        )
        assert bulk.rng.bit_generator.state == ref.rng.bit_generator.state
        # The chains stay together past initialization.
        assert bulk.rng.random() == ref.rng.random()

    def test_vectorized_engine_matches_reference(self, small_world):
        from repro.engine import VectorizedGibbsSampler

        params = MLPParams(n_iterations=3, burn_in=0, seed=2)
        bulk = _initialized(
            small_world, params, GibbsSampler.initialize, VectorizedGibbsSampler
        )
        ref = _initialized(small_world, params, reference_initialize)
        for _ in range(2):
            bulk.sweep()
            ref.sweep()
        assert np.array_equal(bulk.state.x, ref.state.x)
        assert np.array_equal(bulk.state.z, ref.state.z)
        assert np.array_equal(bulk.state.user_counts.phi, ref.state.user_counts.phi)

    @staticmethod
    def _zero_gamma_priors(world, params, user):
        from repro.core.priors import UserPriors, build_user_priors

        base = build_user_priors(world, params)
        gamma = list(base.gamma)
        gamma[user] = np.zeros_like(gamma[user])
        sums = base.gamma_sum.copy()
        sums[user] = 0.0
        return UserPriors(
            candidates=base.candidates, gamma=tuple(gamma), gamma_sum=sums
        )

    def test_zero_gamma_on_drawn_user_raises(self, small_world):
        params = MLPParams(n_iterations=2, burn_in=0, seed=1, rho_f=0.0)
        user = int(small_world.following[0].follower)
        priors = self._zero_gamma_priors(small_world, params, user)
        sampler = GibbsSampler(small_world, params, priors=priors)
        with pytest.raises(RuntimeError, match="degenerate"):
            sampler.initialize()

    def test_zero_gamma_on_undrawn_user_is_fine(self, small_world):
        params = MLPParams(n_iterations=2, burn_in=0, seed=1)
        world = edgeless_world(small_world)
        priors = self._zero_gamma_priors(world, params, 0)
        sampler = GibbsSampler(world, params, priors=priors)
        sampler.initialize()
        assert sampler.state.user_counts.totals.sum() == 0.0


class TestPackedHelpers:
    def test_gamma_cumsum_is_per_user_cumsum(self, small_world):
        from repro.core.priors import build_user_priors

        for params in (MLPParams(), MLPParams(use_candidacy=False)):
            priors = build_user_priors(small_world, params)
            pack = priors.packed()
            for u in range(priors.n_users):
                seg = pack.gamma_cumsum[pack.offsets[u]:pack.offsets[u + 1]]
                assert np.array_equal(seg, np.cumsum(priors.gamma[u]))

    def test_slot_of_inverts_the_arena(self, small_world):
        from repro.core.priors import build_user_priors

        pack = build_user_priors(small_world, MLPParams()).packed()
        n_loc = len(small_world.gazetteer)
        slots = pack.slot_of(pack.slot_user, pack.flat_candidates, n_loc)
        assert np.array_equal(slots, np.arange(pack.total_slots))

    def test_home_estimates_match_per_user_argmax(self, sampler_after_sweeps):
        sampler = sampler_after_sweeps
        priors = sampler.priors
        rng = np.random.default_rng(0)
        # Small integer counts make ties common; the first maximum wins.
        phi = sampler.state.user_counts.phi
        for counts in (phi, np.zeros_like(phi), rng.integers(0, 2, phi.shape) * 1.0):
            want = np.array(
                [
                    priors.candidates[u][
                        int(np.argmax(counts[u, priors.candidates[u]] + priors.gamma[u]))
                    ]
                    for u in range(priors.n_users)
                ]
            )
            assert np.array_equal(priors.home_estimates(counts), want)
