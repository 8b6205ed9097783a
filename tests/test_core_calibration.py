"""Tests for (alpha, beta) calibration: initial fit and EM refit."""

import numpy as np
import pytest
from reference_setup import (
    irregular_world,
    reference_initial_fit,
    reference_pair_buckets,
    reference_refit,
)

from repro.core.calibration import (
    fit_initial_power_law,
    refit_power_law,
    sampled_pair_buckets,
)
from repro.core.gibbs import GibbsSampler
from repro.core.params import MLPParams
from repro.data.columnar import compile_world
from repro.data.generator import SyntheticWorldConfig, generate_world
from repro.data.model import Dataset, User


class TestInitialFit:
    def test_learns_negative_decay(self, small_world):
        law = fit_initial_power_law(small_world, MLPParams())
        assert law.alpha < -0.05
        assert law.beta > 0

    def test_deterministic(self, small_world):
        params = MLPParams(seed=4)
        a = fit_initial_power_law(small_world, params)
        b = fit_initial_power_law(small_world, params)
        assert a.alpha == b.alpha and a.beta == b.beta

    def test_beta_scales_with_density(self):
        """A denser world (more friends per user) must fit a larger beta."""
        sparse = generate_world(
            SyntheticWorldConfig(n_users=300, seed=1, mean_friends=4.0)
        )
        dense = generate_world(
            SyntheticWorldConfig(n_users=300, seed=1, mean_friends=16.0)
        )
        params = MLPParams()
        beta_sparse = fit_initial_power_law(sparse, params).beta
        beta_dense = fit_initial_power_law(dense, params).beta
        assert beta_dense > beta_sparse

    def test_too_few_labels_falls_back(self, gazetteer):
        ds = Dataset(
            gazetteer,
            [User(i) for i in range(5)],
            [],
            [],
        )
        params = MLPParams(alpha=-0.55, beta=0.0045)
        law = fit_initial_power_law(ds, params)
        assert law.alpha == -0.55
        assert law.beta == 0.0045

    def test_max_users_subsample(self, small_world):
        # Subsampling must still produce a sane negative decay.
        law = fit_initial_power_law(small_world, MLPParams(), max_users=50)
        assert law.alpha < 0


class TestRefit:
    @pytest.fixture(scope="class")
    def burned_sampler(self, small_world):
        params = MLPParams(n_iterations=6, burn_in=3, seed=5)
        sampler = GibbsSampler(small_world, params)
        sampler.initialize()
        for _ in range(4):
            sampler.sweep()
        return sampler

    def test_refit_returns_negative_decay(self, small_world, burned_sampler):
        law = refit_power_law(small_world, burned_sampler, burned_sampler.params)
        assert law.alpha < -0.05

    def test_refit_with_too_few_location_edges_keeps_previous(
        self, small_world, burned_sampler
    ):
        previous = burned_sampler.following_model.law
        saved_mu = burned_sampler.state.mu.copy()
        burned_sampler.state.mu[:] = 1  # pretend everything is noise
        try:
            law = refit_power_law(
                small_world, burned_sampler, burned_sampler.params
            )
            assert law is previous
        finally:
            burned_sampler.state.mu[:] = saved_mu

    def test_refit_deterministic(self, small_world, burned_sampler):
        a = refit_power_law(small_world, burned_sampler, burned_sampler.params)
        b = refit_power_law(small_world, burned_sampler, burned_sampler.params)
        assert a.alpha == b.alpha and a.beta == b.beta


class TestRunInference:
    def test_law_history_grows_with_em_rounds(self, small_world):
        from repro.core.gibbs_em import run_inference

        params = MLPParams(n_iterations=6, burn_in=2, em_rounds=2, seed=1)
        run = run_inference(small_world, params)
        assert len(run.law_history) == 3  # initial + 2 refits

    def test_no_em_keeps_initial_law(self, small_world):
        from repro.core.gibbs_em import run_inference

        params = MLPParams(n_iterations=5, burn_in=2, em_rounds=0, seed=1)
        run = run_inference(small_world, params)
        assert len(run.law_history) == 1

    def test_fixed_law_when_fitting_disabled(self, small_world):
        from repro.core.gibbs_em import run_inference

        params = MLPParams(
            n_iterations=5, burn_in=2, fit_alpha_beta=False,
            alpha=-0.7, beta=0.01, seed=1,
        )
        run = run_inference(small_world, params)
        assert run.final_law.alpha == -0.7
        assert run.final_law.beta == 0.01

    def test_trace_length_equals_iterations(self, small_world):
        from repro.core.gibbs_em import run_inference

        params = MLPParams(n_iterations=7, burn_in=3, seed=1)
        run = run_inference(small_world, params)
        assert len(run.trace) == 7

    def test_theta_snapshots_cover_post_burn_in(self, small_world):
        from repro.core.gibbs_em import run_inference

        params = MLPParams(n_iterations=7, burn_in=3, seed=1)
        run = run_inference(small_world, params)
        assert run.sampler.state.theta_samples == 4


class TestCountBasedGolden:
    """Both fits equal their pair-by-pair reference forms, bit for bit."""

    @pytest.fixture(scope="class")
    def worlds(self, small_world):
        return {
            "small": compile_world(small_world),
            "irregular": irregular_world(small_world),
        }

    @pytest.mark.parametrize("name", ["small", "irregular"])
    @pytest.mark.parametrize("max_users", [2000, 50])
    def test_initial_fit_matches_pairwise(self, worlds, name, max_users):
        world = worlds[name]
        params = MLPParams(seed=9)
        law = fit_initial_power_law(world, params, max_users=max_users)
        assert law == reference_initial_fit(world, params, max_users=max_users)
        assert law.alpha != params.alpha  # a real fit, not the fallback

    @pytest.mark.parametrize("name", ["small", "irregular"])
    def test_pair_buckets_match_pairwise(self, worlds, name):
        world = worlds[name]
        users = np.flatnonzero(world.labeled_mask)
        got = sampled_pair_buckets(world, users)
        want = reference_pair_buckets(world, users)
        for field in ("centers", "totals", "edges"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        n = users.size
        assert got.totals.sum() == n * (n - 1)

    def test_duplicate_and_self_edges_count_once(self, worlds):
        world = worlds["irregular"]
        users = np.flatnonzero(world.labeled_mask)
        edges = sampled_pair_buckets(world, users).edges.sum()
        labeled = world.labeled_mask
        src, dst = world.edge_src, world.edge_dst
        keep = labeled[src] & labeled[dst] & (src != dst)
        distinct = np.unique(src[keep] * world.n_users + dst[keep]).size
        assert edges == distinct < int(keep.sum())

    @pytest.mark.parametrize("name", ["small", "irregular"])
    @pytest.mark.parametrize("max_users", [2000, 50])
    def test_refit_matches_pairwise(self, worlds, name, max_users):
        world = worlds[name]
        params = MLPParams(n_iterations=4, burn_in=2, seed=5)
        sampler = GibbsSampler(world, params)
        sampler.initialize()
        for _ in range(3):
            sampler.sweep()
        law = refit_power_law(world, sampler, params, max_users=max_users)
        want = reference_refit(world, sampler, params, max_users=max_users)
        assert law == want
        assert law is not sampler.following_model.law
