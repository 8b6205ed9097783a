"""The MLP facade: fit a dataset, get profiles and explanations.

This is the public entry point of the core library::

    from repro.core import MLPModel, MLPParams
    result = MLPModel(MLPParams(seed=1)).fit(dataset)
    result.profile_of(42).top_k(2)       # multiple location discovery
    result.predicted_home(42)            # home location prediction
    result.explanations[0]               # relationship explanation

The evaluation's ablations (Sec. 5 "Methods") are parameter presets:
:func:`mlp_u_params` (following network only) and :func:`mlp_c_params`
(tweets only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.convergence import ConvergenceTrace
from repro.core.gibbs_em import run_inference
from repro.core.params import MLPParams
from repro.core.priors import UserPriors, build_user_priors
from repro.core.results import EdgeExplanation, LocationProfile, TweetExplanation
from repro.data.columnar import ColumnarWorld, compile_world
from repro.data.model import Dataset
from repro.mathx.powerlaw import PowerLaw


@dataclass
class MLPResult:
    """Everything :meth:`MLPModel.fit` produces."""

    dataset: Dataset
    params: MLPParams
    profiles: tuple[LocationProfile, ...]
    explanations: tuple[EdgeExplanation, ...]
    tweet_explanations: tuple[TweetExplanation, ...]
    trace: ConvergenceTrace
    law_history: tuple[PowerLaw, ...]
    #: Multi-chain runs only: the pooled posterior with per-chain
    #: results and R-hat convergence diagnostics (None otherwise).
    posterior: "object | None" = None
    #: Frozen venue-side posterior table: post-burn-in mean of the
    #: collapsed TL counts ``phi_{l,v}`` (pooled across chains when
    #: ``n_chains > 1``).  Serving fold-in reads psi from it; None on
    #: results produced before this field existed.
    venue_counts: np.ndarray | None = None

    @property
    def fitted_law(self) -> PowerLaw:
        """The final (alpha, beta) power law used by the sampler."""
        return self.law_history[-1]

    def profile_of(self, user_id: int) -> LocationProfile:
        """The user's inferred location profile."""
        return self.profiles[user_id]

    def predicted_home(self, user_id: int) -> int:
        """The user's predicted home: argmax of theta (Sec. 4.5)."""
        home = self.profiles[user_id].home
        if home is None:
            raise ValueError(f"user {user_id} has an empty profile")
        return home

    def predicted_homes(self) -> np.ndarray:
        """Predicted home per user id, as one array."""
        return np.array(
            [self.predicted_home(u) for u in range(len(self.profiles))],
            dtype=np.int64,
        )

    def predicted_locations(self, user_id: int, k: int = 2) -> list[int]:
        """Top-k location set L-hat_ui (multi-location discovery)."""
        return self.profiles[user_id].top_k(k)

    def explanation_of(self, edge_index: int) -> EdgeExplanation:
        """The (x, y) explanation for one following edge."""
        return self.explanations[edge_index]

    def geo_groups(self, user_id: int, radius_miles: float = 100.0) -> dict[int, list[int]]:
        """Group a user's followers by the *user-side* assignment of the
        follow edge -- the "geo groups" application of Sec. 5.3.

        Returns {location id -> follower ids}; a follower lands in the
        group of the profiled user's own assignment (y for incoming
        edges), with nearby assignment locations merged into the first
        group seen within ``radius_miles``.
        """
        gaz = self.dataset.gazetteer
        groups: dict[int, list[int]] = {}
        for expl in self.explanations:
            if expl.friend != user_id:
                continue
            assigned = expl.y
            target = None
            for existing in groups:
                if gaz.distance(existing, assigned) <= radius_miles:
                    target = existing
                    break
            if target is None:
                target = assigned
                groups[target] = []
            groups[target].append(expl.follower)
        return groups


class MLPModel:
    """Multiple Location Profiling model (the paper's contribution).

    Stateless between fits: construct with params, call
    :meth:`fit` on a dataset, receive an :class:`MLPResult`.
    """

    def __init__(self, params: MLPParams | None = None):
        self.params = params or MLPParams()

    def fit(
        self,
        dataset: Dataset | ColumnarWorld,
        metric_callback=None,
    ) -> MLPResult:
        """Run full inference on a dataset (or a pre-compiled world).

        ``metric_callback(sampler, iteration) -> float`` is recorded in
        the convergence trace each sweep (used by the Fig. 5 driver).

        The dataset is compiled exactly once to the shared
        :class:`~repro.data.columnar.ColumnarWorld`; priors,
        calibration, every chain and (through the memo) a later serving
        fold-in all reuse that compiled form.

        With ``params.n_chains > 1`` the fit runs a
        :class:`~repro.engine.pool.ChainPool`: profiles come from the
        cross-chain pooled counts, explanations from the merged edge
        tallies, and ``result.posterior`` carries the per-chain results
        plus R-hat diagnostics.  The reported trace and law history are
        chain 0's (whose seed is the base seed, so a one-chain pool
        reproduces the plain fit exactly).
        """
        world = compile_world(dataset)
        priors = build_user_priors(world, self.params)
        if self.params.n_chains > 1:
            return self._fit_pooled(world, priors, metric_callback)
        run = run_inference(
            world, self.params, priors=priors, metric_callback=metric_callback
        )
        mean_counts = run.sampler.state.mean_theta_counts()
        profiles = self._profiles_from_counts(world, mean_counts, priors)
        explanations, tweet_explanations = self._explanations_from(
            world,
            run.sampler.state.edge_tally,
            lambda: run.sampler.current_home_estimates(),
        )
        return MLPResult(
            dataset=world.require_dataset(),
            params=self.params,
            profiles=profiles,
            explanations=explanations,
            tweet_explanations=tweet_explanations,
            trace=run.trace,
            law_history=tuple(run.law_history),
            venue_counts=run.mean_venue_counts(),
        )

    def _fit_pooled(
        self, world: ColumnarWorld, priors: UserPriors, metric_callback
    ) -> MLPResult:
        """K-chain inference via the engine's ChainPool."""
        # Lazy import: the engine package layers on top of core.
        import os

        from repro.engine.pool import ChainPool

        if metric_callback is not None:
            raise ValueError(
                "metric_callback is not supported with n_chains > 1 "
                "(chains may run in worker processes)"
            )
        pool = ChainPool(
            world,
            self.params,
            processes=min(self.params.n_chains, os.cpu_count() or 1),
            priors=priors,
        )
        posterior = pool.run()
        mean_counts = posterior.pooled_mean_counts()
        profiles = self._profiles_from_counts(world, mean_counts, priors)
        explanations, tweet_explanations = self._explanations_from(
            world,
            posterior.merged_edge_tally(),
            lambda: priors.home_estimates(mean_counts),
        )
        first = posterior.chains[0]
        return MLPResult(
            dataset=world.require_dataset(),
            params=self.params,
            profiles=profiles,
            explanations=explanations,
            tweet_explanations=tweet_explanations,
            trace=first.trace,
            law_history=first.law_history,
            posterior=posterior,
            venue_counts=posterior.pooled_mean_venue_counts(),
        )

    def _profiles_from_counts(
        self, world: ColumnarWorld, mean_counts: np.ndarray, priors: UserPriors
    ) -> tuple[LocationProfile, ...]:
        """Eq. 10 over averaged post-burn-in counts, per user."""
        profiles = []
        for uid in range(world.n_users):
            cand = priors.candidates[uid]
            weights = mean_counts[uid, cand] + priors.gamma[uid]
            probs = weights / weights.sum()
            order = np.lexsort((cand, -probs))
            entries = tuple(
                (int(cand[i]), float(probs[i])) for i in order
            )
            profiles.append(LocationProfile(user_id=uid, entries=entries))
        return tuple(profiles)

    def _explanations_from(
        self, world: ColumnarWorld, tally, homes_factory
    ) -> tuple[tuple[EdgeExplanation, ...], tuple[TweetExplanation, ...]]:
        if tally is None or tally.n_samples == 0:
            return (), ()
        # Fallback for always-noise relationships: the involved users'
        # current modal locations (the best available explanation when
        # the sampler judged the edge random in every sample).
        provisional_homes = homes_factory()
        explanations = []
        if self.params.use_following:
            for s, (follower, friend) in enumerate(
                zip(world.edge_src.tolist(), world.edge_dst.tolist())
            ):
                modal = tally.modal_following(s)
                if modal is None:
                    x, y, support = (
                        int(provisional_homes[follower]),
                        int(provisional_homes[friend]),
                        0.0,
                    )
                else:
                    x, y, support = modal
                explanations.append(
                    EdgeExplanation(
                        edge_index=s,
                        follower=follower,
                        friend=friend,
                        x=x,
                        y=y,
                        support=support,
                        noise_probability=tally.noise_probability_following(s),
                    )
                )
        tweet_explanations = []
        if self.params.use_tweeting:
            for k, (user, venue_id) in enumerate(
                zip(world.tweet_user.tolist(), world.tweet_venue.tolist())
            ):
                modal_z = tally.modal_tweeting(k)
                if modal_z is None:
                    z, support = int(provisional_homes[user]), 0.0
                else:
                    z, support = modal_z
                tweet_explanations.append(
                    TweetExplanation(
                        edge_index=k,
                        user=user,
                        venue_id=venue_id,
                        z=z,
                        support=support,
                        noise_probability=tally.noise_probability_tweeting(k),
                    )
                )
        return tuple(explanations), tuple(tweet_explanations)


def mlp_u_params(base: MLPParams | None = None) -> MLPParams:
    """MLP_U: the model restricted to following relationships (Sec. 5)."""
    base = base or MLPParams()
    return base.with_overrides(use_following=True, use_tweeting=False)


def mlp_c_params(base: MLPParams | None = None) -> MLPParams:
    """MLP_C: the model restricted to tweeting relationships (Sec. 5)."""
    base = base or MLPParams()
    return base.with_overrides(use_following=False, use_tweeting=True)
