"""The collapsed Gibbs sampler for MLP (Sec. 4.5, Eq. 5-9).

theta and psi are integrated out; the sampler sweeps over the model
selectors and location assignments of every relationship:

- following edge ``s`` from ``i`` to ``j``: selector ``mu_s`` (Eq. 5)
  and the assignment pair ``(x_s, y_s)`` (Eq. 7-8);
- tweeting edge ``k`` from ``i`` to venue ``v``: selector ``nu_k``
  (Eq. 6) and the assignment ``z_k`` (Eq. 9).

**Blocked sampling.**  The paper's generative process draws location
assignments *only* for location-based relationships (Sec. 4.4), yet
Eq. 5 as printed conditions the selector on fixed current assignments,
which under-weights the location branch (one sampled pair versus the
whole assignment space) and systematically over-selects noise.  We
therefore sample ``(mu, x, y)`` as a block, marginalizing the
assignments out of the selector decision::

    P(mu=1 | rest) ∝ rho_f * P(f | FR)
    P(mu=0 | rest) ∝ (1-rho_f) * sum_{l1, l2}
        prof_i(l1) * prof_j(l2) * beta * d(l1, l2)**alpha

with ``prof_i(l) = (phi_il + gamma_il) / (phi_i + sum gamma_i)`` -- the
collapsed profile of Eq. 7 -- and then, when the location branch wins,
draws ``(x, y)`` from the same joint table.  Tweeting relationships get
the analogous ``(nu, z)`` block using the collapsed TL term of Eq. 9.
The sum runs over the candidate sets (Sec. 4.3), which keeps each block
a small dense table.

Consequences, faithful to the generative semantics:

- noise-selected relationships carry **no** assignments (stored as -1)
  and contribute nothing to the user-side counts ``phi_{i,l}``;
- only nu=0 tweets count into the venue-side counts ``phi_{l,v}``;
- the "-1" in the paper's equations (exclude the current relationship's
  own contribution) is realized as decrement -> sample -> increment.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.convergence import ConvergenceTrace, IterationStats
from repro.core.following import LocationFollowingModel, RandomFollowingModel
from repro.core.params import MLPParams
from repro.core.priors import PackedPriors, UserPriors, build_user_priors
from repro.core.state import GibbsState
from repro.core.tweeting import CollapsedTweetingModel, RandomTweetingModel
from repro.data.columnar import ColumnarWorld, compile_world
from repro.data.model import Dataset

#: Sentinel for "no assignment" (noise-selected relationship).
NO_ASSIGNMENT = -1


def _draw_index(rng: np.random.Generator, weights: np.ndarray) -> int:
    """Fast unchecked categorical draw used by the hot loop."""
    cumulative = np.cumsum(weights)
    total = cumulative[-1]
    if total <= 0.0 or not np.isfinite(total):
        # All-zero weights can only arise from a prior/counting bug;
        # failing loudly beats sampling garbage.
        raise RuntimeError("degenerate sampling weights in Gibbs sweep")
    u = rng.random() * total
    idx = int(np.searchsorted(cumulative, u, side="right"))
    return min(idx, len(weights) - 1)


def _walk_selectors(
    uniforms: np.ndarray, start: int, count: int, rho: float, extra: int
) -> tuple[np.ndarray, int]:
    """Block positions of ``count`` consecutive selector draws.

    Relationship ``r``'s selector is the uniform at ``positions[r]``.
    Below ``rho`` it picks the noise branch and is the relationship's
    only draw; otherwise ``extra`` assignment draws follow it.  Returns
    the positions and the position after the last relationship's draws.
    """
    below = (uniforms[start:] < rho).tobytes()
    noise = bytearray(count)
    pos = 0
    step = 1 + extra
    for r in range(count):
        if below[pos]:
            noise[r] = 1
            pos += 1
        else:
            pos += step
    steps = np.where(np.frombuffer(noise, dtype=np.bool_), 1, step)
    return start + np.cumsum(steps) - steps, start + pos


def _draw_candidates(
    pack: PackedPriors, users: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Prior draws of one candidate location per entry of ``users``.

    Entry ``k`` is :func:`_draw_index` over ``gamma[users[k]]`` with
    ``uniforms[k]`` as its uniform: the same cumulative sums, the same
    product and the same right-sided search, done as a bisection of
    every user's slot range at once.
    """
    cum = pack.gamma_cumsum
    lo = pack.offsets[users]
    hi = pack.offsets[users + 1]
    last = hi - 1
    total = cum[last]
    if not np.all(np.isfinite(total) & (total > 0.0)):
        raise RuntimeError("degenerate sampling weights in Gibbs sweep")
    target = uniforms * total
    top = max(cum.size - 1, 0)
    active = lo < hi
    while active.any():
        mid = (lo + hi) >> 1
        right = cum[np.minimum(mid, top)] <= target
        lo = np.where(active & right, mid + 1, lo)
        hi = np.where(active & ~right, mid, hi)
        active = lo < hi
    return pack.flat_candidates[np.minimum(lo, last)]


class GibbsSampler:
    """One fit's sampler: owns the state and performs sweeps.

    Parameters
    ----------
    dataset:
        The profiling problem: a :class:`Dataset` (compiled to the
        shared :class:`~repro.data.columnar.ColumnarWorld` through the
        memoized ``compile_world``) or an already-compiled world.  All
        sweep-side structures read the compiled arrays; the object
        graph is only materialized if :attr:`dataset` is accessed.
    params:
        Hyper-parameters; ``use_following`` / ``use_tweeting`` implement
        the MLP_U / MLP_C ablations by excluding a relationship type
        from both the sweeps and the candidacy construction.
    priors:
        Optional precomputed :class:`UserPriors` (rebuilt otherwise).
    alpha, beta:
        Power-law parameters; default to ``params``.  The Gibbs-EM
        driver passes refined values between rounds.
    """

    def __init__(
        self,
        dataset: Dataset | ColumnarWorld,
        params: MLPParams,
        priors: UserPriors | None = None,
        alpha: float | None = None,
        beta: float | None = None,
    ):
        world = compile_world(dataset)
        self.world = world
        # Keep the input dataset alive for the sampler's lifetime (the
        # compile memo and the world's backref are both weak): callers
        # read `.dataset` expecting the original object graph, ground
        # truth and all, not a stripped re-materialization.
        self._source_dataset = dataset if isinstance(dataset, Dataset) else None
        self.params = params
        self.priors = (
            priors if priors is not None else build_user_priors(world, params)
        )
        self.rng = np.random.default_rng(params.seed)

        if alpha is None and beta is None and params.fit_alpha_beta:
            # Self-calibrate: the built-in (alpha, beta) defaults are
            # the paper's Twitter-scale values; edge *density* differs
            # by orders of magnitude across datasets, so beta must be
            # learned from this dataset's labeled pairs (Sec. 4.1).
            from repro.core.calibration import fit_initial_power_law

            law = fit_initial_power_law(world, params)
            alpha, beta = law.alpha, law.beta
        self.following_model = LocationFollowingModel.from_gazetteer(
            world.gazetteer,
            alpha=alpha if alpha is not None else params.alpha,
            beta=beta if beta is not None else params.beta,
            min_distance=params.min_distance_miles,
        )
        self.random_following = RandomFollowingModel.from_world(world)
        self.random_tweeting = RandomTweetingModel.from_world(world)
        self.tweeting_model = CollapsedTweetingModel(
            n_locations=world.n_locations,
            n_venues=world.n_venues,
            delta=params.delta,
        )

        # Edge arenas, shared read-only with the compiled world (empty
        # when the ablation disables a type).
        if params.use_following:
            self._followers = world.edge_src
            self._friends = world.edge_dst
        else:
            self._followers = np.empty(0, dtype=np.int64)
            self._friends = np.empty(0, dtype=np.int64)
        if params.use_tweeting:
            self._tw_users = world.tweet_user
            self._tw_venues = world.tweet_venue
        else:
            self._tw_users = np.empty(0, dtype=np.int64)
            self._tw_venues = np.empty(0, dtype=np.int64)

        self.state = GibbsState(
            n_users=world.n_users,
            n_locations=world.n_locations,
            n_following=len(self._followers),
            n_tweeting=len(self._tw_users),
            track_edges=params.track_edge_assignments,
        )
        self._initialized = False

    @property
    def dataset(self) -> Dataset:
        """The object-graph view (materialized from the world if needed)."""
        if self._source_dataset is not None:
            return self._source_dataset
        return self.world.require_dataset()

    # -- setup -----------------------------------------------------------

    def initialize(self) -> None:
        """Draw initial selectors/assignments from priors; fill counts.

        The generator is consumed exactly as a walk over the
        relationships in arena order would consume it: each following
        relationship takes one uniform for its selector and, on the
        location branch, one per endpoint (follower first); each
        tweeting relationship takes one, plus one on the location
        branch.  The uniforms come in one block (the generator is then
        rewound and advanced by exactly the count used), the
        categorical draws are inverse-CDF searches against the packed
        per-user cumulative priors, and the counts are zeroed and refilled
        in one scatter, so calling it again restarts the chain cleanly.
        """
        rng = self.rng
        state = self.state
        params = self.params
        pack = self.priors.packed()
        n_f = len(self._followers)
        n_t = len(self._tw_users)

        snapshot = rng.bit_generator.state
        block = rng.random(3 * n_f + 2 * n_t)
        f_pos, t_start = _walk_selectors(block, 0, n_f, params.rho_f, 2)
        t_pos, used = _walk_selectors(block, t_start, n_t, params.rho_t, 1)
        rng.bit_generator.state = snapshot
        rng.random(used)

        f_noise = block[f_pos] < params.rho_f
        f_loc = np.flatnonzero(~f_noise)
        t_noise = block[t_pos] < params.rho_t
        t_loc = np.flatnonzero(~t_noise)
        i_users = self._followers[f_loc]
        j_users = self._friends[f_loc]
        t_users = self._tw_users[t_loc]
        xs = _draw_candidates(pack, i_users, block[f_pos[f_loc] + 1])
        ys = _draw_candidates(pack, j_users, block[f_pos[f_loc] + 2])
        zs = _draw_candidates(pack, t_users, block[t_pos[t_loc] + 1])

        state.mu[:] = f_noise
        state.x[:] = NO_ASSIGNMENT
        state.y[:] = NO_ASSIGNMENT
        state.x[f_loc] = xs
        state.y[f_loc] = ys
        state.nu[:] = t_noise
        state.z[:] = NO_ASSIGNMENT
        state.z[t_loc] = zs
        # Counts are rebuilt from the new assignments, in place: the
        # engines hold views of these arrays.
        state.user_counts.clear()
        self.tweeting_model.clear()
        state.user_counts.increment_many(
            np.concatenate([i_users, j_users, t_users]),
            np.concatenate([xs, ys, zs]),
        )
        self.tweeting_model.increment_many(zs, self._tw_venues[t_loc])
        self._initialized = True

    # -- one sweep --------------------------------------------------------

    def sweep(self) -> float:
        """One full Gibbs sweep; returns the fraction of changed values."""
        if not self._initialized:
            raise RuntimeError("call initialize() before sweep()")
        changed = 0
        total = 0
        changed += self._sweep_following()
        total += 3 * len(self._followers)
        changed += self._sweep_tweeting()
        total += 2 * len(self._tw_users)
        return changed / total if total else 0.0

    def _sweep_following(self) -> int:
        params = self.params
        rng = self.rng
        state = self.state
        priors = self.priors
        law = self.following_model.law
        dmat = self.following_model.distance_matrix
        phi = state.user_counts.phi
        totals = state.user_counts.totals
        gamma_sum = priors.gamma_sum
        candidates = priors.candidates
        gammas = priors.gamma
        p_noise = params.rho_f * self.random_following.probability()
        one_minus_rho = 1.0 - params.rho_f
        changed = 0

        for s in range(len(self._followers)):
            i = int(self._followers[s])
            j = int(self._friends[s])
            old_mu = int(state.mu[s])
            old_x = int(state.x[s])
            old_y = int(state.y[s])

            # Exclude the current relationship's contribution ("-1").
            if old_mu == 0:
                phi[i, old_x] -= 1.0
                totals[i] -= 1.0
                phi[j, old_y] -= 1.0
                totals[j] -= 1.0

            cand_i = candidates[i]
            cand_j = candidates[j]

            # Joint table over candidate pairs: the Eq. 7 x Eq. 8 terms
            # times the Eq. 1 kernel.
            w_i = phi[i, cand_i] + gammas[i]
            w_j = phi[j, cand_j] + gammas[j]
            kernel = law(dmat[cand_i[:, None], cand_j[None, :]])
            joint = w_i[:, None] * (w_j[None, :] * kernel)
            joint_sum = float(joint.sum())

            # Blocked selector (Eq. 5, assignments marginalized out).
            denom = (totals[i] + gamma_sum[i]) * (totals[j] + gamma_sum[j])
            p_location = one_minus_rho * joint_sum / denom

            if rng.random() * (p_noise + p_location) < p_noise:
                mu, new_x, new_y = 1, NO_ASSIGNMENT, NO_ASSIGNMENT
            else:
                mu = 0
                flat = _draw_index(rng, joint.ravel())
                xi_idx, yj_idx = divmod(flat, cand_j.size)
                new_x = int(cand_i[xi_idx])
                new_y = int(cand_j[yj_idx])
                phi[i, new_x] += 1.0
                totals[i] += 1.0
                phi[j, new_y] += 1.0
                totals[j] += 1.0

            state.mu[s] = mu
            state.x[s] = new_x
            state.y[s] = new_y
            changed += (mu != old_mu) + (new_x != old_x) + (new_y != old_y)
        return changed

    def _sweep_tweeting(self) -> int:
        params = self.params
        rng = self.rng
        state = self.state
        priors = self.priors
        tl = self.tweeting_model
        tr = self.random_tweeting
        phi = state.user_counts.phi
        totals = state.user_counts.totals
        gamma_sum = priors.gamma_sum
        candidates = priors.candidates
        gammas = priors.gamma
        rho_t = params.rho_t
        one_minus_rho = 1.0 - rho_t
        changed = 0

        for k in range(len(self._tw_users)):
            i = int(self._tw_users[k])
            v = int(self._tw_venues[k])
            old_nu = int(state.nu[k])
            old_z = int(state.z[k])

            if old_nu == 0:
                phi[i, old_z] -= 1.0
                totals[i] -= 1.0
                tl.decrement(old_z, v)

            cand_i = candidates[i]
            # Eq. 9 weights: collapsed profile times collapsed TL.
            weights = (phi[i, cand_i] + gammas[i]) * tl.probability_over(
                cand_i, v
            )
            weight_sum = float(weights.sum())

            # Blocked selector (Eq. 6, assignment marginalized out).
            p_noise = rho_t * tr.probability(v)
            p_location = (
                one_minus_rho * weight_sum / (totals[i] + gamma_sum[i])
            )

            if rng.random() * (p_noise + p_location) < p_noise:
                nu, new_z = 1, NO_ASSIGNMENT
            else:
                nu = 0
                new_z = int(cand_i[_draw_index(rng, weights)])
                phi[i, new_z] += 1.0
                totals[i] += 1.0
                tl.increment(new_z, v)

            state.nu[k] = nu
            state.z[k] = new_z
            changed += (nu != old_nu) + (new_z != old_z)
        return changed

    # -- full runs -----------------------------------------------------------

    def run(
        self,
        metric_callback: Callable[["GibbsSampler", int], float] | None = None,
    ) -> ConvergenceTrace:
        """Run the configured schedule; returns the convergence trace.

        ``metric_callback(sampler, iteration)`` -- when given -- is
        evaluated after every sweep (the Fig. 5 experiment passes a
        home-prediction-accuracy probe).  The Gibbs-EM refits of
        (alpha, beta) live in :func:`repro.core.gibbs_em.run_inference`;
        this plain runner keeps the initial law throughout.
        """
        params = self.params
        if not self._initialized:
            self.initialize()
        trace = ConvergenceTrace()
        for it in range(params.n_iterations):
            changed = self.sweep()
            if it >= params.burn_in:
                self.state.accumulate_theta_snapshot()
                self.state.record_edge_snapshot()
            metric = (
                metric_callback(self, it) if metric_callback is not None else None
            )
            trace.append(
                IterationStats(
                    iteration=it,
                    changed_fraction=changed,
                    noise_following_fraction=(
                        float(self.state.mu.mean()) if len(self.state.mu) else 0.0
                    ),
                    noise_tweeting_fraction=(
                        float(self.state.nu.mean()) if len(self.state.nu) else 0.0
                    ),
                    metric=metric,
                )
            )
        return trace

    def set_following_law(self, law) -> None:
        """Swap in refined (alpha, beta) between Gibbs-EM rounds."""
        self.following_model = LocationFollowingModel(
            law=law, distance_matrix=self.world.gazetteer.distance_matrix
        )

    # -- estimates -------------------------------------------------------------

    def theta_for(self, user_id: int, counts_row: np.ndarray) -> np.ndarray:
        """Eq. 10 over a counts row, restricted to the user's candidates."""
        cand = self.priors.candidates[user_id]
        gamma = self.priors.gamma[user_id]
        weights = counts_row[cand] + gamma
        return weights / weights.sum()

    def current_home_estimates(self) -> np.ndarray:
        """Provisional argmax-theta home per user from *current* counts.

        Cheap enough to run every sweep; used by convergence probes.
        """
        return self.priors.home_estimates(self.state.user_counts.phi)
