"""Pair-by-pair and edge-by-edge reference forms of the fit's set-up.

The library computes the power-law calibrations from per-location
counts and draws the sampler's initial state in bulk.  These are the
direct forms those computations must match bit for bit: every ordered
pair of sampled users bucketed one by one, and one categorical draw per
relationship in arena order.  Test-only; they cost O(n^2) and one
numpy call per draw.
"""

from __future__ import annotations

import numpy as np

from repro.core.calibration import _MIN_DECAY
from repro.core.gibbs import NO_ASSIGNMENT, _draw_index
from repro.data.columnar import compile_world
from repro.mathx.buckets import log_spaced_bucket_following_pairs
from repro.mathx.powerlaw import PowerLaw, fit_power_law


def reference_pair_buckets(world, users, n_buckets=30, min_miles=1.0):
    """Fig. 3(a) buckets from an n x n pair-distance array."""
    locs = world.observed_location[users]
    pair_d = world.gazetteer.distance_matrix[locs][:, locs]
    n = users.size
    off_diag = ~np.eye(n, dtype=bool)
    index_of = np.full(world.n_users, -1, dtype=np.int64)
    index_of[users] = np.arange(n, dtype=np.int64)
    src_idx = index_of[world.edge_src]
    dst_idx = index_of[world.edge_dst]
    both = (src_idx >= 0) & (dst_idx >= 0)
    has_edge = np.zeros((n, n), dtype=bool)
    has_edge[src_idx[both], dst_idx[both]] = True
    return log_spaced_bucket_following_pairs(
        pair_d[off_diag],
        has_edge[off_diag],
        n_buckets=n_buckets,
        min_miles=min_miles,
    )


def reference_initial_fit(
    dataset, params, max_users=2000, n_buckets=30, rng=None
) -> PowerLaw:
    """Initial (alpha, beta) fit over an n x n pair-distance array."""
    world = compile_world(dataset)
    rng = rng if rng is not None else np.random.default_rng(params.seed)
    fallback = PowerLaw(
        alpha=params.alpha, beta=params.beta, min_x=params.min_distance_miles
    )
    labeled = np.flatnonzero(world.labeled_mask)
    if labeled.size < 10 or world.n_following == 0:
        return fallback
    if labeled.size > max_users:
        labeled = rng.choice(labeled, size=max_users, replace=False)
    buckets = reference_pair_buckets(
        world, labeled, n_buckets, params.min_distance_miles
    ).nonzero()
    if len(buckets) < 2:
        return fallback
    try:
        law = fit_power_law(
            buckets.centers,
            buckets.probabilities,
            weights=buckets.totals,
            min_x=params.min_distance_miles,
        )
    except ValueError:
        return fallback
    return fallback if law.alpha > _MIN_DECAY else law


def reference_refit(
    dataset, sampler, params, max_users=2000, n_buckets=30, rng=None
) -> PowerLaw:
    """Gibbs-EM refit over an n x n pair-distance array."""
    world = compile_world(dataset)
    rng = rng if rng is not None else np.random.default_rng(params.seed + 1)
    previous = sampler.following_model.law
    state = sampler.state
    mask = state.mu == 0
    if int(mask.sum()) < 20:
        return previous
    dmat = world.gazetteer.distance_matrix
    edge_d = dmat[state.x[mask], state.y[mask]]
    homes = sampler.current_home_estimates()
    n = world.n_users
    sample_n = min(max_users, n)
    chosen = rng.choice(n, size=sample_n, replace=False)
    locs = homes[chosen]
    pair_d = dmat[locs][:, locs]
    sample_distances = pair_d[~np.eye(sample_n, dtype=bool)]
    scale = (n * (n - 1)) / float(sample_n * (sample_n - 1))

    bounds_min = params.min_distance_miles
    bounds_max = max(float(dmat.max()), bounds_min * 10)
    bounds = np.logspace(np.log10(bounds_min), np.log10(bounds_max), n_buckets + 1)
    centers = np.sqrt(bounds[:-1] * bounds[1:])

    def bucketize(values):
        clipped = np.clip(values, bounds_min, bounds_max)
        idx = np.clip(
            np.searchsorted(bounds, clipped, side="right") - 1, 0, n_buckets - 1
        )
        return np.bincount(idx, minlength=n_buckets).astype(np.float64)

    edge_counts = bucketize(edge_d)
    pair_counts = bucketize(sample_distances) * scale
    usable = (edge_counts > 0) & (pair_counts > 0)
    if int(usable.sum()) < 2:
        return previous
    try:
        law = fit_power_law(
            centers[usable],
            edge_counts[usable] / pair_counts[usable],
            weights=pair_counts[usable],
            min_x=params.min_distance_miles,
        )
    except ValueError:
        return previous
    return previous if law.alpha > _MIN_DECAY else law


def reference_initialize(sampler) -> None:
    """One selector draw, then one prior draw per endpoint, per edge."""
    rng = sampler.rng
    state = sampler.state
    priors = sampler.priors
    counts = state.user_counts
    params = sampler.params
    for s in range(len(sampler._followers)):
        i = int(sampler._followers[s])
        j = int(sampler._friends[s])
        if rng.random() < params.rho_f:
            state.mu[s] = 1
            state.x[s] = NO_ASSIGNMENT
            state.y[s] = NO_ASSIGNMENT
        else:
            state.mu[s] = 0
            xi = int(priors.candidates[i][_draw_index(rng, priors.gamma[i])])
            yj = int(priors.candidates[j][_draw_index(rng, priors.gamma[j])])
            state.x[s] = xi
            state.y[s] = yj
            counts.increment(i, xi)
            counts.increment(j, yj)
    for k in range(len(sampler._tw_users)):
        i = int(sampler._tw_users[k])
        v = int(sampler._tw_venues[k])
        if rng.random() < params.rho_t:
            state.nu[k] = 1
            state.z[k] = NO_ASSIGNMENT
        else:
            state.nu[k] = 0
            zk = int(priors.candidates[i][_draw_index(rng, priors.gamma[i])])
            state.z[k] = zk
            counts.increment(i, zk)
            sampler.tweeting_model.increment(zk, v)
    sampler._initialized = True


def irregular_world(base):
    """``base`` recompiled with the shapes the bulk paths must survive.

    Duplicate edges between one pair, a self-follow (only
    ``from_edge_arrays`` can build one) and a sixth of the labeled users
    moved onto a single location.
    """
    from repro.data.columnar import ColumnarWorld

    world = compile_world(base)
    observed = world.observed_location.copy()
    labeled = np.flatnonzero(observed >= 0)
    observed[labeled[::6]] = observed[labeled[0]]
    src = world.edge_src
    dst = world.edge_dst
    u = int(labeled[1])
    return ColumnarWorld.from_edge_arrays(
        world.gazetteer,
        observed,
        np.concatenate([src, src[:40], [src[0], src[0], u]]),
        np.concatenate([dst, dst[:40], [dst[0], dst[0], u]]),
        world.tweet_user,
        world.tweet_venue,
    )


def edgeless_world(base):
    """``base``'s users and labels with no relationships at all."""
    from repro.data.columnar import ColumnarWorld

    world = compile_world(base)
    empty = np.empty(0, dtype=np.int64)
    return ColumnarWorld.from_edge_arrays(
        world.gazetteer, world.observed_location, empty, empty, empty, empty
    )


def reference_layout(sampler):
    """The vectorized engine's sweep tuples, built edge by edge.

    Returns ``(f_edges, t_edges)`` in the engine's tuple layout, with
    the arena views taken from ``sampler._cand_arena`` (so call it
    after the sampler has built its own layout) and fresh scratch
    buffers: one view, list and index array per edge.
    """
    priors = sampler.priors
    cands = priors.candidates
    gamma_sum = priors.gamma_sum
    n_users = sampler.world.n_users
    n_loc = sampler.state.user_counts.phi.shape[1]
    n_ven = sampler.world.n_venues
    offsets = priors.packed().offsets.tolist()
    arena_views = [
        sampler._cand_arena[offsets[u]:offsets[u + 1]] for u in range(n_users)
    ]

    cmax = max((c.size for c in cands), default=0)
    pair_max = 0
    for i, j in zip(sampler._followers, sampler._friends):
        pair_max = max(pair_max, cands[int(i)].size * cands[int(j)].size)
    joint_buf = np.empty(pair_max)
    w_buf = np.empty(max(cmax, 1))
    nd_buf = np.empty(2 * max(cmax, 1))

    f_edges = []
    for s in range(len(sampler._followers)):
        i = int(sampler._followers[s])
        j = int(sampler._friends[s])
        ni = cands[i].size
        nj = cands[j].size
        npair = ni * nj
        f_edges.append((
            i,
            j,
            arena_views[i].reshape(ni, 1),
            arena_views[j],
            joint_buf[:npair].reshape(ni, nj),
            joint_buf[:npair],
            joint_buf[:npair].searchsorted,
            joint_buf[:npair].item,
            float(gamma_sum[i]),
            float(gamma_sum[j]),
            offsets[i],
            offsets[j],
            cands[i].tolist(),
            cands[j].tolist(),
            nj,
            npair,
        ))

    dvec_by_size: dict[int, np.ndarray] = {}
    delta = sampler.tweeting_model.delta
    delta_sum = delta * n_ven
    tl_total_base = n_loc * n_ven
    rho_t = sampler.params.rho_t
    tr_probs = sampler.random_tweeting.venue_probabilities
    t_edges = []
    for k in range(len(sampler._tw_users)):
        i = int(sampler._tw_users[k])
        v = int(sampler._tw_venues[k])
        ci = cands[i]
        n = ci.size
        if n not in dvec_by_size:
            dvec = np.empty(2 * n)
            dvec[:n] = delta
            dvec[n:] = delta_sum
            dvec_by_size[n] = dvec
        tl_idx = np.concatenate([ci * n_ven + v, tl_total_base + ci])
        t_edges.append((
            i,
            v,
            arena_views[i],
            w_buf[:n],
            nd_buf[:2 * n],
            nd_buf[:n],
            nd_buf[n:2 * n],
            dvec_by_size[n],
            tl_idx,
            w_buf[:n].searchsorted,
            w_buf[:n].item,
            float(gamma_sum[i]),
            rho_t * float(tr_probs[v]),
            offsets[i],
            ci.tolist(),
            n,
        ))
    return f_edges, t_edges
