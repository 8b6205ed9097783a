"""Calibrating (alpha, beta): the initial fit and the EM refit.

Sec. 4.1 learns the power law from labeled-user pairs (the Fig. 3(a)
pipeline: bucket pair distances, measure per-bucket edge probability,
least-squares in log-log space).  Sec. 4.5 refines (alpha, beta) with
Gibbs-EM; the M-step here refits the power law from the sampled
location assignments of location-based (mu=0) edges.

Exact probabilities need all N^2 ordered pairs; like the paper's own
scale argument we estimate the pair-count denominator from a uniform
user subsample (unbiased, and the fit only needs the curve's shape).

A pair's distance depends only on its two locations, so neither fit
walks the sample's pairs: both count users per location, turn the
counts into exact ordered-pair counts per location pair, and bucket the
gazetteer's L x L distance matrix once with those counts as weights
(:func:`~repro.mathx.buckets.log_spaced_bucket_following_pairs`).  The
counts are integers, so the buckets -- and the fitted law -- are the
ones the pair-by-pair computation gives, bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.params import MLPParams
from repro.data.columnar import ColumnarWorld, compile_world
from repro.data.model import Dataset
from repro.mathx.buckets import DistanceBuckets, log_spaced_bucket_following_pairs
from repro.mathx.powerlaw import PowerLaw, fit_power_law

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.gibbs import GibbsSampler

#: Refits are rejected unless the learned exponent stays meaningfully
#: negative; a flat or increasing "decay" means the assignments are
#: still disordered and the previous law should be kept.
_MIN_DECAY = -0.05


def _ordered_pair_counts(locations: np.ndarray, n_locations: int) -> np.ndarray:
    """Ordered pairs of distinct users per location pair, flat ``L * L``.

    ``locations[k]`` is user ``k``'s location.  With ``c[a]`` users at
    location ``a``, the pairs at ``(a, b)`` number ``c[a] * c[b]``, less
    ``c[a]`` self-pairs on the diagonal.  Integer-valued float64.
    """
    counts = np.bincount(locations, minlength=n_locations).astype(np.float64)
    grid = np.multiply.outer(counts, counts)
    grid[np.diag_indices(n_locations)] -= counts
    return grid.reshape(-1)


def sampled_pair_buckets(
    world: ColumnarWorld,
    users: np.ndarray,
    n_buckets: int = 30,
    min_miles: float = 1.0,
) -> DistanceBuckets:
    """Fig. 3(a) buckets over all ordered pairs of distinct ``users``.

    Each user sits at their observed location (``users`` must be
    labeled).  A pair counts as an edge when the first follows the
    second; duplicate edges between one pair count once and
    self-follows not at all, as on the pair-by-pair path.
    """
    n = users.size
    n_loc = world.n_locations
    locs = world.observed_location[users]
    index_of = np.full(world.n_users, -1, dtype=np.int64)
    index_of[users] = np.arange(n, dtype=np.int64)
    src = index_of[world.edge_src]
    dst = index_of[world.edge_dst]
    keep = (src >= 0) & (dst >= 0) & (src != dst)
    pairs = np.unique(src[keep] * n + dst[keep])
    edge_grid = np.bincount(
        locs[pairs // n] * n_loc + locs[pairs % n], minlength=n_loc * n_loc
    )
    return log_spaced_bucket_following_pairs(
        world.gazetteer.distance_matrix.reshape(-1),
        edge_grid,
        n_buckets=n_buckets,
        min_miles=min_miles,
        weights=_ordered_pair_counts(locs, n_loc),
    )


def fit_initial_power_law(
    dataset: Dataset | ColumnarWorld,
    params: MLPParams,
    max_users: int = 2000,
    n_buckets: int = 30,
    rng: np.random.Generator | None = None,
) -> PowerLaw:
    """Fit (alpha, beta) from labeled users' registered locations.

    This is the measurement behind Fig. 3(a): take (a sample of) the
    labeled users, bucket all ordered pairs between them by the
    distance of their registered locations, mark which pairs actually
    have a following relationship, fit.

    Falls back to ``params``' built-in values when the labeled set is
    too small to produce a usable curve.
    """
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
    buckets = sampled_pair_buckets(
        world, labeled, n_buckets=n_buckets, min_miles=params.min_distance_miles
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
    if law.alpha > _MIN_DECAY:
        return fallback
    return law


def refit_power_law(
    dataset: Dataset | ColumnarWorld,
    sampler: GibbsSampler,
    params: MLPParams,
    max_users: int = 2000,
    n_buckets: int = 30,
    rng: np.random.Generator | None = None,
) -> PowerLaw:
    """Gibbs-EM M-step: refit (alpha, beta) from sampled assignments.

    Numerator: location-based (mu=0) edges at the distance of their
    current assignments d(x_s, y_s).  Denominator: the distance
    distribution of all ordered user pairs, estimated from a uniform
    user subsample placed at their current provisional home estimates
    and scaled up to N^2.
    """
    world = compile_world(dataset)
    rng = rng if rng is not None else np.random.default_rng(params.seed + 1)
    previous = sampler.following_model.law
    state = sampler.state
    mask = state.mu == 0
    if int(mask.sum()) < 20:
        return previous
    dmat = world.gazetteer.distance_matrix
    n_loc = world.n_locations
    edge_grid = np.bincount(
        state.x[mask] * n_loc + state.y[mask], minlength=n_loc * n_loc
    )

    homes = sampler.current_home_estimates()
    n = world.n_users
    sample_n = min(max_users, n)
    chosen = rng.choice(n, size=sample_n, replace=False)
    scale = (n * (n - 1)) / float(sample_n * (sample_n - 1))

    min_miles = params.min_distance_miles
    buckets = log_spaced_bucket_following_pairs(
        dmat.reshape(-1),
        edge_grid,
        n_buckets=n_buckets,
        min_miles=min_miles,
        max_miles=max(float(dmat.max()), min_miles * 10),
        weights=_ordered_pair_counts(homes[chosen], n_loc),
    ).nonzero()
    if len(buckets) < 2:
        return previous
    pair_counts = buckets.totals * scale
    try:
        law = fit_power_law(
            buckets.centers,
            buckets.edges / pair_counts,
            weights=pair_counts,
            min_x=params.min_distance_miles,
        )
    except ValueError:
        return previous
    if law.alpha > _MIN_DECAY:
        return previous
    return law
