"""Distance bucketing: the Fig. 3(a) measurement pipeline.

The paper computes the empirical following probability at distance d by
bucketing all labeled-user pairs into 1-mile intervals and taking, per
bucket, (number of pairs with a following relationship) / (total number
of pairs).  This module implements that pipeline over arbitrary pair
samples; the power-law fit then runs on the resulting curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class DistanceBuckets:
    """Per-bucket pair counts and edge counts over distance intervals.

    ``edges[i]`` pairs with ``totals[i]`` pairs fell into the bucket
    whose representative distance is ``centers[i]``.  Buckets with no
    pairs are omitted, so arrays are parallel and dense.
    """

    centers: np.ndarray
    totals: np.ndarray
    edges: np.ndarray
    bucket_miles: float

    @property
    def probabilities(self) -> np.ndarray:
        """Empirical edge probability per bucket."""
        return self.edges / self.totals

    def nonzero(self) -> "DistanceBuckets":
        """Restrict to buckets with at least one edge (log-fittable)."""
        mask = self.edges > 0
        return DistanceBuckets(
            centers=self.centers[mask],
            totals=self.totals[mask],
            edges=self.edges[mask],
            bucket_miles=self.bucket_miles,
        )

    def __len__(self) -> int:
        return len(self.centers)


def bucket_following_pairs(
    distances: np.ndarray,
    has_edge: np.ndarray,
    bucket_miles: float = 1.0,
    max_miles: float | None = None,
) -> DistanceBuckets:
    """Bucket (distance, has_edge) pair observations into intervals.

    Parameters
    ----------
    distances:
        Pair distances in miles.
    has_edge:
        Parallel boolean/0-1 array: does the pair have a following
        relationship?
    bucket_miles:
        Interval width; the paper uses 1 mile.
    max_miles:
        Pairs beyond this distance are dropped (``None`` keeps all).

    The representative distance of bucket ``k`` (covering
    ``[k*w, (k+1)*w)``) is its midpoint, except the first bucket which
    uses ``max(w/2, w)`` -- for 1-mile buckets that is 1 mile, matching
    the paper's clamp of zero-distance pairs.
    """
    distances = np.asarray(distances, dtype=np.float64)
    has_edge = np.asarray(has_edge).astype(bool)
    if distances.shape != has_edge.shape or distances.ndim != 1:
        raise ValueError("distances and has_edge must be parallel 1-D arrays")
    if bucket_miles <= 0:
        raise ValueError("bucket_miles must be positive")
    if max_miles is not None:
        keep = distances <= max_miles
        distances = distances[keep]
        has_edge = has_edge[keep]
    if distances.size == 0:
        return DistanceBuckets(
            centers=np.empty(0),
            totals=np.empty(0),
            edges=np.empty(0),
            bucket_miles=bucket_miles,
        )
    idx = np.floor(distances / bucket_miles).astype(np.int64)
    uniq, inverse = np.unique(idx, return_inverse=True)
    totals = np.bincount(inverse).astype(np.float64)
    edges = np.bincount(inverse, weights=has_edge.astype(np.float64))
    centers = (uniq + 0.5) * bucket_miles
    # Clamp the zero bucket's representative up to bucket width so the
    # log-log fit never sees sub-clamp distances.
    centers = np.maximum(centers, bucket_miles)
    return DistanceBuckets(
        centers=centers,
        totals=totals,
        edges=edges,
        bucket_miles=bucket_miles,
    )


def log_spaced_bucket_following_pairs(
    distances: np.ndarray,
    has_edge: np.ndarray,
    n_buckets: int = 40,
    min_miles: float = 1.0,
    max_miles: float = 3000.0,
    weights: np.ndarray | None = None,
) -> DistanceBuckets:
    """Like :func:`bucket_following_pairs` but with log-spaced buckets.

    At the synthetic-data scale, uniform 1-mile buckets beyond a few
    hundred miles are nearly empty; log-spaced buckets give every decade
    of distance similar statistical weight, which stabilizes the
    Gibbs-EM refit of (alpha, beta).

    ``weights``, when given, makes entry ``i`` stand for ``weights[i]``
    pairs at ``distances[i]``, of which ``has_edge[i]`` -- then a count,
    not a flag -- have a following relationship.  Pairs that share a
    distance (every user pair between the same two locations) then
    bucket in one pass over the distinct distances.  Integer-valued
    counts sum exactly, so the buckets equal those of the expanded
    one-entry-per-pair input.
    """
    distances = np.asarray(distances, dtype=np.float64)
    if weights is None:
        has_edge = np.asarray(has_edge).astype(bool).astype(np.float64)
    else:
        has_edge = np.asarray(has_edge, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != distances.shape:
            raise ValueError("weights must be parallel to distances")
    if distances.shape != has_edge.shape or distances.ndim != 1:
        raise ValueError("distances and has_edge must be parallel 1-D arrays")
    if n_buckets < 2:
        raise ValueError("need at least two buckets")
    clamped = np.clip(distances, min_miles, max_miles)
    bounds = np.logspace(
        np.log10(min_miles), np.log10(max_miles), n_buckets + 1
    )
    idx = np.clip(np.searchsorted(bounds, clamped, side="right") - 1, 0, n_buckets - 1)
    if weights is None:
        totals = np.bincount(idx, minlength=n_buckets).astype(np.float64)
    else:
        totals = np.bincount(idx, weights=weights, minlength=n_buckets)
    edges = np.bincount(idx, weights=has_edge, minlength=n_buckets)
    centers = np.sqrt(bounds[:-1] * bounds[1:])  # geometric midpoints
    mask = totals > 0
    return DistanceBuckets(
        centers=centers[mask],
        totals=totals[mask],
        edges=edges[mask],
        bucket_miles=float("nan"),
    )
