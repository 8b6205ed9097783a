"""Per-draw reference form of the sharded generator's edge phases.

The library's ``_ShardedArrays`` draws its following and tweeting
relationships from block-drawn uniforms with plain-Python CDF lookups.
These are the direct forms it must match bit for bit: one
``rng.random(n)`` + ``np.searchsorted`` + ``.clip`` per categorical
draw, the per-user numpy dedup, and the same RNG consumption order.
The users phase is shared (``_ShardedArrays.sample_users``).  Test-only;
they cost a handful of numpy calls per draw.
"""

from __future__ import annotations

import numpy as np

from repro.data.columnar import ColumnarWorld
from repro.data.generator import _cat, _cat64, _shard_rng, _ShardedArrays


def _draw_from_cdf(rng, cdf, size):
    """Vectorized inverse-CDF categorical draws (unnormalized cdf)."""
    u = rng.random(size) * cdf[-1]
    return np.searchsorted(cdf, u, side="right").clip(0, cdf.size - 1)


def _theta_cdf(builder, uid):
    ptr = builder.loc_indptr
    return np.cumsum(builder.weight_flat_arr[ptr[uid]:ptr[uid + 1]])


def _friend_cdf(builder, x, cache):
    if x in cache:
        return cache[x]
    cfg = builder.config
    d = np.maximum(builder.distance[x], cfg.min_distance_miles)
    cache[x] = np.cumsum(builder.mass * d**cfg.alpha)
    return cache[x]


def _psi_cdf(builder, location_id, cache):
    if location_id in cache:
        return cache[location_id]
    cfg = builder.config
    kernel = (builder.distance[location_id] + cfg.venue_d0) ** cfg.venue_kappa
    local = np.bincount(
        builder.loc_venue,
        weights=builder.gazetteer.populations * kernel,
        minlength=builder.n_venues,
    )
    local /= local.sum()
    psi = (
        (1.0 - cfg.venue_popularity_mix) * local
        + cfg.venue_popularity_mix * builder.venue_popularity
    )
    cache[location_id] = np.cumsum(psi / psi.sum())
    return cache[location_id]


def reference_following(builder):
    """Phase 2, one numpy draw call per categorical draw."""
    cfg = builder.config
    rng_celeb = _shard_rng(cfg.seed, 4, 0)
    ranks = rng_celeb.permutation(cfg.n_users) + 1
    celeb_cdf = np.cumsum(1.0 / ranks.astype(np.float64) ** cfg.celebrity_zipf)
    friend_cdfs = {}
    parts = [[] for _ in range(5)]
    for shard, (lo, hi) in enumerate(builder.shard_bounds):
        rng = _shard_rng(cfg.seed, 2, shard)
        m = hi - lo
        if m == 0:
            continue
        degrees = np.maximum(1, rng.poisson(cfg.mean_friends, size=m))
        for local in range(m):
            uid = lo + local
            k = int(degrees[local])
            is_noise = rng.random(k) < cfg.noise_following
            friends = np.empty(k, dtype=np.int64)
            xs = np.full(k, -1, dtype=np.int64)
            ys = np.full(k, -1, dtype=np.int64)
            n_noise = int(is_noise.sum())
            if n_noise:
                friends[is_noise] = _draw_from_cdf(rng, celeb_cdf, n_noise)
            rest = np.flatnonzero(~is_noise)
            if rest.size:
                locs = builder._user_locs(uid)
                xs[rest] = locs[
                    _draw_from_cdf(rng, _theta_cdf(builder, uid), rest.size)
                ]
                for e in rest.tolist():
                    cdf = _friend_cdf(builder, int(xs[e]), friend_cdfs)
                    y = int(_draw_from_cdf(rng, cdf, 1)[0])
                    s, t = builder.res_indptr[y], builder.res_indptr[y + 1]
                    if s == t:
                        friends[e] = uid
                        continue
                    u = builder.res_base[y] + rng.random() * (
                        builder.res_cdf[t - 1] - builder.res_base[y]
                    )
                    pick = int(
                        np.searchsorted(builder.res_cdf[s:t], u, side="right")
                    )
                    pick = min(pick, t - s - 1)
                    ys[e] = y
                    friends[e] = builder.res_users[s + pick]
            keep = friends != uid
            _, first = np.unique(friends[keep], return_index=True)
            sel = np.flatnonzero(keep)[np.sort(first)]
            parts[0].append(np.full(sel.size, uid))
            for part, arr in zip(parts[1:], (friends, xs, ys, is_noise)):
                part.append(arr[sel])
    return (
        _cat64(parts[0]),
        _cat64(parts[1]),
        _cat64(parts[2]),
        _cat64(parts[3]),
        _cat(parts[4], np.bool_),
    )


def reference_tweeting(builder):
    """Phase 3, one numpy draw call per categorical draw."""
    cfg = builder.config
    venue_pop_cdf = np.cumsum(builder.venue_popularity)
    psi_cdfs = {}
    parts = [[] for _ in range(4)]
    for shard, (lo, hi) in enumerate(builder.shard_bounds):
        rng = _shard_rng(cfg.seed, 3, shard)
        m = hi - lo
        if m == 0:
            continue
        counts = np.maximum(1, rng.poisson(cfg.mean_venues, size=m))
        for local in range(m):
            uid = lo + local
            k = int(counts[local])
            is_noise = rng.random(k) < cfg.noise_tweeting
            venues = np.empty(k, dtype=np.int64)
            zs = np.full(k, -1, dtype=np.int64)
            n_noise = int(is_noise.sum())
            if n_noise:
                venues[is_noise] = _draw_from_cdf(rng, venue_pop_cdf, n_noise)
            rest = np.flatnonzero(~is_noise)
            if rest.size:
                locs = builder._user_locs(uid)
                zs[rest] = locs[
                    _draw_from_cdf(rng, _theta_cdf(builder, uid), rest.size)
                ]
                for e in rest.tolist():
                    venues[e] = _draw_from_cdf(
                        rng, _psi_cdf(builder, int(zs[e]), psi_cdfs), 1
                    )[0]
            for part, arr in zip(parts, (np.full(k, uid), venues, zs, is_noise)):
                part.append(arr)
    return (
        _cat64(parts[0]),
        _cat64(parts[1]),
        _cat64(parts[2]),
        _cat(parts[3], np.bool_),
    )


def reference_sharded_arrays(config, gazetteer, shards):
    """``_sharded_arrays`` with the per-draw edge phases."""
    builder = _ShardedArrays(config, gazetteer, shards)
    builder.sample_users()
    return builder, reference_following(builder), reference_tweeting(builder)


def reference_columnar_world(config, gazetteer, shards):
    """``generate_columnar_world`` with the per-draw edge phases."""
    builder, following, tweeting = reference_sharded_arrays(
        config, gazetteer, shards
    )
    return ColumnarWorld.from_edge_arrays(
        gazetteer,
        observed_location=builder.registered,
        edge_src=following[0],
        edge_dst=following[1],
        tweet_user=tweeting[0],
        tweet_venue=tweeting[1],
    )
