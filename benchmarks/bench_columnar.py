"""Columnar-world benchmarks: compile once, share everywhere.

Measures the three claims the ``ColumnarWorld`` refactor makes:

1. **Sharded generation + compile scales**: a >= 50k-user synthetic
   world is generated shard-by-shard and compiled without ever
   materializing the object graph; compile time is journaled across
   world sizes (the docs/PERFORMANCE.md scaling table reads these
   entries).
2. **Compiled exactly once per fit**: a K-chain pooled fit and a
   serving fold-in predictor over the same world trigger **zero**
   additional compiles (``repro.data.columnar.compile_count`` is
   diffed around the whole flow).
3. **Sharded generation without per-draw numpy calls**: the
   generator's block-drawn uniforms and plain-Python CDF lookups are
   timed against the per-draw reference form in
   ``tests/reference_generator.py`` on the ``fit`` and ``serve``
   workload world shapes, and must produce the same arrays.
4. **Arena setup >= 2x faster**: the vectorized engine's per-fit arena
   construction (the pre-refactor Python-loop offsets/concat/position-
   dict build, replicated here verbatim) is compared against the shared
   :meth:`~repro.core.priors.UserPriors.packed` layout; the packed
   build must be at least 2x faster, and its per-chain *reuse* is
   measured too (cache hit, effectively free).

Everything lands in ``benchmarks/results/bench_run.json`` via the
session journal.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.core.params import MLPParams
from repro.core.priors import UserPriors, build_user_priors
from repro.data import columnar
from repro.data.generator import (
    SyntheticWorldConfig,
    _sharded_arrays,
    generate_columnar_world,
)
from repro.geo.us_cities import builtin_gazetteer

#: The acceptance-scale world: >= 50k users, sparse degrees so the
#: end-to-end fit stays a smoke test, 8 shards.
COLUMNAR_USERS = 50_000
COLUMNAR_SHARDS = 8
COLUMNAR_SEED = 1

_world_cache: dict[int, object] = {}


def _sharded_world(n_users: int):
    """Module-level world cache (generation is the expensive part)."""
    if n_users not in _world_cache:
        _world_cache[n_users] = generate_columnar_world(
            SyntheticWorldConfig(
                n_users=n_users,
                seed=COLUMNAR_SEED,
                mean_friends=3.0,
                mean_venues=4.0,
            ),
            shards=COLUMNAR_SHARDS,
        )
    return _world_cache[n_users]


def test_sharded_generate_and_compile_scaling(journal):
    """Generation+compile wall time across world sizes (zero objects)."""
    for n_users in (5_000, 20_000, COLUMNAR_USERS):
        _world_cache.pop(n_users, None)
        t0 = time.perf_counter()
        world = _sharded_world(n_users)
        seconds = time.perf_counter() - t0
        journal(
            "timing",
            name="columnar_generate_compile",
            users=n_users,
            shards=COLUMNAR_SHARDS,
            following=world.n_following,
            tweeting=world.n_tweeting,
            seconds=round(seconds, 3),
        )
        print(
            f"[columnar] generate+compile {n_users} users: "
            f"{seconds:.2f}s ({world.n_following} + {world.n_tweeting} edges)"
        )
    assert _sharded_world(COLUMNAR_USERS).n_users == COLUMNAR_USERS


#: ``(label, config)`` of the generator bench: the ``fit`` workload's
#: paper-shaped world and the ``serve`` workload's sparse one, 4 shards.
GENERATE_WORLDS = (
    ("paper_900", SyntheticWorldConfig(n_users=900, seed=3)),
    (
        "sparse_3k",
        SyntheticWorldConfig(
            n_users=3000, seed=1, mean_friends=3.0, mean_venues=4.0
        ),
    ),
)


def _best_seconds(fn, repeats: int = 3):
    """Best wall time of ``fn()`` over ``repeats`` calls, and its value."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def test_sharded_generate_vs_reference(journal):
    """Sharded generation vs its per-draw reference: same arrays, faster."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from reference_generator import reference_sharded_arrays

    gazetteer = builtin_gazetteer()
    for label, config in GENERATE_WORLDS:
        seconds, (_, following, tweeting) = _best_seconds(
            lambda: _sharded_arrays(config, gazetteer, 4)
        )
        reference_seconds, (_, ref_following, ref_tweeting) = _best_seconds(
            lambda: reference_sharded_arrays(config, gazetteer, 4)
        )
        for got, want in zip(following + tweeting, ref_following + ref_tweeting):
            assert np.array_equal(got, want)
        speedup = reference_seconds / seconds
        journal(
            "timing",
            name="sharded_generate",
            world=label,
            users=config.n_users,
            shards=4,
            following=int(following[0].size),
            tweeting=int(tweeting[0].size),
            seconds=round(seconds, 4),
            reference_seconds=round(reference_seconds, 4),
            speedup=round(speedup, 2),
        )
        print(
            f"[columnar] sharded generate {label}: {seconds:.3f}s vs "
            f"per-draw {reference_seconds:.3f}s ({speedup:.1f}x)"
        )


def _legacy_arena_build(priors: UserPriors, n_loc: int):
    """The pre-refactor per-fit arena build, replicated op for op.

    This is exactly what ``VectorizedGibbsSampler._build_layout`` did
    before the shared packed layout existed: Python-loop offsets,
    per-user concatenations and per-user position dictionaries, all
    rebuilt for every sampler in every fit.
    """
    cands = priors.candidates
    gammas = priors.gamma
    n_users = len(cands)
    offsets = [0]
    for u in range(n_users):
        offsets.append(offsets[-1] + cands[u].size)
    arena_src = (
        np.concatenate([u * n_loc + cands[u] for u in range(n_users)])
        if n_users
        else np.empty(0, dtype=np.int64)
    )
    gamma_flat = (
        np.concatenate([gammas[u] for u in range(n_users)])
        if n_users
        else np.empty(0, dtype=np.float64)
    )
    gamma_vals = gamma_flat.tolist()
    arena_pos = [
        {int(loc): offsets[u] + p for p, loc in enumerate(cands[u])}
        for u in range(n_users)
    ]
    return offsets, arena_src, gamma_flat, gamma_vals, arena_pos


def test_arena_build_speedup(journal):
    """Shared packed arena build is >= 2x the pre-refactor build."""
    world = _sharded_world(COLUMNAR_USERS)
    params = MLPParams(n_iterations=2, burn_in=1, seed=0)
    t0 = time.perf_counter()
    priors = build_user_priors(world, params)
    priors_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    legacy = _legacy_arena_build(priors, world.n_locations)
    legacy_seconds = time.perf_counter() - t0

    # Fresh instance so packed() actually builds (same tuples, no copy).
    fresh = UserPriors(
        candidates=priors.candidates,
        gamma=priors.gamma,
        gamma_sum=priors.gamma_sum,
    )
    t0 = time.perf_counter()
    pack = fresh.packed()
    arena_src = pack.flat_candidates + world.n_locations * pack.slot_user
    packed_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    fresh.packed()  # cache hit: what chains 2..K of a pool pay
    reuse_seconds = time.perf_counter() - t0

    assert np.array_equal(arena_src, legacy[1])
    assert np.array_equal(pack.flat_gamma, legacy[2])
    speedup = legacy_seconds / packed_seconds
    journal(
        "timing",
        name="columnar_arena_build",
        users=world.n_users,
        priors_seconds=round(priors_seconds, 3),
        legacy_seconds=round(legacy_seconds, 3),
        packed_seconds=round(packed_seconds, 3),
        reuse_seconds=round(reuse_seconds, 6),
        speedup=round(speedup, 2),
    )
    print(
        f"[columnar] arena build: legacy {legacy_seconds:.3f}s, "
        f"packed {packed_seconds:.3f}s ({speedup:.1f}x), "
        f"reuse {reuse_seconds * 1e6:.0f}us"
    )
    assert speedup >= 2.0, (
        f"packed arena build only {speedup:.2f}x faster than the "
        "pre-refactor per-fit build (expected >= 2x)"
    )


def test_compile_once_pool_and_serving(journal):
    """K-chain fit + fold-in over one world: zero re-compiles, journaled."""
    from repro.core.model import MLPModel
    from repro.serving.foldin import FoldInPredictor

    world = _sharded_world(COLUMNAR_USERS)
    params = MLPParams(
        n_iterations=2,
        burn_in=1,
        seed=0,
        engine="vectorized",
        n_chains=2,
        track_edge_assignments=False,
    )
    before = columnar.compile_count()
    t0 = time.perf_counter()
    result = MLPModel(params).fit(world)
    fit_seconds = time.perf_counter() - t0
    compiles_fit = columnar.compile_count() - before

    t0 = time.perf_counter()
    predictor = FoldInPredictor(result)
    prediction = predictor.predict(predictor.spec_for_training_user(0))
    serve_seconds = time.perf_counter() - t0
    compiles_total = columnar.compile_count() - before

    journal(
        "timing",
        name="columnar_fit_end_to_end",
        users=world.n_users,
        chains=params.n_chains,
        engine=params.engine,
        iterations=params.n_iterations,
        fit_seconds=round(fit_seconds, 3),
        serve_seconds=round(serve_seconds, 3),
        compiles_during_fit=compiles_fit,
        compiles_total=compiles_total,
        predicted_home=prediction.home,
    )
    print(
        f"[columnar] {params.n_chains}-chain fit on {world.n_users} users: "
        f"{fit_seconds:.1f}s, fold-in {serve_seconds:.2f}s, "
        f"{compiles_total} re-compiles"
    )
    assert compiles_fit == 0, "fit re-compiled the already-compiled world"
    assert compiles_total == 0, "serving fold-in re-compiled the world"
    assert predictor.world is world
    assert result.posterior is not None and result.posterior.n_chains == 2
