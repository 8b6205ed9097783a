"""Component micro-benchmarks: honest multi-round timings of the
building blocks (no paper artifact attached).

These give pytest-benchmark real statistics and catch performance
regressions in the hot paths: world generation, prior construction,
one Gibbs sweep (both engines), a fit's set-up stages, distance-matrix
construction, venue extraction.  The loop-vs-vectorized head-to-head
runs on the *medium* dataset (below) and records its numbers to the
JSON journal.
"""

import sys
import time
from pathlib import Path

import pytest

from repro.core.calibration import fit_initial_power_law
from repro.core.gibbs import GibbsSampler
from repro.core.params import MLPParams
from repro.core.priors import build_user_priors
from repro.data.generator import (
    SyntheticWorldConfig,
    generate_columnar_world,
    generate_world,
)
from repro.engine import VectorizedGibbsSampler
from repro.geo.coords import pairwise_distance_matrix
from repro.geo.us_cities import builtin_gazetteer
from repro.text.venues import VenueExtractor

#: The medium synthetic dataset of the engine head-to-head: a
#: follow-dominated corpus in the spirit of the paper's Twitter crawl
#: (following relationships outnumber venue mentions roughly 5:1, and a
#: celebrity-noise share matching the rho_f prior below).  Medium sits
#: between the 400-user micro world here and the 1500-user default
#: experiment scale.
MEDIUM_WORLD = SyntheticWorldConfig(
    n_users=1200,
    seed=11,
    mean_friends=30.0,
    mean_venues=6.0,
    noise_following=0.35,
)
MEDIUM_PARAMS = MLPParams(n_iterations=4, burn_in=0, seed=1, rho_f=0.35)


@pytest.fixture(scope="module")
def bench_world():
    """Small world for component micro-benchmarks."""
    return generate_world(SyntheticWorldConfig(n_users=400, seed=3))


@pytest.fixture(scope="module")
def medium_world():
    """Mid-size world for the heavier component benches."""
    return generate_world(MEDIUM_WORLD)


def test_bench_world_generation(benchmark):
    """Generate a 400-user world from scratch."""
    ds = benchmark.pedantic(
        lambda: generate_world(SyntheticWorldConfig(n_users=400, seed=3)),
        rounds=3,
        iterations=1,
    )
    assert ds.n_users == 400


def test_bench_distance_matrix(benchmark):
    """All-pairs haversine over the full gazetteer (~517 cities)."""
    gaz = builtin_gazetteer()
    lats, lons = gaz.lats, gaz.lons
    mat = benchmark(pairwise_distance_matrix, lats, lons)
    assert mat.shape[0] == len(gaz)


def test_bench_build_priors(benchmark, bench_world):
    """Candidacy vectors + gamma priors for every user."""
    params = MLPParams()
    priors = benchmark(build_user_priors, bench_world, params)
    assert priors.n_users == bench_world.n_users


def test_bench_gibbs_sweep(benchmark, bench_world):
    """One full Gibbs sweep over all relationships (the inner loop)."""
    params = MLPParams(n_iterations=2, burn_in=0, seed=1)
    sampler = GibbsSampler(bench_world, params)
    sampler.initialize()
    sampler.sweep()  # warm the chain
    benchmark.pedantic(sampler.sweep, rounds=3, iterations=1)


def test_bench_gibbs_sweep_vectorized(benchmark, bench_world):
    """The same sweep on the vectorized engine (identical chain)."""
    params = MLPParams(n_iterations=2, burn_in=0, seed=1)
    sampler = VectorizedGibbsSampler(bench_world, params)
    sampler.initialize()
    sampler.sweep()  # warm the chain and build the layout
    benchmark.pedantic(sampler.sweep, rounds=3, iterations=1)


def _sustained_sweep_seconds(sampler, sweeps: int, repeats: int) -> float:
    """Best sustained per-sweep time over several measurement windows."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(sweeps):
            sampler.sweep()
        best = min(best, (time.perf_counter() - start) / sweeps)
    return best


def test_bench_engine_head_to_head(medium_world, artifact_dir, journal):
    """Loop vs vectorized on the medium dataset: same chain, wall clock.

    Both engines run the identical chain (same seed, bit-identical
    states -- the golden tests prove it), so the comparison is pure
    implementation speed.  The measured speedup and the per-engine
    sweep times land in the JSON journal and in
    ``results/engine_head_to_head.txt``.  The hard floor asserted here
    is a regression guard; the issue-level target (>= 3x) is recorded
    as a flag because single-core hosts top out around 2.5-2.9x -- see
    docs/PERFORMANCE.md for why bit-identity caps the ratio.
    """
    loop = GibbsSampler(medium_world, MEDIUM_PARAMS)
    vec = VectorizedGibbsSampler(medium_world, MEDIUM_PARAMS)
    loop.initialize()
    vec.initialize()
    for _ in range(3):  # warm both chains past the cold start
        loop.sweep()
        vec.sweep()
    loop_s = _sustained_sweep_seconds(loop, sweeps=4, repeats=2)
    vec_s = _sustained_sweep_seconds(vec, sweeps=4, repeats=2)
    speedup = loop_s / vec_s
    edges = medium_world.n_following + medium_world.n_tweeting
    summary = (
        f"engine head-to-head (medium dataset: {medium_world.n_users} users, "
        f"{edges} relationships)\n"
        f"  loop       {loop_s * 1e3:8.1f} ms/sweep "
        f"({loop_s / edges * 1e6:.1f} us/edge)\n"
        f"  vectorized {vec_s * 1e3:8.1f} ms/sweep "
        f"({vec_s / edges * 1e6:.1f} us/edge)\n"
        f"  speedup    {speedup:8.2f}x"
    )
    (artifact_dir / "engine_head_to_head.txt").write_text(summary + "\n")
    print()
    print(summary)
    journal(
        "timing",
        bench="engine_head_to_head",
        n_users=medium_world.n_users,
        n_relationships=edges,
        loop_seconds_per_sweep=loop_s,
        vectorized_seconds_per_sweep=vec_s,
        speedup=speedup,
        meets_3x_target=bool(speedup >= 3.0),
    )
    assert speedup >= 2.0, (
        f"vectorized engine regressed: only {speedup:.2f}x over loop"
    )


#: The fit set-up bench's world: the 3k sparse population shape
#: (mean 3 friends, 4 venues) that the serve benchmark trains on.
SETUP_WORLD = SyntheticWorldConfig(
    n_users=3000, seed=1, mean_friends=3.0, mean_venues=4.0
)


def _best_seconds(fn, repeats: int = 3) -> float:
    """Best wall time of ``fn()`` over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_fit_setup(journal):
    """Per-stage cost of a fit's set-up before the first sweep.

    Calibration (the Sec. 4.1 power-law fit), the sampler's initial
    draw, the vectorized engine's assignment-slot map and its sweep
    layout, each timed on the 3k sparse world; calibration,
    initialization and layout also against their pair-by-pair /
    edge-by-edge reference forms in ``tests/reference_setup.py``, which
    they match exactly.  The floor guards the calibration speedup
    (measured ~20x).
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from reference_setup import (
        reference_initial_fit,
        reference_initialize,
        reference_layout,
    )

    world = generate_columnar_world(SETUP_WORLD, shards=4)
    params = MLPParams(n_iterations=4, burn_in=1, seed=1, engine="vectorized")
    priors = build_user_priors(world, params)
    priors.packed()  # shared across chains; not a per-fit stage

    calibrate_s = _best_seconds(lambda: fit_initial_power_law(world, params))
    reference_s = _best_seconds(lambda: reference_initial_fit(world, params))
    assert fit_initial_power_law(world, params) == reference_initial_fit(
        world, params
    )

    def sampler():
        return VectorizedGibbsSampler(
            world, params, priors=priors, alpha=-0.5, beta=0.01
        )

    initialize_s = _best_seconds(lambda: sampler().initialize())
    init_reference_s = _best_seconds(lambda: reference_initialize(sampler()))
    warm = sampler()
    warm.initialize()
    warm._ensure_layout()

    def positions():
        warm._positions_dirty = True
        warm._rebuild_positions()

    positions_s = _best_seconds(positions)
    layout_s = _best_seconds(warm._build_layout)
    layout_reference_s = _best_seconds(lambda: reference_layout(warm))
    speedup = reference_s / calibrate_s
    print(
        f"\nfit set-up ({world.n_users} users): calibrate "
        f"{calibrate_s * 1e3:.1f} ms ({speedup:.1f}x over pairwise "
        f"{reference_s * 1e3:.1f} ms), initialize {initialize_s * 1e3:.1f} ms "
        f"(per-edge {init_reference_s * 1e3:.1f} ms), positions "
        f"{positions_s * 1e3:.1f} ms, layout {layout_s * 1e3:.1f} ms "
        f"(per-edge {layout_reference_s * 1e3:.1f} ms)"
    )
    journal(
        "timing",
        name="fit_setup",
        n_users=world.n_users,
        n_following=world.n_following,
        n_tweeting=world.n_tweeting,
        calibrate_seconds=calibrate_s,
        calibrate_reference_seconds=reference_s,
        initialize_seconds=initialize_s,
        initialize_reference_seconds=init_reference_s,
        positions_seconds=positions_s,
        layout_seconds=layout_s,
        layout_reference_seconds=layout_reference_s,
        speedup=round(speedup, 2),
    )
    assert speedup >= 5.0, f"calibration only {speedup:.1f}x over pairwise"


def test_bench_venue_extraction(benchmark):
    """Extract venues from 200 tweets against the full gazetteer."""
    gaz = builtin_gazetteer()
    extractor = VenueExtractor(gaz)
    texts = [
        f"heading from round rock to los angeles then {city.city.lower()}"
        for city in list(gaz)[:200]
    ]

    def run():
        return sum(len(extractor.extract(t)) for t in texts)

    count = benchmark(run)
    assert count >= 400
