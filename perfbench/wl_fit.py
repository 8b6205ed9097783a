"""The ``fit`` workload: train MLP on a paper-shaped world, score it.

Why: ``core`` and ``engine`` do nearly all the work here; in the other
two workloads they run only in set-up, with the ``vectorized`` engine
pinned.  So the default-engine flip (``loop`` -> ``vectorized``) and its
memory cost show here, with ``serve`` and ``ingest`` as controls.

Each fit has its own set-up: generating its world (the generator's
default, paper-shaped configuration: mean 10 friends, 14 venue
mentions).  The fit uses ``MLPParams`` defaults except a shortened sweep
schedule.  A run fits ``N_WORLDS`` worlds, seeded from the run's seed,
and then the first world again: that repeat must score exactly as the
first fit (same seed, same input), or it is a failed operation
(``fitting.Fits``).  The quality numbers are pooled over the worlds,
which averages out one world's luck; ``setup_s`` and ``core.fit_s`` are
medians over all the run's fits.  The work is fixed, not a share of the
run's seconds, so every run measures the same thing (~20 s on the
reference 2-core host).
"""

from __future__ import annotations

import time

from fitting import Fits
from harness import p50, self_peak_rss_mb

N_USERS = 900
N_ITERATIONS = 5
BURN_IN = 2
N_WORLDS = 3


def run(ctx) -> None:
    """Run the workload; fills ``ctx`` metrics, failures and report."""
    from repro import MLPParams
    from repro.data.generator import SyntheticWorldConfig, generate_world

    worlds = [ctx.seed * N_WORLDS + i for i in range(N_WORLDS)]
    fits = Fits(ctx)
    setup_times = []
    for world_seed in worlds + worlds[:1]:
        config = SyntheticWorldConfig(n_users=N_USERS, seed=world_seed)
        params = MLPParams(n_iterations=N_ITERATIONS, burn_in=BURN_IN, seed=world_seed)
        with ctx.spans.span("data.generate"):
            start = time.perf_counter()
            ds = generate_world(config, shards=4)
            setup_times.append(time.perf_counter() - start)
        fits.score(world_seed, ds, fits.fit(params, ds))

    pooled = fits.finish()
    ctx.metric("setup_s", p50(setup_times), "s")
    ctx.metric("rss_mb", self_peak_rss_mb(), "MB")
    ctx.metric("acc100", pooled["acc100"], "fraction")
    ctx.layer("data.generate_s", p50(setup_times), "s")
    ctx.report["fit"] = {
        "users": N_USERS,
        "worlds": worlds,
        "sweeps": N_ITERATIONS,
        "burn_in": BURN_IN,
        "engine": params.engine,
        "setup_s": [round(t, 4) for t in setup_times],
    }
