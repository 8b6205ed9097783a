"""The ``serve`` workload: reads only, against ``repro serve --workers 0``.

Why: the HTTP stack, ``serving.foldin``/``serving.batch`` and
``serving.cache`` do the work here, with no writes.  The fold-in solver
consolidation and the single HTTP stack show here; ``fit`` and
``ingest`` are their no-change controls.

Set-up (repeated ``SETUPS`` times, median reported): generate a sparse
population-shape world (mean 3 friends, 4 venues), fit it with the
``vectorized`` engine pinned (so set-up does not move with the
default-engine flip), save the artifact and boot the server to its
banner.  Requests are ``POST /predict-home`` with k users (k = 1 for
about half of them, else uniform in [2, 16]); each spec is either a
fresh random subset of an unlabeled user's friends and venues (a cache
miss with a known true home) or a replay from a hot set smaller than
the server's 1024-entry cache.  Load comes from ``nproc`` persistent
connections of this one process:

- ``light``: open-loop Poisson at ``LIGHT_RPS``, well below capacity;
- ``heavy``: open-loop Poisson at ``HEAVY_RPS``, just below capacity;
- ``max``: closed loop on every connection for ``MAX_SECONDS``.

The phases are a fixed amount of traffic (~18 s), not a share of the
run's seconds, so every run measures the same thing.

Open-loop latency is timed from each request's due time, so a stall
also delays the requests queued behind it.  Every answer is compared
with a cache-less in-process ``FoldInPredictor`` loaded from the same
artifact, solving the identical request body.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from fitting import Fits
from harness import (
    Conn,
    ServerProcess,
    closed_loop,
    hist_mean_ms,
    metric_delta,
    open_loop,
    p50,
    parse_prometheus,
    summary,
)

N_USERS = 3000
N_ITERATIONS = 4
BURN_IN = 1
SETUPS = 2
HOT_SET = 256
COLD_SHARE = 0.5
#: Share of single-spec requests.  Kept off 0.5 so the median request is
#: not the boundary between the k = 1 and k >= 2 latency populations.
SINGLE_SHARE = 0.45
#: Open-loop phases: rate and request count.  The counts sit just under
#: a tail-ladder step, so each tail percentile keeps ~20 samples beyond
#: it (light: p75 of 72, heavy: p90 of 190) instead of the bare 10.
LIGHT_RPS, LIGHT_REQUESTS = 8.0, 72
HEAVY_RPS, HEAVY_REQUESTS = 26.0, 190
MAX_SECONDS = 2.5
#: The traffic shape is part of the workload's definition, like its
#: rates: one fixed Poisson send schedule and one fixed sequence of
#: request sizes and cold/hot slots per phase, for every seed.  The seed
#: varies the world and what each request asks, not how bursty or large
#: the asking is.
SHAPE_SEED = 20120801
CEILING_SECONDS = 1.0
#: How far a served probability may be from a fresh in-process solve.
#: The server's cache keys a spec by the multiset of its evidence, and
#: the solve is not bit-invariant under a permutation of that evidence
#: (NOTES.md, finding 3), so a cached answer may differ from a fresh
#: solve of the request as sent in its last bits, never by more.
PROB_TOL = 1e-12
FLOOR_SECONDS = 1.5


def _setup(ctx, fits, seed: int):
    """Generate, fit, save, boot.

    Returns (dataset, result, artifact, server, times).
    """
    from repro import MLPParams
    from repro.data.generator import SyntheticWorldConfig, generate_world
    from repro.serving.artifacts import save_result

    config = SyntheticWorldConfig(
        n_users=N_USERS, seed=seed, mean_friends=3.0, mean_venues=4.0
    )
    params = MLPParams(
        n_iterations=N_ITERATIONS, burn_in=BURN_IN, engine="vectorized", seed=seed
    )
    artifact = ctx.workdir / "serve.mlp.npz"
    start = time.perf_counter()
    with ctx.spans.span("data.generate"):
        ds = generate_world(config, shards=4)
    generated = time.perf_counter()
    result = fits.fit(params, ds)
    with ctx.spans.span("serving.artifacts.save"):
        save_result(result, artifact)
    server = ServerProcess([str(artifact), "--workers", "0"], ctx.workdir)
    total = time.perf_counter() - start
    return ds, result, artifact, server, {
        "setup_s": total,
        "generate_s": generated - start,
        "boot_s": server.boot_s,
    }


def _spec(rng, ds, user: int) -> dict:
    """A random non-empty subset of one user's friends and venues."""
    friends = list(ds.friends_of[user])
    venues = list(ds.venues_of[user])
    keep_f = [f for f in friends if rng.random() < 0.7]
    keep_v = [v for v in venues if rng.random() < 0.7]
    if not keep_f and not keep_v:
        keep_f, keep_v = friends[:1], venues[:1]
    return {"friends": keep_f, "venues": keep_v}


def _requests(shape, rng, ds, count: int, hot: list[dict], held_out: list[int]):
    """``count`` request bodies with, per spec, its true home (cold only).

    ``shape`` draws each request's size and cold/hot pattern, ``rng``
    what is asked: the user, the evidence subset, the hot entry.
    """
    out = []
    for _ in range(count):
        k = 1 if shape.random() < SINGLE_SHARE else int(shape.integers(2, 17))
        users, truth = [], []
        for _ in range(k):
            if shape.random() < COLD_SHARE:
                user = held_out[int(rng.integers(len(held_out)))]
                users.append(_spec(rng, ds, user))
                truth.append(ds.users[user].true_home)
            else:
                users.append(hot[int(rng.integers(len(hot)))])
                truth.append(None)
        body = json.dumps({"users": users}).encode("utf-8")
        out.append((("POST", "/predict-home", body), truth))
    return out


def _mismatch(got: dict, want) -> str | None:
    """Why a served prediction disagrees with the in-process one, or None.

    The home must be the oracle's (a different home is accepted only
    where the oracle's profile ties the two), and each served top entry
    must carry the oracle's probability at that rank and the oracle's
    probability for that location, within ``PROB_TOL``.
    """
    profile = want.profile
    served = got["profile"]
    if want.home is None:
        return None if got["home"] is None and not served else "home"
    if got["home"] is None:
        return "home"
    if got["home"] != want.home and (
        abs(profile.probability_of(got["home"]) - want.confidence) > PROB_TOL
    ):
        return "home"
    if len(served) != min(len(profile.entries), 3):
        return "profile length"
    for entry, (_, prob) in zip(served, profile.entries):
        if (
            abs(entry["probability"] - prob) > PROB_TOL
            or abs(profile.probability_of(entry["location"]) - prob) > PROB_TOL
        ):
            return "profile"
    return None


def _scrape(conn) -> dict:
    """The server's ``/metrics``, parsed."""
    return parse_prometheus(conn.request("GET", "/metrics")[2].decode())


def _ceiling(connections: int) -> float:
    """Closed-loop requests/s of this client against the one-write stub."""
    stub = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("stub_server.py"))],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = stub.stdout.readline()
        port = int(line.rsplit(":", 1)[1])
        conns = [Conn("127.0.0.1", port) for _ in range(connections)]
        try:
            records, elapsed = closed_loop(
                conns, [("GET", "/", b"")] * 1_000_000, CEILING_SECONDS
            )
        finally:
            for conn in conns:
                conn.close()
    finally:
        stub.terminate()
        stub.wait()
        stub.stdout.close()
    return sum(1 for r in records if r[3] == 200) / elapsed


def run(ctx) -> None:
    """Run the workload; fills ``ctx`` metrics, failures and report."""
    from repro.evaluation.metrics import accuracy_at
    from repro.serving.artifacts import artifact_metadata, load_result
    from repro.serving.foldin import FoldInPredictor, prediction_payload

    connections = os.cpu_count() or 1
    fits = Fits(ctx)
    setups, server = [], None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            ds, result, artifact, server, times = _setup(ctx, fits, ctx.seed)
            setups.append(times)
            fits.score(ctx.seed, ds, result)

        with ctx.spans.span("serving.artifacts.load"):
            start = time.perf_counter()
            result = load_result(artifact)
            load_s = time.perf_counter() - start
        oracle = FoldInPredictor(
            result, artifact_id=artifact_metadata(artifact)["artifact_id"]
        )
        gaz = ds.gazetteer

        rng = np.random.default_rng(ctx.seed)
        held_out = [
            u
            for u in ds.unlabeled_user_ids
            if len(ds.friends_of[u]) + len(ds.venues_of[u]) >= 2
        ]
        hot = [
            _spec(rng, ds, held_out[int(rng.integers(len(held_out)))])
            for _ in range(HOT_SET)
        ]
        phases = {"light": LIGHT_REQUESTS, "heavy": HEAVY_REQUESTS, "max": 4000}
        plan = {
            name: _requests(
                np.random.default_rng([SHAPE_SEED, index]), rng, ds, n, hot, held_out
            )
            for index, (name, n) in enumerate(phases.items())
        }

        ceiling = _ceiling(connections)
        conns = [server.connect() for _ in range(connections)]
        try:
            # Warm-up (untimed): load the hot set into the server's cache.
            warmup = [
                json.dumps({"users": hot[i:i + 16]}).encode()
                for i in range(0, HOT_SET, 16)
            ]
            for body in warmup:
                conns[0].request("POST", "/predict-home", body)
            before = after = None
            if ctx.trace:
                before = _scrape(conns[0])
            records = {}
            for index, (name, rate) in enumerate(
                (("light", LIGHT_RPS), ("heavy", HEAVY_RPS))
            ):
                jobs = [job for job, _ in plan[name]]
                schedule = np.random.default_rng([SHAPE_SEED, 10 + index])
                records[name] = open_loop(conns, jobs, schedule, rate)
            max_jobs = [job for job, _ in plan["max"]]
            records["max"], max_elapsed = closed_loop(
                conns, max_jobs, min(MAX_SECONDS, ctx.seconds)
            )
            if ctx.trace:
                after = _scrape(conns[0])
                floor, _ = closed_loop(
                    conns, [("GET", "/artifact", b"")] * 100_000, FLOOR_SECONDS
                )
        finally:
            for conn in conns:
                conn.close()
        rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    # -- correctness: every answer against a cache-less in-process solve
    # of the identical body, timed by layer (solve, codec) on the way.
    expected = {}
    replay = {"single": [], "window": [], "codec": []}
    for name in records:
        for index in range(len(records[name])):
            request_body = plan[name][index][0][2]
            t0 = time.perf_counter()
            users = json.loads(request_body)["users"]
            t1 = time.perf_counter()
            specs = [oracle.resolve_request(u) for u in users]
            predictions = oracle.predict_batch(specs, use_cache=False)
            t2 = time.perf_counter()
            json.dumps(
                {"predictions": [prediction_payload(p, gaz) for p in predictions]}
            )
            t3 = time.perf_counter()
            expected[name, index] = predictions
            if len(specs) == 1:
                replay["single"].append((t2 - t1) * 1e3)
            else:
                replay["window"].append((t2 - t1) * 1e3 / len(specs))
            replay["codec"].append((t1 - t0 + t3 - t2) * 1e3)

    cold_pred, cold_true = [], []
    ok_latency = {}
    completed_max = 0
    for name in ("light", "heavy", "max"):
        lat = []
        for index, rec in enumerate(records[name]):
            due, sent, done, status, headers, body, error = rec
            ctx.attempted += 1
            truth = plan[name][index][1]
            reason = None
            if error is not None:
                reason = f"transport: {error}"
            elif status != 200:
                reason = f"http {status}: {body[:120]!r}"
            else:
                want = expected[name, index]
                got = json.loads(body)["predictions"]
                if len(got) != len(want):
                    reason = (
                        f"wrong answer: {len(got)} predictions for {len(want)} specs"
                    )
                else:
                    for spec_index, (g, w) in enumerate(zip(got, want)):
                        what = _mismatch(g, w)
                        if what is not None:
                            reason = (
                                f"wrong answer: spec {spec_index} {what} differs "
                                "from in-process fold-in"
                            )
                            break
                if reason is None:
                    for g, true_home in zip(got, truth):
                        if true_home is not None:
                            cold_pred.append(g["home"])
                            cold_true.append(true_home)
            if reason is not None:
                ctx.fail("/predict-home", status, f"{name}: {reason}")
                lat.append(float("inf"))
            else:
                lat.append((done - due) * 1e3)
                if name == "max":
                    completed_max += 1
        ok_latency[name] = lat

    homes = [(p, t) for p, t in zip(cold_pred, cold_true) if p is not None]
    acc = (
        accuracy_at(gaz, [p for p, _ in homes], [t for _, t in homes])
        * len(homes)
        / max(1, len(cold_true))
    )
    rps_max = completed_max / max_elapsed
    if rps_max > ceiling:
        ctx.fail(
            "/predict-home",
            "-",
            f"max: {rps_max:.1f} rps above harness ceiling {ceiling:.1f}",
        )

    light, heavy = summary(ok_latency["light"]), summary(ok_latency["heavy"])
    fits.finish()
    ctx.metric("setup_s", p50([s["setup_s"] for s in setups]), "s")
    ctx.metric("rss_mb", rss_mb, "MB")
    ctx.metric("acc100", acc, "fraction")
    ctx.layer("data.generate_s", p50([s["generate_s"] for s in setups]), "s")
    ctx.layer("light_p50_ms", light["p50"], "ms")
    ctx.layer("light_tail_ms", light["tail"], "ms")
    ctx.layer("heavy_p50_ms", heavy["p50"], "ms")
    ctx.layer("heavy_tail_ms", heavy["tail"], "ms")
    ctx.layer("rps_max", rps_max, "req/s")

    def lateness(name):
        late = [(r[1] - r[0]) * 1e3 for r in records[name]]
        return {"p50_ms": round(p50(late), 3), "max_ms": round(max(late), 3)}

    ctx.report["serve"] = {
        "users": N_USERS,
        "connections": connections,
        "harness_ceiling_rps": round(ceiling, 1),
        "phases": {
            "light": {
                "rate_rps": LIGHT_RPS,
                "latency_ms": light,
                "sender_late": lateness("light"),
            },
            "heavy": {
                "rate_rps": HEAVY_RPS,
                "latency_ms": heavy,
                "sender_late": lateness("heavy"),
            },
            "max": {
                "connections": connections,
                "completed": completed_max,
                "seconds": round(max_elapsed, 3),
                "latency_ms": summary(ok_latency["max"]),
            },
        },
        "cold_specs_scored": len(cold_true),
        "null_homes": len(cold_true) - len(homes),
        "setups": [{k: round(v, 4) for k, v in s.items()} for s in setups],
    }

    if ctx.trace:
        hits = metric_delta(before, after, "repro_cache_hits_total")
        misses = metric_delta(before, after, "repro_cache_misses_total")
        solves = metric_delta(before, after, "repro_foldin_solves_total")
        iters = metric_delta(before, after, "repro_foldin_iterations_total")
        floor_ms = [(r[2] - r[1]) * 1e3 for r in floor if r[3] == 200]
        ctx.layer("harness_ceiling_rps", ceiling, "1/s")
        ctx.layer("serving.server.boot_s", p50([s["boot_s"] for s in setups]), "s")
        ctx.layer("serving.artifacts.load_s", load_s, "s")
        ctx.layer("serving.http_floor_ms", p50(floor_ms), "ms")
        ctx.layer("serving.foldin.single_ms", p50(replay["single"]), "ms")
        ctx.layer("serving.foldin.window_ms_per_user", p50(replay["window"]), "ms")
        ctx.layer("serving.codec_ms", p50(replay["codec"]), "ms")
        ctx.layer("serving.cache.hit_ratio", hits / max(1.0, hits + misses), "fraction")
        ctx.layer("serving.foldin.solves", solves, "count")
        ctx.layer("serving.foldin.iters_per_solve", iters / max(1.0, solves), "count")
        ctx.report["trace"] = {
            "http_floor": summary(floor_ms),
            "solve_mean_ms": hist_mean_ms(before, after, "repro_foldin_solve_seconds"),
            "replayed_requests": len(replay["codec"]),
        }
