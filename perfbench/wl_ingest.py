"""The ``ingest`` workload: writes beside reads, multi-process topology.

Why: ``data.delta``, ``data.journal``, ``serving.store``, worker adoption
and ``query`` do the work here.  O(|delta|) ingest shows here; ``serve``
and ``fit`` are its controls.

Server: ``repro serve ARTIFACT --workers 1 --journal J --store S``, J and
S inside the run's work directory (the benchmark writes nothing outside
its checkout; the run conditions record that filesystem).  Fsync is
called as in production.

First one sparse world of ``N_USERS`` users with truth is generated
(``data.generate_s``).  Set-up, repeated ``SETUPS`` times with the
median reported as ``setup_s``: fit the artifact on the world's first
``N_TRAIN`` users, save it, boot the server, grow the served world to
``N_GROWN`` users with large ``/ingest`` deltas (each body under 1 MiB)
and build the query index once.  The last set-up's server is kept.

Timed loop, a single feeder in a closed loop (an ingest pipeline waits
for each ack): ``POST /ingest`` with the next ``STEP`` arrivals (their
labels, every edge whose later endpoint is among them, their venue
mentions); then ``POST /predict-home`` for the arrived unlabeled users,
which must carry ``X-World-Generation`` >= the acked generation; then
one ``GET /query/*``.  It runs until the arrivals run out, so every run
does the same work whatever the host's speed.  At the end the last
acked ``world_hash`` must equal an in-process ``apply_delta`` chain over
the same deltas.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import numpy as np

from fitting import Fits
from harness import (
    ServerProcess,
    hist_mean_ms,
    metric_delta,
    p50,
    parse_prometheus,
    summary,
)

N_USERS = 30_000
N_TRAIN = 4_000
N_GROWN = 22_000
GROW_CHUNK = 4_400
STEP = 50
N_ITERATIONS = 4
BURN_IN = 1
HUB_FOLLOWERS = 100
SETUPS = 2


class _Arrivals:
    """Per-user slices of a compiled world, to cut deltas from."""

    def __init__(self, world):
        self.observed = world.observed_location
        later = np.maximum(world.edge_src, world.edge_dst)
        order = np.argsort(later, kind="stable")
        self.edge_key = later[order]
        self.edge_src = world.edge_src[order]
        self.edge_dst = world.edge_dst[order]
        order = np.argsort(world.tweet_user, kind="stable")
        self.tweet_user = world.tweet_user[order]
        self.tweet_venue = world.tweet_venue[order]

    def payload(self, first: int, stop: int) -> dict:
        """The ``/ingest`` body bringing users ``first..stop-1`` in."""
        e0, e1 = np.searchsorted(self.edge_key, [first, stop])
        t0, t1 = np.searchsorted(self.tweet_user, [first, stop])
        return {
            "new_users": [
                {"observed_location": int(loc)} if loc >= 0 else {}
                for loc in self.observed[first:stop].tolist()
            ],
            "edges": np.stack(
                [self.edge_src[e0:e1], self.edge_dst[e0:e1]], axis=1
            ).tolist(),
            "tweets": np.stack(
                [self.tweet_user[t0:t1], self.tweet_venue[t0:t1]], axis=1
            ).tolist(),
        }


def _queries(rng, gaz, count: int) -> list[str]:
    """A seeded rotation over the query routes (always-valid params)."""
    out = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            out.append("/query/top-cities?k=10")
        elif kind == 1:
            out.append("/query/aggregate?by=state")
        else:
            loc = gaz.by_id(int(rng.integers(len(gaz))))
            out.append(
                f"/query/radius?lat={loc.lat:.4f}&lon={loc.lon:.4f}&radius=100"
            )
    return out


def _hub_probe(ctx, conn, indegree, frontier: int, bodies, acks) -> dict:
    """Unlabel the most-followed served user, give it one new follower,
    and time the query refresh that re-scores it after each ingest."""
    hub = int(np.argmax(indegree[:frontier]))
    steps = (
        {"labels": {str(hub): None}},
        {"new_users": [{}], "edges": [[frontier, hub]]},
    )
    out = {"user": hub, "followers": int(indegree[hub]), "refresh_ms": []}
    for payload in steps:
        body = json.dumps(payload).encode()
        ctx.attempted += 1
        status, _, reply = conn.request("POST", "/ingest", body)
        if status != 200:
            ctx.fail("/ingest", status, f"hub probe: {reply[:160]!r}")
            break
        bodies.append(body)
        acks.append(json.loads(reply))
        ctx.attempted += 1
        start = time.perf_counter()
        status, headers, reply = conn.request("GET", "/query/top-cities?k=10")
        elapsed = (time.perf_counter() - start) * 1e3
        seen = int(headers.get("x-world-generation", "-1"))
        if status != 200 or seen < acks[-1]["generation"]:
            ctx.fail("/query/top-cities", status, f"hub probe: {reply[:160]!r}")
            break
        out["refresh_ms"].append(round(elapsed, 3))
    return out


def _setup(ctx, fits, ds, arrivals, index: int):
    """Fit, save, boot, grow; returns (server, conn, bodies, acks, times).

    ``bodies`` and ``acks`` are every ``/ingest`` body sent and every ack
    received, in order (the growth deltas so far).  The fit is scored
    against truth after the set-up's clock stops, while the server runs.
    """
    from repro import MLPParams
    from repro.serving.artifacts import save_result

    workdir = ctx.workdir / f"setup{index}"
    workdir.mkdir()
    start = time.perf_counter()
    train = ds.subset_users(range(N_TRAIN))
    params = MLPParams(
        n_iterations=N_ITERATIONS, burn_in=BURN_IN, engine="vectorized", seed=ctx.seed
    )
    result = fits.fit(params, train)
    with ctx.spans.span("serving.artifacts.save"):
        save_result(result, workdir / "ingest.mlp.npz")
    server = ServerProcess(
        [
            str(workdir / "ingest.mlp.npz"),
            "--workers",
            "1",
            "--journal",
            str(workdir / "journal"),
            "--store",
            str(workdir / "store"),
        ],
        workdir,
    )
    conn = None
    try:
        conn = server.connect()
        bodies, acks = [], []
        for first in range(N_TRAIN, N_GROWN, GROW_CHUNK):
            body = json.dumps(
                arrivals.payload(first, min(first + GROW_CHUNK, N_GROWN))
            ).encode()
            bodies.append(body)
            status, _, reply = conn.request("POST", "/ingest", body)
            if status != 200:
                raise RuntimeError(f"set-up ingest failed: {status} {reply[:200]!r}")
            acks.append(json.loads(reply))
        status, _, reply = conn.request("GET", "/query/top-cities?k=10")
        if status != 200:
            raise RuntimeError(f"set-up query failed: {status} {reply[:200]!r}")
        times = {"setup_s": time.perf_counter() - start, "boot_s": server.boot_s}
        fits.score(ctx.seed, train, result)
    except BaseException:
        if conn is not None:
            conn.close()
        server.stop()
        raise
    return server, conn, bodies, acks, times


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run(ctx) -> None:
    """Run the workload; fills ``ctx`` metrics, failures and report."""
    from repro.data.columnar import compile_world
    from repro.data.delta import WorldDelta, apply_delta
    from repro.data.generator import SyntheticWorldConfig, generate_world
    from repro.evaluation.metrics import accuracy_at
    from repro.serving.artifacts import load_result

    start = time.perf_counter()
    with ctx.spans.span("data.generate"):
        ds = generate_world(
            SyntheticWorldConfig(
                n_users=N_USERS, seed=ctx.seed, mean_friends=3.0, mean_venues=4.0
            ),
            shards=4,
        )
    # Users followed by at least HUB_FOLLOWERS others get their true home
    # as a label.  Fold-in re-scores only unlabeled users, and a query
    # refresh that re-scores an unlabeled ~1k-follower hub costs ~0.4-0.7 s
    # against ~25 ms otherwise; with the generator's random 80% labeling
    # that happens in about one seed in five, splitting the loop's
    # timings by seed.  The hub path is not hidden: every run ends with
    # a probe that unlabels the biggest hub over /ingest and times the
    # refresh that re-scores it (query.hub_refresh_ms; NOTES.md, claim 2).
    world = compile_world(ds)
    indegree = np.bincount(world.edge_dst, minlength=world.n_users)
    hubs = [int(u) for u in np.flatnonzero(indegree >= HUB_FOLLOWERS)]
    unlabeled_hubs = [u for u in hubs if ds.users[u].registered_location is None]
    if unlabeled_hubs:
        ds = ds.with_labels_from_truth(unlabeled_hubs)
        world = compile_world(ds)
    generate_s = time.perf_counter() - start
    arrivals = _Arrivals(world)

    fits = Fits(ctx)
    setups = []
    server = conn = None
    try:
        for index in range(SETUPS):
            if server is not None:
                conn.close()
                server.stop()
                server = conn = None
                shutil.rmtree(ctx.workdir / f"setup{index - 1}")
            server, conn, bodies, acks, times = _setup(
                ctx, fits, ds, arrivals, index
            )
            setups.append(times)
        workdir = ctx.workdir / f"setup{SETUPS - 1}"
        artifact = workdir / "ingest.mlp.npz"
        store_dir = workdir / "store"
        try:
            rng = np.random.default_rng(ctx.seed)
            queries = _queries(rng, ds.gazetteer, (N_USERS - N_GROWN) // STEP + 1)
            before = after = None
            if ctx.trace:
                before = parse_prometheus(conn.request("GET", "/metrics")[2].decode())
                seen_gens = {p.name for p in store_dir.glob("gen-*")}
                publish_bytes = []
            steps = []
            pred_homes, true_homes = [], []
            begin = time.perf_counter()
            first = N_GROWN
            while first < N_USERS:
                stop = min(first + STEP, N_USERS)
                body = json.dumps(arrivals.payload(first, stop)).encode()
                step = {"users": stop - first}
                ctx.attempted += 1
                t_send = time.perf_counter()
                status, headers, reply = conn.request("POST", "/ingest", body)
                t_ack = time.perf_counter()
                if status != 200:
                    ctx.fail(
                        "/ingest", status, f"step at user {first}: {reply[:160]!r}"
                    )
                    break
                bodies.append(body)
                ack = json.loads(reply)
                acks.append(ack)
                generation = ack["generation"]
                step["ack_ms"] = (t_ack - t_send) * 1e3
                if ctx.trace:
                    for gen in store_dir.glob("gen-*"):
                        if gen.name not in seen_gens:
                            seen_gens.add(gen.name)
                            publish_bytes.append(_dir_bytes(gen))

                unlabeled = [
                    u
                    for u in range(first, stop)
                    if ds.users[u].registered_location is None
                ]
                readers = unlabeled or [first]
                ctx.attempted += 1
                status, headers, reply = conn.request(
                    "POST",
                    "/predict-home",
                    json.dumps({"users": [{"user_id": u} for u in readers]}).encode(),
                )
                t_read = time.perf_counter()
                seen = int(headers.get("x-world-generation", "-1"))
                if status != 200:
                    ctx.fail(
                        "/predict-home",
                        status,
                        f"after gen {generation}: {reply[:160]!r}",
                    )
                elif seen < generation:
                    ctx.fail(
                        "/predict-home",
                        status,
                        f"stale read: generation {seen} after ack of {generation}",
                    )
                else:
                    step["visible_ms"] = (t_read - t_send) * 1e3
                    step["read_after_ack_ms"] = (t_read - t_ack) * 1e3
                    predictions = json.loads(reply)["predictions"]
                    for u, prediction in zip(unlabeled, predictions):
                        pred_homes.append(prediction["home"])
                        true_homes.append(ds.users[u].true_home)

                query = queries[len(steps) % len(queries)]
                ctx.attempted += 1
                t_q = time.perf_counter()
                status, headers, reply = conn.request("GET", query)
                t_q_done = time.perf_counter()
                seen = int(headers.get("x-world-generation", "-1"))
                route = query.split("?", 1)[0]
                if status != 200:
                    ctx.fail(route, status, f"after gen {generation}: {reply[:160]!r}")
                elif seen < generation:
                    ctx.fail(
                        route,
                        status,
                        f"stale read: generation {seen} after ack of {generation}",
                    )
                else:
                    step["query_ms"] = (t_q_done - t_q) * 1e3
                steps.append(step)
                first = stop
            loop_s = time.perf_counter() - begin
            if ctx.trace:
                after = parse_prometheus(conn.request("GET", "/metrics")[2].decode())
            probe = _hub_probe(ctx, conn, indegree, first, bodies, acks)
        finally:
            conn.close()
        rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    setup_s = p50([t["setup_s"] for t in setups])

    # -- correctness: replay == live -------------------------------------
    with ctx.spans.span("serving.artifacts.load"):
        loaded = load_result(artifact)
    with ctx.spans.span("data.delta.replay"):
        world = compile_world(loaded.dataset)
        for body in bodies:
            delta = WorldDelta.from_payload(
                json.loads(body), gazetteer=world.gazetteer
            )
            world = apply_delta(world, delta)
    ctx.attempted += 1
    last = acks[-1]
    live = (last["world_hash"], last["generation"])
    if (world.content_hash, world.generation) != live:
        ctx.fail(
            "/ingest",
            200,
            f"final world {last['world_hash']}@{last['generation']} != in-process "
            f"apply_delta chain {world.content_hash}@{world.generation}",
        )

    ack_ms = [s["ack_ms"] for s in steps]
    visible_ms = [s["visible_ms"] for s in steps if "visible_ms" in s]
    query_ms = [s["query_ms"] for s in steps if "query_ms" in s]
    scored = [(p, t) for p, t in zip(pred_homes, true_homes) if p is not None]
    acc = (
        accuracy_at(ds.gazetteer, [p for p, _ in scored], [t for _, t in scored])
        * len(scored)
        / max(1, len(true_homes))
    )
    ack = summary(ack_ms)
    fits.finish()
    ctx.metric("setup_s", setup_s, "s")
    ctx.metric("rss_mb", rss_mb, "MB")
    ctx.metric("acc100", acc, "fraction")
    ctx.layer("data.generate_s", generate_s, "s")
    ctx.layer("ingest_p50_ms", ack["p50"], "ms")
    ctx.layer("ingest_tail_ms", ack["tail"], "ms")
    ctx.layer("visible_p50_ms", p50(visible_ms), "ms")
    ctx.layer("query_p50_ms", p50(query_ms), "ms")
    ctx.report["ingest"] = {
        "users": N_USERS,
        "trained_on": N_TRAIN,
        "grown_to": N_GROWN,
        "step_users": STEP,
        "steps": len(steps),
        "loop_s": round(loop_s, 3),
        "served_users_at_end": last["users"],
        "ack_ms": ack,
        "visible_ms": summary(visible_ms),
        "query_ms": summary(query_ms),
        "arrived_unlabeled_scored": len(true_homes),
        "null_homes": len(true_homes) - len(scored),
        "hubs_labeled": {"hubs": len(hubs), "were_unlabeled": len(unlabeled_hubs)},
        "hub_probe": probe,
        "generate_s": round(generate_s, 4),
        "setups": [{k: round(v, 4) for k, v in t.items()} for t in setups],
    }

    if ctx.trace:
        read_after = [s["read_after_ack_ms"] for s in steps if "read_after_ack_ms" in s]
        ctx.layer("serving.server.boot_s", p50([t["boot_s"] for t in setups]), "s")
        ctx.layer(
            "serving.artifacts.load_s",
            p50(ctx.spans.durations_ms("serving.artifacts.load")) / 1e3,
            "s",
        )
        for name, series in (
            ("data.delta.apply_ms", "repro_ingest_apply_seconds"),
            ("data.journal.append_ms", "repro_journal_append_seconds"),
            ("data.journal.fsync_ms", "repro_journal_fsync_seconds"),
            ("serving.store.publish_ms", "repro_store_publish_seconds"),
        ):
            ctx.layer(name, hist_mean_ms(before, after, series) or 0.0, "ms")
        ctx.layer(
            "serving.store.bytes_per_publish",
            p50(publish_bytes) if publish_bytes else 0.0,
            "count",
        )
        ctx.layer("serving.workers.read_after_ack_ms", p50(read_after), "ms")
        ctx.layer(
            "query.refresh_ms.incremental",
            hist_mean_ms(
                before, after, "repro_query_index_refresh_seconds", kind="incremental"
            )
            or 0.0,
            "ms",
        )
        ctx.layer(
            "query.full_fallbacks",
            metric_delta(
                before, after, "repro_query_index_refreshes_total", kind="full_fallback"
            ),
            "count",
        )
        if len(probe["refresh_ms"]) == 2:
            ctx.layer("query.hub_refresh_ms", probe["refresh_ms"][1], "ms")
        ctx.report["trace"] = {
            "refreshes": {
                kind: metric_delta(
                    before, after, "repro_query_index_refreshes_total", kind=kind
                )
                for kind in ("initial", "incremental", "full_fallback")
            },
            "publishes_sized": len(publish_bytes),
        }
