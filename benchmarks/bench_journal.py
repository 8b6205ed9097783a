"""Durable-ingest benchmarks: journal append and recovery replay.

Measures the two claims the write-ahead journal makes:

1. **Append throughput**: journaling a delta (validate, encode,
   CRC, write) must not gate ingest.  Rows/second are journaled for
   the batched-fsync policy (the production setting for bulk loads)
   and, for reference, the fsync-per-append policy that makes every
   acknowledged delta crash-proof.
2. **Recovery beats recompile**: after a compaction, restarting from
   snapshot + tail replay must be faster than recompiling the world
   from scratch -- otherwise the snapshot machinery is pure overhead.
   The recovered world is first golden-gated bit-identical to the
   live one (a wrong-but-fast recovery must fail loudly, not win the
   ratio).  The cost of writing one snapshot (``snapshot_write_ms``,
   the shared world-directory writer) is journaled beside it, ungated.

Both land in ``benchmarks/results/bench_run.json`` via the session
journal; the CI perf gate pins the machine-independent numbers
(``rows_per_second`` floor, ``replay_over_recompile`` ratio).
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.data.columnar import WORLD_ARRAY_KEYS, ColumnarWorld, write_world_dir
from repro.data.delta import WorldDelta
from repro.data.generator import SyntheticWorldConfig, generate_columnar_world
from repro.data.journal import DeltaJournal, append_and_apply, open_journal

#: A mid-size sparse world: big enough that recompiles cost real time,
#: small enough that snapshot IO stays benchmark-friendly.
JOURNAL_USERS = 20_000
JOURNAL_SHARDS = 4
JOURNAL_SEED = 2
N_DELTAS = 24
COMPACT_AT = 20  # snapshot here; recovery replays the 4-delta tail

_world_cache: dict[int, ColumnarWorld] = {}


def _base_world(n_users: int = JOURNAL_USERS) -> ColumnarWorld:
    if n_users not in _world_cache:
        _world_cache[n_users] = generate_columnar_world(
            SyntheticWorldConfig(
                n_users=n_users,
                seed=JOURNAL_SEED,
                mean_friends=3.0,
                mean_venues=4.0,
            ),
            shards=JOURNAL_SHARDS,
        )
    return _world_cache[n_users]


def _arrival_delta(
    world: ColumnarWorld, rng: np.random.Generator, n_users: int
) -> WorldDelta:
    """0.1% arrivals against a virtual population of ``n_users``."""
    n_new = max(1, world.n_users // 1000)
    new_ids = np.arange(n_users, n_users + n_new)
    new_users = [
        int(rng.integers(world.n_locations)) if rng.random() < 0.8 else None
        for _ in range(n_new)
    ]
    src = np.repeat(new_ids, 3)
    dst = rng.integers(0, n_users, size=src.size)
    keep = src != dst
    tweet_user = np.repeat(new_ids, 4)
    tweet_venue = rng.integers(0, world.n_venues, size=tweet_user.size)
    return WorldDelta(
        new_users=new_users,
        edges=list(zip(src[keep].tolist(), dst[keep].tolist())),
        tweets=list(zip(tweet_user.tolist(), tweet_venue.tolist())),
    )


def _delta_stream(world: ColumnarWorld, seed: int, n: int):
    rng = np.random.default_rng(seed)
    deltas, n_virtual = [], world.n_users
    for _ in range(n):
        delta = _arrival_delta(world, rng, n_virtual)
        n_virtual += delta.n_new_users
        deltas.append(delta)
    return deltas


def _rows(deltas) -> int:
    return sum(d.n_new_users + d.n_edges + d.n_tweets for d in deltas)


def test_journal_append_throughput(journal):
    """Write-ahead append must not gate ingest (batched fsync)."""
    world = _base_world()
    world.content_hash
    deltas = _delta_stream(world, seed=5, n=N_DELTAS)
    rows = _rows(deltas)

    def run(fsync_every: int) -> float:
        with tempfile.TemporaryDirectory() as directory:
            wal = DeltaJournal(directory, fsync_every=fsync_every)
            current = world
            start = time.perf_counter()
            for delta in deltas:
                current = append_and_apply(wal, current, delta)
            wal.sync()
            elapsed = time.perf_counter() - start
            wal.close()
            assert current.generation == len(deltas)
            return elapsed

    batched_s = min(run(fsync_every=len(deltas)) for _ in range(3))
    fsync_each_s = run(fsync_every=1)
    journal(
        "timing",
        name="journal_append",
        users=world.n_users,
        deltas=len(deltas),
        rows=rows,
        seconds=round(batched_s, 4),
        rows_per_second=round(rows / batched_s),
        fsync_each_rows_per_second=round(rows / fsync_each_s),
    )
    print(
        f"\n[journal] appended {len(deltas)} deltas ({rows} rows) in "
        f"{batched_s * 1000:.1f} ms batched -> {rows / batched_s:,.0f} "
        f"rows/s ({rows / fsync_each_s:,.0f} rows/s with fsync per append)"
    )
    assert rows / batched_s > 1_000


def test_journal_replay_beats_recompile(journal):
    """Snapshot + tail replay vs from-scratch compile, golden-gated."""
    world = _base_world()
    world.content_hash
    deltas = _delta_stream(world, seed=6, n=N_DELTAS)

    with tempfile.TemporaryDirectory() as directory:
        current, wal, _ = open_journal(
            directory, world, fsync_every=len(deltas)
        )
        for i, delta in enumerate(deltas):
            current = append_and_apply(wal, current, delta)
            if i + 1 == COMPACT_AT:
                wal.compact(current)
        wal.close()

        # Golden gate first: recovery that drifted from the live world
        # must fail here, never win the timing below.
        recovered, wal2, report = open_journal(directory, world)
        wal2.close()
        assert report["snapshot_generation"] == COMPACT_AT
        assert report["replayed"] == N_DELTAS - COMPACT_AT
        assert recovered.content_hash == current.content_hash
        for key in WORLD_ARRAY_KEYS:
            assert np.array_equal(
                getattr(recovered, key), getattr(current, key)
            ), f"recovered world differs from live world in {key}"

        recompile_inputs = dict(
            observed_location=current.observed_location,
            edge_src=current.edge_src,
            edge_dst=current.edge_dst,
            tweet_user=current.tweet_user,
            tweet_venue=current.tweet_venue,
        )
        replay_times: list[float] = []
        recompile_times: list[float] = []
        write_times: list[float] = []
        writes = Path(directory) / "writes"
        writes.mkdir()
        for i in range(5):
            start = time.perf_counter()
            _w, wal3, _ = open_journal(directory, world)
            replay_times.append(time.perf_counter() - start)
            wal3.close()
            start = time.perf_counter()
            ColumnarWorld.from_edge_arrays(
                world.gazetteer, **recompile_inputs
            )
            recompile_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            write_world_dir(current, writes / f"snapshot-{i}")
            write_times.append(time.perf_counter() - start)
    replay_s = statistics.median(replay_times)
    recompile_s = statistics.median(recompile_times)
    write_s = statistics.median(write_times)
    ratio = recompile_s / replay_s
    journal(
        "timing",
        name="journal_replay",
        users=current.n_users,
        generation=current.generation,
        tail_records=N_DELTAS - COMPACT_AT,
        replay_ms=round(replay_s * 1000, 3),
        recompile_ms=round(recompile_s * 1000, 3),
        replay_over_recompile=round(ratio, 2),
        snapshot_write_ms=round(write_s * 1000, 3),
    )
    print(
        f"\n[journal] recovery {replay_s * 1000:.1f} ms (snapshot + "
        f"{N_DELTAS - COMPACT_AT} tail records) vs recompile "
        f"{recompile_s * 1000:.1f} ms on {current.n_users} users: "
        f"{ratio:.1f}x; one snapshot write {write_s * 1000:.1f} ms"
    )
    assert ratio >= 1.2, (
        f"snapshot recovery only {ratio:.2f}x faster than a from-scratch "
        f"recompile ({replay_s * 1000:.1f} ms vs {recompile_s * 1000:.1f} ms)"
    )
