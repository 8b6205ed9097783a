"""Crash-recovery harness for the durable ingest journal.

Every scenario here is a *fault*, not a happy path: torn writes at
every byte offset of the last record, bit flips, duplicated tails,
stale or corrupt snapshots, a ``kill -9`` mid-ingest against a real
subprocess server.  The acceptance contract is the same throughout --
reopening the journal must land on a world bit-identical to applying
the longest valid delta prefix from scratch (chained hash *and*
full-array comparison), with no partial delta applied -- plus the
property-based satellite: random delta streams through the journal
replay to exactly the in-memory ``apply_delta`` sequence.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from faults import (
    assert_worlds_identical,
    duplicate_tail,
    flip_byte,
    journal_file,
    random_delta,
    recompiled,
    record_spans,
    truncate_at,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.columnar import compile_world
from repro.data import journal as journal_module
from repro.data.delta import StaleWindowError, apply_delta, touched_since
from repro.data.journal import (
    DeltaJournal,
    JournalError,
    append_and_apply,
    journaled_ingest,
    open_journal,
    scan_journal,
)
from repro.query import PredictionIndex, QueryService
from repro.serving.foldin import FoldInPredictor
from repro.serving.frontend import FrontendThread, make_frontend


@pytest.fixture(scope="module")
def base_world(tiny_world):
    return compile_world(tiny_world)


def build_journal(directory, base_world, seed=0, n=4, **delta_sizes):
    """Append ``n`` random deltas; returns ``(world, deltas, journal)``.

    The journal is left *open* (callers close or keep appending); the
    returned deltas are the golden prefix the recovery tests recompile.
    """
    rng = np.random.default_rng(seed)
    world, journal, _report = open_journal(directory, base_world)
    deltas = []
    for _ in range(n):
        delta = random_delta(world, rng, **delta_sizes)
        world = append_and_apply(journal, world, delta)
        deltas.append(delta)
    return world, deltas, journal


class TestCleanRecovery:
    def test_fresh_directory_recovers_to_base(self, base_world, tmp_path):
        world, journal, report = open_journal(tmp_path, base_world)
        assert world is base_world
        assert report["generation"] == 0
        assert report["records"] == 0
        assert journal_file(tmp_path).read_bytes()[:8] == b"RPWJ0001"
        journal.close()

    def test_reopen_is_bit_identical_to_memory_and_recompile(
        self, base_world, tmp_path
    ):
        world, deltas, journal = build_journal(tmp_path, base_world, n=5)
        journal.close()

        recovered, journal2, report = open_journal(tmp_path, base_world)
        journal2.close()
        assert report["replayed"] == 5
        assert report["dropped_records"] == 0
        assert recovered.generation == world.generation == 5
        # The chained hash is the identity the journal promised...
        assert recovered.content_hash == world.content_hash
        # ...and the arrays are bit-identical both to the in-memory
        # apply_delta sequence and to a from-scratch recompile of the
        # same prefix (the golden contract).
        assert_worlds_identical(recovered, world)
        assert_worlds_identical(recovered, recompiled(base_world, deltas))

    def test_appends_continue_across_reopen(self, base_world, tmp_path):
        world, deltas, journal = build_journal(tmp_path, base_world, n=3)
        journal.close()

        world2, journal2, _ = open_journal(tmp_path, base_world)
        rng = np.random.default_rng(99)
        extra = random_delta(world2, rng)
        world2 = append_and_apply(journal2, world2, extra)
        assert world2.generation == 4
        journal2.close()

        world3, journal3, _ = open_journal(tmp_path, base_world)
        journal3.close()
        assert world3.content_hash == world2.content_hash
        assert_worlds_identical(
            world3, recompiled(base_world, deltas + [extra])
        )

    def test_out_of_order_append_is_rejected(self, base_world, tmp_path):
        world, _deltas, journal = build_journal(tmp_path, base_world, n=2)
        rng = np.random.default_rng(5)
        delta = random_delta(world, rng)
        with pytest.raises(JournalError, match="out of order"):
            journal.append(delta, world.generation + 2, world.content_hash)
        journal.close()

    def test_invalid_delta_never_reaches_the_journal(
        self, base_world, tmp_path
    ):
        from repro.data.delta import WorldDelta

        world, _deltas, journal = build_journal(tmp_path, base_world, n=2)
        before = journal_file(tmp_path).read_bytes()
        bad = WorldDelta.from_payload(
            {"edges": [[0, world.n_users + 50]]}  # unknown endpoint
        )
        with pytest.raises(ValueError):
            append_and_apply(journal, world, bad)
        journal.close()
        assert journal_file(tmp_path).read_bytes() == before


class TestTornWrite:
    def test_truncation_at_every_byte_of_last_record(
        self, base_world, tmp_path
    ):
        """A torn final append always recovers the n-1 prefix, exactly."""
        world, deltas, journal = build_journal(
            tmp_path, base_world, n=4, n_new=2, n_edges=5, n_tweets=5
        )
        journal.close()
        spans = record_spans(tmp_path)
        last_start, last_end = spans[-1]
        original = journal_file(tmp_path).read_bytes()
        golden = recompiled(base_world, deltas[:-1])
        prefix = base_world
        for delta in deltas[:-1]:
            prefix = apply_delta(prefix, delta)
        expected_hash = prefix.content_hash

        for offset in range(last_start, last_end):
            journal_file(tmp_path).write_bytes(original[:offset])
            recovered, journal2, report = open_journal(tmp_path, base_world)
            journal2.close()
            assert recovered.generation == 3, f"offset {offset}"
            assert recovered.content_hash == expected_hash, f"offset {offset}"
            # The torn suffix was repaired away: the file now ends at
            # the last valid record and scans clean.
            assert journal_file(tmp_path).stat().st_size == last_start
            _records, _end, error = scan_journal(journal_file(tmp_path))
            assert error is None
            if offset in (last_start, last_start + 40, last_end - 1):
                # Full-array golden comparison on a sample of offsets
                # (every offset checks generation + chained hash).
                assert_worlds_identical(recovered, golden)

    def test_recovered_journal_accepts_new_appends(
        self, base_world, tmp_path
    ):
        world, deltas, journal = build_journal(tmp_path, base_world, n=3)
        journal.close()
        last_start, last_end = record_spans(tmp_path)[-1]
        truncate_at(tmp_path, last_start + (last_end - last_start) // 2)

        recovered, journal2, _ = open_journal(tmp_path, base_world)
        assert recovered.generation == 2
        rng = np.random.default_rng(7)
        delta = random_delta(recovered, rng)
        recovered = append_and_apply(journal2, recovered, delta)
        journal2.close()

        final, journal3, _ = open_journal(tmp_path, base_world)
        journal3.close()
        assert final.generation == 3
        assert_worlds_identical(
            final, recompiled(base_world, deltas[:2] + [delta])
        )


class TestBitFlip:
    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_flip_inside_a_record_drops_it_and_its_suffix(
        self, base_world, tmp_path, victim
    ):
        world, deltas, journal = build_journal(
            tmp_path / str(victim), base_world, n=4
        )
        journal.close()
        directory = tmp_path / str(victim)
        spans = record_spans(directory)
        start, end = spans[victim + 1]  # flip record victim+1 (1-based 2..4)
        flip_byte(directory, (start + end) // 2)

        recovered, journal2, report = open_journal(directory, base_world)
        journal2.close()
        # Prefix-consistent: everything before the corrupt record, and
        # nothing after it (no partial delta, no resync past the hole).
        assert recovered.generation == victim + 1
        assert report["scan_error"] is not None
        assert_worlds_identical(
            recovered, recompiled(base_world, deltas[: victim + 1])
        )
        assert journal_file(directory).stat().st_size == start

    def test_flip_in_length_header_is_contained(self, base_world, tmp_path):
        world, deltas, journal = build_journal(tmp_path, base_world, n=3)
        journal.close()
        start, _end = record_spans(tmp_path)[-1]
        flip_byte(tmp_path, start + 2, mask=0x40)  # inflate body_len
        recovered, journal2, _ = open_journal(tmp_path, base_world)
        journal2.close()
        assert recovered.generation == 2
        assert_worlds_identical(
            recovered, recompiled(base_world, deltas[:2])
        )


class TestDuplicateTail:
    def test_duplicated_last_record_replays_once(self, base_world, tmp_path):
        world, deltas, journal = build_journal(tmp_path, base_world, n=3)
        journal.close()
        duplicate_tail(tmp_path)

        recovered, journal2, report = open_journal(tmp_path, base_world)
        assert recovered.generation == 3
        assert report["replayed"] == 3
        assert report["skipped"] == 1
        assert_worlds_identical(recovered, recompiled(base_world, deltas))

        # The journal stays appendable past the duplicate.
        rng = np.random.default_rng(21)
        delta = random_delta(recovered, rng)
        recovered = append_and_apply(journal2, recovered, delta)
        journal2.close()
        final, journal3, _ = open_journal(tmp_path, base_world)
        journal3.close()
        assert final.generation == 4
        assert_worlds_identical(
            final, recompiled(base_world, deltas + [delta])
        )

    def test_conflicting_same_generation_record_stops_the_scan(
        self, base_world, tmp_path
    ):
        world, deltas, journal = build_journal(tmp_path, base_world, n=3)
        journal.close()
        duplicate_tail(tmp_path)
        # Corrupt the duplicate's *payload* but fix up its CRC so it is
        # structurally valid yet disagrees with the original record.
        path = journal_file(tmp_path)
        data = bytearray(path.read_bytes())
        spans = record_spans(tmp_path)
        start, end = spans[-1]
        dup_start = len(data) - (end - start)
        body = bytearray(data[dup_start + 8 : len(data)])
        # Flip one payload digit to another digit: the record stays
        # structurally valid JSON but disagrees with the original.
        for i in range(24, len(body)):  # skip the generation+hash head
            if 0x30 <= body[i] <= 0x38:
                body[i] ^= 0x01
                break
        import struct
        import zlib

        data[dup_start : dup_start + 8] = struct.pack(
            "<II", len(body), zlib.crc32(bytes(body))
        )
        data[dup_start + 8 :] = body
        path.write_bytes(bytes(data))

        recovered, journal2, report = open_journal(tmp_path, base_world)
        journal2.close()
        assert recovered.generation == 3
        assert "conflicting" in (report["scan_error"] or "")
        assert_worlds_identical(recovered, recompiled(base_world, deltas))


class TestSnapshots:
    def test_stale_snapshot_plus_tail(self, base_world, tmp_path):
        """A snapshot mid-stream (no truncation) shortcuts the replay."""
        rng = np.random.default_rng(3)
        world, journal, _ = open_journal(tmp_path, base_world)
        deltas = []
        for i in range(6):
            delta = random_delta(world, rng)
            world = append_and_apply(journal, world, delta)
            deltas.append(delta)
            if i == 2:
                journal.snapshot(world)  # checkpoint at generation 3
        journal.close()

        recovered, journal2, report = open_journal(tmp_path, base_world)
        journal2.close()
        assert report["snapshot_generation"] == 3
        assert report["replayed"] == 3  # generations 4..6 only
        assert report["skipped"] == 3  # 1..3 are behind the snapshot
        assert recovered.generation == 6
        assert recovered.content_hash == world.content_hash
        assert_worlds_identical(recovered, recompiled(base_world, deltas))

    def test_corrupt_snapshot_falls_back_to_full_replay(
        self, base_world, tmp_path
    ):
        rng = np.random.default_rng(4)
        world, journal, _ = open_journal(tmp_path, base_world)
        deltas = []
        for i in range(4):
            delta = random_delta(world, rng)
            world = append_and_apply(journal, world, delta)
            deltas.append(delta)
            if i == 1:
                snap = journal.snapshot(world)
        journal.close()
        # Corrupt one arena of the checkpoint: recovery must reject it
        # on the recorded digest and replay the whole journal from base.
        arena = snap / "venue_mention_counts.npy"
        data = bytearray(arena.read_bytes())
        data[-1] ^= 0x01
        arena.write_bytes(bytes(data))

        recovered, journal2, report = open_journal(tmp_path, base_world)
        journal2.close()
        assert report["snapshot"] is None
        assert report["replayed"] == 4
        assert recovered.content_hash == world.content_hash
        assert_worlds_identical(recovered, recompiled(base_world, deltas))

    def test_missing_snapshot_behind_compacted_tail_refuses(
        self, base_world, tmp_path
    ):
        """Deleting the snapshot a compacted journal depends on must
        raise, not silently truncate recoverable history."""
        world, deltas, journal = build_journal(tmp_path, base_world, n=3)
        journal.compact(world)
        rng = np.random.default_rng(8)
        world = append_and_apply(journal, world, random_delta(world, rng))
        journal.close()
        (snap,) = DeltaJournal(tmp_path).snapshot_paths()
        shutil.rmtree(snap)
        # A snapshot file in the retired npz format is not a checkpoint.
        (tmp_path / f"{snap.name}.world.npz").write_bytes(b"PK\x03\x04")
        with pytest.raises(JournalError, match="snapshot missing or corrupt"):
            open_journal(tmp_path, base_world)

    def test_compaction_bounds_replay_and_prunes_snapshots(
        self, base_world, tmp_path
    ):
        world, deltas, journal = build_journal(tmp_path, base_world, n=4)
        out = journal.compact(world)
        assert out["records_compacted"] == 4
        rng = np.random.default_rng(17)
        tail = [random_delta(world, rng)]
        world = append_and_apply(journal, world, tail[0])
        out2 = journal.compact(world)
        tail.append(random_delta(world, rng))
        world = append_and_apply(journal, world, tail[1])
        journal.close()
        # Pruned down to SNAPSHOTS_KEPT=2 snapshots as compactions pile up.
        assert len(DeltaJournal(tmp_path).snapshot_paths()) == 2

        recovered, journal2, report = open_journal(tmp_path, base_world)
        assert report["snapshot_generation"] == 5
        assert report["replayed"] == 1  # only the post-compaction tail
        assert recovered.generation == 6
        assert_worlds_identical(
            recovered, recompiled(base_world, deltas + tail)
        )
        journal2.close()
        # The recovered world's touched window starts at the snapshot
        # it was loaded from: asking behind it is an explicit error,
        # asking at it answers exactly.
        with pytest.raises(StaleWindowError):
            touched_since(recovered, 4)
        touched = touched_since(recovered, 5)
        assert np.array_equal(
            touched, np.unique(recovered.delta_log[-1].touched_users)
        )

    def test_recovery_reads_only_the_snapshot_it_needs(
        self, base_world, tmp_path, monkeypatch
    ):
        """With two valid snapshots, the newest chains: one read."""
        world, deltas, journal = build_journal(tmp_path, base_world, n=2)
        journal.compact(world)
        rng = np.random.default_rng(21)
        world = append_and_apply(journal, world, random_delta(world, rng))
        journal.compact(world)
        world = append_and_apply(journal, world, random_delta(world, rng))
        journal.close()
        assert len(DeltaJournal(tmp_path).snapshot_paths()) == 2

        reads = []
        real_read = journal_module.read_world_dir

        def counting_read(gazetteer, path, **kwargs):
            reads.append(Path(path).name)
            return real_read(gazetteer, path, **kwargs)

        monkeypatch.setattr(journal_module, "read_world_dir", counting_read)
        recovered, journal2, report = open_journal(tmp_path, base_world)
        journal2.close()
        assert reads == ["snapshot-000000000003"]
        assert report["snapshot_generation"] == 3
        assert recovered.content_hash == world.content_hash

    def test_compact_twice_at_one_generation(self, base_world, tmp_path):
        """A second compaction with no ingest between keeps the
        snapshot and still recovers."""
        world, deltas, journal = build_journal(tmp_path, base_world, n=2)
        first = journal.compact(world)
        second = journal.compact(world)
        assert second["snapshot"] == first["snapshot"]
        journal.close()
        recovered, journal2, report = open_journal(tmp_path, base_world)
        journal2.close()
        assert report["snapshot_generation"] == 2
        assert_worlds_identical(recovered, recompiled(base_world, deltas))

    def test_foreign_journal_refuses_instead_of_truncating(
        self, base_world, small_world, tmp_path
    ):
        """A journal whose chain starts elsewhere must not be 'repaired'."""
        world, _deltas, journal = build_journal(tmp_path, base_world, n=2)
        journal.close()
        other = compile_world(small_world)
        with pytest.raises(JournalError, match="does not chain"):
            open_journal(tmp_path, other)


class TestWindowOverrun:
    """Past ``DELTA_LOG_LIMIT`` a journaled server takes the loud full
    re-score, exactly as an in-memory one does."""

    def test_query_service_falls_back_past_the_window(
        self, fitted_result, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.data.delta.DELTA_LOG_LIMIT", 3)
        predictor = FoldInPredictor(fitted_result)
        _world, journal, _ = open_journal(tmp_path, predictor.world)
        service = QueryService(predictor)
        service.answer("/query/aggregate", "")
        rng = np.random.default_rng(23)
        for _ in range(5):
            delta = random_delta(
                predictor.world, rng, n_new=1, n_edges=2, n_tweets=2,
                n_labels=1,
            )
            journaled_ingest(predictor, journal, delta)
        journal.close()
        assert len(predictor.world.delta_log) == 3  # window overrun
        with pytest.warns(RuntimeWarning, match="refresh window lost"):
            payload = service.answer("/query/aggregate", "")
        assert payload["generation"] == 5
        assert service.stale_window_fallbacks == 1
        assert service.current_index().same_projection(
            PredictionIndex.build(predictor)
        )


class TestPropertyBased:
    """Satellite: random streams -- journal replay == in-memory apply."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_deltas=st.integers(min_value=1, max_value=6),
        compact_at=st.integers(min_value=0, max_value=6),
    )
    def test_replay_equals_in_memory_sequence(
        self, base_world, seed, n_deltas, compact_at
    ):
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as directory:
            world, journal, _ = open_journal(directory, base_world)
            in_memory = base_world
            for i in range(n_deltas):
                delta = random_delta(
                    world, rng,
                    n_new=int(rng.integers(0, 4)),
                    n_edges=int(rng.integers(1, 8)),
                    n_tweets=int(rng.integers(0, 8)),
                    n_labels=int(rng.integers(0, 3)),
                )
                world = append_and_apply(journal, world, delta)
                in_memory = apply_delta(in_memory, delta)
                if i + 1 == compact_at:
                    journal.compact(world)
            journal.close()

            recovered, journal2, _ = open_journal(directory, base_world)
            journal2.close()
            assert recovered.generation == in_memory.generation
            assert recovered.content_hash == in_memory.content_hash
            assert_worlds_identical(recovered, in_memory)


class TestJournaledServer:
    """In-process server wiring: write-ahead /ingest + journaled /healthz."""

    @pytest.fixture()
    def served(self, fitted_result, tmp_path):
        predictor = FoldInPredictor(fitted_result, artifact_id="jrnl-test")
        _world, journal, _ = open_journal(tmp_path, predictor.world)
        server = FrontendThread(
            make_frontend(predictor, port=0, journal=journal)
        ).start()
        base = f"http://127.0.0.1:{server.port}"
        yield base, predictor, journal, tmp_path
        server.stop()
        journal.close()

    @staticmethod
    def _post(base, route, payload):
        request = urllib.request.Request(
            base + route,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read())

    @staticmethod
    def _get(base, route):
        with urllib.request.urlopen(base + route) as response:
            return json.loads(response.read())

    def test_ingest_is_journaled_and_healthz_reports_it(self, served):
        base, predictor, journal, directory = served
        n = predictor.world.n_users
        out = self._post(
            base, "/ingest",
            {"new_users": [{}], "edges": [[0, n]], "tweets": [[n, 1]]},
        )
        assert out["generation"] == 1
        assert out["journal"]["records"] == 1
        assert out["journal"]["generation"] == 1
        health = self._get(base, "/healthz")
        assert health["journal"]["generation"] == 1
        assert health["journal"]["pending_fsync"] == 0  # fsync_every=1

    def test_bad_delta_rejected_without_touching_the_journal(self, served):
        base, predictor, journal, directory = served
        before = journal_file(directory).read_bytes()
        request = urllib.request.Request(
            base + "/ingest",
            data=json.dumps({"edges": [[1, 1]]}).encode(),  # self-follow
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        assert journal_file(directory).read_bytes() == before
        assert predictor.world.generation == 0

    def test_restart_preserves_generation(self, served, fitted_result):
        base, predictor, journal, directory = served
        n = predictor.world.n_users
        for i in range(3):
            self._post(base, "/ingest", {"edges": [[i, n - 1 - i]]})
        pre_crash = self._get(base, "/healthz")
        assert pre_crash["world"]["generation"] == 3

        # "Restart": recover the directory into a fresh predictor/server.
        base_world = compile_world(fitted_result.dataset)
        world, journal2, report = open_journal(directory, base_world)
        predictor2 = FoldInPredictor(
            fitted_result, artifact_id="jrnl-test", world=world
        )
        server2 = FrontendThread(
            make_frontend(predictor2, port=0, journal=journal2)
        ).start()
        try:
            health = self._get(f"http://127.0.0.1:{server2.port}", "/healthz")
            assert health["world"]["generation"] == 3
            assert health["journal"]["generation"] == 3
        finally:
            server2.stop()
            journal2.close()


REPO_ROOT = Path(__file__).resolve().parent.parent


class TestKillNineMidIngest:
    """The real thing: a subprocess server SIGKILLed while ingesting."""

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        """A small artifact fit through the real CLI."""
        from repro.cli import main

        root = tmp_path_factory.mktemp("kill9")
        dataset = root / "world.json"
        artifact = root / "model.mlp.npz"
        assert main(
            ["generate", str(dataset), "--users", "80", "--seed", "3"]
        ) == 0
        assert main(
            [
                "fit", str(dataset),
                "--iterations", "4", "--burn-in", "1",
                "--save-artifact", str(artifact),
            ]
        ) == 0
        return artifact

    def _spawn(self, artifact, journal_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(artifact),
                "--port", "0", "--journal", str(journal_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            port = None
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    raise AssertionError(
                        f"server exited early (rc {proc.poll()})"
                    )
                if "on http://" in line:
                    port = int(line.rsplit(":", 1)[1])
                    break
            assert port is not None, "server never reported its port"
        except BaseException:
            # The banner wait failed: never leave the server running.
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
            raise
        return proc, port

    def test_kill9_recovers_every_acknowledged_delta(
        self, artifact, tmp_path
    ):
        journal_dir = tmp_path / "journal"
        proc, port = self._spawn(artifact, journal_dir)
        base = f"http://127.0.0.1:{port}"
        acknowledged = []
        try:
            n_users = None
            with urllib.request.urlopen(base + "/healthz") as response:
                n_users = json.loads(response.read())["world"]["users"]
            # 8 synchronous ingests: each acknowledged before the next.
            for i in range(8):
                payload = {
                    "new_users": [{}],
                    "edges": [[i % n_users, n_users + i]],
                }
                request = urllib.request.Request(
                    base + "/ingest", data=json.dumps(payload).encode()
                )
                with urllib.request.urlopen(request) as response:
                    acknowledged.append(json.loads(response.read()))
            # A few more in flight from a thread while we pull the plug.
            def racer():
                for j in range(8, 12):
                    try:
                        payload = {"new_users": [{}]}
                        request = urllib.request.Request(
                            base + "/ingest",
                            data=json.dumps(payload).encode(),
                        )
                        urllib.request.urlopen(request, timeout=5).read()
                    except OSError:
                        return

            thread = threading.Thread(target=racer)
            thread.start()
            proc.send_signal(signal.SIGKILL)
            thread.join(timeout=10)
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()

        # Recover offline: every acknowledged delta must be there.
        from repro.data.delta import WorldDelta
        from repro.serving.artifacts import load_result

        result = load_result(artifact)
        base_world = compile_world(result.dataset)
        world, journal, report = open_journal(journal_dir, base_world)
        assert world.generation >= 8
        assert world.generation == acknowledged[-1]["generation"] or (
            world.generation > 8  # racer deltas that also landed
        )
        assert world.content_hash != base_world.content_hash
        # Golden check: replaying the journal's own payloads from
        # scratch lands on the identical world (prefix-consistent, no
        # partial delta).
        records, _end, _err = scan_journal(journal.path)
        deltas = [
            WorldDelta.from_payload(r.payload)
            for r in records
            if not r.duplicate
        ]
        assert_worlds_identical(world, recompiled(base_world, deltas))
        for i, ack in enumerate(acknowledged):
            assert records[i].generation == ack["generation"]
            assert records[i].world_hash == ack["world_hash"]
        journal.close()

        # Restart under the same --journal: /healthz reports the
        # pre-crash generation.
        proc2, port2 = self._spawn(artifact, journal_dir)
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port2}/healthz"
            ) as response:
                health = json.loads(response.read())
            assert health["world"]["generation"] == world.generation
            assert health["journal"]["generation"] == world.generation
        finally:
            proc2.send_signal(signal.SIGTERM)
            try:
                proc2.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc2.kill()
                proc2.wait(timeout=10)
            proc2.stdout.close()
