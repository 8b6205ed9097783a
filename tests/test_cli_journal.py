"""CLI round-trips for durable ingest: ingest/replay/compact.

Drives the real ``repro`` entrypoints end-to-end against one small
fitted artifact: journaled ingest across multiple invocations (the
generation chain must continue), a simulated crash (torn final
record), ``replay`` with and without ``--verify``, ``compact``, more
ingest on top of the snapshot, and the error exits (missing journal,
bad delta) -- including ``--score-output`` after recovery.
"""

from __future__ import annotations

import json

import pytest
from faults import record_spans, truncate_at

from repro.cli import main


@pytest.fixture(scope="module")
def artifact_info(tmp_path_factory):
    """A 100-user artifact fit through the real CLI."""
    root = tmp_path_factory.mktemp("cli-journal")
    dataset = root / "world.json"
    artifact = root / "model.mlp.npz"
    assert main(
        ["generate", str(dataset), "--users", "100", "--seed", "9"]
    ) == 0
    assert main(
        [
            "fit", str(dataset),
            "--iterations", "5", "--burn-in", "2",
            "--save-artifact", str(artifact),
        ]
    ) == 0
    return artifact, 100


def write_deltas(path, n_users, n):
    """``n`` simple valid deltas (one arrival + one edge + one tweet).

    Returns the world size after applying them, so successive files
    can keep indexing the grown world correctly.
    """
    with open(path, "w") as fh:
        for i in range(n):
            payload = {
                "new_users": [{"observed_location": None}],
                "edges": [[(n_users + i) % 7, n_users + i]],
                "tweets": [[n_users + i, i % 3]],
                "labels": {},
            }
            fh.write(json.dumps(payload) + "\n")
    return n_users + n


def generations(captured_out: str) -> list[int]:
    return [
        json.loads(line)["generation"]
        for line in captured_out.strip().splitlines()
        if line.startswith("{")
    ]


class TestJournaledRoundTrip:
    def test_ingest_kill_replay_compact_replay(
        self, artifact_info, tmp_path, capsys
    ):
        artifact, n_users = artifact_info
        journal = tmp_path / "journal"

        # -- ingest 3 deltas, journaled ---------------------------------
        d1 = tmp_path / "d1.jsonl"
        n_users = write_deltas(d1, n_users, 3)
        assert main(
            ["ingest", str(artifact), "--input", str(d1),
             "--journal", str(journal)]
        ) == 0
        captured = capsys.readouterr()
        assert generations(captured.out) == [1, 2, 3]
        assert "recovered" in captured.err

        # -- a second invocation continues the chain, and re-scores
        #    only *its own* deltas (window starts at the recovered
        #    generation), writing the score file after recovery --------
        d2 = tmp_path / "d2.jsonl"
        score = tmp_path / "rescored.jsonl"
        n_users = write_deltas(d2, n_users, 3)
        assert main(
            ["ingest", str(artifact), "--input", str(d2),
             "--journal", str(journal), "--score-output", str(score)]
        ) == 0
        captured = capsys.readouterr()
        assert generations(captured.out) == [4, 5, 6]
        scored = [
            json.loads(line) for line in score.read_text().splitlines()
        ]
        assert scored, "recovery re-score produced no predictions"
        assert all("user_id" in entry and "home" in entry for entry in scored)

        # -- kill: tear the last record in half -------------------------
        start, end = record_spans(journal)[-1]
        truncate_at(journal, start + (end - start) // 2)

        # -- replay recovers the 5-delta prefix and repairs the file ----
        assert main(
            ["replay", str(artifact), "--journal", str(journal)]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["generation"] == 5
        assert report["repaired_bytes"] > 0
        recovered_hash = report["world_hash"]

        # -- --verify golden-checks against a from-scratch recompile ----
        assert main(
            ["replay", str(artifact), "--journal", str(journal), "--verify"]
        ) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["world_hash"] == recovered_hash
        assert "verify ok" in captured.err

        # -- compact: snapshot + truncate -------------------------------
        assert main(
            ["compact", str(artifact), "--journal", str(journal)]
        ) == 0
        compacted = json.loads(capsys.readouterr().out)
        assert compacted["generation"] == 5
        assert compacted["world_hash"] == recovered_hash
        assert compacted["records_compacted"] == 5

        # -- replay again: recovery now rides the snapshot --------------
        assert main(
            ["replay", str(artifact), "--journal", str(journal)]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["generation"] == 5
        assert report["world_hash"] == recovered_hash
        assert report["snapshot_generation"] == 5
        assert report["replayed"] == 0

        # -- ingest continues on top of the snapshot --------------------
        d3 = tmp_path / "d3.jsonl"
        write_deltas(d3, n_users - 1, 2)  # world recovered to 5 arrivals
        assert main(
            ["ingest", str(artifact), "--input", str(d3),
             "--journal", str(journal)]
        ) == 0
        assert generations(capsys.readouterr().out) == [6, 7]

        # -- and the whole history still verifies bit-for-bit -----------
        assert main(
            ["replay", str(artifact), "--journal", str(journal), "--verify"]
        ) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["generation"] == 7
        assert "verify ok" in captured.err


class TestJournalCLIErrors:
    def test_replay_missing_journal_is_exit_2(
        self, artifact_info, tmp_path, capsys
    ):
        artifact, _ = artifact_info
        rc = main(
            ["replay", str(artifact), "--journal", str(tmp_path / "nope")]
        )
        assert rc == 2
        assert "replay failed" in capsys.readouterr().err

    def test_compact_missing_journal_is_exit_2(
        self, artifact_info, tmp_path, capsys
    ):
        artifact, _ = artifact_info
        rc = main(
            ["compact", str(artifact), "--journal", str(tmp_path / "nope")]
        )
        assert rc == 2
        assert "compact failed" in capsys.readouterr().err

    def test_bad_delta_is_exit_2_and_never_journaled(
        self, artifact_info, tmp_path, capsys
    ):
        artifact, _ = artifact_info
        journal = tmp_path / "journal"
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"edges": [[1, 1]]}) + "\n")  # self-follow
        rc = main(
            ["ingest", str(artifact), "--input", str(bad),
             "--journal", str(journal)]
        )
        assert rc == 2
        assert "bad delta" in capsys.readouterr().err
        # The invalid delta was rejected *before* the write-ahead
        # append: replay sees an empty, clean journal.
        assert main(
            ["replay", str(artifact), "--journal", str(journal)]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["generation"] == 0
        assert report["records"] == 0

    def test_unreadable_input_is_exit_2(
        self, artifact_info, tmp_path, capsys
    ):
        artifact, _ = artifact_info
        rc = main(
            ["ingest", str(artifact),
             "--input", str(tmp_path / "missing.jsonl"),
             "--journal", str(tmp_path / "journal")]
        )
        assert rc == 2
        assert "cannot read --input" in capsys.readouterr().err


class TestWindowFallback:
    def test_journaled_ingest_past_window_rescores_fully(
        self, artifact_info, tmp_path, capsys, monkeypatch
    ):
        """A journaled ``--score-output`` run whose window outgrew the
        world's delta log warns and writes the full re-score."""
        from repro.data.journal import open_journal
        from repro.serving.artifacts import load_result
        from repro.serving.batch import score_population
        from repro.serving.foldin import FoldInPredictor, prediction_payload

        monkeypatch.setattr("repro.data.delta.DELTA_LOG_LIMIT", 3)
        artifact, n_users = artifact_info
        journal = tmp_path / "journal"
        deltas = tmp_path / "d.jsonl"
        score = tmp_path / "rescored.jsonl"
        write_deltas(deltas, n_users, 5)
        assert main(
            ["ingest", str(artifact), "--input", str(deltas),
             "--journal", str(journal), "--score-output", str(score)]
        ) == 0
        err = capsys.readouterr().err
        assert "window lost" in err
        assert "FULL re-score" in err

        result = load_result(artifact)
        world, wal, _ = open_journal(
            journal, FoldInPredictor(result).world, create=False
        )
        wal.close()
        assert world.generation == 5
        full = score_population(
            world, result, predictor=FoldInPredictor(result, world=world)
        )
        expected = [
            {
                "user_id": uid,
                **prediction_payload(full[uid], world.gazetteer, top_k=3),
            }
            for uid in sorted(full)
        ]
        written = [
            json.loads(line) for line in score.read_text().splitlines()
        ]
        assert written == json.loads(json.dumps(expected))
