"""``repro query`` CLI tests: offline artifact mode and --url mode.

Offline mode must print exactly the JSON payload the HTTP routes
serve (same QueryService), so the two modes are diffable; bad queries
are exit code 2 with a ``bad query:`` diagnostic on stderr, not a
traceback.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.model import MLPModel
from repro.core.params import MLPParams
from repro.data.generator import SyntheticWorldConfig, generate_world
from repro.serving.artifacts import save_result
from repro.serving.foldin import FoldInPredictor
from repro.serving.frontend import FrontendThread, make_frontend


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    dataset = generate_world(SyntheticWorldConfig(n_users=70, seed=29))
    params = MLPParams(n_iterations=8, burn_in=3, seed=0, engine="vectorized")
    result = MLPModel(params).fit(dataset)
    path = tmp_path_factory.mktemp("artifact") / "model.mlp.npz"
    save_result(result, path)
    return path, result


class TestParser:
    def test_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "top-cities"])

    def test_artifact_and_url_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "top-cities", "--artifact", "a", "--url", "b"]
            )

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query"])

    def test_radius_requires_radius(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "radius", "--artifact", "a", "--lat", "1"]
            )


class TestOffline:
    def test_top_cities_prints_payload(self, artifact, capsys):
        path, _ = artifact
        rc = main(
            ["query", "top-cities", "--artifact", str(path), "-k", "5"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 5
        assert payload["generation"] == 0
        assert payload["cities"]
        assert all(
            city["predicted_residents"] > 0 for city in payload["cities"]
        )

    def test_aggregate_with_confidence_floor(self, artifact, capsys):
        path, _ = artifact
        rc = main(
            [
                "query", "aggregate", "--artifact", str(path),
                "--by", "state", "--min-confidence", "0.2",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["by"] == "state"
        assert payload["min_confidence"] == 0.2
        assert payload["summary"]["matching"] <= payload["summary"]["with_home"]

    def test_bad_query_is_exit_2_not_traceback(self, artifact, capsys):
        path, _ = artifact
        rc = main(
            [
                "query", "venue-residents", "--artifact", str(path),
                "--venue", "no-such-venue",
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "bad query:" in captured.err
        assert captured.out == ""


class TestRemote:
    def test_url_mode_matches_offline(self, artifact, capsys):
        path, result = artifact
        predictor = FoldInPredictor(result, artifact_id="cli-test")
        server = FrontendThread(make_frontend(predictor, port=0)).start()
        try:
            rc = main(
                [
                    "query", "top-cities",
                    "--url", f"http://127.0.0.1:{server.port}", "-k", "4",
                ]
            )
            assert rc == 0
            remote = json.loads(capsys.readouterr().out)
            rc = main(
                ["query", "top-cities", "--artifact", str(path), "-k", "4"]
            )
            assert rc == 0
            offline = json.loads(capsys.readouterr().out)
            # artifact_id differs (the offline load derives its own);
            # the analytics must not.
            for payload in (remote, offline):
                payload.pop("artifact_id")
            assert remote == offline
        finally:
            server.stop()

    def test_unreachable_url_is_exit_2(self, artifact, capsys):
        rc = main(
            [
                "query", "top-cities",
                "--url", "http://127.0.0.1:1",
            ]
        )
        assert rc == 2
        assert "cannot reach" in capsys.readouterr().err
