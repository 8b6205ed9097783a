"""Artifact store tests: save -> load round-trips bit-for-bit."""

import json
import zipfile

import numpy as np
import pytest

from repro.core.model import MLPModel
from repro.core.params import MLPParams
from repro.data.generator import SyntheticWorldConfig, generate_world
from repro.serving.artifacts import (
    ARTIFACT_VERSION,
    ArtifactError,
    artifact_metadata,
    load_result,
    save_result,
)


@pytest.fixture(scope="module")
def world():
    return generate_world(
        SyntheticWorldConfig(n_users=60, seed=4, render_tweets=True)
    )


def _params(**overrides) -> MLPParams:
    base = dict(n_iterations=8, burn_in=3, seed=1)
    base.update(overrides)
    return MLPParams(**base)


@pytest.fixture(scope="module")
def loop_result(world):
    return MLPModel(_params(engine="loop")).fit(world)


@pytest.fixture(scope="module")
def vectorized_result(world):
    return MLPModel(_params(engine="vectorized")).fit(world)


@pytest.fixture(scope="module")
def pooled_result(world):
    return MLPModel(_params(engine="vectorized", n_chains=2)).fit(world)


def _rewrite_legacy(path, dest, version, world=None):
    """Rewrite a saved artifact the way format ``version`` stored it.

    Versions 1 and 2 kept the dataset payload as a NumPy unicode
    scalar; versions 2 and 3 also carried a compiled world
    (``world_*`` arrays + ``world_hash``), here the given ``world``.
    """
    with np.load(path) as data:
        payload = {name: data[name] for name in data.files}
    if version < 3:
        payload["dataset_json"] = np.array(
            payload["dataset_json"].tobytes().decode("utf-8")
        )
    meta = json.loads(str(payload["meta"][()]))
    meta["format_version"] = version
    if version in (2, 3):
        meta["world_hash"] = world.content_hash
        for key, arr in world.to_arrays().items():
            payload[f"world_{key}"] = arr
    payload["meta"] = np.array(json.dumps(meta))
    with open(dest, "wb") as fh:
        np.savez_compressed(fh, **payload)
    return dest


def _assert_round_trip(result, loaded):
    assert loaded.params == result.params
    assert loaded.profiles == result.profiles
    assert loaded.explanations == result.explanations
    assert loaded.tweet_explanations == result.tweet_explanations
    assert loaded.trace == result.trace
    assert loaded.law_history == result.law_history
    assert np.array_equal(loaded.venue_counts, result.venue_counts)
    # The embedded dataset survives through the data.io wire format.
    assert loaded.dataset.users == result.dataset.users
    assert loaded.dataset.following == result.dataset.following
    assert loaded.dataset.tweeting == result.dataset.tweeting
    assert loaded.dataset.tweets == result.dataset.tweets
    assert (
        loaded.dataset.gazetteer.locations
        == result.dataset.gazetteer.locations
    )


class TestRoundTrip:
    @pytest.mark.parametrize("fixture", ["loop_result", "vectorized_result"])
    def test_single_chain_round_trip(self, fixture, request, tmp_path):
        result = request.getfixturevalue(fixture)
        path = tmp_path / "model.mlp.npz"
        save_result(result, path)
        _assert_round_trip(result, load_result(path))

    def test_engines_agree_through_artifacts(
        self, loop_result, vectorized_result, tmp_path
    ):
        """Bit-identical chains stay bit-identical through the store."""
        a = tmp_path / "loop.mlp.npz"
        b = tmp_path / "vec.mlp.npz"
        save_result(loop_result, a)
        save_result(vectorized_result, b)
        assert load_result(a).profiles == load_result(b).profiles

    def test_multi_chain_posterior_round_trip(self, pooled_result, tmp_path):
        path = tmp_path / "pooled.mlp.npz"
        save_result(pooled_result, path)
        loaded = load_result(path)
        _assert_round_trip(pooled_result, loaded)
        original = pooled_result.posterior
        restored = loaded.posterior
        assert restored is not None
        assert restored.n_chains == original.n_chains
        assert restored.burn_in == original.burn_in
        assert np.array_equal(
            restored.pooled_mean_counts(), original.pooled_mean_counts()
        )
        assert np.array_equal(
            restored.pooled_mean_venue_counts(),
            original.pooled_mean_venue_counts(),
        )
        for chain_a, chain_b in zip(original.chains, restored.chains):
            assert chain_b.chain_index == chain_a.chain_index
            assert chain_b.seed == chain_a.seed
            assert chain_b.trace == chain_a.trace
            assert chain_b.law_history == chain_a.law_history
            for key in ("mu", "x", "y", "nu", "z"):
                assert np.array_equal(
                    chain_b.final_state[key], chain_a.final_state[key]
                )
            tally_a = chain_a.edge_tally.to_arrays()
            tally_b = chain_b.edge_tally.to_arrays()
            assert tally_a.keys() == tally_b.keys()
            for key in tally_a:
                assert np.array_equal(tally_a[key], tally_b[key])
        # R-hat is a pure function of the round-tripped traces.
        assert restored.convergence_summary() == original.convergence_summary()

    def test_merged_tally_survives(self, pooled_result, tmp_path):
        path = tmp_path / "pooled.mlp.npz"
        save_result(pooled_result, path)
        loaded = load_result(path)
        merged_a = pooled_result.posterior.merged_edge_tally()
        merged_b = loaded.posterior.merged_edge_tally()
        for s in range(min(20, len(pooled_result.dataset.following))):
            assert merged_b.modal_following(s) == merged_a.modal_following(s)

    def test_artifact_id_deterministic(self, loop_result, tmp_path):
        a = tmp_path / "a.mlp.npz"
        b = tmp_path / "b.mlp.npz"
        id_a = save_result(loop_result, a)
        id_b = save_result(loop_result, b)
        assert id_a == id_b
        assert artifact_metadata(a)["artifact_id"] == id_a

    def test_metadata_without_arrays(self, vectorized_result, tmp_path):
        path = tmp_path / "m.mlp.npz"
        save_result(vectorized_result, path)
        meta = artifact_metadata(path)
        assert meta["format_version"] == ARTIFACT_VERSION
        assert meta["n_users"] == 60
        assert meta["params"]["engine"] == "vectorized"
        assert meta["posterior"] is None

    def test_path_is_not_renamed(self, loop_result, tmp_path):
        """No silent '.npz' suffix appending (np.savez behaviour)."""
        path = tmp_path / "artifact.bin"
        save_result(loop_result, path)
        assert path.exists()
        assert not (tmp_path / "artifact.bin.npz").exists()


class TestErrors:
    def test_unknown_version_rejected(self, loop_result, tmp_path):
        path = tmp_path / "old.mlp.npz"
        save_result(loop_result, path)
        # Rewrite the meta record with a bumped version.
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["meta"][()]))
        meta["format_version"] = ARTIFACT_VERSION + 999
        arrays["meta"] = np.array(json.dumps(meta))
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        with pytest.raises(ArtifactError, match="version"):
            load_result(path)

    def test_corrupted_file_rejected(self, tmp_path):
        path = tmp_path / "junk.mlp.npz"
        path.write_bytes(b"this is not an npz archive at all")
        with pytest.raises(ArtifactError, match="not a readable"):
            load_result(path)

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, values=np.arange(3))
        with pytest.raises(ArtifactError, match="no metadata"):
            load_result(path)

    def test_truncated_artifact_rejected(self, loop_result, tmp_path):
        path = tmp_path / "trunc.mlp.npz"
        save_result(loop_result, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {
                k: data[k] for k in data.files if k != "prof_counts"
            }
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        with pytest.raises(ArtifactError, match="truncated"):
            load_result(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_result(tmp_path / "missing.mlp.npz")

    def test_artifact_error_is_value_error(self):
        assert issubclass(ArtifactError, ValueError)

    def test_zip_of_wrong_content_rejected(self, tmp_path):
        path = tmp_path / "notnpz.mlp.npz"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("readme.txt", "hello")
        with pytest.raises(ArtifactError):
            load_result(path)


class TestWorldPersistence:
    """Artifacts carry no world: it is recompiled, bit for bit, on load."""

    def test_load_recompiles_world_once(self, loop_result, tmp_path):
        from repro.data import columnar

        path = tmp_path / "w.mlp.npz"
        save_result(loop_result, path)
        with np.load(path) as data:
            assert not any(name.startswith("world_") for name in data.files)
        assert "world_hash" not in artifact_metadata(path)
        loaded = load_result(path)
        before = columnar.compile_count()
        world = columnar.compile_world(loaded.dataset)
        assert columnar.compile_count() == before + 1
        assert columnar.compile_world(loaded.dataset) is world
        original = columnar.compile_world(loop_result.dataset)
        assert world.content_hash == original.content_hash
        for key in columnar.WORLD_ARRAY_KEYS:
            assert np.array_equal(getattr(world, key), getattr(original, key))

    def test_foldin_uses_persisted_world(self, loop_result, tmp_path):
        from repro.serving.foldin import FoldInPredictor

        path = tmp_path / "w.mlp.npz"
        save_result(loop_result, path)
        loaded = load_result(path)
        predictor = FoldInPredictor(loaded)
        spec = predictor.spec_for_training_user(0)
        reference = FoldInPredictor(loop_result).spec_for_training_user(0)
        assert spec == reference

    def test_result_fitted_on_a_delta_world_round_trips(self, world, tmp_path):
        """A delta-descendant world carries a chained hash, not its
        array digest; its artifact must still load and answer alike."""
        from faults import random_delta

        from repro.data.columnar import compile_world
        from repro.data.delta import apply_delta
        from repro.serving.foldin import FoldInPredictor

        base = compile_world(world)
        grown = apply_delta(base, random_delta(base, np.random.default_rng(5)))
        assert grown.content_hash != grown.rehash()
        result = MLPModel(_params(engine="vectorized")).fit(grown)
        path = tmp_path / "delta.mlp.npz"
        save_result(result, path)
        loaded = load_result(path)
        _assert_round_trip(result, loaded)
        live, restored = FoldInPredictor(result), FoldInPredictor(loaded)
        for user in (0, 7, 31, grown.n_users - 1):
            spec = live.spec_for_training_user(user)
            assert restored.spec_for_training_user(user) == spec
            a, b = live.predict(spec), restored.predict(spec)
            assert b.profile == a.profile
            assert b.iterations == a.iterations

    def test_version1_artifact_without_world_still_loads(
        self, loop_result, tmp_path
    ):
        """Back-compat: pre-world artifacts load; the world is recompiled."""
        from repro.data import columnar

        path = tmp_path / "w.mlp.npz"
        save_result(loop_result, path)
        legacy = _rewrite_legacy(path, tmp_path / "legacy.mlp.npz", version=1)
        loaded = load_result(legacy)
        before = columnar.compile_count()
        columnar.compile_world(loaded.dataset)  # no persisted world: compile
        assert columnar.compile_count() == before + 1

    @pytest.mark.parametrize("fixture", ["loop_result", "pooled_result"])
    def test_version2_artifact_loads_bit_identically(
        self, fixture, request, tmp_path
    ):
        """Back-compat: a unicode dataset payload loads exactly as UTF-8."""
        from repro.data.columnar import compile_world

        result = request.getfixturevalue(fixture)
        path = tmp_path / "v4.mlp.npz"
        artifact_id = save_result(result, path)
        with np.load(path) as data:
            assert data["dataset_json"].dtype == np.uint8
        legacy = _rewrite_legacy(
            path,
            tmp_path / "v2.mlp.npz",
            version=2,
            world=compile_world(result.dataset),
        )
        with np.load(legacy) as data:
            assert data["dataset_json"].dtype.kind == "U"
        assert artifact_metadata(legacy)["artifact_id"] == artifact_id
        old, new = load_result(legacy), load_result(path)
        _assert_round_trip(result, old)
        _assert_round_trip(new, old)
        assert compile_world(old.dataset).content_hash == (
            compile_world(new.dataset).content_hash
        )

    def test_version3_world_records_are_ignored(self, loop_result, tmp_path):
        """A legacy file's ``world_*`` records are never read: even a
        foreign world in them leaves the recompiled world exact."""
        from faults import random_delta

        from repro.data import columnar
        from repro.data.delta import apply_delta

        original = columnar.compile_world(loop_result.dataset)
        foreign = apply_delta(
            original, random_delta(original, np.random.default_rng(9))
        )
        path = tmp_path / "v4.mlp.npz"
        save_result(loop_result, path)
        legacy = _rewrite_legacy(
            path, tmp_path / "v3.mlp.npz", version=3, world=foreign
        )
        loaded = load_result(legacy)
        _assert_round_trip(loop_result, loaded)
        before = columnar.compile_count()
        rebuilt = columnar.compile_world(loaded.dataset)
        assert columnar.compile_count() == before + 1
        assert rebuilt.content_hash == original.content_hash

    def test_materialized_dataset_is_collectable(self):
        """to_dataset must not pin the world/dataset pair in the memo."""
        import gc
        import weakref

        from repro.data.generator import (
            SyntheticWorldConfig,
            generate_columnar_world,
        )

        world = generate_columnar_world(
            SyntheticWorldConfig(n_users=40, seed=2), shards=2
        )
        dataset = world.require_dataset()
        ref_world = weakref.ref(world)
        ref_dataset = weakref.ref(dataset)
        del world, dataset
        gc.collect()
        assert ref_dataset() is None
        assert ref_world() is None
