"""ColumnarWorld compiler tests: fidelity, memoization, persistence."""

import pickle

import numpy as np
import pytest

from repro.core.params import MLPParams
from repro.core.priors import (
    build_user_priors,
    candidate_locations_for,
    venue_referent_map,
)
from repro.data import columnar
from repro.data.columnar import (
    ColumnarWorld,
    WorldDigestError,
    compile_world,
    read_world_dir,
    register_world,
    write_world_dir,
)
from repro.data.model import Dataset, FollowingEdge, User


@pytest.fixture(scope="module")
def world(tiny_world):
    return compile_world(tiny_world)


class TestCompileFidelity:
    """Every compiled structure reproduces the object-graph derivation."""

    def test_sizes(self, tiny_world, world):
        assert world.n_users == tiny_world.n_users
        assert world.n_following == tiny_world.n_following
        assert world.n_tweeting == tiny_world.n_tweeting
        assert world.n_locations == len(tiny_world.gazetteer)
        assert world.n_venues == len(tiny_world.gazetteer.venue_vocabulary)

    def test_edge_arenas_in_dataset_order(self, tiny_world, world):
        assert world.edge_src.tolist() == [
            e.follower for e in tiny_world.following
        ]
        assert world.edge_dst.tolist() == [
            e.friend for e in tiny_world.following
        ]
        assert world.tweet_user.tolist() == [
            t.user for t in tiny_world.tweeting
        ]
        assert world.tweet_venue.tolist() == [
            t.venue_id for t in tiny_world.tweeting
        ]

    def test_adjacency_csr(self, tiny_world, world):
        for uid in range(tiny_world.n_users):
            assert tuple(world.friends_of(uid).tolist()) == tiny_world.friends_of[uid]
            assert tuple(world.followers_of(uid).tolist()) == tiny_world.followers_of[uid]
            assert tuple(world.neighbors_of(uid).tolist()) == tiny_world.neighbors_of[uid]
            assert tuple(world.venues_of(uid).tolist()) == tiny_world.venues_of[uid]

    def test_user_table(self, tiny_world, world):
        observed = tiny_world.observed_locations
        for uid in range(tiny_world.n_users):
            expected = observed.get(uid, -1)
            assert int(world.observed_location[uid]) == expected
            if expected >= 0:
                assert int(world.observed_venue[uid]) == (
                    tiny_world.gazetteer.venue_id_of_location(expected)
                )
            else:
                assert int(world.observed_venue[uid]) == -1
        assert world.labeled_mask.sum() == len(tiny_world.labeled_user_ids)

    def test_venue_mention_counts(self, tiny_world, world):
        assert np.array_equal(
            world.venue_mention_counts, tiny_world.venue_mention_counts
        )

    def test_referent_csr(self, tiny_world, world):
        referents = venue_referent_map(tiny_world)
        for vid in range(world.n_venues):
            assert set(world.referents_of(vid).tolist()) == set(referents[vid])
            # sorted: candidacy code binary-searches these slices
            assert np.all(np.diff(world.referents_of(vid)) > 0) or (
                world.referents_of(vid).size <= 1
            )

    def test_candidate_csr_matches_reference(self, tiny_world, world):
        referents = venue_referent_map(tiny_world)
        for uid in range(tiny_world.n_users):
            expected = candidate_locations_for(tiny_world, uid, referents)
            assert world.candidates_of(uid).tolist() == sorted(expected)


class TestCompileOnce:
    def test_memoized_per_dataset(self, tiny_world):
        before = columnar.compile_count()
        a = compile_world(tiny_world)
        b = compile_world(tiny_world)
        assert a is b
        assert columnar.compile_count() == before

    def test_world_passthrough(self, world):
        assert compile_world(world) is world

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            compile_world([1, 2, 3])

    def test_register_world_preseeds_memo(self, gazetteer):
        ds = Dataset(gazetteer, [User(0), User(1)], [FollowingEdge(0, 1)], [])
        world = ColumnarWorld.compile(ds)
        register_world(ds, world)
        before = columnar.compile_count()
        assert compile_world(ds) is world
        assert columnar.compile_count() == before


class TestPersistence:
    def test_round_trip_preserves_hash(self, tiny_world, world):
        rebuilt = ColumnarWorld(tiny_world.gazetteer, world.to_arrays())
        assert rebuilt.content_hash == world.content_hash

    def test_missing_array_rejected(self, tiny_world, world):
        arrays = world.to_arrays()
        del arrays["cand_indices"]
        with pytest.raises(ValueError, match="missing"):
            ColumnarWorld(tiny_world.gazetteer, arrays)

    def test_inconsistent_csr_rejected(self, tiny_world, world):
        arrays = dict(world.to_arrays())
        arrays["out_indptr"] = arrays["out_indptr"][:-1]
        with pytest.raises(ValueError):
            ColumnarWorld(tiny_world.gazetteer, arrays)

    def test_out_of_range_ids_rejected(self, tiny_world, world):
        arrays = dict(world.to_arrays())
        bad = arrays["edge_dst"].copy()
        bad[0] = world.n_users + 7
        arrays["edge_dst"] = bad
        with pytest.raises(ValueError, match="edge_dst"):
            ColumnarWorld(tiny_world.gazetteer, arrays)

    def test_pickle_drops_object_graph_but_keeps_identity(self, world):
        clone = pickle.loads(pickle.dumps(world))
        assert clone.content_hash == world.content_hash
        assert clone._dataset_ref is None
        assert np.array_equal(clone.cand_indices, world.cand_indices)

    def test_memory_report_covers_every_arena(self, world):
        from repro.data.columnar import WORLD_ARRAY_KEYS

        report = world.memory_report()
        assert set(report) == set(WORLD_ARRAY_KEYS) | {"total_bytes"}
        assert report["total_bytes"] == sum(
            report[k]["bytes"] for k in WORLD_ARRAY_KEYS
        )
        assert report["edge_src"]["bytes"] == world.edge_src.nbytes
        assert report["edge_src"]["dtype"] == str(world.edge_src.dtype)

    def test_dump_load_dir_mmap_round_trip(self, tiny_world, world, tmp_path):
        world.dump_dir(tmp_path / "w")
        loaded = ColumnarWorld.load_dir(
            tiny_world.gazetteer, tmp_path / "w", mmap=True
        )
        assert isinstance(loaded.edge_src, np.memmap)
        assert loaded.rehash() == world.rehash()
        eager = ColumnarWorld.load_dir(
            tiny_world.gazetteer, tmp_path / "w", mmap=False
        )
        assert not isinstance(eager.edge_src, np.memmap)
        assert eager.rehash() == world.rehash()

    def test_world_dir_round_trip_restamps_identity(
        self, tiny_world, world, tmp_path
    ):
        clone = pickle.loads(pickle.dumps(world))
        clone.generation = 7
        clone._content_hash = "feedfacefeedface"
        meta = write_world_dir(clone, tmp_path / "gen", {"label_users": [3]})
        assert meta["label_users"] == [3]
        assert meta["world_rehash"] == world.rehash()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gen"]
        loaded, read_meta = read_world_dir(
            tiny_world.gazetteer, tmp_path / "gen", verify=True
        )
        assert read_meta == meta
        assert isinstance(loaded.edge_src, np.memmap)
        assert loaded.generation == 7
        assert loaded.content_hash == "feedfacefeedface"
        assert loaded.rehash() == world.rehash()

    def test_world_dir_refuses_to_overwrite(self, world, tmp_path):
        write_world_dir(world, tmp_path / "gen")
        with pytest.raises(OSError):
            write_world_dir(world, tmp_path / "gen")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gen"]

    def test_world_dir_verify_catches_flipped_arena(
        self, tiny_world, world, tmp_path
    ):
        write_world_dir(world, tmp_path / "gen")
        arena = tmp_path / "gen" / "venue_mention_counts.npy"
        data = bytearray(arena.read_bytes())
        data[-1] ^= 0x01
        arena.write_bytes(bytes(data))
        read_world_dir(tiny_world.gazetteer, tmp_path / "gen")  # unchecked
        with pytest.raises(WorldDigestError):
            read_world_dir(tiny_world.gazetteer, tmp_path / "gen", verify=True)


class TestDatasetBridge:
    def test_to_dataset_round_trips_relationships(self, world):
        ds = world.to_dataset()
        assert ds.n_users == world.n_users
        assert [e.follower for e in ds.following] == world.edge_src.tolist()
        assert [t.venue_id for t in ds.tweeting] == world.tweet_venue.tolist()
        # materialization registers the pair: no re-compile
        before = columnar.compile_count()
        assert compile_world(ds) is world
        assert columnar.compile_count() == before

    def test_require_dataset_returns_source(self, tiny_world, world):
        assert world.require_dataset() is tiny_world

    def test_compiled_world_fits_like_dataset(self, tiny_world):
        """A bare world (object graph dropped) drives a full fit."""
        from repro.core.model import MLPModel

        bare = pickle.loads(pickle.dumps(compile_world(tiny_world)))
        params = MLPParams(n_iterations=3, burn_in=1, seed=4)
        via_world = MLPModel(params).fit(bare)
        via_dataset = MLPModel(params).fit(tiny_world)
        for a, b in zip(via_world.profiles, via_dataset.profiles):
            assert a.entries == b.entries


class TestPriorsOnWorld:
    def test_world_and_dataset_priors_identical(self, tiny_world, world):
        params = MLPParams()
        a = build_user_priors(tiny_world, params)
        b = build_user_priors(world, params)
        for ca, cb in zip(a.candidates, b.candidates):
            assert np.array_equal(ca, cb)
        for ga, gb in zip(a.gamma, b.gamma):
            assert np.array_equal(ga, gb)
        assert np.array_equal(a.gamma_sum, b.gamma_sum)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"use_tweeting": False},
            {"use_following": False},
            {"use_candidacy": False},
        ],
    )
    def test_ablation_variants_match_reference(self, tiny_world, overrides):
        params = MLPParams(**overrides)
        priors = build_user_priors(compile_world(tiny_world), params)
        referents = venue_referent_map(tiny_world)
        n_loc = len(tiny_world.gazetteer)
        for uid in range(tiny_world.n_users):
            if params.use_candidacy:
                expected = sorted(
                    candidate_locations_for(
                        tiny_world,
                        uid,
                        referents,
                        use_following=params.use_following,
                        use_tweeting=params.use_tweeting,
                    )
                ) or list(range(n_loc))
            else:
                expected = list(range(n_loc))
            assert priors.candidates[uid].tolist() == expected

    def test_packed_layout(self, tiny_world):
        priors = build_user_priors(tiny_world, MLPParams())
        pack = priors.packed()
        assert priors.packed() is pack  # cached
        assert pack.total_slots == sum(c.size for c in priors.candidates)
        offsets = pack.offsets
        for uid, cand in enumerate(priors.candidates):
            lo, hi = int(offsets[uid]), int(offsets[uid + 1])
            assert np.array_equal(pack.flat_candidates[lo:hi], cand)
            assert np.all(pack.slot_user[lo:hi] == uid)
            assert np.array_equal(pack.flat_gamma[lo:hi], priors.gamma[uid])
