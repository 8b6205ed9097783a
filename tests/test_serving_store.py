"""WorldStore tests: atomic publish, mmap acquire, retention, RCU safety."""

import json
import threading

import numpy as np
import pytest

from repro.data.columnar import WORLD_ARRAY_KEYS, compile_world
from repro.data.delta import WorldDelta, apply_delta
from repro.data.generator import SyntheticWorldConfig, generate_world
from repro.serving.store import StoreError, WorldStore


@pytest.fixture(scope="module")
def dataset():
    return generate_world(SyntheticWorldConfig(n_users=60, seed=11))


@pytest.fixture(scope="module")
def base_world(dataset):
    return compile_world(dataset)


def _delta(gazetteer, seed: int, labels=None) -> WorldDelta:
    rng = np.random.default_rng(seed)
    payload = {
        "new_users": [{}],
        "edges": [
            [int(rng.integers(0, 50)), int(rng.integers(0, 50))]
        ],
        "tweets": [],
        "labels": labels or {},
    }
    return WorldDelta.from_payload(payload, gazetteer=gazetteer)


class TestPublishAcquire:
    def test_empty_store_refuses_acquire(self, base_world, tmp_path):
        store = WorldStore(tmp_path, base_world.gazetteer)
        assert store.current_generation() is None
        with pytest.raises(StoreError):
            store.acquire()

    def test_round_trip_is_bit_identical(self, base_world, tmp_path):
        store = WorldStore(tmp_path, base_world.gazetteer)
        store.publish(base_world)
        lease = store.acquire(verify=True)
        try:
            assert lease.generation == base_world.generation
            assert lease.content_hash == base_world.content_hash
            for key in WORLD_ARRAY_KEYS:
                original = getattr(base_world, key)
                loaded = getattr(lease.world, key)
                assert original.dtype == loaded.dtype
                assert np.array_equal(original, loaded)
        finally:
            lease.release()

    def test_acquired_arenas_are_readonly_mmaps(self, base_world, tmp_path):
        store = WorldStore(tmp_path, base_world.gazetteer)
        store.publish(base_world)
        lease = store.acquire()
        try:
            arena = lease.world.observed_location
            assert isinstance(arena, np.memmap)
            with pytest.raises(ValueError):
                arena[0] = 99
        finally:
            lease.release()

    def test_world_identity_restamped_from_meta(self, base_world, tmp_path):
        # load_dir gives generation 0 / a fresh hash; the store must
        # restore the *published* identity so RCU bookkeeping works.
        store = WorldStore(tmp_path, base_world.gazetteer)
        delta = _delta(base_world.gazetteer, seed=1)
        world1 = apply_delta(base_world, delta)
        store.publish(world1, label_users=delta.label_users.tolist())
        lease = store.acquire()
        try:
            assert lease.world.generation == world1.generation == 1
            assert lease.world.content_hash == world1.content_hash
        finally:
            lease.release()

    def test_verify_rejects_a_flipped_arena_byte(self, base_world, tmp_path):
        store = WorldStore(tmp_path, base_world.gazetteer)
        manifest = store.publish(base_world)
        arena = tmp_path / manifest["path"] / "venue_mention_counts.npy"
        data = bytearray(arena.read_bytes())
        data[-1] ^= 0x01  # last byte: inside the data, past the header
        arena.write_bytes(bytes(data))
        store.acquire().release()  # an unverified attach does not look
        with pytest.raises(StoreError, match="recorded digest"):
            store.acquire(verify=True)

    def test_republish_same_content_is_idempotent(self, base_world, tmp_path):
        store = WorldStore(tmp_path, base_world.gazetteer)
        first = store.publish(base_world)
        second = store.publish(base_world)
        assert first["content_hash"] == second["content_hash"]
        assert store.current_generation() == base_world.generation

    def test_conflicting_republish_is_refused(self, base_world, tmp_path):
        store = WorldStore(tmp_path, base_world.gazetteer)
        w1 = apply_delta(base_world, _delta(base_world.gazetteer, seed=2))
        w2 = apply_delta(base_world, _delta(base_world.gazetteer, seed=3))
        assert w1.generation == w2.generation == 1
        assert w1.content_hash != w2.content_hash
        store.publish(w1)
        with pytest.raises(StoreError, match="different content"):
            store.publish(w2)

    def test_manifest_tracks_newest_generation(self, base_world, tmp_path):
        store = WorldStore(tmp_path, base_world.gazetteer)
        store.publish(base_world)
        assert store.current_generation() == 0
        world = apply_delta(base_world, _delta(base_world.gazetteer, seed=4))
        store.publish(world)
        assert store.current_generation() == 1
        # A second store over the same directory (another process's
        # view) resolves the same manifest.
        other = WorldStore(tmp_path, base_world.gazetteer)
        assert other.current_generation() == 1


class TestRetention:
    def _publish_chain(self, store, base_world, n: int):
        """Publish base + n successors; returns every world, oldest first."""
        worlds = [base_world]
        store.publish(base_world)
        for i in range(n):
            worlds.append(
                apply_delta(
                    worlds[-1], _delta(base_world.gazetteer, seed=100 + i)
                )
            )
            store.publish(worlds[-1])
        return worlds

    def test_old_generations_are_retired(self, base_world, tmp_path):
        store = WorldStore(tmp_path, base_world.gazetteer, retain=2)
        self._publish_chain(store, base_world, 5)
        assert store.generations_on_disk() == [4, 5]
        assert store.current_generation() == 5

    def test_leased_generation_survives_retention(self, base_world, tmp_path):
        store = WorldStore(tmp_path, base_world.gazetteer, retain=2)
        store.publish(base_world)
        lease = store.acquire()  # pins generation 0
        worlds = self._publish_chain(store, base_world, 5)
        assert 0 in store.generations_on_disk()
        lease.release()
        # The next publish sweeps the now-unpinned generation.
        store.publish(
            apply_delta(worlds[-1], _delta(base_world.gazetteer, seed=999))
        )
        assert 0 not in store.generations_on_disk()

    def test_label_users_between_unions_metadata(self, base_world, tmp_path):
        store = WorldStore(tmp_path, base_world.gazetteer, retain=10)
        store.publish(base_world)
        d1 = _delta(base_world.gazetteer, seed=5, labels={"3": 2})
        w1 = apply_delta(base_world, d1)
        store.publish(w1, label_users=d1.label_users.tolist())
        d2 = _delta(base_world.gazetteer, seed=6, labels={"7": 1, "9": 3})
        w2 = apply_delta(w1, d2)
        store.publish(w2, label_users=d2.label_users.tolist())
        assert store.label_users_between(0, 2) == sorted(
            set(d1.label_users.tolist()) | set(d2.label_users.tolist())
        )
        assert store.label_users_between(1, 2) == sorted(
            d2.label_users.tolist()
        )
        assert store.label_users_between(2, 2) == []

    def test_label_users_between_none_when_retired(
        self, base_world, tmp_path
    ):
        store = WorldStore(tmp_path, base_world.gazetteer, retain=2)
        self._publish_chain(store, base_world, 5)
        # Generations 0..3 are retired; provenance across them is
        # unknown, so the caller must fall back to a full cache clear.
        assert store.label_users_between(0, 5) is None


class TestWriterLock:
    def test_second_writer_is_rejected(self, base_world, tmp_path):
        first = WorldStore(tmp_path, base_world.gazetteer)
        first.lock_writer()
        second = WorldStore(tmp_path, base_world.gazetteer)
        with pytest.raises(StoreError, match="another writer"):
            second.lock_writer()
        first.unlock_writer()
        second.lock_writer()  # released lock is takeable
        second.unlock_writer()

    def test_lock_is_reentrant_within_owner(self, base_world, tmp_path):
        store = WorldStore(tmp_path, base_world.gazetteer)
        store.lock_writer()
        store.lock_writer()  # no self-deadlock
        store.close()


class TestRCUSafety:
    def test_concurrent_publish_and_acquire_never_torn(
        self, base_world, tmp_path
    ):
        """Readers hammering acquire(verify=True) against a live writer.

        ``verify=True`` recomputes the full-array digest of every
        acquired generation and compares it to the digest recorded at
        publish time -- a half-published generation (torn arenas,
        missing meta) cannot pass.  Retention is set low on purpose so
        readers also race directory retirement.
        """
        store = WorldStore(tmp_path, base_world.gazetteer, retain=2)
        store.publish(base_world)
        stop = threading.Event()
        errors: list[Exception] = []

        def writer():
            world = base_world
            try:
                for i in range(12):
                    world = apply_delta(
                        world, _delta(base_world.gazetteer, seed=300 + i)
                    )
                    store.publish(world)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def reader():
            # A reader-side store handle, as a worker process would own.
            view = WorldStore(tmp_path, base_world.gazetteer, retain=2)
            try:
                while not stop.is_set():
                    lease = view.acquire(verify=True)
                    assert lease.world.generation == lease.generation
                    lease.release()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert store.current_generation() == 12

    def test_acquire_retries_through_current_on_retirement(
        self, base_world, tmp_path, monkeypatch
    ):
        """A reader that resolved a manifest just before retirement
        must re-resolve instead of failing."""
        store = WorldStore(tmp_path, base_world.gazetteer, retain=1)
        store.publish(base_world)
        reader = WorldStore(tmp_path, base_world.gazetteer)
        stale = reader.current_manifest()  # warms the stat cache
        assert stale["generation"] == 0
        world = apply_delta(base_world, _delta(base_world.gazetteer, seed=7))
        store.publish(world)  # retires generation 0 (retain=1)
        assert store.generations_on_disk() == [1]
        lease = reader.acquire()
        try:
            assert lease.generation == 1
        finally:
            lease.release()


class TestStats:
    def test_stats_shape(self, base_world, tmp_path):
        store = WorldStore(tmp_path, base_world.gazetteer)
        store.publish(base_world)
        lease = store.acquire()
        stats = store.stats()
        assert stats["generation"] == 0
        assert stats["on_disk"] == [0]
        assert stats["leased"] == {0: 1}
        lease.release()
        assert store.stats()["leased"] == {}
        assert json.dumps(store.stats())  # healthz-serializable
