"""WorldStore: the shared-memory world plane of multi-process serving.

One process *writes* worlds (ingest applies deltas); many processes
*read* them (predictor workers solving fold-in requests).  Before this
module, the two roles lived in one address space and
``FoldInPredictor.refresh()`` swapped ``self.world`` under a lock -- an
ad-hoc RCU.  :class:`WorldStore` formalizes that protocol across
process boundaries:

- **publish** (writer side): each :class:`~repro.data.columnar
  .ColumnarWorld` generation is written to its own ``gen-<generation>``
  directory in the one on-disk world format
  (:func:`~repro.data.columnar.write_world_dir`: read-only ``.npy``
  arenas plus a ``meta.json`` naming the generation, the chained
  content hash and the full-array digest), with the delta's
  ``label_users`` (the cache invalidation set readers need) added to
  the meta.  The directory is written under a temporary name and
  **renamed** into place, then the ``CURRENT`` manifest is atomically
  replaced -- a reader can observe the old generation or the new one,
  never a half-published directory;
- **acquire / release** (reader side): :meth:`acquire` resolves
  ``CURRENT`` and memory-maps the named generation
  (:func:`~repro.data.columnar.read_world_dir` with ``mmap=True``):
  attaching costs page-table entries, not copies, and N workers share
  one page cache image of the arenas.  The returned
  :class:`WorldLease` pins the generation against in-process
  retirement until released;
- **retire** (grace period): old generations are unlinked only once
  they fall behind the newest ``retain`` *and* hold no in-process
  lease.  Cross-process readers that raced a retirement are safe
  twice over: POSIX keeps unlinked-but-mapped files readable, and
  :meth:`acquire` retries through ``CURRENT`` when the directory it
  resolved has vanished.

**Single-writer discipline.**  :meth:`lock_writer` takes an exclusive
``flock`` on ``writer.lock``; a second would-be writer fails loudly
instead of silently interleaving generations.  Readers never lock
anything -- generation swap is wait-free on their side, exactly the
RCU shape the serving front end needs.

A generation directory is written and read by the same pair of
functions as a journal snapshot, so a store directory is just "a
snapshot per generation plus a pointer".
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.data.columnar import (
    WORLD_META_FILE,
    ColumnarWorld,
    WorldDigestError,
    fsync_dir,
    read_world_dir,
    write_world_dir,
)
from repro.obs import metrics as obs_metrics

_REG = obs_metrics.get_registry()
STORE_PUBLISHES = _REG.counter(
    "repro_store_publishes_total",
    "World generations published to the world store",
)
STORE_PUBLISH_SECONDS = _REG.histogram(
    "repro_store_publish_seconds",
    "Wall time to publish one generation (dump + fsync + rename)",
)
STORE_ACQUIRES = _REG.counter(
    "repro_store_acquires_total",
    "Reader attachments (mmap acquires) against the world store",
)
STORE_RETIRED = _REG.counter(
    "repro_store_retired_generations_total",
    "Old generations unlinked by the retention policy",
)

#: ``CURRENT`` names the generation readers should attach; replaced
#: atomically on every publish.
MANIFEST_FILE = "CURRENT"
WRITER_LOCK_FILE = "writer.lock"
_GEN_RE = re.compile(r"^gen-(\d{12})$")

#: Generations kept on disk behind the current one.  A reader that is
#: this many publishes behind re-acquires through ``CURRENT`` instead
#: of finding its directory; in-process leases extend retention past
#: this floor.
DEFAULT_RETAIN = 4


class StoreError(RuntimeError):
    """The store cannot publish or attach safely."""


@dataclass
class WorldLease:
    """One reader's pin on a published generation.

    Holds the mmap-attached world plus the publication metadata;
    release through :meth:`WorldStore.release` (or ``lease.release()``)
    when swapping to a newer generation so retirement can reclaim the
    directory.
    """

    world: ColumnarWorld
    generation: int
    content_hash: str
    meta: dict
    path: Path
    _store: "WorldStore" = field(repr=False)
    _released: bool = field(default=False, repr=False)

    def release(self) -> None:
        """Release the reader lease."""
        self._store.release(self)


class WorldStore:
    """A generation-versioned, single-writer, many-reader world plane."""

    def __init__(
        self,
        directory: str | Path,
        gazetteer,
        retain: int = DEFAULT_RETAIN,
    ):
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.gazetteer = gazetteer
        self.retain = int(retain)
        self._lock = threading.Lock()
        #: generation -> number of live in-process leases.
        self._leases: dict[int, int] = {}
        #: (st_ino, st_mtime_ns, st_size) -> parsed manifest, so the
        #: readers' between-requests poll is a stat, not a read+parse.
        self._manifest_stat: tuple | None = None
        self._manifest: dict | None = None
        self._writer_fh = None

    # -- writer side -------------------------------------------------------

    def lock_writer(self) -> None:
        """Take the exclusive writer role for this store directory.

        Backed by ``flock`` on ``writer.lock``: the lock dies with the
        process (no stale-pid files), is inherited across ``fork`` (a
        forked *reader* keeps the parent's lock alive rather than
        stealing it), and a concurrent writer fails immediately.
        """
        import fcntl

        if self._writer_fh is not None:
            return
        fh = open(self.directory / WRITER_LOCK_FILE, "a+")
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            fh.close()
            raise StoreError(
                f"{self.directory}: another writer holds this store "
                "(single-writer discipline; stop the other server or "
                "point --store elsewhere)"
            ) from exc
        self._writer_fh = fh

    def unlock_writer(self) -> None:
        """Release the writer lock file."""
        if self._writer_fh is not None:
            self._writer_fh.close()  # closing drops the flock
            self._writer_fh = None

    def publish(
        self,
        world: ColumnarWorld,
        label_users=(),
    ) -> dict:
        """Publish one world generation; returns the new manifest.

        Atomic by rename: the arenas and ``meta.json`` land in a
        temporary directory first (every file fsynced), which is then
        renamed to ``gen-<generation>`` and pointed to by an
        atomically-replaced ``CURRENT``.  Re-publishing the generation
        already current (same content hash -- e.g. a writer restarting
        after journal recovery) is an idempotent no-op; publishing a
        *different* world under an existing generation number is a
        corruption and raises.

        ``label_users`` is the delta's observed-label update set, the
        only part of a delta that can stale cached predictions --
        readers skipping from generation a to b invalidate the union
        of ``label_users`` over (a, b] (see
        :meth:`FoldInPredictor.attach_world`).
        """
        t0 = time.perf_counter()
        generation = int(world.generation)
        name = f"gen-{generation:012d}"
        final = self.directory / name
        if final.exists():
            existing = self._read_meta(final)
            if (
                existing is not None
                and existing.get("content_hash") == world.content_hash
            ):
                # Idempotent re-publish (writer restart): just make
                # sure CURRENT points here.
                self._write_manifest(generation, name, existing)
                return self.current_manifest()
            raise StoreError(
                f"{final}: generation {generation} already published "
                "with different content -- refusing to overwrite "
                "(two writers? out-of-order generations?)"
            )
        meta = write_world_dir(
            world, final, {"label_users": [int(u) for u in label_users]}
        )
        self._write_manifest(generation, name, meta)
        self._retire_old()
        STORE_PUBLISH_SECONDS.observe(time.perf_counter() - t0)
        STORE_PUBLISHES.inc()
        return self.current_manifest()

    def _write_manifest(self, generation: int, name: str, meta: dict) -> None:
        manifest = {
            "generation": generation,
            "path": name,
            "content_hash": meta["content_hash"],
            "published_unix": meta["created_unix"],
        }
        tmp = self.directory / (MANIFEST_FILE + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.directory / MANIFEST_FILE)
        fsync_dir(self.directory)

    # -- reader side -------------------------------------------------------

    def current_manifest(self) -> dict | None:
        """The manifest readers attach from (stat-cached; None if empty)."""
        path = self.directory / MANIFEST_FILE
        try:
            st = path.stat()
        except FileNotFoundError:
            return None
        key = (st.st_ino, st.st_mtime_ns, st.st_size)
        with self._lock:
            if self._manifest_stat == key and self._manifest is not None:
                return self._manifest
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            # Mid-replace race (the file vanished or we read a torn
            # rename on a non-POSIX filesystem): the caller retries.
            return None
        with self._lock:
            self._manifest_stat = key
            self._manifest = manifest
        return manifest

    def current_generation(self) -> int | None:
        """Newest published generation -- the readers' poll target."""
        manifest = self.current_manifest()
        return None if manifest is None else int(manifest["generation"])

    def acquire(self, verify: bool = False) -> WorldLease:
        """Attach the current generation by mmap and lease it.

        Zero-copy: every arena is a read-only ``np.memmap`` view onto
        the published ``.npy`` files, so N readers share one page-cache
        image.  With ``verify=True`` the full-array digest is recomputed
        and checked against the published ``world_rehash`` -- the
        no-half-published-generation invariant, paid for by one pass
        over the arenas (tests and paranoid boots; the rename protocol
        makes it structurally redundant in normal operation).

        Retries through ``CURRENT`` when the resolved directory was
        retired between the manifest read and the attach (a reader
        ``retain`` publishes behind).
        """
        last_error: Exception | None = None
        for _ in range(8):
            manifest = self.current_manifest()
            if manifest is None:
                raise StoreError(
                    f"{self.directory}: store has no published generation"
                )
            path = self.directory / manifest["path"]
            try:
                world, meta = read_world_dir(
                    self.gazetteer, path, mmap=True, verify=verify
                )
            except WorldDigestError as exc:
                raise StoreError(
                    f"{path}: published arenas do not match their "
                    "recorded digest (half-published generation?)"
                ) from exc
            except (OSError, KeyError, ValueError) as exc:
                # Lost the race against retirement (or a torn replace
                # on an exotic filesystem): resolve CURRENT again.
                last_error = exc
                self._drop_manifest_cache()
                time.sleep(0.005)
                continue
            generation = world.generation
            with self._lock:
                self._leases[generation] = (
                    self._leases.get(generation, 0) + 1
                )
            STORE_ACQUIRES.inc()
            return WorldLease(
                world=world,
                generation=generation,
                content_hash=meta["content_hash"],
                meta=meta,
                path=path,
                _store=self,
            )
        raise StoreError(
            f"{self.directory}: could not attach a generation "
            f"(kept losing the retirement race: {last_error})"
        )

    def release(self, lease: WorldLease) -> None:
        """Return a lease; the generation becomes retireable again."""
        with self._lock:
            if lease._released:
                return
            lease._released = True
            count = self._leases.get(lease.generation, 0) - 1
            if count <= 0:
                self._leases.pop(lease.generation, None)
            else:
                self._leases[lease.generation] = count

    def _drop_manifest_cache(self) -> None:
        with self._lock:
            self._manifest_stat = None
            self._manifest = None

    # -- generation metadata ----------------------------------------------

    def _read_meta(self, gen_dir: Path) -> dict | None:
        try:
            return json.loads(
                (gen_dir / WORLD_META_FILE).read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError):
            return None

    def meta_for(self, generation: int) -> dict | None:
        """Published metadata of one generation (None once retired)."""
        return self._read_meta(self.directory / f"gen-{generation:012d}")

    def label_users_between(
        self, old_generation: int, new_generation: int
    ) -> list[int] | None:
        """Union of ``label_users`` over generations in ``(old, new]``.

        The surgical cache-invalidation set for a reader skipping from
        ``old`` to ``new``.  Returns ``None`` when any intermediate
        generation's metadata is gone (retired underneath a very slow
        reader) -- the caller must fall back to a full cache clear.
        """
        users: set[int] = set()
        for generation in range(old_generation + 1, new_generation + 1):
            meta = self.meta_for(generation)
            if meta is None:
                return None
            users.update(int(u) for u in meta.get("label_users", ()))
        return sorted(users)

    def generations_on_disk(self) -> list[int]:
        """Published generations present, oldest first."""
        found = []
        for entry in self.directory.iterdir():
            match = _GEN_RE.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def stats(self) -> dict:
        """Store observability for ``/healthz``."""
        manifest = self.current_manifest()
        with self._lock:
            leased = {gen: n for gen, n in self._leases.items()}
        return {
            "directory": str(self.directory),
            "generation": (
                None if manifest is None else int(manifest["generation"])
            ),
            "retain": self.retain,
            "on_disk": self.generations_on_disk(),
            "leased": leased,
        }

    # -- retention ---------------------------------------------------------

    def _retire_old(self) -> None:
        """Unlink generations behind the retention window.

        A generation survives while it is one of the newest
        ``retain`` or holds an in-process lease.  Cross-process
        readers past the window are covered by the acquire retry (and
        by POSIX unlink semantics for already-mapped arenas).
        """
        generations = self.generations_on_disk()
        if len(generations) <= self.retain:
            return
        keep = set(generations[-self.retain :])
        with self._lock:
            keep.update(gen for gen, n in self._leases.items() if n > 0)
        for generation in generations:
            if generation in keep:
                continue
            shutil.rmtree(
                self.directory / f"gen-{generation:012d}",
                ignore_errors=True,
            )
            STORE_RETIRED.inc()

    def close(self) -> None:
        """Detach from the store and release held leases."""
        self.unlock_writer()
