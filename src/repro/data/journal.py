"""Durable ingest: a write-ahead delta journal with snapshot/compaction.

Streaming ingest (:mod:`repro.data.delta`) made worlds mutable by
delta -- but only in memory: a restarted server silently forgot every
ingested user.  This module makes the delta stream **durable**:

- **write-ahead journal**: every :class:`~repro.data.delta.WorldDelta`
  is appended to ``journal.wal`` *before* it is applied, as one
  length-prefixed binary record -- a CRC32-checksummed body carrying
  the post-apply generation, the chained world hash the apply must
  land on, and the delta's JSON wire form
  (:meth:`WorldDelta.to_payload`).  Fsyncs batch: with
  ``fsync_every=1`` (the default) every acknowledged delta survives
  ``kill -9``; larger values trade the tail of a crash window for
  append throughput;
- **snapshot / compaction**: :meth:`DeltaJournal.snapshot` checkpoints
  the compiled world into a ``snapshot-<generation>/`` directory in the
  one on-disk world format, the same one the world store publishes
  (:func:`repro.data.columnar.write_world_dir`: raw ``.npy`` arenas
  plus ``meta.json``, fsynced, renamed into place);
  :meth:`DeltaJournal.compact` snapshots and then truncates the journal
  behind it, so recovery cost is bounded by the tail since the last
  checkpoint, not the lifetime of the stream;
- **startup replay**: :func:`open_journal` loads the newest snapshot
  that *chains into* the journal (a stale or corrupt snapshot falls
  back to older ones, each read only when needed, and finally to the
  base world), then replays the tail -- verifying, per record, that
  ``generation`` advances by one and that
  ``chain_hash(parent, delta.digest())`` equals the recorded hash
  *before* applying.  The reconstructed world therefore carries
  the exact pre-crash generation and chained hash, and its arrays are
  bit-identical to applying the longest valid delta prefix from
  scratch (``tests/test_journal_recovery.py`` pins this under torn
  writes, bit flips, duplicated tails, stale snapshots and
  ``kill -9``).

**Failure semantics.**  A torn tail (crash mid-append) or a
CRC-corrupt record ends the structurally valid prefix: recovery
truncates the file back to it and replays what remains.  A record that
is structurally valid but does not chain from the recovered state is
dropped the same way (prefix-consistent recovery, never a partial or
out-of-order apply).  Two corruptions are *not* silently repaired,
because truncation would destroy data that is still recoverable
elsewhere: a journal whose first record does not chain from any
available state (missing/foreign snapshot) and a file without the
magic header both raise :class:`JournalError`.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.data.columnar import (
    ColumnarWorld,
    WorldDigestError,
    fsync_dir,
    read_world_dir,
    write_world_dir,
)
from repro.data.delta import (
    WorldDelta,
    apply_delta,
    chain_hash,
    validate_delta,
)
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span

#: Durability-path instrumentation: append/fsync/snapshot/replay
#: timings and counts.  All read-only -- the journal bytes and the
#: replayed worlds are bit-identical with metrics on or off.
_REG = obs_metrics.get_registry()
JOURNAL_APPENDS = _REG.counter(
    "repro_journal_appends_total", "Delta records appended to the journal"
)
JOURNAL_APPEND_SECONDS = _REG.histogram(
    "repro_journal_append_seconds",
    "Wall time of one journal append (encode + write + flush, "
    "including any fsync the batching policy triggered)",
)
JOURNAL_FSYNCS = _REG.counter(
    "repro_journal_fsyncs_total", "fsync calls issued on the journal file"
)
JOURNAL_FSYNC_SECONDS = _REG.histogram(
    "repro_journal_fsync_seconds", "Wall time of journal fsync calls"
)
JOURNAL_SNAPSHOTS = _REG.counter(
    "repro_journal_snapshots_total", "World snapshots written"
)
JOURNAL_SNAPSHOT_SECONDS = _REG.histogram(
    "repro_journal_snapshot_seconds",
    "Wall time to write + fsync one world snapshot",
)
JOURNAL_REPLAYS = _REG.counter(
    "repro_journal_replays_total", "Journal recovery passes run"
)
JOURNAL_REPLAYED_RECORDS = _REG.counter(
    "repro_journal_replayed_records_total",
    "Delta records re-applied during recovery",
)
JOURNAL_REPLAY_SECONDS = _REG.histogram(
    "repro_journal_replay_seconds",
    "Wall time of one full recovery (scan + repair + replay)",
)

__all__ = [
    "DeltaJournal",
    "JournalError",
    "JournalRecord",
    "append_and_apply",
    "journaled_ingest",
    "open_journal",
    "scan_journal",
]

#: File header of ``journal.wal``; a file without it is not a journal
#: (never silently truncated into one).
JOURNAL_MAGIC = b"RPWJ0001"
JOURNAL_FILE = "journal.wal"
#: Snapshots kept after a compaction (the newest ones); older files
#: are pruned.  Two, so one corrupt checkpoint never strands recovery
#: on a full-journal replay alone.
SNAPSHOTS_KEPT = 2
#: Structural sanity cap on one record's body; matches the server's
#: largest request budget, so no legitimate delta can exceed it.
MAX_RECORD_BYTES = 64 << 20

#: Record layout: ``u32 body_len | u32 crc32(body) | body`` with
#: ``body = u64 generation | 16-byte chained world hash | payload``
#: (the delta's JSON wire form, UTF-8).  Little-endian throughout.
_HEADER = struct.Struct("<II")
_BODY_HEAD = struct.Struct("<Q16s")

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{12})$")


class JournalError(ValueError):
    """The journal directory cannot be opened or recovered safely."""


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One structurally valid journal record, as scanned from disk."""

    generation: int
    #: The chained world hash the world must carry *after* applying
    #: this record's delta -- the replay verification target.
    world_hash: str
    #: The delta's JSON wire form (:meth:`WorldDelta.to_payload`).
    payload: dict
    #: Byte span ``[start, end)`` of the record in ``journal.wal``.
    start: int
    end: int
    #: True when this record is a byte-identical repeat of its
    #: predecessor (a crash-retry artifact); replay skips it.
    duplicate: bool = False


def _encode_record(generation: int, world_hash: str, payload: dict) -> bytes:
    raw = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    body = _BODY_HEAD.pack(generation, world_hash.encode("ascii")) + raw
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def scan_journal(
    path: str | Path,
) -> tuple[list[JournalRecord], int, str | None]:
    """Parse the longest structurally valid record prefix of a journal.

    Returns ``(records, valid_end, error)``: every record of the valid
    prefix (duplicates flagged, not dropped), the byte offset where
    that prefix ends, and ``None`` or a description of why scanning
    stopped (torn tail, CRC mismatch, generation disorder...).  Purely
    structural -- chain hashes are verified later, against an actual
    world, by replay.
    """
    data = Path(path).read_bytes()
    if not data.startswith(JOURNAL_MAGIC):
        raise JournalError(
            f"{path}: not a delta journal (missing {JOURNAL_MAGIC!r} header)"
        )
    records: list[JournalRecord] = []
    pos = len(JOURNAL_MAGIC)
    prev: JournalRecord | None = None
    prev_bytes: bytes | None = None
    error: str | None = None
    while pos < len(data):
        start = pos
        if pos + _HEADER.size > len(data):
            error = "torn record header at end of journal"
            break
        body_len, crc = _HEADER.unpack_from(data, pos)
        pos += _HEADER.size
        if body_len < _BODY_HEAD.size or body_len > MAX_RECORD_BYTES:
            error = f"implausible record length {body_len}"
            break
        if pos + body_len > len(data):
            error = "torn record body at end of journal"
            break
        body = data[pos : pos + body_len]
        pos += body_len
        if zlib.crc32(body) != crc:
            error = "record checksum mismatch"
            break
        generation, hash_bytes = _BODY_HEAD.unpack_from(body, 0)
        try:
            world_hash = hash_bytes.decode("ascii")
            payload = json.loads(body[_BODY_HEAD.size :].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            error = "record payload is not valid JSON"
            break
        if not isinstance(payload, dict):
            error = "record payload is not a JSON object"
            break
        duplicate = False
        if prev is not None:
            if generation == prev.generation:
                if data[start:pos] == prev_bytes:
                    duplicate = True
                else:
                    error = (
                        f"conflicting records for generation {generation}"
                    )
                    break
            elif generation != prev.generation + 1:
                error = (
                    f"generation jumped {prev.generation} -> {generation}"
                )
                break
        record = JournalRecord(
            generation=generation,
            world_hash=world_hash,
            payload=payload,
            start=start,
            end=pos,
            duplicate=duplicate,
        )
        records.append(record)
        if not duplicate:
            prev = record
            prev_bytes = data[start:pos]
    valid_end = records[-1].end if records else len(JOURNAL_MAGIC)
    return records, valid_end, error


class DeltaJournal:
    """The durable write-ahead delta log of one served world.

    One directory holds ``journal.wal`` plus
    ``snapshot-<generation>/`` checkpoint directories.  All mutating
    methods serialize on :attr:`lock` (reentrant, so the
    append-then-apply helpers can hold it across both steps).
    Construct directly for a fresh/append-only handle; go through
    :func:`open_journal` to recover state from disk.
    """

    def __init__(
        self,
        directory: str | Path,
        fsync_every: int = 1,
        create: bool = True,
    ):
        if fsync_every < 1:
            raise ValueError(f"fsync_every must be >= 1, got {fsync_every}")
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_FILE
        self.fsync_every = int(fsync_every)
        self.lock = threading.RLock()
        self._fh = None
        self._n_records = 0
        self._generation = 0
        self._last_hash: str | None = None
        self._snapshot_generation = 0
        self._pending_sync = 0
        self._last_sync: float | None = None
        if not self.path.exists():
            if not create:
                raise JournalError(f"no journal at {self.path}")
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(self.path, "wb") as fh:
                fh.write(JOURNAL_MAGIC)
                fh.flush()
                os.fsync(fh.fileno())
            fsync_dir(self.directory)

    # -- positions ---------------------------------------------------------

    @property
    def generation(self) -> int:
        """Generation of the last appended (or recovered) record."""
        return self._generation

    def stats(self) -> dict:
        """Journal observability for ``/healthz`` and the CLI."""
        with self.lock:
            try:
                nbytes = self.path.stat().st_size
            except OSError:
                nbytes = 0
            return {
                "path": str(self.path),
                "records": self._n_records,
                "generation": self._generation,
                "snapshot_generation": self._snapshot_generation,
                "bytes": nbytes,
                "fsync_every": self.fsync_every,
                "pending_fsync": self._pending_sync,
                "last_fsync_unix": self._last_sync,
            }

    # -- append path -------------------------------------------------------

    def _handle(self):
        if self._fh is None:
            self._fh = open(self.path, "ab")
        return self._fh

    def append(
        self, delta: WorldDelta, generation: int, world_hash: str
    ) -> JournalRecord:
        """Write-ahead append one delta; the caller applies it *after*.

        ``generation``/``world_hash`` are the post-apply identity the
        record promises (``parent generation + 1`` and
        ``chain_hash(parent_hash, delta.digest())``); replay verifies
        the promise before re-applying.  Durability follows the fsync
        policy: the fh is always flushed, fsynced every
        ``fsync_every`` appends (:meth:`sync` forces one).
        """
        if len(world_hash) != 16:
            raise JournalError(
                f"world hash must be 16 hex chars, got {world_hash!r}"
            )
        with self.lock:
            if generation != self._generation + 1:
                raise JournalError(
                    f"append out of order: journal is at generation "
                    f"{self._generation}, record claims {generation}"
                )
            t0 = time.perf_counter()
            payload = delta.to_payload()
            encoded = _encode_record(generation, world_hash, payload)
            fh = self._handle()
            start = fh.tell()
            with span("journal.append"):
                fh.write(encoded)
                fh.flush()
                self._pending_sync += 1
                if self._pending_sync >= self.fsync_every:
                    t_sync = time.perf_counter()
                    os.fsync(fh.fileno())
                    JOURNAL_FSYNC_SECONDS.observe(time.perf_counter() - t_sync)
                    JOURNAL_FSYNCS.inc()
                    self._pending_sync = 0
                    self._last_sync = time.time()
            JOURNAL_APPEND_SECONDS.observe(time.perf_counter() - t0)
            JOURNAL_APPENDS.inc()
            self._n_records += 1
            self._generation = generation
            self._last_hash = world_hash
            return JournalRecord(
                generation=generation,
                world_hash=world_hash,
                payload=payload,
                start=start,
                end=start + len(encoded),
            )

    def write_ahead(self, world: ColumnarWorld, delta: WorldDelta) -> None:
        """Validate ``delta`` against ``world`` and append it as the
        world's next generation; the caller applies it *after*.

        The delta is validated *first*: an invalid delta must never
        reach the journal, or replay would halt on it forever.  Hold
        :attr:`lock` across this call and the apply so no other append
        lands between them.
        """
        with self.lock:
            validate_delta(world, delta)
            self.append(
                delta,
                world.generation + 1,
                chain_hash(world.content_hash, delta.digest()),
            )

    def sync(self) -> None:
        """Force an fsync of any appends still in the batching window."""
        with self.lock:
            if self._fh is not None and self._pending_sync:
                self._fh.flush()
                t0 = time.perf_counter()
                os.fsync(self._fh.fileno())
                JOURNAL_FSYNC_SECONDS.observe(time.perf_counter() - t0)
                JOURNAL_FSYNCS.inc()
                self._pending_sync = 0
                self._last_sync = time.time()

    def close(self) -> None:
        """Fsync pending appends and release the file handle."""
        with self.lock:
            self.sync()
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # -- snapshots ---------------------------------------------------------

    def snapshot_paths(self) -> list[Path]:
        """Snapshot directories present, newest generation first."""
        found = []
        for entry in self.directory.iterdir():
            match = _SNAPSHOT_RE.match(entry.name)
            if match:
                found.append((int(match.group(1)), entry))
        return [path for _, path in sorted(found, reverse=True)]

    def snapshot(self, world: ColumnarWorld) -> Path:
        """Checkpoint ``world`` as the ``snapshot-<generation>/`` directory.

        Durable by construction (:func:`write_world_dir`: temp
        directory, every file fsynced, renamed into place, directory
        fsynced).  A verified snapshot of this very world already on
        disk (a second compaction with no ingest in between) is kept
        as it is; a corrupt or foreign one at that name is replaced.
        """
        with self.lock:
            t0 = time.perf_counter()
            path = self.directory / f"snapshot-{world.generation:012d}"
            if path.exists():
                try:
                    existing = self._load_snapshot(path, world.gazetteer)
                    if existing.content_hash == world.content_hash:
                        return path
                except JournalError:
                    pass
                shutil.rmtree(path)
            with span("journal.snapshot"):
                write_world_dir(world, path)
            JOURNAL_SNAPSHOT_SECONDS.observe(time.perf_counter() - t0)
            JOURNAL_SNAPSHOTS.inc()
            return path

    def compact(self, world: ColumnarWorld) -> dict:
        """Snapshot ``world`` and truncate the journal behind it.

        Crash-safe ordering: the snapshot rename lands before the
        journal reset, so a crash in between leaves snapshot + full
        journal -- recovery skips the already-snapshotted records.
        Old snapshots beyond :data:`SNAPSHOTS_KEPT` are pruned last.
        """
        with self.lock:
            if world.generation != self._generation or (
                self._last_hash is not None
                and world.content_hash != self._last_hash
            ):
                raise JournalError(
                    f"compact got a world at generation {world.generation} "
                    f"({world.content_hash}) but the journal is at "
                    f"{self._generation} ({self._last_hash})"
                )
            snapshot_path = self.snapshot(world)
            removed = self._n_records
            self.close()
            tmp = self.directory / (JOURNAL_FILE + ".tmp")
            with open(tmp, "wb") as fh:
                fh.write(JOURNAL_MAGIC)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            fsync_dir(self.directory)
            self._n_records = 0
            self._pending_sync = 0
            self._snapshot_generation = world.generation
            pruned = []
            for stale in self.snapshot_paths()[SNAPSHOTS_KEPT:]:
                shutil.rmtree(stale)
                pruned.append(str(stale))
            return {
                "snapshot": str(snapshot_path),
                "generation": world.generation,
                "world_hash": world.content_hash,
                "records_compacted": removed,
                "snapshots_pruned": pruned,
            }

    def _load_snapshot(self, path: Path, gazetteer) -> ColumnarWorld:
        """Load one checkpoint; :class:`JournalError` on any corruption."""
        try:
            world, _meta = read_world_dir(
                gazetteer, path, mmap=False, verify=True
            )
        except WorldDigestError as exc:
            raise JournalError(
                f"{path}: snapshot arrays do not match their recorded "
                "digest (corrupt checkpoint)"
            ) from exc
        except (OSError, KeyError, ValueError) as exc:
            raise JournalError(f"{path}: unreadable snapshot ({exc})") from exc
        return world

    # -- recovery ----------------------------------------------------------

    def _pick_state(
        self, base_world: ColumnarWorld, live: list[JournalRecord]
    ) -> tuple[ColumnarWorld, Path | None]:
        """Newest recoverable state that chains into the journal tail.

        Snapshots are read and tried newest first, an older one only
        when every newer one is corrupt or does not chain; one is
        accepted only if the journal record *after* it exists
        contiguously and its recorded hash chains from the snapshot
        (or no such record exists and any overlapping record agrees
        on the hash).  Fallback is the
        base world; if even that cannot reach the journal's first
        record, the journal belongs to a different history (or its
        snapshot is gone) and recovery refuses rather than truncate.
        """
        def candidates():
            for path in self.snapshot_paths():
                try:
                    yield self._load_snapshot(path, base_world.gazetteer), path
                except JournalError:
                    continue
            yield base_world, None

        for world, path in candidates():
            tail = [r for r in live if r.generation > world.generation]
            if tail:
                first = tail[0]
                if first.generation != world.generation + 1:
                    if path is None:
                        raise JournalError(
                            f"journal resumes at generation "
                            f"{first.generation} but the best available "
                            f"state is generation {world.generation} -- "
                            "snapshot missing or corrupt"
                        )
                    continue
                delta = WorldDelta.from_payload(first.payload)
                if chain_hash(
                    world.content_hash, delta.digest()
                ) != first.world_hash:
                    if path is None:
                        raise JournalError(
                            "journal does not chain from this world "
                            "(wrong artifact for this journal directory?)"
                        )
                    continue
            else:
                overlap = [
                    r for r in live if r.generation == world.generation
                ]
                if overlap and overlap[-1].world_hash != world.content_hash:
                    if path is None:
                        raise JournalError(
                            "journal history disagrees with this world "
                            "at its own generation"
                        )
                    continue
            return world, path
        raise AssertionError("unreachable: base world is always a candidate")

    def recover(self, base_world: ColumnarWorld) -> tuple[ColumnarWorld, dict]:
        """Rebuild the durable world: scan, repair, pick state, replay.

        Returns ``(world, report)``.  The journal file is repaired in
        place: a structurally invalid suffix (torn/corrupt records)
        and any suffix that fails chain verification mid-replay are
        truncated, so the file afterwards holds exactly the applied
        history and appends continue from it.
        """
        with self.lock:
            t0 = time.perf_counter()
            self.close()
            records, valid_end, scan_error = scan_journal(self.path)
            size = self.path.stat().st_size
            repaired = size - valid_end
            if repaired:
                with open(self.path, "r+b") as fh:
                    fh.truncate(valid_end)
                    fh.flush()
                    os.fsync(fh.fileno())
            live = [r for r in records if not r.duplicate]
            state, snapshot_path = self._pick_state(base_world, live)
            world = state
            replayed = 0
            skipped = 0
            drop_from: int | None = None
            dropped = 0
            for record in records:
                if drop_from is not None:
                    dropped += 1
                    continue
                if record.duplicate or record.generation <= world.generation:
                    skipped += 1
                    continue
                delta = WorldDelta.from_payload(record.payload)
                if record.generation != world.generation + 1 or chain_hash(
                    world.content_hash, delta.digest()
                ) != record.world_hash:
                    drop_from = record.start
                    dropped += 1
                    continue
                world = apply_delta(world, delta)
                replayed += 1
            if drop_from is not None:
                with open(self.path, "r+b") as fh:
                    fh.truncate(drop_from)
                    fh.flush()
                    os.fsync(fh.fileno())
            self._n_records = replayed + skipped
            self._generation = world.generation
            self._last_hash = world.content_hash
            self._snapshot_generation = state.generation
            report = {
                "generation": world.generation,
                "world_hash": world.content_hash,
                "records": self._n_records,
                "replayed": replayed,
                "skipped": skipped,
                "dropped_records": dropped,
                "repaired_bytes": repaired,
                "scan_error": scan_error,
                "snapshot_generation": (
                    state.generation if snapshot_path is not None else None
                ),
                "snapshot": (
                    str(snapshot_path) if snapshot_path is not None else None
                ),
            }
            JOURNAL_REPLAY_SECONDS.observe(time.perf_counter() - t0)
            JOURNAL_REPLAYS.inc()
            if replayed:
                JOURNAL_REPLAYED_RECORDS.inc(replayed)
            return world, report


def open_journal(
    directory: str | Path,
    base_world: ColumnarWorld,
    fsync_every: int = 1,
    create: bool = True,
) -> tuple[ColumnarWorld, DeltaJournal, dict]:
    """Open (or create) a journal directory and recover its world.

    ``base_world`` is the artifact's compiled world -- the generation-0
    anchor the chain starts from.  Returns
    ``(world, journal, report)``: the recovered world (``base_world``
    itself when the journal is empty), the journal positioned for
    appends, and the recovery report.
    """
    journal = DeltaJournal(directory, fsync_every=fsync_every, create=create)
    world, report = journal.recover(base_world)
    return world, journal, report


def append_and_apply(
    journal: DeltaJournal, world: ColumnarWorld, delta: WorldDelta
) -> ColumnarWorld:
    """Durable apply at the data level: write ahead, then apply.

    Write-ahead ordering -- the record is on disk before the apply, so
    a crash between the two replays to the exact same world.
    """
    with journal.lock:
        journal.write_ahead(world, delta)
        return apply_delta(world, delta)


def journaled_ingest(predictor, journal: DeltaJournal, delta: WorldDelta):
    """Durable serving ingest: write ahead, then refresh, under the lock.

    The serving twin of :func:`append_and_apply`:
    ``predictor.refresh`` swaps the served world and invalidates
    caches exactly as in-memory ingest does, but only after the record
    is journaled.  All ingests of a journaled server must go through
    here (direct ``refresh`` calls would desync the generation chain).
    """
    with journal.lock:
        journal.write_ahead(predictor.world, delta)
        return predictor.refresh(delta)
