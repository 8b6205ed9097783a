"""The columnar world compiler: one integer-indexed substrate for all layers.

The object graph of :class:`~repro.data.model.Dataset` is the right
representation for construction, validation and serialization, but it
is the wrong one for computation: before this module existed, the loop
sampler walked per-object adjacency, the vectorized engine rebuilt
packed arenas from scratch on every fit, and serving fold-in derived
candidate/prior tables a third time.  :class:`ColumnarWorld` lowers a
dataset **once** into flat ``numpy`` arrays that every consumer shares
read-only:

- **user table**: observed home location id (``-1`` when unlabeled),
  the matching home *venue* id, and the labeled mask;
- **CSR adjacency**: ``out`` (friends of), ``in`` (followers of) and
  ``nbr`` (deduplicated undirected union) as ``indptr``/``indices``
  pairs, all in stable edge order so slices reproduce the object
  graph's tuples exactly;
- **flat relationship arenas**: ``edge_src``/``edge_dst`` for following
  relationships and ``tweet_user``/``tweet_venue`` for venue mentions,
  in dataset order (the order every sampler sweeps in);
- **venue vocabulary**: global mention counts (the TR empirical model)
  and the venue -> referent-location CSR that candidacy expansion and
  fold-in read;
- **precomputed candidate sets**: the full-signal Sec. 4.3 candidacy
  vector of every user as one more CSR, so edge scoring never re-walks
  the graph (prior construction slices instead of looping);
- a deterministic **content hash**, plus the one on-disk form of a
  world (:func:`write_world_dir`/:func:`read_world_dir`: a directory of
  raw ``.npy`` arenas and a ``meta.json``) that journal snapshots and
  world-store generations share.

**Id maps.**  All three id spaces are dense, so the bidirectional maps
are intentionally trivial: user id == row in the user table, location
id == gazetteer row, venue id == index into
``gazetteer.venue_vocabulary`` (``gazetteer.venue_index`` is the
inverse).  ``location_venue`` maps location id -> its own venue id, and
the referent CSR is the inverse (venue id -> location ids).  Anything
that survives ``to_arrays`` round-trips these maps unchanged.

**Compile-once discipline.**  :func:`compile_world` memoizes per
dataset identity (a ``WeakKeyDictionary``), so a fit, a K-chain pool
and a serving fold-in predictor built over the same dataset all share
one compiled world.  :func:`compile_count` exposes the number of real
compiles for benchmarks asserting the "compiled exactly once per fit"
contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import weakref
from pathlib import Path

import numpy as np

from repro.data.model import Dataset, FollowingEdge, TweetingEdge, User
from repro.geo.gazetteer import Gazetteer


def build_csr(groups: np.ndarray, values: np.ndarray, n_groups: int):
    """Stable CSR over ``(group, value)`` pairs: values keep input order.

    Public because it is the shared ragged-data lowering primitive:
    the world compiler builds adjacency with it, and the serving batch
    engine (:mod:`repro.serving.batch`) lowers per-request ``UserSpec``
    lists into its flat relationship arena through the same call.
    """
    counts = np.bincount(groups, minlength=n_groups)
    indptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(groups, kind="stable")
    return indptr, np.ascontiguousarray(values[order], dtype=np.int64)


def build_unique_csr(groups: np.ndarray, values: np.ndarray, n_groups: int):
    """CSR of the sorted, deduplicated values of each group."""
    if groups.size == 0:
        return np.zeros(n_groups + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = np.lexsort((values, groups))
    g = groups[order]
    v = values[order]
    keep = np.ones(g.size, dtype=bool)
    keep[1:] = (g[1:] != g[:-1]) | (v[1:] != v[:-1])
    g = g[keep]
    v = v[keep]
    counts = np.bincount(g, minlength=n_groups)
    indptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, np.ascontiguousarray(v, dtype=np.int64)


def location_venue_map(gazetteer: Gazetteer) -> np.ndarray:
    """location id -> the venue id of its own city name.

    The forward half of the location/venue id map (the referent CSR is
    the inverse); shared by the compiler and the sharded generator.
    """
    return np.fromiter(
        (gazetteer.venue_index[loc.venue_name] for loc in gazetteer),
        dtype=np.int64,
        count=len(gazetteer),
    )


def expand_csr(indptr: np.ndarray, indices: np.ndarray, keys: np.ndarray):
    """Concatenate ``indices[indptr[k]:indptr[k+1]]`` for every key.

    Returns ``(repeat_counts, flat_values)``: the classic vectorized
    CSR gather (no Python loop over keys).  Passing
    ``indices=np.arange(total)`` turns it into a *position* gather --
    the batch fold-in engine uses exactly that to compact its arenas
    down to the still-active users each time some users converge.
    """
    start = indptr[keys]
    cnt = indptr[keys + 1] - start
    total = int(cnt.sum())
    if total == 0:
        return cnt, np.empty(0, dtype=np.int64)
    ends = np.cumsum(cnt)
    flat = (
        np.arange(total, dtype=np.int64)
        - np.repeat(ends - cnt, cnt)
        + np.repeat(start, cnt)
    )
    return cnt, indices[flat]


#: Array keys persisted by :meth:`ColumnarWorld.to_arrays`, in layout
#: order.  The constructor requires exactly this set.
WORLD_ARRAY_KEYS = (
    "observed_location",
    "observed_venue",
    "edge_src",
    "edge_dst",
    "tweet_user",
    "tweet_venue",
    "out_indptr",
    "out_indices",
    "in_indptr",
    "in_indices",
    "nbr_indptr",
    "nbr_indices",
    "uv_indptr",
    "uv_indices",
    "ref_indptr",
    "ref_indices",
    "cand_indptr",
    "cand_indices",
    "venue_mention_counts",
    "location_venue",
)


class ColumnarWorld:
    """A dataset lowered to integer-indexed arrays, compiled once.

    Construct through :func:`compile_world` (memoized per dataset),
    :meth:`from_edge_arrays` (the sharded generator's zero-object
    path) or :func:`read_world_dir` (a persisted generation).  All
    arrays are treated as immutable after construction; consumers
    share them read-only across chains, processes and serving threads.
    """

    def __init__(
        self,
        gazetteer: Gazetteer,
        arrays: dict[str, np.ndarray],
        content_hash: str | None = None,
    ):
        self.gazetteer = gazetteer
        self.n_locations = len(gazetteer)
        self.n_venues = len(gazetteer.venue_vocabulary)
        missing = set(WORLD_ARRAY_KEYS) - arrays.keys()
        if missing:
            raise ValueError(f"columnar world missing arrays: {sorted(missing)}")
        for key in WORLD_ARRAY_KEYS:
            setattr(self, key, arrays[key])
        self.n_users = int(self.observed_location.shape[0])
        self._validate()
        self._content_hash = content_hash
        #: Incremented by every :func:`repro.data.delta.apply_delta`;
        #: a freshly compiled world is generation 0.  Serving uses it
        #: to tell world versions apart without hashing.
        self.generation: int = 0
        #: One :class:`repro.data.delta.DeltaRecord` per applied delta
        #: (generation, touched user ids, digest), oldest first --
        #: ``score_population(since_generation=g)`` reads it to rescore
        #: only delta-affected users.
        self.delta_log: tuple = ()
        # Both object-graph links are weak: the compile memo stores this
        # world as a strong *value* keyed weakly by its dataset, so a
        # strong backref here would turn every cache entry into an
        # uncollectable cycle.  Callers own the datasets; worlds only
        # point at them.
        self._dataset_ref: "weakref.ref[Dataset] | None" = None
        self._materialized_ref: "weakref.ref[Dataset] | None" = None

    # -- construction -----------------------------------------------------

    @classmethod
    def compile(cls, dataset: Dataset) -> "ColumnarWorld":
        """Lower a :class:`Dataset` into the columnar form.

        Prefer :func:`compile_world`, which memoizes; this classmethod
        always does the full lowering.
        """
        observed = np.full(dataset.n_users, -1, dtype=np.int64)
        for uid, loc in dataset.observed_locations.items():
            observed[uid] = loc
        edge_src = np.fromiter(
            (e.follower for e in dataset.following),
            dtype=np.int64,
            count=dataset.n_following,
        )
        edge_dst = np.fromiter(
            (e.friend for e in dataset.following),
            dtype=np.int64,
            count=dataset.n_following,
        )
        tweet_user = np.fromiter(
            (t.user for t in dataset.tweeting),
            dtype=np.int64,
            count=dataset.n_tweeting,
        )
        tweet_venue = np.fromiter(
            (t.venue_id for t in dataset.tweeting),
            dtype=np.int64,
            count=dataset.n_tweeting,
        )
        world = cls.from_edge_arrays(
            dataset.gazetteer,
            observed_location=observed,
            edge_src=edge_src,
            edge_dst=edge_dst,
            tweet_user=tweet_user,
            tweet_venue=tweet_venue,
        )
        world._dataset_ref = weakref.ref(dataset)
        return world

    @classmethod
    def from_edge_arrays(
        cls,
        gazetteer: Gazetteer,
        observed_location: np.ndarray,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        tweet_user: np.ndarray,
        tweet_venue: np.ndarray,
    ) -> "ColumnarWorld":
        """Compile from raw relationship arrays (no object graph needed).

        This is the entry point both :meth:`compile` and the sharded
        synthetic generator funnel through: everything derived (CSR
        adjacency, referent map, candidate sets, mention counts) is
        built here with vectorized passes.
        """
        n_users = int(observed_location.shape[0])
        n_loc = len(gazetteer)
        n_ven = len(gazetteer.venue_vocabulary)
        observed = np.ascontiguousarray(observed_location, dtype=np.int64)
        edge_src = np.ascontiguousarray(edge_src, dtype=np.int64)
        edge_dst = np.ascontiguousarray(edge_dst, dtype=np.int64)
        tweet_user = np.ascontiguousarray(tweet_user, dtype=np.int64)
        tweet_venue = np.ascontiguousarray(tweet_venue, dtype=np.int64)

        location_venue = location_venue_map(gazetteer)
        labeled = observed >= 0
        observed_venue = np.where(
            labeled, location_venue[np.where(labeled, observed, 0)], -1
        )

        out_indptr, out_indices = build_csr(edge_src, edge_dst, n_users)
        in_indptr, in_indices = build_csr(edge_dst, edge_src, n_users)
        nbr_indptr, nbr_indices = build_unique_csr(
            np.concatenate([edge_src, edge_dst]),
            np.concatenate([edge_dst, edge_src]),
            n_users,
        )
        uv_indptr, uv_indices = build_csr(tweet_user, tweet_venue, n_users)
        venue_mention_counts = np.bincount(
            tweet_venue, minlength=n_ven
        ).astype(np.float64)

        # venue id -> referent location ids (inverse of location_venue).
        ref_indptr, ref_indices = build_unique_csr(
            location_venue, np.arange(n_loc, dtype=np.int64), n_ven
        )

        # Full-signal candidacy (Sec. 4.3): own observed location,
        # labeled neighbours' observed locations, referents of tweeted
        # venues -- assembled as (user, location) pairs and deduplicated.
        pair_users = [np.flatnonzero(labeled)]
        pair_locs = [observed[labeled]]
        src_obs = observed[edge_dst]
        keep = src_obs >= 0
        pair_users.append(edge_src[keep])
        pair_locs.append(src_obs[keep])
        dst_obs = observed[edge_src]
        keep = dst_obs >= 0
        pair_users.append(edge_dst[keep])
        pair_locs.append(dst_obs[keep])
        rep, ref_locs = expand_csr(ref_indptr, ref_indices, tweet_venue)
        pair_users.append(np.repeat(tweet_user, rep))
        pair_locs.append(ref_locs)
        cand_indptr, cand_indices = build_unique_csr(
            np.concatenate(pair_users), np.concatenate(pair_locs), n_users
        )

        return cls(
            gazetteer,
            {
                "observed_location": observed,
                "observed_venue": observed_venue,
                "edge_src": edge_src,
                "edge_dst": edge_dst,
                "tweet_user": tweet_user,
                "tweet_venue": tweet_venue,
                "out_indptr": out_indptr,
                "out_indices": out_indices,
                "in_indptr": in_indptr,
                "in_indices": in_indices,
                "nbr_indptr": nbr_indptr,
                "nbr_indices": nbr_indices,
                "uv_indptr": uv_indptr,
                "uv_indices": uv_indices,
                "ref_indptr": ref_indptr,
                "ref_indices": ref_indices,
                "cand_indptr": cand_indptr,
                "cand_indices": cand_indices,
                "venue_mention_counts": venue_mention_counts,
                "location_venue": location_venue,
            },
        )

    def _validate(self) -> None:
        n, s, k = self.n_users, self.edge_src.size, self.tweet_user.size
        if self.edge_dst.size != s or self.tweet_venue.size != k:
            raise ValueError("relationship arrays have mismatched lengths")
        for name, arr, hi in (
            ("edge_src", self.edge_src, n),
            ("edge_dst", self.edge_dst, n),
            ("tweet_user", self.tweet_user, n),
            ("tweet_venue", self.tweet_venue, self.n_venues),
            ("observed_location", self.observed_location, self.n_locations),
        ):
            if arr.size and (int(arr.min()) < (-1 if name == "observed_location" else 0) or int(arr.max()) >= hi):
                raise ValueError(f"{name} references ids outside [0, {hi})")
        for name, indptr, indices, total in (
            ("out", self.out_indptr, self.out_indices, s),
            ("in", self.in_indptr, self.in_indices, s),
            ("uv", self.uv_indptr, self.uv_indices, k),
        ):
            if indptr.size != n + 1 or int(indptr[-1]) != total or indices.size != total:
                raise ValueError(f"{name} CSR is inconsistent with the edge arenas")
        if self.ref_indptr.size != self.n_venues + 1:
            raise ValueError("referent CSR does not cover the venue vocabulary")
        if self.cand_indptr.size != n + 1 or self.nbr_indptr.size != n + 1:
            raise ValueError("per-user CSR does not cover the user table")

    @property
    def content_hash(self) -> str:
        """Deterministic digest identifying this world, computed lazily.

        For a compiled world this is the full-array sha256
        (:meth:`rehash`); for a delta-descendant world it is the
        *chained* hash ``H(parent_hash, delta_digest)`` stamped by
        :func:`repro.data.delta.apply_delta` -- same identity power,
        O(|delta|) to maintain.  Two worlds with equal arrays but
        different delta histories therefore carry different hashes;
        compare :meth:`rehash` when array-level equality is the
        question.
        """
        if self._content_hash is None:
            self._content_hash = self.rehash()
        return self._content_hash

    def rehash(self) -> str:
        """The full-array content digest, always recomputed.

        Ignores the cached (possibly chained) :attr:`content_hash`:
        two worlds agree on ``rehash()`` iff their arrays are
        bit-identical, however they were built.
        """
        digest = hashlib.sha256()
        digest.update(
            f"{self.n_users},{self.n_locations},{self.n_venues}".encode()
        )
        for key in WORLD_ARRAY_KEYS:
            arr = getattr(self, key)
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()[:16]

    # -- sizes ------------------------------------------------------------

    @property
    def n_following(self) -> int:
        """Total following edges in the compiled world."""
        return int(self.edge_src.size)

    @property
    def n_tweeting(self) -> int:
        """Total tweeting edges (venue mentions)."""
        return int(self.tweet_user.size)

    @property
    def labeled_mask(self) -> np.ndarray:
        """Boolean mask of users with an observed home."""
        return self.observed_location >= 0

    # -- CSR slice accessors ----------------------------------------------

    def friends_of(self, user_id: int) -> np.ndarray:
        """Users ``user_id`` follows, in dataset edge order."""
        return self.out_indices[self.out_indptr[user_id]:self.out_indptr[user_id + 1]]

    def followers_of(self, user_id: int) -> np.ndarray:
        """Users following ``user_id``, in dataset edge order."""
        return self.in_indices[self.in_indptr[user_id]:self.in_indptr[user_id + 1]]

    def neighbors_of(self, user_id: int) -> np.ndarray:
        """Sorted deduplicated undirected neighbourhood."""
        return self.nbr_indices[self.nbr_indptr[user_id]:self.nbr_indptr[user_id + 1]]

    def venues_of(self, user_id: int) -> np.ndarray:
        """Venue ids tweeted by ``user_id`` (with repeats, edge order)."""
        return self.uv_indices[self.uv_indptr[user_id]:self.uv_indptr[user_id + 1]]

    def referents_of(self, venue_id: int) -> np.ndarray:
        """Sorted location ids the (ambiguous) venue name may refer to."""
        return self.ref_indices[self.ref_indptr[venue_id]:self.ref_indptr[venue_id + 1]]

    def candidates_of(self, user_id: int) -> np.ndarray:
        """The precomputed full-signal candidacy vector (sorted)."""
        return self.cand_indices[self.cand_indptr[user_id]:self.cand_indptr[user_id + 1]]

    # -- persistence -------------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The compiled form as plain arrays (see ``WORLD_ARRAY_KEYS``)."""
        return {key: getattr(self, key) for key in WORLD_ARRAY_KEYS}

    def memory_report(self) -> dict[str, dict]:
        """Bytes, dtype and shape of every compiled arena.

        The ledger behind the large-world dtype audit: benchmarks
        journal it next to peak RSS so a widened index or an
        accidentally float64 count column shows up as a reviewable
        diff, not a silent memory regression.  ``total_bytes`` sums the
        per-array sizes.
        """
        report: dict[str, dict] = {}
        total = 0
        for key in WORLD_ARRAY_KEYS:
            arr = getattr(self, key)
            report[key] = {
                "dtype": str(arr.dtype),
                "shape": tuple(arr.shape),
                "bytes": int(arr.nbytes),
            }
            total += int(arr.nbytes)
        report["total_bytes"] = total
        return report

    def dump_dir(self, directory) -> None:
        """Persist each arena as ``<key>.npy`` under ``directory``.

        The plain-``.npy``-per-array layout (rather than one ``.npz``)
        exists so :meth:`load_dir` can hand the arrays back as
        memory-mapped views: a 1M-user world then costs address space,
        not resident memory, until a consumer touches it.  Every file
        is fsynced; directory-level durability is
        :func:`write_world_dir`'s job.
        """
        os.makedirs(directory, exist_ok=True)
        for key in WORLD_ARRAY_KEYS:
            path = os.path.join(directory, f"{key}.npy")
            with open(path, "wb") as fh:
                np.save(fh, getattr(self, key))
                fh.flush()
                os.fsync(fh.fileno())

    @classmethod
    def load_dir(
        cls, gazetteer: Gazetteer, directory, mmap: bool = True
    ) -> "ColumnarWorld":
        """Rehydrate a :meth:`dump_dir` world, mmap-backed by default.

        With ``mmap=True`` every arena is an ``np.memmap`` view onto
        the ``.npy`` files (read-only; the OS pages slices in on
        demand).  Validation touches only array heads and extrema, so
        loading stays cheap even for worlds larger than RAM.
        """
        mode = "r" if mmap else None
        arrays = {
            key: np.load(os.path.join(directory, f"{key}.npy"), mmap_mode=mode)
            for key in WORLD_ARRAY_KEYS
        }
        return cls(gazetteer, arrays)

    # -- object-graph bridge -----------------------------------------------

    def to_dataset(self) -> Dataset:
        """Materialize the object graph (no generator ground truth).

        Only needed by consumers that genuinely require objects
        (artifact serialization, report rendering); the hot paths run
        on the arrays.  The result is registered with the compile memo,
        so ``compile_world(world.to_dataset())`` is this world again --
        but held only weakly here: the *caller* owns the materialized
        dataset, and once they drop it both the memo entry and (absent
        other references) this world are collectable.
        """
        dataset = (
            self._materialized_ref()
            if self._materialized_ref is not None
            else None
        )
        if dataset is None:
            observed = self.observed_location.tolist()
            users = [
                User(
                    user_id=uid,
                    registered_location=loc if loc >= 0 else None,
                )
                for uid, loc in enumerate(observed)
            ]
            following = [
                FollowingEdge(follower=i, friend=j)
                for i, j in zip(self.edge_src.tolist(), self.edge_dst.tolist())
            ]
            tweeting = [
                TweetingEdge(user=u, venue_id=v)
                for u, v in zip(
                    self.tweet_user.tolist(), self.tweet_venue.tolist()
                )
            ]
            dataset = Dataset(self.gazetteer, users, following, tweeting)
            self._materialized_ref = weakref.ref(dataset)
            register_world(dataset, self)
        return dataset

    def require_dataset(self) -> Dataset:
        """The dataset this world was compiled from, materializing if gone."""
        if self._dataset_ref is not None:
            dataset = self._dataset_ref()
            if dataset is not None:
                return dataset
        return self.to_dataset()

    # -- pickling ----------------------------------------------------------

    def __getstate__(self):
        # Chains in worker processes only need the arrays: drop the
        # object graph (weakrefs cannot pickle, and shipping the full
        # Dataset across process boundaries is the cost this compiler
        # exists to remove).
        return {
            "gazetteer": self.gazetteer,
            "arrays": self.to_arrays(),
            "content_hash": self._content_hash,  # None if never computed
            "generation": self.generation,
            "delta_log": self.delta_log,
        }

    def __setstate__(self, state):
        self.__init__(
            state["gazetteer"], state["arrays"], state["content_hash"]
        )
        self.generation = state.get("generation", 0)
        self.delta_log = state.get("delta_log", ())

    def __repr__(self) -> str:
        return (
            f"ColumnarWorld(users={self.n_users}, "
            f"following={self.n_following}, tweeting={self.n_tweeting}, "
            f"locations={self.n_locations}, hash={self.content_hash})"
        )


# -- the on-disk world format ----------------------------------------------

#: The metadata file of a generation directory (next to the arenas).
WORLD_META_FILE = "meta.json"


class WorldDigestError(ValueError):
    """Persisted arenas do not match their recorded ``world_rehash``."""


def fsync_dir(directory) -> None:
    """Make a rename/creation in ``directory`` durable (best effort)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def write_world_dir(
    world: ColumnarWorld, directory, extra_meta: dict | None = None
) -> dict:
    """Persist ``world`` as the generation directory ``directory``.

    The one on-disk world format: :meth:`ColumnarWorld.dump_dir` arenas
    plus a ``meta.json`` naming the generation, the chained
    ``content_hash``, the full-array ``world_rehash`` and the sizes,
    merged with the caller's ``extra_meta``.  Atomic by rename: the
    directory is written under a temporary sibling name, every file is
    fsynced, the temp directory is renamed into place and the parent
    fsynced, so a crash leaves the old state or the whole new
    directory.  ``directory`` must not exist yet.  Returns the meta.
    """
    directory = Path(directory)
    meta = {
        "generation": int(world.generation),
        "content_hash": world.content_hash,
        "world_rehash": world.rehash(),
        "n_users": world.n_users,
        "n_following": world.n_following,
        "n_tweeting": world.n_tweeting,
        **(extra_meta or {}),
        "created_unix": time.time(),
    }
    tmp = directory.with_name(f".{directory.name}.tmp-{os.getpid()}")
    if tmp.exists():
        shutil.rmtree(tmp)
    try:
        world.dump_dir(tmp)
        with open(tmp / WORLD_META_FILE, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.rename(tmp, directory)
        fsync_dir(directory.parent)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return meta


def read_world_dir(
    gazetteer: Gazetteer, directory, mmap: bool = True, verify: bool = False
) -> tuple[ColumnarWorld, dict]:
    """Load a :func:`write_world_dir` directory; returns ``(world, meta)``.

    The world carries the persisted identity (``generation`` and the
    chained ``content_hash`` from the meta).  With ``verify=True`` the
    full-array digest is recomputed and a mismatch against
    ``world_rehash`` raises :class:`WorldDigestError`.  A missing or
    unparsable file raises ``OSError``/``ValueError``/``KeyError``;
    callers map both to their own error types.
    """
    directory = Path(directory)
    meta = json.loads((directory / WORLD_META_FILE).read_text(encoding="utf-8"))
    world = ColumnarWorld.load_dir(gazetteer, directory, mmap=mmap)
    world.generation = int(meta["generation"])
    world._content_hash = meta["content_hash"]
    if verify and world.rehash() != meta["world_rehash"]:
        raise WorldDigestError(
            f"{directory}: arenas do not match their recorded digest"
        )
    return world, meta


# -- the compile-once memo -------------------------------------------------

_WORLD_CACHE: "weakref.WeakKeyDictionary[Dataset, ColumnarWorld]" = (
    weakref.WeakKeyDictionary()
)
#: Cheap shape fingerprint of each memoized dataset, recorded at
#: compile time.  The memo is keyed by object *identity*; if a caller
#: mutates a Dataset in place, identity no longer implies content and
#: the memo would silently serve arrays of the old content.  The
#: fingerprint (a poor man's generation counter -- it advances exactly
#: when the relationship multisets or user table change size) lets the
#: memo detect that and refuse loudly.
_WORLD_FINGERPRINTS: "weakref.WeakKeyDictionary[Dataset, tuple]" = (
    weakref.WeakKeyDictionary()
)
_COMPILE_COUNT = 0


class StaleWorldError(ValueError):
    """A memoized dataset was mutated in place after compilation."""


def _dataset_fingerprint(dataset: Dataset) -> tuple:
    return (
        dataset.n_users,
        len(dataset.following),
        len(dataset.tweeting),
        len(dataset.gazetteer),
    )


def compile_world(source: "Dataset | ColumnarWorld") -> ColumnarWorld:
    """The memoized entry point every consumer uses.

    Passing an already-compiled world is free; passing a dataset
    compiles at most once per dataset identity.  The memo is keyed by
    object identity (datasets are immutable by convention), and holds
    the dataset weakly so worlds die with their datasets.  Mutating a
    memoized dataset in place is undefined behaviour; the memo detects
    the common case -- any mutation that changes the user-table,
    relationship or gazetteer *sizes* -- and raises
    :class:`StaleWorldError` instead of serving the stale world
    (same-size in-place edits cannot be caught without rehashing the
    content on every call).  Growing a world incrementally is what
    :mod:`repro.data.delta` is for.
    """
    global _COMPILE_COUNT
    if isinstance(source, ColumnarWorld):
        return source
    if not isinstance(source, Dataset):
        raise TypeError(
            f"expected a Dataset or ColumnarWorld, got {type(source).__name__}"
        )
    world = _WORLD_CACHE.get(source)
    if world is None:
        _COMPILE_COUNT += 1
        world = ColumnarWorld.compile(source)
        _WORLD_CACHE[source] = world
        _WORLD_FINGERPRINTS[source] = _dataset_fingerprint(source)
    else:
        recorded = _WORLD_FINGERPRINTS.get(source)
        current = _dataset_fingerprint(source)
        if recorded is not None and recorded != current:
            raise StaleWorldError(
                "dataset was mutated in place after its world was "
                f"compiled (shape {recorded} -> {current}); datasets "
                "are immutable by convention -- build a new Dataset, "
                "or stream changes with repro.data.delta.WorldDelta"
            )
    return world


def register_world(dataset: Dataset, world: ColumnarWorld) -> None:
    """Pre-seed the memo (materialized datasets, sharded generation).

    The world adopts ``dataset`` as its object-graph view only when it
    has no live one already -- a world compiled from dataset A and
    later registered for a materialized copy keeps answering
    ``require_dataset()`` with A.
    """
    current = (
        world._dataset_ref() if world._dataset_ref is not None else None
    )
    if current is None:
        world._dataset_ref = weakref.ref(dataset)
    _WORLD_CACHE[dataset] = world
    _WORLD_FINGERPRINTS[dataset] = _dataset_fingerprint(dataset)


def compile_count() -> int:
    """Number of real (non-memoized) compiles since process start.

    Benchmarks diff this around a fit to assert the compile-once
    contract (one world per fit, shared by all chains and by serving).
    """
    return _COMPILE_COUNT
