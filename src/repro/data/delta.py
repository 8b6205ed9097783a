"""Streaming world ingest: apply :class:`WorldDelta` batches to a world.

A compiled :class:`~repro.data.columnar.ColumnarWorld` is immutable --
which is exactly right for sampling and serving, and exactly wrong for
the roadmap's live-traffic setting, where a single new user, follow
edge or venue mention would otherwise force a full O(world) recompile
before serving could see it.  This module makes worlds **mutable by
delta**: a :class:`WorldDelta` batches arrivals (new users, new
following/tweeting relationships, label updates) and
:func:`apply_delta` splices them into an existing world in
O(|delta| + touched rows) of real work:

- **arena appends**: the flat relationship arenas grow in place through
  :class:`_GrowableArena` buffers with amortized over-allocation, so a
  stream of small deltas does not copy the arena once per batch (older
  worlds keep valid prefix views -- appends never disturb them, and a
  *second* delta applied to the same parent safely falls back to a
  copy);
- **CSR row splicing**: the ``out``/``in``/``uv`` adjacency rows of
  touched users get their new values appended (stable order preserved,
  so slices match a from-scratch :func:`~repro.data.columnar.build_csr`
  bit for bit), and the ``nbr``/``cand`` rows of touched users are
  recomputed from their post-delta evidence and spliced back;
- **incremental aggregates**: venue mention counts are bumped by a
  bincount of the delta (integer-valued float adds -- exact), the
  user table is extended/patched in place;
- **hash chaining**: the new world's identity is
  ``H(parent_hash, delta_digest)`` -- O(|delta|) instead of an
  O(world) rehash.  Chained hashes identify a *history*; compare
  :meth:`~repro.data.columnar.ColumnarWorld.rehash` for array-level
  equality;
- **generation counters**: every apply bumps
  :attr:`~repro.data.columnar.ColumnarWorld.generation` and appends a
  :class:`DeltaRecord` (touched user ids included) to the world's
  ``delta_log``, which is how serving re-scores only delta-affected
  users (``score_population(since_generation=...)``) instead of the
  whole population.

**The golden contract.**  Applying any sequence of deltas must yield a
world whose arrays are *bit-identical* to compiling the final dataset
from scratch (``ColumnarWorld.from_edge_arrays`` over the concatenated
inputs).  Everything downstream -- fold-in phi/theta, iteration counts,
convergence flags -- then matches exactly, across interleavings and
chunk boundaries; ``tests/test_data_delta.py`` pins this.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.data.columnar import ColumnarWorld, expand_csr

__all__ = [
    "WorldDelta",
    "DeltaRecord",
    "StaleWindowError",
    "apply_delta",
    "chain_hash",
    "validate_delta",
]


class StaleWindowError(ValueError):
    """``since_generation`` reaches past the retained touched-user window.

    Raised by :func:`touched_since` when the requested window is no
    longer covered by the world's ``delta_log``: it retains the last
    :data:`DELTA_LOG_LIMIT` generations, and a world recovered from a
    journal snapshot starts its log at that snapshot.  The only correct
    recovery is a **full re-score** of the unlabeled population;
    callers that fall back must do so *loudly* (``repro ingest`` warns
    on stderr, the query layer counts the event in
    ``repro_query_index_refreshes_total{kind="full_fallback"}``) -- see
    docs/API.md ("Incremental re-scoring window").  Subclasses
    ``ValueError`` so pre-existing broad handlers keep working.
    """


def _as_int_array(values, count: int | None = None) -> np.ndarray:
    arr = np.fromiter(
        (int(v) for v in values),
        dtype=np.int64,
        **({} if count is None else {"count": count}),
    )
    return arr


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums as an indptr-style array (len + 1)."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


class WorldDelta:
    """One batch of world changes, canonicalized to flat arrays.

    Parameters
    ----------
    new_users:
        One entry per arriving user, each an observed home location id
        or ``None`` (unlabeled).  Arrivals are appended to the user
        table in order: the first new user of a delta applied to an
        ``n``-user world becomes user ``n``.
    edges:
        ``(follower, friend)`` pairs.  Either endpoint may be a new
        user of this same batch (by its post-append id).  Duplicates
        are kept -- following relationships are a multiset, exactly as
        in :class:`~repro.data.model.Dataset`.
    tweets:
        ``(user, venue_id)`` pairs; repeats count, as in training.
    labels:
        ``{user_id: location_id | None}`` observed-label updates for
        existing (or same-batch) users; ``None`` removes the label.
        A mapping, so one batch holds at most one update per user.
    """

    __slots__ = (
        "new_user_labels",
        "edge_src",
        "edge_dst",
        "tweet_user",
        "tweet_venue",
        "label_users",
        "label_locations",
    )

    def __init__(
        self,
        new_users: Iterable[int | None] = (),
        edges: Iterable[tuple[int, int]] = (),
        tweets: Iterable[tuple[int, int]] = (),
        labels: Mapping[int, int | None] | None = None,
    ):
        self.new_user_labels = _as_int_array(
            -1 if loc is None else loc for loc in new_users
        )
        edges = list(edges)
        self.edge_src = _as_int_array((e[0] for e in edges), len(edges))
        self.edge_dst = _as_int_array((e[1] for e in edges), len(edges))
        tweets = list(tweets)
        self.tweet_user = _as_int_array((t[0] for t in tweets), len(tweets))
        self.tweet_venue = _as_int_array((t[1] for t in tweets), len(tweets))
        labels = dict(labels or {})
        self.label_users = _as_int_array(labels.keys(), len(labels))
        self.label_locations = _as_int_array(
            (-1 if loc is None else loc for loc in labels.values()),
            len(labels),
        )

    # -- sizes -------------------------------------------------------------

    @property
    def n_new_users(self) -> int:
        """Number of arriving users in this delta."""
        return int(self.new_user_labels.size)

    @property
    def n_edges(self) -> int:
        """Number of new following edges."""
        return int(self.edge_src.size)

    @property
    def n_tweets(self) -> int:
        """Number of new venue mentions."""
        return int(self.tweet_user.size)

    @property
    def n_label_updates(self) -> int:
        """Number of label (observed-home) updates."""
        return int(self.label_users.size)

    @property
    def is_empty(self) -> bool:
        """True when the delta carries no changes."""
        return (
            self.n_new_users == 0
            and self.n_edges == 0
            and self.n_tweets == 0
            and self.n_label_updates == 0
        )

    # -- identity ----------------------------------------------------------

    def digest(self) -> str:
        """Deterministic content digest of this batch (hash-chain link)."""
        h = hashlib.sha256()
        for name in self.__slots__:
            arr = getattr(self, name)
            h.update(f"{name}:{arr.size};".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:16]

    # -- wire format -------------------------------------------------------

    @classmethod
    def from_payload(cls, payload: dict, gazetteer=None) -> "WorldDelta":
        """Build a delta from a JSON payload (the ``/ingest`` body).

        ``{"new_users": [{"observed_location": 5}, {}],
        "edges": [[0, 3]], "tweets": [[0, 17], [3, "austin"]],
        "labels": {"12": 3, "15": null}}`` -- tweet venues may be venue
        *names*, resolved through ``gazetteer.venue_index`` (an unseen
        venue string raises ``ValueError`` naming it; the venue
        vocabulary is fixed at gazetteer construction).
        """
        if not isinstance(payload, dict):
            raise ValueError("delta payload must be a JSON object")
        unknown = payload.keys() - {"new_users", "edges", "tweets", "labels"}
        if unknown:
            raise ValueError(f"unknown delta fields {sorted(unknown)}")
        # Shape-check every field before iterating: a malformed payload
        # must surface as ValueError (the serving layer's 400 class),
        # never as a bare TypeError/AttributeError from the unpacking.
        for field, kind in (("new_users", list), ("edges", list), ("tweets", list)):
            if field in payload and not isinstance(payload[field], kind):
                raise ValueError(f'"{field}" must be a JSON array')
        for field in ("edges", "tweets"):
            for pair in payload.get(field, ()):
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise ValueError(
                        f'each "{field}" entry must be a two-element pair, '
                        f"got {pair!r}"
                    )
        if "labels" in payload and not isinstance(
            payload["labels"], (dict, type(None))
        ):
            raise ValueError(
                '"labels" must be a JSON object of {user_id: location}'
            )
        new_users = []
        for entry in payload.get("new_users", ()):
            if entry is None:
                entry = {}
            if not isinstance(entry, dict):
                raise ValueError(
                    "each new_users entry must be an object like "
                    '{"observed_location": 5} or {}'
                )
            loc = entry.get("observed_location")
            new_users.append(None if loc is None else int(loc))
        edges = [(int(s), int(d)) for s, d in payload.get("edges", ())]
        tweets = []
        for user, venue in payload.get("tweets", ()):
            if isinstance(venue, str):
                index = getattr(gazetteer, "venue_index", None)
                if index is None:
                    raise ValueError(
                        "venue names need a gazetteer to resolve against"
                    )
                from repro.geo.gazetteer import normalize_place_name

                key = normalize_place_name(venue)
                if key not in index:
                    raise ValueError(f"unknown venue name {venue!r}")
                venue = index[key]
            tweets.append((int(user), int(venue)))
        labels = {
            int(uid): (None if loc is None else int(loc))
            for uid, loc in (payload.get("labels") or {}).items()
        }
        return cls(new_users=new_users, edges=edges, tweets=tweets, labels=labels)

    def to_payload(self) -> dict:
        """The JSON wire form (venue ids, never names)."""
        return {
            "new_users": [
                {} if loc < 0 else {"observed_location": int(loc)}
                for loc in self.new_user_labels.tolist()
            ],
            "edges": [
                [int(s), int(d)]
                for s, d in zip(self.edge_src, self.edge_dst)
            ],
            "tweets": [
                [int(u), int(v)]
                for u, v in zip(self.tweet_user, self.tweet_venue)
            ],
            "labels": {
                str(int(u)): (None if loc < 0 else int(loc))
                for u, loc in zip(self.label_users, self.label_locations)
            },
        }

    def __repr__(self) -> str:
        return (
            f"WorldDelta(new_users={self.n_new_users}, "
            f"edges={self.n_edges}, tweets={self.n_tweets}, "
            f"labels={self.n_label_updates})"
        )


@dataclass(frozen=True, slots=True)
class DeltaRecord:
    """One applied delta, as remembered by the world's ``delta_log``."""

    generation: int
    #: Sorted unique ids of every user whose evidence *or candidacy*
    #: changed: arrivals, endpoints of new edges, tweeters, label
    #: updates and their graph neighbours.
    touched_users: np.ndarray
    digest: str
    n_new_users: int
    n_edges: int
    n_tweets: int
    n_label_updates: int


def chain_hash(parent_hash: str, delta_digest: str) -> str:
    """``H(parent, delta)``: the incremental world-identity chain."""
    return hashlib.sha256(
        f"{parent_hash}:{delta_digest}".encode()
    ).hexdigest()[:16]


#: Most recent :class:`DeltaRecord` entries a world retains.  Bounds
#: both the per-apply log copy and the memory a long-running streaming
#: server holds for incremental re-scoring; consumers that fall more
#: than this many generations behind get a loud error from
#: :func:`touched_since` instead of a silently incomplete answer.
DELTA_LOG_LIMIT = 1024


def touched_since(world: ColumnarWorld, since_generation: int) -> np.ndarray:
    """Sorted unique users touched by generations > ``since_generation``.

    Raises :class:`StaleWindowError` when the requested window reaches
    past the retained log (older records are compacted away after
    ``DELTA_LOG_LIMIT`` applies) -- a consumer that far behind must do
    a full re-score, and silently returning the surviving subset would
    hide exactly the users it needs.
    """
    # Delta generations start at 1 (0 is the base compile), so any
    # since_generation below 0 means the same thing as 0: everything.
    since_generation = max(0, since_generation)
    if since_generation >= world.generation:
        return np.empty(0, dtype=np.int64)
    log = world.delta_log
    oldest = log[0].generation if log else world.generation + 1
    if since_generation < oldest - 1:
        raise StaleWindowError(
            f"delta log only covers generations {oldest}.."
            f"{world.generation}; since_generation={since_generation} "
            "reaches past the retained window -- run a full re-score"
        )
    parts = [
        record.touched_users
        for record in log
        if record.generation > since_generation
    ]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return _sorted_unique(np.concatenate(parts))


# -- growable arenas -------------------------------------------------------


class _GrowableArena:
    """An append-only buffer behind one flat world array.

    The world's attribute is a prefix view ``buffer[:length]``; appends
    write past ``length`` (never into the prefix), so every older
    world's view stays valid.  Ownership is tracked by view identity:
    an apply may extend the arena in place only when the parent world's
    array *is* ``view`` -- a second delta applied to the same parent
    (branching) fails that test and copies instead.
    """

    __slots__ = ("buffer", "length", "view")

    def __init__(self, values: np.ndarray, extra: int):
        capacity = values.size + max(extra, values.size // 4, 64)
        self.buffer = np.empty(capacity, dtype=np.int64)
        self.buffer[: values.size] = values
        self.length = values.size
        self.view = self.buffer[: values.size]

    def append(self, values: np.ndarray) -> np.ndarray:
        """Append past the prefix, growing the arena as needed."""
        needed = self.length + values.size
        if needed > self.buffer.size:
            grown = np.empty(
                max(needed, 2 * self.buffer.size), dtype=np.int64
            )
            grown[: self.length] = self.buffer[: self.length]
            self.buffer = grown
        self.buffer[self.length : needed] = values
        self.length = needed
        self.view = self.buffer[:needed]
        return self.view


def _arena_append(
    world: ColumnarWorld,
    state: dict[str, _GrowableArena],
    key: str,
    values: np.ndarray,
) -> np.ndarray:
    """Append ``values`` to ``world.<key>``, reusing slack when safe."""
    current: np.ndarray = getattr(world, key)
    parent_state = getattr(world, "_arena_state", None) or {}
    arena = parent_state.get(key)
    owned = arena is not None and current is arena.view
    if values.size == 0:
        if owned:
            state[key] = arena
        return current
    if not owned:
        arena = _GrowableArena(current, extra=values.size)
    out = arena.append(values)
    state[key] = arena
    return out


# -- CSR splicing ----------------------------------------------------------


def _pad_indptr(indptr: np.ndarray, n_groups: int) -> np.ndarray:
    """Extend an indptr to cover ``n_groups`` rows (new rows empty)."""
    if indptr.size == n_groups + 1:
        return indptr
    padded = np.empty(n_groups + 1, dtype=np.int64)
    padded[: indptr.size] = indptr
    padded[indptr.size :] = indptr[-1]
    return padded


_ARANGE_CACHE = np.empty(0, dtype=np.int32)


def _arange32(n: int) -> np.ndarray:
    """A read-only view of ``arange(n)`` (grown once, reused forever).

    The splice path consumes a full-length position ramp on every
    apply; building it fresh costs an mmap + page-fault cycle that
    dwarfs the arithmetic.  Callers must treat the view as immutable.
    """
    global _ARANGE_CACHE
    if _ARANGE_CACHE.size < n:
        _ARANGE_CACHE = np.arange(
            max(n, 2 * _ARANGE_CACHE.size), dtype=np.int32
        )
    return _ARANGE_CACHE[:n]


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` via an explicit sort + run mask.

    Equivalent output, but built from primitives that stay fast on
    every numpy build -- the splice path calls this several times per
    apply and ``np.unique``'s extra machinery was its single largest
    cost.
    """
    if values.size == 0:
        return values.astype(np.int64, copy=False)
    s = np.sort(values)
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _gather_segments(
    merged: np.ndarray,
    seg_src_starts: np.ndarray,
    seg_out_starts: np.ndarray,
    seg_lens: np.ndarray,
    out_size: int,
) -> np.ndarray:
    """Materialize an output that is a patchwork of ``merged`` slices.

    Output positions ``[seg_out_starts[k], +seg_lens[k])`` read from
    ``merged`` starting at ``seg_src_starts[k]``; segments must tile
    the output exactly.  One repeat + one add + one take -- no scatter
    (twice the price of a gather here) and index arrays built per
    *segment*, never per row of the world.
    """
    if merged.size < 2**31 and out_size < 2**31:
        index_dtype = np.int32
        positions = _arange32(out_size)
    else:  # pragma: no cover - worlds beyond int32 indexing
        index_dtype = np.int64
        positions = np.arange(out_size, dtype=np.int64)
    gather_idx = np.repeat(
        (seg_src_starts - seg_out_starts).astype(index_dtype), seg_lens
    )
    np.add(gather_idx, positions, out=gather_idx)
    # mode="clip": placeholder segments (overwritten by the caller) may
    # point past the source end; clipping keeps the gather branch-free
    # without a separate bounds pass.
    return np.take(merged, gather_idx, mode="clip")


def _splice_append_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    add_groups: np.ndarray,
    add_values: np.ndarray,
    n_groups: int,
):
    """Append ``(group, value)`` pairs to a CSR's rows, stably.

    The appended values land *after* each row's existing values, in
    input order -- exactly where a from-scratch
    :func:`~repro.data.columnar.build_csr` over the concatenated arena
    would put them, so spliced and recompiled CSRs are bit-identical.
    """
    indptr = _pad_indptr(indptr, n_groups)
    if add_groups.size == 0:
        return indptr, indices
    order = np.argsort(add_groups, kind="stable")
    sorted_values = add_values[order]
    rows = _sorted_unique(add_groups)
    add_counts = np.bincount(add_groups, minlength=n_groups)
    new_indptr = _offsets(np.diff(indptr) + add_counts)
    row_indptr = _offsets(add_counts[rows])
    return new_indptr, _splice(
        indptr, indices, rows, row_indptr, sorted_values, new_indptr,
        keep_old_rows=True,
    )


def _replace_csr_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    rows: np.ndarray,
    row_indptr: np.ndarray,
    row_values: np.ndarray,
    n_groups: int,
):
    """Replace the content of ``rows`` (sorted unique) wholesale.

    Rows not listed keep their values (shifted as needed); listed row
    ``rows[k]`` becomes ``row_values[row_indptr[k]:row_indptr[k+1]]``.
    """
    indptr = _pad_indptr(indptr, n_groups)
    if rows.size == 0:
        return indptr, indices
    new_counts = np.diff(indptr).copy()
    new_counts[rows] = np.diff(row_indptr)
    new_indptr = _offsets(new_counts)
    return new_indptr, _splice(
        indptr, indices, rows, row_indptr, row_values, new_indptr,
        keep_old_rows=False,
    )


def _splice(
    indptr: np.ndarray,
    indices: np.ndarray,
    rows: np.ndarray,
    row_indptr: np.ndarray,
    row_values: np.ndarray,
    new_indptr: np.ndarray,
    keep_old_rows: bool,
):
    """Shared splice kernel behind append and replace.

    ``rows`` (sorted unique) receive ``row_values`` -- after their old
    values when ``keep_old_rows`` (append), instead of them otherwise
    (replace); every other row's values move untouched.  The output
    interleaves untouched stretches of the old array with the spliced
    blocks, so it is one :func:`_gather_segments` patchwork over the
    concatenation of both sources.  When appending, a spliced row's own
    old values belong to the stretch *ending* at that row (they stay in
    front of the appended block), so the stretch boundary sits at the
    row's old end, not its start.
    """
    n_rows = rows.size
    out_size = int(new_indptr[-1])
    spliced_starts = new_indptr[rows] + (
        (indptr[rows + 1] - indptr[rows]) if keep_old_rows else 0
    )
    if indices.size == 0:
        # Nothing kept (e.g. first edges of an edge-less world): the
        # output is just the spliced blocks, laid end to end.
        out = np.empty(out_size, dtype=np.int64)
        for k in range(n_rows):
            lo, hi = int(row_indptr[k]), int(row_indptr[k + 1])
            d = int(spliced_starts[k])
            out[d : d + hi - lo] = row_values[lo:hi]
        return out
    # Segment table, in output order: kept stretch 0, spliced block 0,
    # kept stretch 1, ... , spliced block R-1, kept stretch R.  The
    # spliced blocks read placeholder positions near 0 (kept in bounds
    # by the take's clip mode) and are overwritten afterwards with one
    # small scatter -- this keeps the heavy pass a pure gather over
    # ``indices`` with no concatenated copy of the sources.
    src_starts = np.empty(2 * n_rows + 1, dtype=np.int64)
    out_starts = np.empty(2 * n_rows + 1, dtype=np.int64)
    seg_lens = np.empty(2 * n_rows + 1, dtype=np.int64)
    kept_starts = np.concatenate([[0], indptr[rows + 1]])
    kept_ends = np.concatenate(
        [indptr[rows + 1] if keep_old_rows else indptr[rows], [indices.size]]
    )
    src_starts[0::2] = kept_starts
    src_starts[1::2] = 0
    out_starts[0::2] = np.concatenate([[0], new_indptr[rows + 1]])
    out_starts[1::2] = spliced_starts
    seg_lens[0::2] = kept_ends - kept_starts
    row_lens = np.diff(row_indptr)
    seg_lens[1::2] = row_lens
    out = _gather_segments(indices, src_starts, out_starts, seg_lens, out_size)
    if row_values.size:
        positions = np.repeat(spliced_starts - row_indptr[:-1], row_lens)
        np.add(
            positions,
            np.arange(row_values.size, dtype=np.int64),
            out=positions,
        )
        out[positions] = row_values
    return out


# -- candidacy / neighbourhood recompute -----------------------------------


def _unique_pairs_csr(
    owners: np.ndarray, values: np.ndarray, n_groups: int, value_range: int
):
    """``build_unique_csr`` for bounded values, via one combined-key sort.

    Packing ``(owner, value)`` into one int64 key turns the lexsort
    into a single ``np.unique`` -- several times faster on the small
    touched-row recomputes, with the identical sorted-unique-per-group
    result.
    """
    combined = _sorted_unique(owners * np.int64(value_range) + values)
    groups = combined // value_range
    counts = np.bincount(groups, minlength=n_groups)
    return _offsets(counts), combined - groups * value_range


def _recompute_nbr_rows(
    rows: np.ndarray,
    out_indptr: np.ndarray,
    out_indices: np.ndarray,
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    n_users: int,
):
    """Sorted deduplicated undirected neighbourhood of each row."""
    rep_out, friends = expand_csr(out_indptr, out_indices, rows)
    rep_in, followers = expand_csr(in_indptr, in_indices, rows)
    local = np.arange(rows.size, dtype=np.int64)
    owners = np.concatenate(
        [np.repeat(local, rep_out), np.repeat(local, rep_in)]
    )
    values = np.concatenate([friends, followers])
    return _unique_pairs_csr(owners, values, rows.size, n_users)


def _recompute_cand_rows(
    rows: np.ndarray,
    observed: np.ndarray,
    out_indptr: np.ndarray,
    out_indices: np.ndarray,
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    uv_indptr: np.ndarray,
    uv_indices: np.ndarray,
    ref_indptr: np.ndarray,
    ref_indices: np.ndarray,
    n_locations: int,
):
    """Full-signal Sec. 4.3 candidacy of each row, from current evidence.

    Mirrors ``from_edge_arrays``'s pair assembly exactly (own label,
    labeled neighbours' labels in both directions, referents of tweeted
    venues), restricted to the touched rows; the unique-sort makes the
    result independent of assembly order, so spliced rows equal the
    from-scratch ones.
    """
    local = np.arange(rows.size, dtype=np.int64)
    pair_owner: list[np.ndarray] = []
    pair_loc: list[np.ndarray] = []
    own = observed[rows]
    labeled = own >= 0
    pair_owner.append(local[labeled])
    pair_loc.append(own[labeled])
    for indptr, indices in ((out_indptr, out_indices), (in_indptr, in_indices)):
        rep, neighbours = expand_csr(indptr, indices, rows)
        nb_obs = observed[neighbours]
        keep = nb_obs >= 0
        pair_owner.append(np.repeat(local, rep)[keep])
        pair_loc.append(nb_obs[keep])
    rep, venues = expand_csr(uv_indptr, uv_indices, rows)
    ref_rep, referents = expand_csr(ref_indptr, ref_indices, venues)
    pair_owner.append(np.repeat(np.repeat(local, rep), ref_rep))
    pair_loc.append(referents)
    return _unique_pairs_csr(
        np.concatenate(pair_owner),
        np.concatenate(pair_loc),
        rows.size,
        n_locations,
    )


# -- the apply -------------------------------------------------------------


def _validate_delta(
    world: ColumnarWorld, delta: WorldDelta, n_new_total: int
) -> None:
    endpoints = np.concatenate([delta.edge_src, delta.edge_dst])
    if endpoints.size and (
        int(endpoints.min()) < 0 or int(endpoints.max()) >= n_new_total
    ):
        bad = endpoints[(endpoints < 0) | (endpoints >= n_new_total)]
        raise ValueError(
            f"delta edge references unknown user {int(bad[0])} "
            f"(world will have {n_new_total} users)"
        )
    if np.any(delta.edge_src == delta.edge_dst):
        raise ValueError("self-follow edges are not allowed")
    if delta.tweet_user.size and (
        int(delta.tweet_user.min()) < 0
        or int(delta.tweet_user.max()) >= n_new_total
    ):
        bad = delta.tweet_user[
            (delta.tweet_user < 0) | (delta.tweet_user >= n_new_total)
        ]
        raise ValueError(
            f"delta mention references unknown user {int(bad[0])}"
        )
    if delta.tweet_venue.size and (
        int(delta.tweet_venue.min()) < 0
        or int(delta.tweet_venue.max()) >= world.n_venues
    ):
        bad = delta.tweet_venue[
            (delta.tweet_venue < 0) | (delta.tweet_venue >= world.n_venues)
        ]
        raise ValueError(
            f"delta mention references unknown venue id {int(bad[0])}"
        )
    for name, locs in (
        ("new user label", delta.new_user_labels),
        ("label update", delta.label_locations),
    ):
        if locs.size and (
            int(locs.min()) < -1 or int(locs.max()) >= world.n_locations
        ):
            bad = locs[(locs < -1) | (locs >= world.n_locations)]
            raise ValueError(
                f"{name} references unknown location {int(bad[0])}"
            )
    if delta.label_users.size and (
        int(delta.label_users.min()) < 0
        or int(delta.label_users.max()) >= n_new_total
    ):
        bad = delta.label_users[
            (delta.label_users < 0) | (delta.label_users >= n_new_total)
        ]
        raise ValueError(
            f"label update references unknown user {int(bad[0])}"
        )


def validate_delta(world: ColumnarWorld, delta: WorldDelta) -> None:
    """Raise ``ValueError`` unless ``delta`` can apply cleanly to ``world``.

    The same checks ``apply_delta`` runs, exposed separately so a
    write-ahead consumer (the durable journal) can reject a bad delta
    *before* committing it to disk -- a journaled record must always
    replay.
    """
    if not isinstance(delta, WorldDelta):
        raise TypeError(f"expected a WorldDelta, got {type(delta).__name__}")
    _validate_delta(world, delta, world.n_users + delta.n_new_users)


def apply_delta(world: ColumnarWorld, delta: WorldDelta) -> ColumnarWorld:
    """Splice one delta into a world; returns the next generation.

    The input world is never mutated (its arrays stay valid views);
    the returned world shares every untouched array with it.  Array
    content is bit-identical to recompiling the final dataset from
    scratch; the content hash is the O(|delta|) chain
    ``H(parent, delta)`` and ``generation``/``delta_log`` advance by
    one entry.
    """
    if not isinstance(delta, WorldDelta):
        raise TypeError(f"expected a WorldDelta, got {type(delta).__name__}")
    n_old = world.n_users
    n_new = n_old + delta.n_new_users
    _validate_delta(world, delta, n_new)
    # The chained hash needs the parent's identity; computing it first
    # also means the one-time O(world) base hash is paid before any
    # splicing starts.
    new_hash = chain_hash(world.content_hash, delta.digest())

    state: dict[str, _GrowableArena] = {}
    arrays: dict[str, np.ndarray] = {}

    # -- user table ---------------------------------------------------
    relabel = delta.n_label_updates > 0
    if relabel:
        # Label updates patch the prefix, so the parent's view cannot
        # be shared; appends alone extend it in place.
        observed = np.empty(n_new, dtype=np.int64)
        observed[:n_old] = world.observed_location
        observed[n_old:] = delta.new_user_labels
        observed[delta.label_users] = delta.label_locations
    else:
        observed = _arena_append(
            world, state, "observed_location", delta.new_user_labels
        )
    arrays["observed_location"] = observed
    location_venue = world.location_venue
    if relabel or delta.n_new_users:
        # Same expression as from_edge_arrays, for bit-equality.
        labeled = observed >= 0
        arrays["observed_venue"] = np.where(
            labeled, location_venue[np.where(labeled, observed, 0)], -1
        )
    else:
        arrays["observed_venue"] = world.observed_venue
    arrays["location_venue"] = location_venue

    # -- relationship arenas ------------------------------------------
    arrays["edge_src"] = _arena_append(world, state, "edge_src", delta.edge_src)
    arrays["edge_dst"] = _arena_append(world, state, "edge_dst", delta.edge_dst)
    arrays["tweet_user"] = _arena_append(
        world, state, "tweet_user", delta.tweet_user
    )
    arrays["tweet_venue"] = _arena_append(
        world, state, "tweet_venue", delta.tweet_venue
    )

    # -- venue aggregates (referent CSR is gazetteer-only: shared) ----
    if delta.n_tweets:
        arrays["venue_mention_counts"] = (
            world.venue_mention_counts
            + np.bincount(delta.tweet_venue, minlength=world.n_venues)
        )
    else:
        arrays["venue_mention_counts"] = world.venue_mention_counts
    arrays["ref_indptr"] = world.ref_indptr
    arrays["ref_indices"] = world.ref_indices

    # -- adjacency CSRs: append delta rows ----------------------------
    arrays["out_indptr"], arrays["out_indices"] = _splice_append_csr(
        world.out_indptr, world.out_indices, delta.edge_src, delta.edge_dst, n_new
    )
    arrays["in_indptr"], arrays["in_indices"] = _splice_append_csr(
        world.in_indptr, world.in_indices, delta.edge_dst, delta.edge_src, n_new
    )
    arrays["uv_indptr"], arrays["uv_indices"] = _splice_append_csr(
        world.uv_indptr, world.uv_indices, delta.tweet_user, delta.tweet_venue,
        n_new,
    )

    # -- touched rows -------------------------------------------------
    new_user_ids = np.arange(n_old, n_new, dtype=np.int64)
    edge_touched = _sorted_unique(
        np.concatenate([delta.edge_src, delta.edge_dst, new_user_ids])
    )
    if edge_touched.size:
        nbr_rows_indptr, nbr_rows_values = _recompute_nbr_rows(
            edge_touched,
            arrays["out_indptr"], arrays["out_indices"],
            arrays["in_indptr"], arrays["in_indices"],
            n_new,
        )
        arrays["nbr_indptr"], arrays["nbr_indices"] = _replace_csr_rows(
            world.nbr_indptr, world.nbr_indices,
            edge_touched, nbr_rows_indptr, nbr_rows_values, n_new,
        )
    else:
        arrays["nbr_indptr"] = _pad_indptr(world.nbr_indptr, n_new)
        arrays["nbr_indices"] = world.nbr_indices

    # Candidacy changes for: arrivals, endpoints of new edges, new
    # tweeters, label-updated users -- and every *neighbour* of a
    # label-updated user, whose candidate set gains/loses that label.
    relabel_neighbours = (
        expand_csr(
            arrays["nbr_indptr"], arrays["nbr_indices"], delta.label_users
        )[1]
        if relabel
        else np.empty(0, dtype=np.int64)
    )
    touched = _sorted_unique(
        np.concatenate([
            edge_touched,
            delta.tweet_user,
            delta.label_users,
            relabel_neighbours,
        ])
    )
    if touched.size:
        cand_rows_indptr, cand_rows_values = _recompute_cand_rows(
            touched,
            observed,
            arrays["out_indptr"], arrays["out_indices"],
            arrays["in_indptr"], arrays["in_indices"],
            arrays["uv_indptr"], arrays["uv_indices"],
            world.ref_indptr, world.ref_indices,
            world.n_locations,
        )
        arrays["cand_indptr"], arrays["cand_indices"] = _replace_csr_rows(
            world.cand_indptr, world.cand_indices,
            touched, cand_rows_indptr, cand_rows_values, n_new,
        )
    else:
        arrays["cand_indptr"] = _pad_indptr(world.cand_indptr, n_new)
        arrays["cand_indices"] = world.cand_indices

    new_world = ColumnarWorld(world.gazetteer, arrays, content_hash=new_hash)
    new_world.generation = world.generation + 1
    # The log is bounded: a streaming server applies deltas forever,
    # and an unbounded tuple would cost O(N) copy per apply and O(N)
    # memory.  touched_since() refuses windows older than the retained
    # tail, so truncation can never silently drop touched users.
    new_world.delta_log = (world.delta_log + (
        DeltaRecord(
            generation=new_world.generation,
            touched_users=touched,
            digest=delta.digest(),
            n_new_users=delta.n_new_users,
            n_edges=delta.n_edges,
            n_tweets=delta.n_tweets,
            n_label_updates=delta.n_label_updates,
        ),
    ))[-DELTA_LOG_LIMIT:]
    new_world._arena_state = state
    return new_world
