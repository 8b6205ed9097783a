"""The prediction index: a columnar projection of ``score_population``.

``score_population`` answers "where does user *u* probably live?" for
every unlabeled user at once; this module answers the *inverse*
questions -- "who do we predict lives near Austin?", "which cities
gained predicted residents?", "who are the predicted residents behind
venue 'princeton'?" -- without re-running a single fold-in solve.

:class:`PredictionIndex` projects the ``{user_id: FoldInPrediction}``
map into five parallel columnar arrays (user ids sorted ascending,
predicted home, confidence = posterior mass on that home, and a CSR of
top-k alternate ``(location, probability)`` pairs) plus one **inverted
CSR** mapping location id -> positions of the users predicted to live
there.  Radius queries then compose with the uniform spatial grid
(:class:`repro.geo.index.SpatialGridIndex`): grid -> location ids ->
inverted CSR -> users, no per-user distance math.

The index is **generation-stamped** and incrementally maintained:
:meth:`PredictionIndex.refreshed` re-scores only the unlabeled users
touched by ingest generations after the stamp (the slice
``score_population(since_generation=...)`` scores), drops touched
users that became labeled, and merges the fresh rows over the retained
ones.  Because the batch fold-in engine is bit-identical regardless of
batch composition and untouched users' evidence is unchanged by
construction of the touched set, a refreshed index equals a
from-scratch rebuild at the same generation **bit for bit** (asserted
by ``tests/test_query_index.py`` and ``benchmarks/bench_query.py``).

A refresh window that reaches past the retained delta log raises
:class:`repro.data.delta.StaleWindowError`; the serving wrapper
(:mod:`repro.query.service`) is the layer that decides to fall back to
a full rebuild, loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.data.columnar import build_csr
from repro.data.delta import touched_since

if TYPE_CHECKING:  # import at call time: serving imports this package
    from repro.serving.foldin import FoldInPredictor, FoldInPrediction

#: Default number of alternate locations projected per user; matches
#: the serving payloads' ``top_k`` default.
DEFAULT_TOP_K = 3


def _ragged_gather(
    starts: np.ndarray, counts: np.ndarray, order: np.ndarray
) -> np.ndarray:
    """Flat element indices of rows ``order`` in a ragged array.

    ``starts``/``counts`` describe rows of a flat buffer; the result
    indexes that buffer so row ``order[0]``'s elements come first, then
    ``order[1]``'s, and so on -- the vectorized permutation step of the
    refresh merge.
    """
    c = counts[order]
    offsets = np.zeros(c.size + 1, dtype=np.int64)
    np.cumsum(c, out=offsets[1:])
    total = int(offsets[-1])
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets[:-1], c)
        + np.repeat(starts[order], c)
    )


@dataclass(frozen=True, slots=True)
class PredictionIndex:
    """Columnar projection of population scores, inverted by home.

    All arrays are parallel over the indexed users (sorted ascending by
    user id).  ``homes`` uses ``-1`` for a user whose profile is empty
    (no predicted home); such users never appear in the inverted CSR.
    """

    #: Sorted unique ids of every indexed (unlabeled, scored) user.
    user_ids: np.ndarray
    #: Predicted home location id per user, ``-1`` for none.
    homes: np.ndarray
    #: Posterior mass on the predicted home, ``0.0`` for none.
    confidences: np.ndarray
    #: CSR over users of the top-k ``(location, probability)`` pairs,
    #: descending probability (the profile order).
    topk_indptr: np.ndarray
    topk_locs: np.ndarray
    topk_probs: np.ndarray
    #: Inverted CSR: location id -> *positions* (row numbers into the
    #: parallel arrays above) of users predicted to live there,
    #: ascending user id within each location.
    home_indptr: np.ndarray
    home_pos: np.ndarray
    #: World generation the projection reflects.
    generation: int
    #: Identity of the artifact whose posterior produced the scores.
    artifact_id: str
    #: Alternates projected per user.
    k: int

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        predictor: FoldInPredictor,
        k: int = DEFAULT_TOP_K,
    ) -> "PredictionIndex":
        """Score the full unlabeled population and project it.

        The expensive path (one ``score_population`` sweep); steady
        state should go through :meth:`refreshed` instead.
        """
        from repro.serving.batch import score_population

        world = predictor.world
        scores = score_population(
            world, predictor.result, predictor=predictor
        )
        return cls.from_scores(
            scores,
            k=k,
            n_locations=world.n_locations,
            generation=world.generation,
            artifact_id=predictor.artifact_id,
        )

    @classmethod
    def from_scores(
        cls,
        scores: dict[int, FoldInPrediction],
        k: int,
        n_locations: int,
        generation: int,
        artifact_id: str,
    ) -> "PredictionIndex":
        """Project a ``{user_id: prediction}`` map into columnar form."""
        n = len(scores)
        uids = np.fromiter(scores.keys(), dtype=np.int64, count=n)
        order = np.argsort(uids, kind="stable")
        uids = uids[order]
        homes = np.full(n, -1, dtype=np.int64)
        confidences = np.zeros(n, dtype=np.float64)
        counts = np.zeros(n, dtype=np.int64)
        flat_locs: list[int] = []
        flat_probs: list[float] = []
        predictions = list(scores.values())
        for row, src in enumerate(order):
            prediction = predictions[src]
            entries = prediction.top_entries(k)
            if entries:
                homes[row] = entries[0][0]
                confidences[row] = entries[0][1]
            counts[row] = len(entries)
            for loc, prob in entries:
                flat_locs.append(loc)
                flat_probs.append(prob)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls._assemble(
            uids,
            homes,
            confidences,
            indptr,
            np.asarray(flat_locs, dtype=np.int64),
            np.asarray(flat_probs, dtype=np.float64),
            n_locations=n_locations,
            generation=generation,
            artifact_id=artifact_id,
            k=k,
        )

    @classmethod
    def _assemble(
        cls,
        user_ids: np.ndarray,
        homes: np.ndarray,
        confidences: np.ndarray,
        topk_indptr: np.ndarray,
        topk_locs: np.ndarray,
        topk_probs: np.ndarray,
        n_locations: int,
        generation: int,
        artifact_id: str,
        k: int,
    ) -> "PredictionIndex":
        """Derive the inverted home CSR and freeze the index."""
        with_home = np.flatnonzero(homes >= 0)
        home_indptr, home_pos = build_csr(
            homes[with_home], with_home, n_locations
        )
        return cls(
            user_ids=user_ids,
            homes=homes,
            confidences=confidences,
            topk_indptr=topk_indptr,
            topk_locs=topk_locs,
            topk_probs=topk_probs,
            home_indptr=home_indptr,
            home_pos=home_pos,
            generation=int(generation),
            artifact_id=artifact_id,
            k=int(k),
        )

    # -- incremental maintenance -------------------------------------------

    def refreshed(self, predictor: FoldInPredictor) -> "PredictionIndex":
        """A new index advanced to the predictor's current generation.

        Re-scores only the unlabeled users the world's ``delta_log``
        marks as touched since ``self.generation`` (the slice
        ``score_population(since_generation=...)`` would score), drops
        affected users that are no longer unlabeled, and keeps every
        untouched row verbatim -- bit-identical to a from-scratch
        :meth:`build` at the same generation.

        Raises :class:`repro.data.delta.StaleWindowError` when the
        window since ``self.generation`` is no longer retained (past
        ``DELTA_LOG_LIMIT`` generations, or behind the journal snapshot
        a recovered world started from); the caller owns the loud
        full-rebuild fallback.
        Raises ``ValueError`` when the predictor's world is *behind*
        the index (a stale predictor cannot refresh a newer index).
        """
        world = predictor.world
        generation = world.generation
        if generation == self.generation:
            return self
        if generation < self.generation:
            raise ValueError(
                f"world generation {generation} is behind the index "
                f"({self.generation}); refresh needs the newer world"
            )
        affected = touched_since(world, self.generation)
        rescored = np.intersect1d(
            np.flatnonzero(~world.labeled_mask), affected, assume_unique=True
        ).tolist()
        predictions = predictor.predict_batch(
            [predictor.spec_for_training_user(uid) for uid in rescored],
            use_cache=False,
        )
        fresh = self.from_scores(
            dict(zip(rescored, predictions)),
            k=self.k,
            n_locations=int(self.home_indptr.size - 1),
            generation=generation,
            artifact_id=self.artifact_id,
        )
        # Affected users are replaced wholesale: a fresh row when they
        # are still unlabeled, removal when a label update retired them
        # from the scored population.
        keep = ~np.isin(self.user_ids, affected, assume_unique=True)
        old_counts = np.diff(self.topk_indptr)
        merged_uids = np.concatenate([self.user_ids[keep], fresh.user_ids])
        merged_homes = np.concatenate([self.homes[keep], fresh.homes])
        merged_conf = np.concatenate(
            [self.confidences[keep], fresh.confidences]
        )
        flat_keep = np.repeat(keep, old_counts)
        merged_counts = np.concatenate(
            [old_counts[keep], np.diff(fresh.topk_indptr)]
        )
        merged_locs = np.concatenate(
            [self.topk_locs[flat_keep], fresh.topk_locs]
        )
        merged_probs = np.concatenate(
            [self.topk_probs[flat_keep], fresh.topk_probs]
        )
        order = np.argsort(merged_uids, kind="stable")
        starts = np.zeros(merged_counts.size + 1, dtype=np.int64)
        np.cumsum(merged_counts, out=starts[1:])
        sel = _ragged_gather(starts[:-1], merged_counts, order)
        sorted_counts = merged_counts[order]
        indptr = np.zeros(order.size + 1, dtype=np.int64)
        np.cumsum(sorted_counts, out=indptr[1:])
        return self._assemble(
            merged_uids[order],
            merged_homes[order],
            merged_conf[order],
            indptr,
            merged_locs[sel],
            merged_probs[sel],
            n_locations=int(self.home_indptr.size - 1),
            generation=generation,
            artifact_id=self.artifact_id,
            k=self.k,
        )

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return int(self.user_ids.size)

    def residents_of(
        self, locations, min_confidence: float = 0.0
    ) -> np.ndarray:
        """Row positions of users predicted to live in ``locations``.

        Positions index the parallel columnar arrays; rows are returned
        grouped by the (given) location order, ascending user id within
        each location, filtered by the confidence floor.
        """
        locs = np.asarray(locations, dtype=np.int64)
        parts = [
            self.home_pos[self.home_indptr[loc] : self.home_indptr[loc + 1]]
            for loc in locs
        ]
        pos = (
            np.concatenate(parts)
            if parts
            else np.empty(0, dtype=np.int64)
        )
        if min_confidence > 0.0 and pos.size:
            pos = pos[self.confidences[pos] >= min_confidence]
        return pos

    def city_counts(self, min_confidence: float = 0.0) -> np.ndarray:
        """Predicted residents per location id (confidence-filtered)."""
        n_locations = int(self.home_indptr.size - 1)
        mask = self.homes >= 0
        if min_confidence > 0.0:
            mask &= self.confidences >= min_confidence
        return np.bincount(self.homes[mask], minlength=n_locations)

    def top_cities(
        self, k: int, min_confidence: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(location_ids, counts)`` of the ``k`` most predicted cities.

        Ordered by descending count, ties broken by ascending location
        id; locations with zero predicted residents never appear.
        """
        counts = self.city_counts(min_confidence)
        nonzero = np.flatnonzero(counts)
        order = np.lexsort((nonzero, -counts[nonzero]))[:k]
        chosen = nonzero[order]
        return chosen, counts[chosen]

    def stats(self, min_confidence: float = 0.0) -> dict:
        """Summary block shared by ``/query/aggregate`` and the CLI."""
        mask = self.homes >= 0
        if min_confidence > 0.0:
            mask &= self.confidences >= min_confidence
        conf = self.confidences[mask]
        return {
            "indexed_users": int(self.user_ids.size),
            "with_home": int(np.count_nonzero(self.homes >= 0)),
            "matching": int(np.count_nonzero(mask)),
            "cities": int(np.count_nonzero(self.city_counts(min_confidence))),
            "mean_confidence": (
                round(float(conf.mean()), 6) if conf.size else None
            ),
        }

    # -- identity ----------------------------------------------------------

    def same_projection(self, other: "PredictionIndex") -> bool:
        """Bit-for-bit array equality (the refresh == rebuild contract)."""
        return (
            self.generation == other.generation
            and self.artifact_id == other.artifact_id
            and self.k == other.k
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in (
                    "user_ids",
                    "homes",
                    "confidences",
                    "topk_indptr",
                    "topk_locs",
                    "topk_probs",
                    "home_indptr",
                    "home_pos",
                )
            )
        )
