"""Population-scale batch fold-in: score N users in one numpy pass.

The sequential serving path (:meth:`FoldInPredictor.predict`) runs one
fixed-point solve per user; profiling the 95% unlabeled population of a
50k-user world that way is 50k sequential solves, each a string of tiny
numpy calls whose interpreter overhead dwarfs the arithmetic.  This
module lowers a whole list of :class:`~repro.serving.foldin.UserSpec`
into one flat **spec arena** -- the same array-native treatment
:mod:`repro.data.columnar` gives datasets -- and iterates the collapsed
fold-in fixed point for *all* users simultaneously:

- **candidate CSR**: every spec's Sec. 4.3 candidacy vector, built in
  one :func:`~repro.data.columnar.build_unique_csr` pass over
  (spec, location) evidence pairs (observed homes, labeled neighbours'
  homes via the world's user table, venue referents via the world's
  referent CSR); specs with no candidacy evidence splice in the full
  gazetteer exactly like the sequential path;
- **relationship arena**: one row per (spec, relationship) in the
  sequential order (friends, followers, venues) with its noise weight
  and ``(1 - rho)`` prefactor;
- **cell arena**: the per-user ``(R, C)`` weight matrices ``M``
  flattened end to end, following rows sliced from the predictor's
  shared per-neighbour kernel cache, venue rows gathered straight from
  ``psi``;
- **masked iteration**: the expected-count fixed point runs as flat
  segment reductions over every still-active user at once; a user
  whose drift falls under tolerance is frozen immediately, and once
  frozen users hold an eighth of the arena it is compacted down to the
  survivors, so late convergers never pay for the finished majority.

**Bit-identity.**  Per user, the batch engine performs the *identical
sequence of floating-point operations* as the sequential solver,
regardless of batch composition: scattered reductions go through
:func:`~repro.serving.foldin.segment_sum` (strict input-order
accumulation) and contiguous ones through
:func:`~repro.serving.foldin.contiguous_segment_sum` in both paths, and
following-edge rows are slices of one shared kernel-row cache.
Results are therefore bit-identical to :meth:`FoldInPredictor._solve`
(golden-tested, including iteration counts and convergence flags).

Chunking bounds peak arena memory (``chunk_size`` specs per arena);
per-user independence means chunk boundaries cannot change results.

**When it wins.**  Throughput scales with how *overhead-bound* the
sequential path is: on the sparse population-scale worlds the roadmap
targets (mean degree ~3, the sharded-generator shape) a 5k-user batch
scores ~8x faster than sequential ``predict_batch``; on small dense
worlds (mean degree ~10+) per-user arenas are large enough that both
paths are memory-bound and the gap narrows to ~2-3x (see
docs/PERFORMANCE.md).
"""

from __future__ import annotations

import time
from itertools import chain

import numpy as np

from repro.data.columnar import (
    ColumnarWorld,
    build_unique_csr,
    compile_world,
    expand_csr,
)
from repro.obs.trace import span
from repro.serving.foldin import (
    ITERATIONS_TOTAL,
    SOLVE_SECONDS,
    SOLVES_TOTAL,
    FoldInPrediction,
    FoldInPredictor,
    UserSpec,
    _Solution,
    contiguous_segment_sum,
    segment_sum,
)

__all__ = ["BatchFoldInEngine", "score_population"]

#: Batch-path instrumentation is per *chunk*, not per spec: one
#: histogram observation per ~2048 solves keeps the overhead on the
#: population-scoring path unmeasurable (gated by bench_obs.py).
_BATCH_SECONDS = SOLVE_SECONDS.labels(path="batch")
_BATCH_SOLVES = SOLVES_TOTAL.labels(path="batch")
_BATCH_ITERATIONS = ITERATIONS_TOTAL.labels(path="batch")


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums as an indptr-style array (len + 1)."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _field_arrays(
    specs: list[UserSpec], field: str
) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, value)`` arrays over one ragged spec field."""
    counts = np.fromiter(
        (len(getattr(s, field)) for s in specs),
        dtype=np.int64,
        count=len(specs),
    )
    values = np.fromiter(
        chain.from_iterable(getattr(s, field) for s in specs),
        dtype=np.int64,
        count=int(counts.sum()),
    )
    owners = np.repeat(np.arange(len(specs), dtype=np.int64), counts)
    return owners, values


class _Arena:
    """One chunk of specs lowered to flat arrays (the spec arena)."""

    __slots__ = (
        "n_specs",
        "cand_indptr",
        "cand_ids",
        "cand_counts",
        "gamma",
        "gamma_sum",
        "rel_indptr",
        "rel_counts",
        "noise",
        "factor",
        "cells_per_rel",
        "cell_indptr",
        "weights",
    )


class BatchFoldInEngine:
    """Vectorized batch fold-in over one predictor's frozen posterior.

    Reads the same frozen tables the sequential solver uses (law
    matrix, psi, noise models, neighbour-profile CSR, candidate
    machinery) straight off the owning
    :class:`~repro.serving.foldin.FoldInPredictor` -- there is exactly
    one source of truth for the model, and the engine is just a faster
    evaluation strategy over it.
    """

    def __init__(self, predictor: FoldInPredictor, chunk_size: int = 2048):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.predictor = predictor
        self.chunk_size = chunk_size

    # -- public API --------------------------------------------------------

    def solve(
        self, specs: list[UserSpec], world: ColumnarWorld | None = None
    ) -> list[_Solution]:
        """Solve every spec; element ``i`` corresponds to ``specs[i]``.

        Bit-identical per spec to ``predictor._solve(specs[i])``;
        chunked so arena memory stays bounded on huge populations.
        One world snapshot covers the whole call (pass the caller's
        snapshot to share it): a concurrent streaming refresh swaps the
        predictor's world atomically, and every chunk of this batch
        must see the same generation.
        """
        specs = list(specs)
        if world is None:
            world = self.predictor.world
        solutions: list[_Solution] = []
        for start in range(0, len(specs), self.chunk_size):
            chunk = specs[start:start + self.chunk_size]
            t0 = time.perf_counter()
            with span("foldin.batch_chunk"):
                solved = self._solve_chunk(chunk, world)
            _BATCH_SECONDS.observe(time.perf_counter() - t0)
            _BATCH_SOLVES.inc(len(solved))
            _BATCH_ITERATIONS.inc(sum(s.iterations for s in solved))
            solutions.extend(solved)
        return solutions

    # -- validation --------------------------------------------------------

    def _validate(
        self,
        neighbors: np.ndarray,
        venues: np.ndarray,
        observed: np.ndarray,
        has_observed: np.ndarray,
        world: ColumnarWorld,
    ) -> None:
        """Vectorized spec validation, same messages as the sequential path."""
        predictor = self.predictor
        n_users = world.n_users
        bad = neighbors[(neighbors < 0) | (neighbors >= n_users)]
        if bad.size:
            raise ValueError(f"unknown neighbour user id {int(bad[0])}")
        bad = venues[(venues < 0) | (venues >= predictor.n_venues)]
        if bad.size:
            raise ValueError(f"unknown venue id {int(bad[0])}")
        bad = observed[
            has_observed
            & ((observed < 0) | (observed >= predictor.n_locations))
        ]
        if bad.size:
            raise ValueError(f"unknown observed location {int(bad[0])}")

    # -- arena construction ------------------------------------------------

    def _lower(self, specs: list[UserSpec], world: ColumnarWorld) -> _Arena:
        """Lower one chunk of specs into the flat spec arena."""
        predictor = self.predictor
        params = predictor.params
        n_specs = len(specs)

        fr_owner, fr_nb = _field_arrays(specs, "friends")
        fo_owner, fo_nb = _field_arrays(specs, "followers")
        ve_owner, ve_vid = _field_arrays(specs, "venues")
        has_observed = np.fromiter(
            (s.observed_location is not None for s in specs),
            dtype=bool,
            count=n_specs,
        )
        observed_raw = np.fromiter(
            (
                s.observed_location if s.observed_location is not None else 0
                for s in specs
            ),
            dtype=np.int64,
            count=n_specs,
        )
        self._validate(
            np.concatenate([fr_nb, fo_nb]), ve_vid, observed_raw, has_observed,
            world,
        )
        observed = np.where(has_observed, observed_raw, -1)

        # Candidacy (Sec. 4.3), one unique-CSR pass over evidence pairs.
        pair_owner: list[np.ndarray] = []
        pair_loc: list[np.ndarray] = []
        if params.use_candidacy:
            labeled_specs = observed >= 0
            pair_owner.append(np.flatnonzero(labeled_specs))
            pair_loc.append(observed[labeled_specs])
            if params.use_following:
                nb_owner = np.concatenate([fr_owner, fo_owner])
                nb_ids = np.concatenate([fr_nb, fo_nb])
                nb_observed = world.observed_location[nb_ids]
                labeled = nb_observed >= 0
                pair_owner.append(nb_owner[labeled])
                pair_loc.append(nb_observed[labeled])
            if params.use_tweeting:
                repeats, referents = expand_csr(
                    world.ref_indptr, world.ref_indices, ve_vid
                )
                pair_owner.append(np.repeat(ve_owner, repeats))
                pair_loc.append(referents)
        owners = (
            np.concatenate(pair_owner)
            if pair_owner
            else np.empty(0, dtype=np.int64)
        )
        locations = (
            np.concatenate(pair_loc)
            if pair_loc
            else np.empty(0, dtype=np.int64)
        )
        cand_indptr, cand_ids = build_unique_csr(owners, locations, n_specs)
        empty = np.flatnonzero(np.diff(cand_indptr) == 0)
        if empty.size:
            # No candidacy evidence (or candidacy ablated): the full
            # gazetteer, exactly like the sequential fallback.
            n_loc = predictor.n_locations
            owners = np.concatenate([owners, np.repeat(empty, n_loc)])
            locations = np.concatenate(
                [locations, np.tile(np.arange(n_loc, dtype=np.int64), empty.size)]
            )
            cand_indptr, cand_ids = build_unique_csr(owners, locations, n_specs)

        arena = _Arena()
        arena.n_specs = n_specs
        arena.cand_indptr = cand_indptr
        arena.cand_ids = cand_ids
        arena.cand_counts = np.diff(cand_indptr)
        cand_owner = np.repeat(
            np.arange(n_specs, dtype=np.int64), arena.cand_counts
        )

        gamma = np.full(cand_ids.size, params.tau, dtype=np.float64)
        boosted = (observed[cand_owner] >= 0) & (cand_ids == observed[cand_owner])
        gamma[boosted] += params.boost
        arena.gamma = gamma
        arena.gamma_sum = contiguous_segment_sum(gamma, cand_indptr[:-1])

        # Relationship arena, sequential order per spec: friends,
        # followers, venues (a stable sort by owner preserves it).
        rel_sources: list[tuple[np.ndarray, np.ndarray, bool]] = []
        if params.use_following:
            rel_sources.append((fr_owner, fr_nb, False))
            rel_sources.append((fo_owner, fo_nb, False))
        if params.use_tweeting:
            rel_sources.append((ve_owner, ve_vid, True))
        if rel_sources:
            rel_owner = np.concatenate([s[0] for s in rel_sources])
            rel_ref = np.concatenate([s[1] for s in rel_sources])
            rel_is_venue = np.concatenate(
                [np.full(s[0].size, s[2], dtype=bool) for s in rel_sources]
            )
        else:
            rel_owner = np.empty(0, dtype=np.int64)
            rel_ref = np.empty(0, dtype=np.int64)
            rel_is_venue = np.empty(0, dtype=bool)
        order = np.argsort(rel_owner, kind="stable")
        rel_owner = rel_owner[order]
        rel_ref = rel_ref[order]
        rel_is_venue = rel_is_venue[order]
        arena.rel_counts = np.bincount(rel_owner, minlength=n_specs)
        arena.rel_indptr = _offsets(arena.rel_counts)

        noise = np.empty(rel_ref.size, dtype=np.float64)
        factor = np.empty(rel_ref.size, dtype=np.float64)
        noise[~rel_is_venue] = predictor._fr_noise
        factor[~rel_is_venue] = 1.0 - params.rho_f
        venue_rels = np.flatnonzero(rel_is_venue)
        noise[venue_rels] = params.rho_t * predictor._tr_probs[
            rel_ref[venue_rels]
        ]
        factor[venue_rels] = 1.0 - params.rho_t
        arena.noise = noise
        arena.factor = factor

        # Cell arena: per spec the (R, C) matrix M, rows end to end.
        cells_per_rel = arena.cand_counts[rel_owner]
        arena.cells_per_rel = cells_per_rel
        cell_rel_offsets = _offsets(cells_per_rel)
        arena.cell_indptr = cell_rel_offsets[arena.rel_indptr]
        total_cells = int(cell_rel_offsets[-1])
        cell_rel = np.repeat(
            np.arange(rel_ref.size, dtype=np.int64), cells_per_rel
        )
        cell_c = (
            np.arange(total_cells, dtype=np.int64)
            - cell_rel_offsets[cell_rel]
        )
        cell_cand = cand_indptr[rel_owner[cell_rel]] + cell_c

        # Following rows: slice the shared per-neighbour kernel cache
        # (literally the same arrays the sequential solver slices) into
        # each relationship's cell slots -- one stacked table for the
        # chunk's unique trained neighbours, then a flat two-index
        # gather.  A neighbour ingested after the fit has an all-zero
        # row, so its cells keep the zeros ``weights`` starts with.
        weights = np.zeros(total_cells, dtype=np.float64)
        trained_rels = ~rel_is_venue & (rel_ref < predictor._n_train)
        following_cells = trained_rels[cell_rel]
        if following_cells.any():
            unique_nb, nb_local = np.unique(
                rel_ref[trained_rels], return_inverse=True
            )
            kernel_table = np.empty(
                (unique_nb.size, predictor.n_locations), dtype=np.float64
            )
            for local, nb in enumerate(unique_nb.tolist()):
                kernel_table[local] = predictor._kernel_row(nb)
            rel_nb_local = np.full(rel_ref.size, -1, dtype=np.int64)
            rel_nb_local[trained_rels] = nb_local
            weights[following_cells] = kernel_table[
                rel_nb_local[cell_rel[following_cells]],
                cand_ids[cell_cand[following_cells]],
            ]

        # Venue rows: a straight psi gather into their cell slots.
        venue_cells = rel_is_venue[cell_rel]
        if venue_cells.any():
            weights[venue_cells] = predictor._psi[
                cand_ids[cell_cand[venue_cells]],
                rel_ref[cell_rel[venue_cells]],
            ]
        arena.weights = weights
        return arena

    # -- the batched fixed point -------------------------------------------

    def _solve_chunk(
        self, specs: list[UserSpec], world: ColumnarWorld | None = None
    ) -> list[_Solution]:
        if not specs:
            return []
        predictor = self.predictor
        tolerance = predictor.tolerance
        arena = self._lower(
            specs, world if world is not None else predictor.world
        )
        n_specs = arena.n_specs
        total_cand = arena.cand_ids.size
        cand_positions = np.arange(total_cand, dtype=np.int64)
        cell_positions = np.arange(int(arena.cell_indptr[-1]), dtype=np.int64)
        rel_positions = np.arange(int(arena.rel_indptr[-1]), dtype=np.int64)

        phi = np.zeros(total_cand, dtype=np.float64)
        iterations = np.zeros(n_specs, dtype=np.int64)
        converged = arena.rel_counts == 0
        active = np.flatnonzero(arena.rel_counts > 0)

        # Convergence masking is two-tier: a user whose drift falls
        # under tolerance is *frozen* immediately (its phi stops
        # updating, exactly as if it had broken out of the sequential
        # loop), and once frozen users hold >= 1/8 of the arena's cells
        # the arena is *compacted* down to the survivors so the long
        # convergence tail never pays for the finished majority.
        #
        # Reductions over contiguous segments use ``np.add.reduceat``;
        # its left-to-right accumulation matches ``segment_sum`` bit
        # for bit on these non-negative operands (``0.0 + x == x``),
        # and the golden tests pin that equivalence.
        local = None
        live = live_cells = None
        frozen_cells = 0
        iteration = 0
        while active.size and iteration < predictor.max_iterations:
            if local is None:
                local = self._compact(
                    arena, active, cand_positions, rel_positions, cell_positions
                )
                (
                    cand_sel,
                    gamma_a,
                    gamma_sum_a,
                    noise_a,
                    factor_a,
                    weights_a,
                    cand_counts_a,
                    rel_user,
                    cell_rel,
                    cell_cand,
                    cand_starts,
                    rel_starts,
                ) = local
                phi_a = phi[cand_sel]
                live = np.ones(active.size, dtype=bool)
                live_cells = np.ones(cand_sel.size, dtype=bool)
                frozen_cells = 0
                w = np.empty_like(gamma_a)
                cand_buf = np.empty_like(gamma_a)
                joint = np.empty_like(weights_a)
                cell_buf = np.empty_like(weights_a)
                rel_total = np.empty_like(noise_a)
                p_loc = np.empty_like(noise_a)
                resp = np.empty_like(noise_a)
                scale = np.empty_like(noise_a)
            iteration += 1
            np.add(phi_a, gamma_a, out=w)
            total = contiguous_segment_sum(phi_a, cand_starts) + gamma_sum_a
            np.take(w, cell_cand, out=cell_buf)
            np.multiply(weights_a, cell_buf, out=joint)
            sums = contiguous_segment_sum(joint, rel_starts)
            np.take(total, rel_user, out=rel_total)
            np.multiply(factor_a, sums, out=p_loc)
            np.divide(p_loc, rel_total, out=p_loc)
            denom = p_loc + noise_a
            resp.fill(0.0)
            np.divide(p_loc, denom, out=resp, where=denom > 0)
            scale.fill(0.0)
            np.divide(resp, sums, out=scale, where=sums > 0)
            np.take(scale, cell_rel, out=cell_buf)
            np.multiply(joint, cell_buf, out=cell_buf)
            phi_new = segment_sum(cell_buf, cell_cand, cand_sel.size)
            np.subtract(phi_new, phi_a, out=cand_buf)
            np.abs(cand_buf, out=cand_buf)
            drift = np.maximum.reduceat(cand_buf, cand_starts)
            np.copyto(phi_a, phi_new, where=live_cells)
            newly_done = (drift < tolerance) & live
            if newly_done.any():
                converged[active[newly_done]] = True
                iterations[active[newly_done]] = iteration
                live &= ~newly_done
                live_cells = np.repeat(live, cand_counts_a)
                frozen_cells += int(
                    (arena.rel_counts[active[newly_done]]
                     * arena.cand_counts[active[newly_done]]).sum()
                )
                phi[cand_sel] = phi_a
                if not live.any():
                    active = active[:0]
                    local = None
                elif frozen_cells * 8 >= weights_a.size:
                    active = active[live]
                    local = None
        if active.size:
            # Ran out of iterations: stamp the survivors non-converged
            # at the full budget, exactly like the sequential loop
            # falling through.  When a compaction was pending at exit
            # (``local is None``) their phi was already persisted at
            # the freeze event; otherwise persist it now.
            if local is not None:
                phi[cand_sel] = phi_a
                iterations[active[live]] = iteration
            else:
                iterations[active] = iteration

        # theta for everyone at once, in the sequential element order.
        cand_owner = np.repeat(
            np.arange(n_specs, dtype=np.int64), arena.cand_counts
        )
        denominator = (
            contiguous_segment_sum(phi, arena.cand_indptr[:-1])
            + arena.gamma_sum
        )
        theta = (phi + arena.gamma) / denominator[cand_owner]

        solutions: list[_Solution] = []
        indptr = arena.cand_indptr
        for i in range(n_specs):
            start, end = int(indptr[i]), int(indptr[i + 1])
            solutions.append(
                _Solution(
                    candidates=arena.cand_ids[start:end].copy(),
                    gamma=arena.gamma[start:end].copy(),
                    phi=phi[start:end].copy(),
                    theta=theta[start:end].copy(),
                    iterations=int(iterations[i]),
                    converged=bool(converged[i]),
                )
            )
        return solutions

    def _compact(
        self,
        arena: _Arena,
        active: np.ndarray,
        cand_positions: np.ndarray,
        rel_positions: np.ndarray,
        cell_positions: np.ndarray,
    ):
        """Gather the arena down to the still-active specs.

        Finished users genuinely drop out: every subsequent iteration
        touches only the survivors' candidates, relationships and
        cells.
        """
        n_active = active.size
        cand_counts = arena.cand_counts[active]
        rel_counts = arena.rel_counts[active]
        _, cand_sel = expand_csr(arena.cand_indptr, cand_positions, active)
        _, rel_sel = expand_csr(arena.rel_indptr, rel_positions, active)
        _, cell_sel = expand_csr(arena.cell_indptr, cell_positions, active)

        cells_per_rel = arena.cells_per_rel[rel_sel]
        cell_rel = np.repeat(
            np.arange(rel_sel.size, dtype=np.int64), cells_per_rel
        )
        cell_offsets = _offsets(cells_per_rel)
        cand_offsets = _offsets(cand_counts)
        rel_user = np.repeat(np.arange(n_active, dtype=np.int64), rel_counts)
        cell_cand = (
            np.arange(cell_sel.size, dtype=np.int64)
            - cell_offsets[cell_rel]
            + cand_offsets[rel_user][cell_rel]
        )
        return (
            cand_sel,
            arena.gamma[cand_sel],
            arena.gamma_sum[active],
            arena.noise[rel_sel],
            arena.factor[rel_sel],
            arena.weights[cell_sel],
            cand_counts,
            rel_user,
            cell_rel,
            cell_cand,
            cand_offsets[:-1],
            cell_offsets[:-1],
        )


def score_population(
    world,
    result,
    predictor: FoldInPredictor | None = None,
    use_cache: bool = False,
    since_generation: int | None = None,
    journal=None,
) -> dict[int, FoldInPrediction]:
    """Profile every *unlabeled* user of a dataset in one batch call.

    The MLP paper's end goal in one function: given a fitted ``result``
    and the world it was trained on (a ``Dataset`` or a compiled
    ``ColumnarWorld``), fold in the entire unlabeled population through
    the vectorized batch engine and return ``{user_id: prediction}``.
    Pass an existing ``predictor`` to reuse its frozen tables and LRU
    cache (``use_cache=True`` then serves repeat populations from it).

    With ``since_generation=g`` only the *delta-affected* slice is
    re-scored: unlabeled users touched by ingest generations ``> g``
    (arrivals, endpoints of new edges, tweeters, label updates and
    their neighbours -- read from the world's ``delta_log``).  A
    steady-state server keeps a full population scored, streams deltas
    in, and re-scores just ``since_generation=<last scored>`` instead
    of the world.

    The in-memory ``delta_log`` forgets generations past
    ``DELTA_LOG_LIMIT``; pass ``journal=`` (a
    :class:`repro.data.journal.DeltaJournal`) to answer the touched
    window from the durable log instead, which covers everything since
    the last compaction.  A ``since_generation`` behind the retained
    window raises :class:`repro.data.delta.StaleWindowError` -- this
    function never silently falls back to a full re-score; callers that
    choose to (``repro ingest --score-output``, the query layer's index
    refresh) must surface the fallback loudly (docs/API.md documents
    the window contract).
    """
    world = compile_world(world)
    if predictor is None:
        # Build over the *training* world, so the content check below
        # still catches a same-size-but-different world; to score a
        # delta-grown world, pass the refreshed predictor (or build
        # one with ``FoldInPredictor(result, world=grown)``).
        predictor = FoldInPredictor(result)
    if world.n_users != predictor.world.n_users:
        raise ValueError(
            f"world has {world.n_users} users but the predictor serves "
            f"{predictor.world.n_users}"
        )
    if (
        world is not predictor.world
        and world.content_hash != predictor.world.content_hash
        # Chained ingest hashes encode a *history*, so two worlds with
        # identical arrays but different provenance (N deltas vs. a
        # from-scratch recompile) disagree above; the array-level
        # rehash settles it before we reject.
        and world.rehash() != predictor.world.rehash()
    ):
        # Same size but different edges/labels: the specs below replay
        # the predictor world's evidence, so scoring a different world
        # with them would silently produce stale profiles.
        raise ValueError(
            "world content does not match the world the predictor "
            f"serves ({world.content_hash} != "
            f"{predictor.world.content_hash})"
        )
    unlabeled = np.flatnonzero(~world.labeled_mask)
    if since_generation is not None:
        if journal is not None:
            affected = journal.touched_since(since_generation)
        else:
            from repro.data.delta import touched_since

            affected = touched_since(world, since_generation)
        unlabeled = np.intersect1d(unlabeled, affected, assume_unique=True)
    specs = [
        predictor.spec_for_training_user(int(uid)) for uid in unlabeled
    ]
    predictions = predictor.predict_batch(specs, use_cache=use_cache)
    return {
        int(uid): prediction
        for uid, prediction in zip(unlabeled, predictions)
    }
