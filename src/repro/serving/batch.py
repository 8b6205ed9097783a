"""The fold-in solver: score any number of users in one numpy pass.

Every fold-in answer -- a single ``predict``, a coalesced window of
requests, an edge explanation, a whole population -- is solved here.
:class:`BatchFoldInEngine` lowers a list of
:class:`~repro.serving.foldin.UserSpec` into one flat **spec arena**
(the same array-native treatment :mod:`repro.data.columnar` gives
datasets) and iterates the collapsed fold-in fixed point for all of
those users at once:

- **candidate CSR**: every spec's Sec. 4.3 candidacy vector, built in
  one :func:`~repro.data.columnar.build_unique_csr` pass over
  (spec, location) evidence pairs (observed homes, labeled neighbours'
  homes via the world's user table, venue referents via the world's
  referent CSR); specs with no candidacy evidence get the full
  gazetteer;
- **relationship arena**: one row per (spec, relationship) -- every
  following relationship of the chunk, then every venue mention, so
  each spec's own stay in the order friends, followers, venues -- with
  its noise weight and ``(1 - rho)`` prefactor;
- **cell arena**: the per-user ``(R, C)`` weight matrices ``M``
  flattened end to end, following rows gathered from the predictor's
  per-neighbour kernel-row cache, venue rows straight from ``psi``;
- **masked iteration**: the expected-count fixed point runs as flat
  segment reductions over every still-active user at once; a user
  whose drift falls under tolerance is frozen immediately, and once
  frozen users hold an eighth of the arena it is compacted down to the
  survivors, so late convergers never pay for the finished majority.

**Per-user independence.**  Each user's floats depend only on that
user's own spec: contiguous reductions are ``np.add.reduceat``
segments that never cross a user boundary, the scattered ``phi``
accumulation is ``np.bincount`` (strict input order, so each candidate
sums its own cells relationship by relationship), and following-edge
rows are gathered from one shared kernel-row cache.  A spec therefore
solves to the same bits alone, inside any batch, and on either side of
a chunk boundary -- which is what lets a coalesced window of requests
share one solve.  ``tests/reference_foldin.py`` holds the per-user
form of the same iteration, and the tests hold the engine to it
exactly.

Chunking bounds peak arena memory (``chunk_size`` specs per arena).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from repro.data.columnar import (
    ColumnarWorld,
    build_unique_csr,
    compile_world,
    expand_csr,
)
from repro.data.delta import touched_since
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span

if TYPE_CHECKING:
    from repro.serving.foldin import FoldInPrediction, FoldInPredictor, UserSpec

__all__ = ["BatchFoldInEngine", "score_population"]

#: Solver instrumentation is per *chunk*, not per spec: one histogram
#: observation per call (or per ~2048 solves on population batches)
#: keeps the overhead unmeasurable (gated by bench_obs.py).  Read-only:
#: timings and counts, never inputs to the solve.
_REG = obs_metrics.get_registry()
SOLVE_SECONDS = _REG.histogram(
    "repro_foldin_solve_seconds",
    "Wall time of fold-in fixed-point solves, one observation per "
    "engine chunk",
)
SOLVES_TOTAL = _REG.counter(
    "repro_foldin_solves_total",
    "Fold-in fixed-point solves performed (cache hits excluded)",
)
ITERATIONS_TOTAL = _REG.counter(
    "repro_foldin_iterations_total",
    "Fixed-point iterations summed over all fold-in solves",
)
UNCONVERGED_TOTAL = _REG.counter(
    "repro_foldin_unconverged_total",
    "Fold-in solves that stopped at max_iterations without converging",
)


@dataclass(frozen=True, slots=True)
class _Solution:
    """One user's solver output (rendered lazily by the predictor)."""

    candidates: np.ndarray
    gamma: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    iterations: int
    converged: bool


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums as an indptr-style array (len + 1)."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.add.accumulate(counts, out=out[1:])
    return out


def _checked_ids(ids: list[int], limit: int, what: str) -> np.ndarray:
    """``ids`` as int64; ``ValueError`` names the first outside
    ``[0, limit)``, including ids too large for int64."""
    try:
        arr = np.fromiter(ids, dtype=np.int64, count=len(ids))
    except OverflowError:
        arr = None
    if arr is None or ((arr < 0) | (arr >= limit)).any():
        bad = next(i for i in ids if not 0 <= i < limit)
        raise ValueError(f"unknown {what} {bad}")
    return arr


class _Arena:
    """A set of specs lowered to flat arrays, plus the index arrays the
    iteration reads.

    Candidates are grouped by spec (one CSR segment each).
    Relationships may sit in any order across specs, as long as each
    spec's own keep the order friends, followers, venues: every
    reduction is per relationship or per candidate, and ``np.bincount``
    adds each candidate's cells in input order.  Relationship ``r``
    owns one cell per candidate of its spec, rows end to end.
    ``_lower`` builds one arena per chunk; a compaction builds a smaller
    one over the still-active specs.
    """

    __slots__ = (
        "cand_counts",
        "cand_indptr",
        "cand_owner",
        "rel_counts",
        "rel_user",
        "cell_indptr",
        "cell_rel",
        "cell_cand",
        "cand_ids",
        "gamma",
        "gamma_sum",
        "noise",
        "factor",
        "weights",
    )

    def __init__(self, cand_counts: np.ndarray, rel_user: np.ndarray):
        n_specs = cand_counts.size
        self.cand_counts = cand_counts
        self.cand_indptr = _offsets(cand_counts)
        self.cand_owner = np.repeat(np.arange(n_specs, dtype=np.int64), cand_counts)
        self.rel_counts = np.bincount(rel_user, minlength=n_specs)
        self.rel_user = rel_user
        cells_per_rel = cand_counts[rel_user]
        self.cell_indptr = _offsets(cells_per_rel)
        self.cell_rel = np.repeat(
            np.arange(rel_user.size, dtype=np.int64), cells_per_rel
        )
        first_cand = self.cand_indptr[rel_user] - self.cell_indptr[:-1]
        self.cell_cand = (
            np.arange(self.cell_indptr[-1], dtype=np.int64)
            + first_cand[self.cell_rel]
        )

    def compact(self, keep: np.ndarray) -> tuple[_Arena, np.ndarray]:
        """The sub-arena of the specs where ``keep`` is true, and the
        positions of its candidates in this arena."""
        cand_keep = keep[self.cand_owner]
        rel_keep = keep[self.rel_user]
        renumber = np.cumsum(keep) - 1
        sub = _Arena(self.cand_counts[keep], renumber[self.rel_user[rel_keep]])
        sub.gamma = self.gamma[cand_keep]
        sub.gamma_sum = self.gamma_sum[keep]
        sub.noise = self.noise[rel_keep]
        sub.factor = self.factor[rel_keep]
        sub.weights = self.weights[rel_keep[self.cell_rel]]
        return sub, np.flatnonzero(cand_keep)


class BatchFoldInEngine:
    """Vectorized fold-in over one predictor's frozen posterior.

    Reads the frozen tables (law matrix via the kernel-row cache, psi,
    noise models, neighbour profiles) straight off the owning
    :class:`~repro.serving.foldin.FoldInPredictor` -- there is exactly
    one source of truth for the model; the predictor owns caching and
    rendering, the engine the numerics.
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

        Chunked so arena memory stays bounded on huge populations.  One
        world snapshot covers the whole call (pass the caller's
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
            with span("foldin.solve"):
                solved = self._solve_chunk(chunk, world)
            SOLVE_SECONDS.observe(time.perf_counter() - t0)
            SOLVES_TOTAL.inc(len(solved))
            ITERATIONS_TOTAL.inc(sum(s.iterations for s in solved))
            UNCONVERGED_TOTAL.inc(sum(not s.converged for s in solved))
            solutions.extend(solved)
        return solutions

    # -- validation --------------------------------------------------------

    def _validate(
        self, specs: list[UserSpec], world: ColumnarWorld
    ) -> tuple[np.ndarray, np.ndarray]:
        """Check every id the specs name; return their flat evidence.

        The one spec validator: the engine runs it on every chunk it
        lowers, and ``FoldInPredictor.resolve_request`` on each request
        spec, so a bad id is a ``ValueError`` naming the first
        offending value before the spec can join a coalesced window.
        Returns ``(neighbors, venues)``: the specs' friends + followers
        and venue ids, concatenated in spec order.
        """
        predictor = self.predictor
        neighbors = _checked_ids(
            list(chain.from_iterable(s.friends + s.followers for s in specs)),
            world.n_users,
            "neighbour user id",
        )
        venues = _checked_ids(
            list(chain.from_iterable(s.venues for s in specs)),
            predictor.n_venues,
            "venue id",
        )
        for spec in specs:
            loc = spec.observed_location
            if loc is not None and not 0 <= loc < predictor.n_locations:
                raise ValueError(f"unknown observed location {loc}")
        return neighbors, venues

    # -- arena construction ------------------------------------------------

    def _lower(self, specs: list[UserSpec], world: ColumnarWorld) -> _Arena:
        """Lower one chunk of specs into the flat spec arena."""
        predictor = self.predictor
        params = predictor.params
        n_specs = len(specs)
        spec_ids = np.arange(n_specs, dtype=np.int64)

        nb_counts = np.fromiter(
            (len(s.friends) + len(s.followers) for s in specs),
            dtype=np.int64,
            count=n_specs,
        )
        ve_counts = np.fromiter(
            (len(s.venues) for s in specs), dtype=np.int64, count=n_specs
        )
        neighbors, venues = self._validate(specs, world)
        nb_owner = np.repeat(spec_ids, nb_counts)
        ve_owner = np.repeat(spec_ids, ve_counts)
        observed = np.fromiter(
            (
                -1 if s.observed_location is None else s.observed_location
                for s in specs
            ),
            dtype=np.int64,
            count=n_specs,
        )

        # Candidacy (Sec. 4.3), one unique-CSR pass over evidence pairs.
        pair_owner: list[np.ndarray] = []
        pair_loc: list[np.ndarray] = []
        if params.use_candidacy:
            labeled_specs = observed >= 0
            pair_owner.append(spec_ids[labeled_specs])
            pair_loc.append(observed[labeled_specs])
            if params.use_following:
                nb_observed = world.observed_location[neighbors]
                labeled = nb_observed >= 0
                pair_owner.append(nb_owner[labeled])
                pair_loc.append(nb_observed[labeled])
            if params.use_tweeting:
                repeats, referents = expand_csr(
                    world.ref_indptr, world.ref_indices, venues
                )
                pair_owner.append(np.repeat(ve_owner, repeats))
                pair_loc.append(referents)
        empty = np.empty(0, dtype=np.int64)
        owners = np.concatenate(pair_owner) if pair_owner else empty
        locations = np.concatenate(pair_loc) if pair_loc else empty
        cand_indptr, cand_ids = build_unique_csr(owners, locations, n_specs)
        no_evidence = np.flatnonzero(cand_indptr[1:] == cand_indptr[:-1])
        if no_evidence.size:
            # No candidacy evidence (or candidacy ablated): the full
            # gazetteer.
            n_loc = predictor.n_locations
            owners = np.concatenate([owners, np.repeat(no_evidence, n_loc)])
            locations = np.concatenate(
                [locations, np.tile(np.arange(n_loc, dtype=np.int64), no_evidence.size)]
            )
            cand_indptr, cand_ids = build_unique_csr(owners, locations, n_specs)

        # Relationships, kind-major: every following relationship of the
        # chunk, then every venue mention (an ablated kind has none).
        # Each spec's own stay in friends, followers, venues order.
        n_follow = neighbors.size if params.use_following else 0
        n_venue = venues.size if params.use_tweeting else 0
        arena = _Arena(
            cand_indptr[1:] - cand_indptr[:-1],
            np.concatenate((nb_owner[:n_follow], ve_owner[:n_venue])),
        )
        arena.cand_ids = cand_ids
        gamma = np.full(cand_ids.size, params.tau, dtype=np.float64)
        # ``observed`` is -1 for specs without a home, which matches no
        # candidate.
        gamma[cand_ids == observed[arena.cand_owner]] += params.boost
        arena.gamma = gamma
        arena.gamma_sum = np.add.reduceat(gamma, arena.cand_indptr[:-1])

        venues = venues[:n_venue]
        noise = np.empty(n_follow + n_venue, dtype=np.float64)
        noise[:n_follow] = predictor._fr_noise
        noise[n_follow:] = params.rho_t * predictor._tr_probs[venues]
        factor = np.empty(n_follow + n_venue, dtype=np.float64)
        factor[:n_follow] = 1.0 - params.rho_f
        factor[n_follow:] = 1.0 - params.rho_t
        arena.noise = noise
        arena.factor = factor

        # Cell weights.  Following cells gather from one table of the
        # chunk's distinct trained neighbours' kernel rows; row 0 is
        # all zeros, shared by every neighbour ingested after the fit
        # (its ``K_j`` is 0).  Venue cells gather straight from psi.
        cell_rel = arena.cell_rel
        cell_loc = cand_ids[arena.cell_cand]
        split = int(arena.cell_indptr[n_follow])
        n_train = predictor._n_train
        table_row: dict[int, int] = {}
        rel_row = np.fromiter(
            (
                table_row.setdefault(nb, len(table_row) + 1) if nb < n_train else 0
                for nb in neighbors[:n_follow].tolist()
            ),
            dtype=np.int64,
            count=n_follow,
        )
        kernel_table = np.empty(
            (len(table_row) + 1, predictor.n_locations), dtype=np.float64
        )
        kernel_table[0] = 0.0
        for nb, row in table_row.items():
            kernel_table[row] = predictor._kernel_row(nb)
        weights = np.empty(cell_rel.size, dtype=np.float64)
        weights[:split] = kernel_table[rel_row[cell_rel[:split]], cell_loc[:split]]
        weights[split:] = predictor._psi[
            cell_loc[split:], venues[cell_rel[split:] - n_follow]
        ]
        arena.weights = weights
        return arena

    # -- the batched fixed point -------------------------------------------

    def _solve_chunk(
        self, specs: list[UserSpec], world: ColumnarWorld
    ) -> list[_Solution]:
        if not specs:
            return []
        predictor = self.predictor
        tolerance = predictor.tolerance
        base = self._lower(specs, world)
        n_specs = len(specs)

        phi = np.zeros(base.cand_ids.size, dtype=np.float64)
        iterations = np.zeros(n_specs, dtype=np.int64)
        converged = base.rel_counts == 0

        # Convergence masking is two-tier: a user whose drift falls
        # under tolerance is *frozen* immediately (its phi stops
        # updating, exactly as if its own loop had ended), and once
        # frozen users hold >= 1/8 of the arena's cells the arena is
        # *compacted* down to the survivors so the long convergence
        # tail never pays for the finished majority.  Until the first
        # compaction the loop runs on the chunk's own arena.  Users
        # with no relationship are converged from the start; they own
        # no cells, so their phi stays 0.
        arena, spec_of, cand_of, phi_a = base, np.arange(n_specs), None, phi
        live = ~converged
        n_live = n_specs - int(np.count_nonzero(converged))
        iteration = 0
        while n_live:
            cand_starts = arena.cand_indptr[:-1]
            rel_starts = arena.cell_indptr[:-1]
            cell_cand = arena.cell_cand
            cell_rel = arena.cell_rel
            rel_user = arena.rel_user
            gamma_a = arena.gamma
            gamma_sum_a = arena.gamma_sum
            noise_a = arena.noise
            factor_a = arena.factor
            weights_a = arena.weights
            # Scratch buffers, written through positional ``out``
            # arguments: on the small arrays of a few users the keyword
            # form costs more than the arithmetic.
            w = np.empty_like(gamma_a)
            cand_buf = np.empty_like(gamma_a)
            joint = np.empty_like(weights_a)
            p_loc = np.empty_like(noise_a)
            denom = np.empty_like(noise_a)
            resp = np.empty_like(noise_a)
            scale = np.empty_like(noise_a)
            # The two divisions are guarded (0 where the divisor is 0).
            # When every noise weight is positive, every ``denom`` is;
            # when every row has a weight ``x`` with ``x * min(gamma)``
            # still positive, every ``sums`` is (``phi + gamma >=
            # gamma``, and rounding is monotone).  Then the guards
            # select everything and plain division gives the same bits.
            plain = (
                noise_a.min() > 0
                and np.maximum.reduceat(weights_a, rel_starts).min()
                * gamma_a.min()
                > 0
            )
            live_cells = None
            frozen_cells = 0
            while (
                n_live
                and iteration < predictor.max_iterations
                and frozen_cells * 8 < weights_a.size
            ):
                iteration += 1
                np.add(phi_a, gamma_a, w)
                total = np.add.reduceat(phi_a, cand_starts)
                np.add(total, gamma_sum_a, total)
                np.multiply(weights_a, w[cell_cand], joint)
                sums = np.add.reduceat(joint, rel_starts)
                np.multiply(factor_a, sums, p_loc)
                np.divide(p_loc, total[rel_user], p_loc)
                np.add(p_loc, noise_a, denom)
                if plain:
                    np.divide(p_loc, denom, resp)
                    np.divide(resp, sums, scale)
                else:
                    resp.fill(0.0)
                    np.divide(p_loc, denom, resp, where=denom > 0)
                    scale.fill(0.0)
                    np.divide(resp, sums, scale, where=sums > 0)
                np.multiply(joint, scale[cell_rel], joint)
                phi_new = np.bincount(cell_cand, joint, phi_a.size)
                np.subtract(phi_new, phi_a, cand_buf)
                np.abs(cand_buf, cand_buf)
                drift = np.maximum.reduceat(cand_buf, cand_starts)
                if live_cells is None:
                    phi_a = phi_new
                else:
                    np.copyto(phi_a, phi_new, where=live_cells)
                newly_done = drift < tolerance
                if not np.count_nonzero(newly_done):
                    continue
                newly_done &= live
                n_done = int(np.count_nonzero(newly_done))
                if n_done:
                    done = spec_of[newly_done]
                    converged[done] = True
                    iterations[done] = iteration
                    live &= ~newly_done
                    n_live -= n_done
                    live_cells = live[arena.cand_owner]
                    frozen_cells += int(
                        np.dot(
                            arena.rel_counts[newly_done],
                            arena.cand_counts[newly_done],
                        )
                    )
            if cand_of is None:
                phi = phi_a
            else:
                phi[cand_of] = phi_a
            if not n_live or iteration >= predictor.max_iterations:
                break
            spec_of = spec_of[live]
            keep = np.zeros(n_specs, dtype=bool)
            keep[spec_of] = True
            arena, cand_of = base.compact(keep)
            phi_a = phi[cand_of]
            live = np.ones(spec_of.size, dtype=bool)
        # Survivors ran out of iterations: non-converged at the full
        # budget.
        iterations[spec_of[live]] = iteration

        # theta for everyone at once, each user's sum over its own
        # candidates.
        denominator = np.add.reduceat(phi, base.cand_indptr[:-1]) + base.gamma_sum
        theta = (phi + base.gamma) / denominator[base.cand_owner]

        solutions: list[_Solution] = []
        indptr = base.cand_indptr.tolist()
        for i in range(n_specs):
            start, end = indptr[i], indptr[i + 1]
            solutions.append(
                _Solution(
                    candidates=base.cand_ids[start:end].copy(),
                    gamma=base.gamma[start:end].copy(),
                    phi=phi[start:end].copy(),
                    theta=theta[start:end].copy(),
                    iterations=int(iterations[i]),
                    converged=bool(converged[i]),
                )
            )
        return solutions


def score_population(
    world,
    result,
    predictor: FoldInPredictor | None = None,
    use_cache: bool = False,
    since_generation: int | None = None,
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

    The ``delta_log`` retains the last ``DELTA_LOG_LIMIT`` generations
    (a world recovered from a journal snapshot starts its log there).
    A ``since_generation`` behind the retained window raises
    :class:`repro.data.delta.StaleWindowError` -- this function never
    silently falls back to a full re-score; callers that choose to
    (``repro ingest --score-output``, the query layer's index refresh)
    must surface the fallback loudly (docs/API.md documents the window
    contract).
    """
    world = compile_world(world)
    if predictor is None:
        from repro.serving.foldin import FoldInPredictor

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
