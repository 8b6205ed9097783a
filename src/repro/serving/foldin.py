"""Fold-in inference: score new, unseen users against a frozen posterior.

Training (Sec. 4.5) jointly samples every user's assignments.  Serving
cannot re-run that for each query; instead a new user ``u`` is
**folded in**: the fitted posterior is frozen -- neighbour profiles
``theta_j`` (Eq. 10 over the pooled mean counts), the venue-side TL
table ``psi_l``, the fitted power law and the empirical noise models
FR/TR -- and only ``u``'s own assignments are inferred from ``u``'s
relationships.

Instead of re-sampling, the fold-in iterates the *expected* collapsed
Gibbs conditionals to a fixed point (a Rao-Blackwellized mean-field
pass over exactly the blocked conditionals of
:mod:`repro.core.gibbs`):

- following edge to neighbour ``j``:
  ``P(mu=0, x=l | rest) ∝ (1-rho_f) * w_u(l) * K_j(l) / T_u`` with
  ``K_j(l) = sum_e theta_j(e) * beta * d(l, e)**alpha`` precomputed per
  edge, against ``P(mu=1) ∝ rho_f * FR``;
- venue mention ``v``:
  ``P(nu=0, z=l | rest) ∝ (1-rho_t) * w_u(l) * psi_l(v) / T_u`` against
  ``rho_t * TR(v)``;

where ``w_u(l) = phi_u(l) + gamma_u(l)`` and ``T_u = phi_u + sum
gamma_u`` use *expected* counts: each relationship contributes its
location-branch responsibility, split over candidates in proportion to
the joint weights.  Candidacy vectors and ``gamma_u`` are built exactly
as in training (:mod:`repro.core.priors`), so folding in a user that
was *in* the training set reproduces the training-time prior, and --
because the frozen neighbour profiles are the training posterior means
-- converges to the training home prediction (exactly so for labeled
users, whose boosted prior pins the mode; a strongly multimodal
*unlabeled* user can resolve to a different posterior mode than the
chain average, which the tests quantify at a few percent).

Everything is deterministic (no RNG), vectorized over all of a user's
relationships at once, and memoized through an LRU cache keyed by
``(artifact id, user signature)``.

Solving lives in :mod:`repro.serving.batch`: every answer -- one
``predict``, a coalesced window of requests, an edge explanation, a
whole population -- goes through the one vectorized engine, and a spec
solves to the same bits alone or inside any batch.  ``predict_batch``
dedupes specs by signature, serves what it can from the cache in bulk,
and hands the rest to the engine in one call.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.core.model import MLPResult
from repro.core.results import LocationProfile
from repro.core.tweeting import RandomTweetingModel
from repro.data.columnar import compile_world
from repro.geo.gazetteer import normalize_place_name
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.serving.batch import BatchFoldInEngine, _Solution
from repro.serving.cache import LRUCache

#: Fold-in cache + ingest instrumentation (read-only: timings and
#: counts, never inputs to the solve).  The solve metrics live with the
#: solver in :mod:`repro.serving.batch`.
_REG = obs_metrics.get_registry()
KERNEL_ROWS = _REG.gauge(
    "repro_foldin_kernel_rows",
    "Kernel rows stored by fold-in predictors in this process",
)
INGEST_DELTAS = _REG.counter(
    "repro_ingest_deltas_total",
    "World deltas applied to the served world",
)
INGEST_SECONDS = _REG.histogram(
    "repro_ingest_apply_seconds",
    "Wall time to splice one delta into the served world "
    "(including cache invalidation)",
)
INGEST_TOUCHED = _REG.counter(
    "repro_ingest_touched_users_total",
    "Users touched by applied world deltas",
)

@dataclass(frozen=True, slots=True)
class UserSpec:
    """Everything the model may know about a user to be scored.

    ``friends`` are training-set user ids this user follows,
    ``followers`` training-set users following them, ``venues`` venue
    ids mentioned (repeats count, as in training), and
    ``observed_location`` an optional self-reported home (boosted in
    the prior exactly like a labeled training user).

    Each relationship list is a multiset and is stored sorted: the
    solve sums evidence in list order, and floating-point sums are not
    order-invariant, so sorting once here is what makes every ordering
    of the same evidence score bit-identically -- and what lets
    :meth:`signature` key the cache by the multiset.
    """

    friends: tuple[int, ...] = ()
    followers: tuple[int, ...] = ()
    venues: tuple[int, ...] = ()
    observed_location: int | None = None

    def __post_init__(self) -> None:
        for name in ("friends", "followers", "venues"):
            values = sorted(int(v) for v in getattr(self, name))
            object.__setattr__(self, name, tuple(values))

    @property
    def n_relationships(self) -> int:
        """Total evidence edges in the spec."""
        return len(self.friends) + len(self.followers) + len(self.venues)

    def signature(self) -> str:
        """Canonical content hash -- the cache key component.

        The relationship lists are already sorted, so permuted requests
        share a cache entry.
        """
        canonical = json.dumps(
            {
                "f": self.friends,
                "w": self.followers,
                "v": self.venues,
                "o": self.observed_location,
            },
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]


@dataclass(frozen=True, slots=True)
class FoldInPrediction:
    """One scored user: profile, home, and solver diagnostics."""

    profile: LocationProfile
    iterations: int
    converged: bool
    from_cache: bool = False

    @property
    def home(self) -> int | None:
        """Predicted home location id, or ``None`` for an empty profile."""
        return self.profile.home

    @property
    def confidence(self) -> float:
        """Posterior mass on the predicted home (0.0 for an empty profile).

        The projection hook of the prediction index
        (:mod:`repro.query.index`): one scalar per user that confidence
        filters (``min_confidence=``) compare against.
        """
        entries = self.profile.entries
        return float(entries[0][1]) if entries else 0.0

    def top_entries(self, k: int) -> tuple[tuple[int, float], ...]:
        """The ``k`` most probable ``(location, probability)`` pairs.

        Descending probability, ties broken by location id (the
        :class:`~repro.core.results.LocationProfile` order), so the
        projected alternates are deterministic.
        """
        return self.profile.entries[:k]


@dataclass(frozen=True, slots=True)
class EdgeScore:
    """One candidate assignment pair of a folded-in edge.

    ``x`` is the follower-side location, ``y`` the friend-side, as in
    :class:`~repro.core.results.EdgeExplanation`.
    """

    x: int
    y: int
    probability: float


@dataclass(frozen=True, slots=True)
class FoldInEdgeExplanation:
    """Explanation of one edge between a folded-in user and a neighbour."""

    neighbor: int
    direction: str
    noise_probability: float
    pairs: tuple[EdgeScore, ...]


class FoldInPredictor:
    """Online scorer over one frozen fitted posterior.

    Parameters
    ----------
    result:
        A fitted :class:`~repro.core.model.MLPResult` -- typically
        loaded from an artifact
        (:func:`repro.serving.artifacts.load_result`).  Must carry the
        frozen venue table (``result.venue_counts``); results saved by
        this codebase always do.
    artifact_id:
        Identity of the underlying artifact, used in cache keys; pass
        the id returned by ``save_result``/``artifact_metadata``.
    max_iterations, tolerance:
        Fixed-point schedule of the expected-count iteration.
    cache_size:
        Capacity of the LRU prediction cache.
    world:
        The *evidence* world to serve against -- the training world
        grown by ingested :class:`~repro.data.delta.WorldDelta`
        batches (or a from-scratch recompile of the same final
        dataset).  Defaults to the training world itself.  The frozen
        posterior tables (neighbour profiles, psi, the FR/TR noise
        models, the fitted law) always come from the *training* world:
        they are model artifacts, fixed at fit time; the evidence
        world only supplies candidacy labels, adjacency and spec
        replay.  Users beyond the training set carry an empty frozen
        profile (their edges contribute only the noise branch until a
        refit), but their observed labels feed candidacy -- which is
        what makes fold-in of fresh arrivals meaningful.
    """

    def __init__(
        self,
        result: MLPResult,
        artifact_id: str = "unsaved",
        max_iterations: int = 200,
        tolerance: float = 1e-9,
        cache_size: int = 1024,
        world=None,
    ):
        if result.venue_counts is None:
            raise ValueError(
                "result has no frozen venue table (venue_counts is None); "
                "refit with this version or re-save the artifact"
            )
        self.result = result
        self.dataset = result.dataset
        self.params = result.params
        self.artifact_id = artifact_id
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.cache = LRUCache(cache_size)
        #: Fixed-point solves actually performed (cache hits and
        #: in-batch duplicates excluded) -- observability for tests,
        #: benchmarks and capacity planning.  Guarded by ``_lock``
        #: together with the kernel-row cache: server handler threads
        #: share this predictor.
        self.solve_count = 0
        self._lock = threading.Lock()
        #: Per-neighbour kernel rows ``K_j(l) = sum_e theta_j(e) *
        #: law(l, e)`` over all locations, computed once per neighbour
        #: on first use and gathered by the engine into every arena
        #: that reads the neighbour.  Only neighbours with a non-empty
        #: frozen profile get an entry -- everyone else (users ingested
        #: after the fit in particular) reads the shared ``_zero_row``
        #: -- so the cache holds at most min(trained neighbours seen,
        #: ``_kernel_cache_limit``) rows.
        self._kernel_rows: dict[int, np.ndarray] = {}

        #: The shared compiled substrate.  When the result came out of a
        #: fit in this process (or an artifact that persisted its world),
        #: the memoized compile returns the existing world -- serving
        #: re-derives nothing.
        train_world = compile_world(result.dataset)
        #: Users with a frozen posterior profile; anyone beyond this
        #: (ingested after the fit) folds in with an empty profile.
        self._n_train = train_world.n_users
        self._train_world = train_world
        if world is None:
            world = train_world
        else:
            self._check_evidence_world(world)
        #: The live evidence world; swapped atomically by
        #: :meth:`refresh` as deltas stream in, or by
        #: :meth:`attach_world` when a reader adopts a generation
        #: published through a :class:`~repro.serving.store.WorldStore`.
        self.world = world
        gaz = train_world.gazetteer
        self.n_locations = train_world.n_locations
        self.n_venues = train_world.n_venues
        #: Cache at most ~256 MB of kernel rows, whatever the
        #: gazetteer size (each row is ``n_locations`` float64); past
        #: it new rows are computed transiently instead of stored, so
        #: a long-running server on a huge artifact cannot grow toward
        #: an (n_train, n_locations) table.
        self._kernel_cache_limit = max(
            1, (32 << 20) // max(1, self.n_locations)
        )
        #: ``K_j`` of a neighbour with no frozen profile: the empty
        #: product ``law[:, []] @ []`` is +0.0 at every location, so
        #: one read-only row serves them all bit for bit.
        self._zero_row = np.zeros(self.n_locations, dtype=np.float64)
        self._zero_row.flags.writeable = False
        #: Eq. 1 over every location pair under the *fitted* law
        #: (beta included -- the selector balance needs it).
        self._law_matrix = result.fitted_law(gaz.distance_matrix)
        #: Frozen psi: smoothed venue multinomial per location.
        delta = result.params.delta
        totals = result.venue_counts.sum(axis=1)
        self._psi = (result.venue_counts + delta) / (
            totals + delta * self.n_venues
        )[:, None]
        # FR/TR are empirical models of the *training* corpus, frozen
        # with the rest of the posterior -- ingested traffic must not
        # silently reweight every cached prediction's noise branch.
        self._fr_noise = result.params.rho_f * (
            train_world.n_following
            / float(train_world.n_users * train_world.n_users)
        )
        self._tr_probs = RandomTweetingModel.from_world(
            train_world
        ).venue_probabilities
        #: Sparse frozen neighbour profiles as one CSR arena, sliced
        #: per neighbour by :meth:`_profile_of`.
        counts = np.fromiter(
            (len(p.entries) for p in result.profiles),
            dtype=np.int64,
            count=len(result.profiles),
        )
        self._prof_indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self._prof_indptr[1:])
        self._prof_locs = np.fromiter(
            (loc for p in result.profiles for loc, _ in p.entries),
            dtype=np.int64,
            count=int(self._prof_indptr[-1]),
        )
        self._prof_probs = np.fromiter(
            (pr for p in result.profiles for _, pr in p.entries),
            dtype=np.float64,
            count=int(self._prof_indptr[-1]),
        )
        #: The fold-in solver every answer goes through.
        self.engine = BatchFoldInEngine(self)

    # -- spec construction -------------------------------------------------

    def spec_for_training_user(self, user_id: int) -> UserSpec:
        """The spec replaying a known user's exact world evidence.

        Covers ingested users too: a user added by a delta replays the
        friends/followers/venues the delta gave them.
        """
        world = self.world
        if not 0 <= user_id < world.n_users:
            raise ValueError(f"user {user_id} not in the served world")
        observed = int(world.observed_location[user_id])
        return UserSpec(
            friends=tuple(world.friends_of(user_id).tolist()),
            followers=tuple(world.followers_of(user_id).tolist()),
            venues=tuple(world.venues_of(user_id).tolist()),
            observed_location=observed if observed >= 0 else None,
        )

    def resolve_request(self, payload: dict) -> UserSpec:
        """Build a spec from a JSON request body.

        ``{"user_id": n}`` replays training user ``n``; otherwise the
        payload may carry ``friends``, ``followers``, ``venues`` (venue
        ids), ``venue_names`` (resolved through the gazetteer
        vocabulary) and ``observed_location``.  Unknown ids or names
        raise ``ValueError`` with the offending value named.
        """
        if not isinstance(payload, dict):
            raise ValueError("user spec must be a JSON object")
        if "user_id" in payload:
            extras = {
                "friends",
                "followers",
                "venues",
                "venue_names",
                "observed_location",
            } & payload.keys()
            if extras:
                # Silently dropping the extra evidence would score a
                # different user than the caller described.
                raise ValueError(
                    '"user_id" replays a training user and cannot be '
                    f"combined with explicit evidence ({sorted(extras)})"
                )
            return self.spec_for_training_user(int(payload["user_id"]))
        venues = [int(v) for v in payload.get("venues", ())]
        index = self.world.gazetteer.venue_index
        for name in payload.get("venue_names", ()):
            key = normalize_place_name(str(name))
            if key not in index:
                raise ValueError(f"unknown venue name {name!r}")
            venues.append(index[key])
        spec = UserSpec(
            friends=tuple(int(u) for u in payload.get("friends", ())),
            followers=tuple(int(u) for u in payload.get("followers", ())),
            venues=tuple(venues),
            observed_location=(
                int(payload["observed_location"])
                if payload.get("observed_location") is not None
                else None
            ),
        )
        self.engine._validate([spec], self.world)
        return spec

    # -- frozen tables ------------------------------------------------------

    def _profile_of(self, user_id: int) -> tuple[np.ndarray, np.ndarray]:
        """One neighbour's frozen sparse profile (CSR slice views).

        Users ingested after the fit have no frozen posterior: their
        profile is empty, so edges to them contribute only the noise
        branch (``K_j = 0``) until a refit produces a new artifact.
        """
        if user_id >= self._n_train:
            return self._prof_locs[:0], self._prof_probs[:0]
        start, end = self._prof_indptr[user_id], self._prof_indptr[user_id + 1]
        return self._prof_locs[start:end], self._prof_probs[start:end]

    def _kernel_row(self, neighbor: int) -> np.ndarray:
        """``K_j`` over every location, computed once per neighbour.

        Every arena the engine lowers gathers its following rows from
        this one cache, so a spec reads the same floats whichever batch
        it is solved in.  (A cache overflow recomputes the identical
        deterministic expression, so results cannot change; only time
        is lost.)
        First writer wins under the lock, so concurrent handler
        threads converge on a single shared array per neighbour.  A
        neighbour with an empty profile gets the shared read-only
        ``_zero_row`` and is never stored.
        """
        row = self._kernel_rows.get(neighbor)
        if row is None:
            locs, probs = self._profile_of(neighbor)
            if locs.size == 0:
                return self._zero_row
            row = self._law_matrix[:, locs] @ probs
            with self._lock:
                cached = self._kernel_rows.get(neighbor)
                if cached is not None:
                    row = cached
                elif len(self._kernel_rows) < self._kernel_cache_limit:
                    self._kernel_rows[neighbor] = row
                    KERNEL_ROWS.inc()
        return row

    def _render(self, solution: _Solution) -> FoldInPrediction:
        cand = solution.candidates
        theta = solution.theta
        # Same ordering contract as training profiles: descending
        # probability, ties to the lower location id.
        order = np.lexsort((cand, -theta))
        entries = tuple(
            (int(cand[i]), float(theta[i])) for i in order
        )
        return FoldInPrediction(
            profile=LocationProfile(user_id=-1, entries=entries),
            iterations=solution.iterations,
            converged=solution.converged,
        )

    # -- public scoring ----------------------------------------------------

    @staticmethod
    def _spec_tags(spec: UserSpec) -> tuple[int, ...]:
        """Cache-invalidation tags: the neighbours a prediction read.

        A cached prediction depends on the served world only through
        its neighbours' *observed labels* (candidacy); profiles, psi
        and the noise models are frozen.  Tagging entries with their
        neighbour ids lets :meth:`refresh` drop exactly the
        predictions a label update staled -- nothing else.
        """
        return tuple(set(spec.friends) | set(spec.followers))

    def _cache_put(self, items, world) -> None:
        """Cache solved predictions -- unless the world moved mid-solve.

        Checked under the predictor lock, against which :meth:`refresh`
        serializes its swap + tag invalidation: a prediction solved
        over a world that was refreshed away must not land *after* the
        refresh's invalidation pass, or it would serve stale until the
        next touching delta.  Dropping it is cheap (the next request
        re-solves against the live world).
        """
        with self._lock:
            if self.world is world:
                self.cache.put_many(items)

    def predict(self, spec: UserSpec, use_cache: bool = True) -> FoldInPrediction:
        """Score one user; served from the LRU cache when possible."""
        return self.predict_batch([spec], use_cache)[0]

    def predict_batch(
        self, specs: list[UserSpec] | tuple[UserSpec, ...], use_cache: bool = True
    ) -> list[FoldInPrediction]:
        """Score many users through one call.

        Specs are deduplicated by signature first (a batch of k
        identical specs costs exactly one solve, cache on or off), then
        looked up in the LRU cache in bulk; whatever remains is solved
        in one engine call (one numpy pass over a flat arena, each
        spec's answer independent of the others).  Results fan back out to
        the request order; with the cache enabled, later duplicates of
        a spec solved earlier in the same batch report
        ``from_cache=True`` exactly as they would under one-at-a-time
        ``predict`` calls.
        """
        specs = list(specs)
        if not specs:
            return []
        keys = [(self.artifact_id, spec.signature()) for spec in specs]
        first_occurrence: dict[tuple[str, str], int] = {}
        for index, key in enumerate(keys):
            first_occurrence.setdefault(key, index)
        unique_indices = sorted(first_occurrence.values())
        cached = (
            self.cache.get_many([keys[i] for i in unique_indices])
            if use_cache
            else {}
        )
        miss_indices = [i for i in unique_indices if keys[i] not in cached]
        rendered: dict[tuple[str, str], FoldInPrediction] = {}
        if miss_indices:
            world = self.world
            to_solve = [specs[i] for i in miss_indices]
            solutions = self.engine.solve(to_solve, world)
            with self._lock:
                self.solve_count += len(to_solve)
            for index, solution in zip(miss_indices, solutions):
                rendered[keys[index]] = self._render(solution)
            if use_cache:
                self._cache_put(
                    [
                        (keys[i], rendered[keys[i]], self._spec_tags(specs[i]))
                        for i in miss_indices
                    ],
                    world,
                )
        results: list[FoldInPrediction] = []
        for index, key in enumerate(keys):
            if key in cached:
                results.append(replace(cached[key], from_cache=True))
            elif use_cache and first_occurrence[key] != index:
                results.append(replace(rendered[key], from_cache=True))
            else:
                results.append(rendered[key])
        return results

    def predict_home(self, spec: UserSpec) -> int | None:
        """Just the argmax home location of a folded-in user."""
        return self.predict(spec).home

    def clear_cache(self, reset_stats: bool = True) -> None:
        """Drop every cached prediction, by default zeroing counters too.

        Reload flows (a new artifact generation served behind the same
        ``/healthz``) call this so the reported hit rate describes the
        *current* artifact, not the union of everything ever served;
        pass ``reset_stats=False`` to keep the lifetime counters.
        """
        self.cache.clear()
        if reset_stats:
            self.cache.reset_stats()

    def _check_evidence_world(self, world) -> None:
        """Reject an evidence world this posterior cannot serve against."""
        train_world = self._train_world
        if world.gazetteer is not train_world.gazetteer and (
            world.n_locations != train_world.n_locations
            or world.n_venues != train_world.n_venues
            # Same sizes is not same id space: two regional gazetteers
            # of equal size would silently cross-index the law matrix
            # and psi.  Vocabulary equality pins the venue/location id
            # mapping itself (cheap: a one-time list compare).
            or list(world.gazetteer.venue_vocabulary)
            != list(train_world.gazetteer.venue_vocabulary)
        ):
            raise ValueError(
                "evidence world was built over a different gazetteer "
                "than the fitted result"
            )
        if world.n_users < train_world.n_users:
            raise ValueError(
                f"evidence world has {world.n_users} users but the "
                f"result was trained on {train_world.n_users}; serving "
                "worlds may only grow"
            )

    def attach_world(self, world, invalidate_users=None):
        """RCU reader-side swap: adopt an externally published world.

        The multi-process counterpart of :meth:`refresh`: a *writer*
        applied the delta elsewhere and published the result (e.g.
        through a :class:`~repro.serving.store.WorldStore`); this
        reader only swaps its served world to the new generation.  The
        swap and the cache invalidation happen atomically under the
        predictor lock, exactly like :meth:`refresh`, so the cache
        policy is identical to the single-process path:

        - ``invalidate_users=None`` (provenance unknown -- e.g. the
          reader skipped generations whose metadata is gone) drops the
          whole prediction cache;
        - otherwise only predictions tagged with one of the given
          neighbour ids are invalidated -- pass the union of
          ``label_users`` over every generation being skipped across.

        The kernel-row cache survives either way: frozen posterior
        tables do not depend on the evidence world.  Returns ``world``.
        """
        self._check_evidence_world(world)
        with self._lock:
            self.world = world
            if invalidate_users is None:
                self.cache.clear()
            else:
                users = [int(u) for u in invalidate_users]
                if users:
                    self.cache.invalidate_tags(users)
        return world

    def refresh(self, delta):
        """Apply a :class:`~repro.data.delta.WorldDelta` to the served world.

        Splices the delta into the evidence world in
        O(|delta| + touched rows) and re-attaches it -- no artifact
        reload, no recompile, no cold start.  Returns the new
        :class:`~repro.data.columnar.ColumnarWorld` (its
        ``content_hash`` is the chained ingest hash and ``generation``
        advanced by one).

        Cache policy is surgical, not wholesale: the frozen posterior
        tables are untouched by ingest, so the kernel-row cache stays
        valid verbatim, and only cached predictions *tagged* with a
        label-updated neighbour are invalidated (new users and new
        edges produce new signatures, which miss naturally).
        Concurrent refreshes serialize on the predictor lock, and the
        swap + invalidation happen atomically under it: an in-flight
        solve keeps the world snapshot it started with, and its result
        is cached only if that snapshot is still the served world
        (:meth:`_cache_put`), so a stale prediction can never land
        *after* the invalidation pass.
        """
        from repro.data.delta import apply_delta

        t0 = time.perf_counter()
        with span("ingest.apply"):
            with self._lock:
                new_world = apply_delta(self.world, delta)
                self.world = new_world
                if delta.label_users.size:
                    self.cache.invalidate_tags(
                        int(uid) for uid in delta.label_users
                    )
        INGEST_SECONDS.observe(time.perf_counter() - t0)
        INGEST_DELTAS.inc()
        INGEST_TOUCHED.inc(int(new_world.delta_log[-1].touched_users.size))
        return new_world

    def explain_edge(
        self,
        spec: UserSpec,
        neighbor: int,
        direction: str = "out",
        top: int = 5,
    ) -> FoldInEdgeExplanation:
        """Explain one edge between a folded-in user and a neighbour.

        ``direction="out"`` means the folded-in user follows
        ``neighbor`` (the user is the ``x`` side); ``"in"`` the
        reverse.  Pairs are the top joint assignments of the blocked
        conditional at the solved profile, normalized over the
        location branch.
        """
        if direction not in ("out", "in"):
            raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
        if not 0 <= neighbor < self.world.n_users:
            raise ValueError(f"unknown neighbour user id {neighbor}")
        solution = self.engine.solve([spec])[0]
        cand = solution.candidates
        w = solution.phi + solution.gamma
        total = float(solution.phi.sum()) + float(solution.gamma.sum())
        locs, probs = self._profile_of(neighbor)
        joint = (
            w[:, None] * probs[None, :] * self._law_matrix[np.ix_(cand, locs)]
        )
        joint_sum = float(joint.sum())
        p_loc = (1.0 - self.params.rho_f) * joint_sum / total
        denom = p_loc + self._fr_noise
        noise_probability = self._fr_noise / denom if denom > 0 else 1.0
        pairs: list[EdgeScore] = []
        if joint_sum > 0:
            flat = joint.ravel() / joint_sum
            order = np.argsort(-flat, kind="stable")[:top]
            n_locs = locs.size
            for idx in order.tolist():
                u_loc = int(cand[idx // n_locs])
                nb_loc = int(locs[idx % n_locs])
                x, y = (
                    (u_loc, nb_loc) if direction == "out" else (nb_loc, u_loc)
                )
                pairs.append(
                    EdgeScore(x=x, y=y, probability=float(flat[idx]))
                )
        return FoldInEdgeExplanation(
            neighbor=neighbor,
            direction=direction,
            noise_probability=noise_probability,
            pairs=tuple(pairs),
        )


def prediction_payload(
    prediction: FoldInPrediction, gazetteer, top_k: int = 3
) -> dict:
    """JSON-ready rendering of a prediction (server + CLI share this)."""
    home = prediction.home
    return {
        "home": home,
        "home_name": gazetteer.by_id(home).name if home is not None else None,
        "profile": [
            {
                "location": loc,
                "name": gazetteer.by_id(loc).name,
                "probability": prob,
            }
            for loc, prob in prediction.profile.entries[:top_k]
        ],
        "iterations": prediction.iterations,
        "converged": prediction.converged,
        "cached": prediction.from_cache,
    }
