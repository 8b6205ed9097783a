"""Partially available supervision: candidacy vectors and gamma priors.

Implements Sec. 4.3 of the paper:

- the **observation vector** ``eta_i`` marks a labeled user's observed
  home location;
- the **boosting matrix** ``Lambda`` (diagonal, as in the paper's
  implementation) converts an observation into a large prior
  pseudo-count for that location;
- the **candidacy vector** ``lambda_i`` restricts each user to the
  locations *observed from their relationships* -- labeled neighbours'
  homes and the referent cities of tweeted venue names -- which both
  matches reality ("92% users whose locations appear in their
  relationships") and makes sampling tractable (Eq. 7-9 only score
  candidate locations);
- the per-user prior ``gamma_i = eta_i x Lambda x gamma + tau * lambda_i``
  (Eq. 3).

The sampler consumes the result in sparse form: per user, an array of
candidate location ids and a parallel array of gamma values.
Construction runs on the shared :class:`~repro.data.columnar.ColumnarWorld`
substrate: the default full-signal candidacy is a precompiled slice,
ablation variants are assembled from the world's CSR tables, and the
packed arena layout the vectorized engine needs is built once per
priors instance (:meth:`UserPriors.packed`) and shared read-only by
every chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.params import MLPParams
from repro.data.columnar import ColumnarWorld, compile_world
from repro.data.model import Dataset


@dataclass(frozen=True, slots=True, eq=False)
class PackedPriors:
    """The priors' flat arena layout, shared read-only across chains.

    ``offsets[u]:offsets[u+1]`` is user ``u``'s slot range in the
    packed candidate arena; ``flat_candidates`` holds the candidate
    location ids slot by slot, ``slot_user`` the owning user of each
    slot, ``flat_gamma`` the parallel gamma values and ``gamma_list``
    their Python-float mirror (the sweep hot loop reads scalars).
    ``gamma_cumsum`` holds each user's ``np.cumsum(gamma[u])`` in the
    user's slot range: the exact cumulative weights the sampler's
    inverse-CDF prior draws search.
    """

    offsets: np.ndarray
    flat_candidates: np.ndarray
    slot_user: np.ndarray
    flat_gamma: np.ndarray
    gamma_list: list[float]
    gamma_cumsum: np.ndarray

    @property
    def total_slots(self) -> int:
        """Total candidate slots across all users."""
        return int(self.offsets[-1])

    def slot_of(
        self, users: np.ndarray, locations: np.ndarray, n_locations: int
    ) -> np.ndarray:
        """Arena slot of each ``(users[k], locations[k])`` pair.

        Every location must be one of its user's candidates.  Users
        ascend through the arena and each user's candidates are
        sorted, so the keys ``user * n_locations + location`` ascend
        with the slot and one search finds every pair.
        """
        keys = self.slot_user * n_locations + self.flat_candidates
        return np.searchsorted(keys, users * n_locations + locations)


@dataclass(frozen=True, slots=True, eq=False)
class UserPriors:
    """Sparse per-user Dirichlet priors over candidate locations.

    ``candidates[i]`` is a sorted array of candidate location ids for
    user ``i``; ``gamma[i]`` is the parallel array of prior values;
    ``gamma_sum[i]`` caches its sum (the denominator of Eq. 7-10).
    """

    candidates: tuple[np.ndarray, ...]
    gamma: tuple[np.ndarray, ...]
    gamma_sum: np.ndarray
    _packed: "PackedPriors | None" = field(
        default=None, init=False, repr=False
    )

    @property
    def n_users(self) -> int:
        """Number of users covered by the priors."""
        return len(self.candidates)

    def candidate_count(self) -> np.ndarray:
        """Number of candidate locations per user."""
        return np.array([c.size for c in self.candidates])

    def home_estimates(self, counts: np.ndarray) -> np.ndarray:
        """Argmax-theta home per user from an ``(N, L)`` count matrix.

        Each user's home is the candidate maximizing
        ``counts[u, c] + gamma[u]`` (Eq. 10's numerator), ties going to
        the first candidate as with ``np.argmax``; one pass over the
        packed arena serves every user.
        """
        pack = self.packed()
        if self.n_users == 0:
            return np.empty(0, dtype=np.int64)
        weights = counts[pack.slot_user, pack.flat_candidates] + pack.flat_gamma
        starts = pack.offsets[:-1]
        best = np.maximum.reduceat(weights, starts)
        slots = np.where(
            weights == best[pack.slot_user],
            np.arange(weights.size),
            weights.size,
        )
        return pack.flat_candidates[np.minimum.reduceat(slots, starts)]

    def packed(self) -> PackedPriors:
        """The flat arena layout, built lazily once and then shared.

        A K-chain pool hands the same ``UserPriors`` to every chain, so
        the vectorized engine's per-fit arena construction collapses to
        one build per priors instance instead of one per sampler.
        """
        if self._packed is None:
            n = self.n_users
            counts = np.fromiter(
                (c.size for c in self.candidates), dtype=np.int64, count=n
            )
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            flat_candidates = (
                np.concatenate(self.candidates)
                if n
                else np.empty(0, dtype=np.int64)
            )
            flat_gamma = (
                np.concatenate(self.gamma) if n else np.empty(0, dtype=np.float64)
            )
            gamma_cumsum = _segment_cumsum(flat_gamma, offsets)
            packed = PackedPriors(
                offsets=offsets,
                flat_candidates=flat_candidates,
                slot_user=np.repeat(np.arange(n, dtype=np.int64), counts),
                flat_gamma=flat_gamma,
                gamma_list=flat_gamma.tolist(),
                gamma_cumsum=gamma_cumsum,
            )
            object.__setattr__(self, "_packed", packed)
        return self._packed


def _segment_cumsum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``np.cumsum`` of each segment ``values[offsets[u]:offsets[u+1]]``.

    A cumulative sum adds left to right, one element at a time; this
    makes the same additions one in-segment position at a time across
    all segments, so every entry carries the bits the per-segment
    ``np.cumsum`` gives (a running sum over the whole array would not).
    """
    out = values.copy()
    sizes = np.diff(offsets)
    order = np.argsort(sizes, kind="stable")
    sorted_sizes = sizes[order]
    sorted_starts = offsets[:-1][order]
    for k in range(1, int(sorted_sizes[-1]) if sizes.size else 0):
        slots = sorted_starts[np.searchsorted(sorted_sizes, k, side="right"):] + k
        out[slots] += out[slots - 1]
    return out


def venue_referent_map(dataset: Dataset) -> dict[int, tuple[int, ...]]:
    """venue id -> location ids the (ambiguous) venue name may refer to."""
    gaz = dataset.gazetteer
    return {
        vid: tuple(loc.location_id for loc in gaz.lookup_name(name))
        for vid, name in enumerate(gaz.venue_vocabulary)
    }


def candidate_locations_for(
    dataset: Dataset,
    user_id: int,
    referents: dict[int, tuple[int, ...]],
    use_following: bool = True,
    use_tweeting: bool = True,
) -> set[int]:
    """The candidacy set lambda_i of one user (Sec. 4.3).

    A location is a candidate iff it is *observed from the user's
    relationships*: a labeled neighbour (friend or follower) registered
    it, or a venue the user tweeted has it among its referent cities.
    The user's own observed location, when present, is always a
    candidate (the boost term of Eq. 3 presumes it is in play).

    This is the object-graph reference implementation;
    :func:`build_user_priors` computes the same sets from the compiled
    world's CSR tables.
    """
    observed = dataset.observed_locations
    candidates: set[int] = set()
    own = observed.get(user_id)
    if own is not None:
        candidates.add(own)
    if use_following:
        for nb in dataset.neighbors_of[user_id]:
            loc = observed.get(nb)
            if loc is not None:
                candidates.add(loc)
    if use_tweeting:
        for vid in set(dataset.venues_of[user_id]):
            candidates.update(referents[vid])
    return candidates


def _variant_candidates(
    world: ColumnarWorld, user_id: int, params: MLPParams
) -> np.ndarray:
    """Candidacy under ablation flags, from the world's CSR tables."""
    observed = world.observed_location
    parts: list[np.ndarray] = []
    own = int(observed[user_id])
    if own >= 0:
        parts.append(np.array([own], dtype=np.int64))
    if params.use_following:
        nbr_obs = observed[world.neighbors_of(user_id)]
        parts.append(nbr_obs[nbr_obs >= 0])
    if params.use_tweeting:
        vids = np.unique(world.venues_of(user_id))
        parts.extend(world.referents_of(int(v)) for v in vids)
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


def build_user_priors(
    dataset: Dataset | ColumnarWorld, params: MLPParams
) -> UserPriors:
    """Build candidacy vectors and gamma_i for every user (Eq. 3).

    For a labeled user the observed home location receives
    ``boost + tau`` prior mass; every other candidate receives ``tau``.
    Users with an empty candidacy set (isolated, no usable signal) fall
    back to the full gazetteer with a flat ``tau`` prior -- the model
    can still place them via whatever relationships they do have.

    Accepts either a :class:`Dataset` (compiled through the memoized
    :func:`~repro.data.columnar.compile_world`) or an
    already-compiled :class:`ColumnarWorld`.  The default full-signal
    parameterization reads the world's precompiled candidate CSR
    directly; ablations recombine the same tables.
    """
    world = compile_world(dataset)
    n_loc = world.n_locations
    all_locations = np.arange(n_loc, dtype=np.int64)
    observed = world.observed_location
    full_signal = params.use_following and params.use_tweeting

    candidates_out: list[np.ndarray] = []
    gamma_out: list[np.ndarray] = []
    sums = np.empty(world.n_users, dtype=np.float64)

    for uid in range(world.n_users):
        if params.use_candidacy:
            cand = (
                world.candidates_of(uid)
                if full_signal
                else _variant_candidates(world, uid, params)
            )
        else:
            cand = np.empty(0, dtype=np.int64)  # ablation: full gazetteer
        if cand.size == 0:
            cand = all_locations
        gamma = np.full(cand.size, params.tau, dtype=np.float64)
        own = int(observed[uid])
        if own >= 0:
            pos = int(np.searchsorted(cand, own))
            # own observed location is guaranteed in cand by construction
            # unless the fallback path was taken; guard either way.
            if pos < cand.size and cand[pos] == own:
                gamma[pos] += params.boost
        candidates_out.append(cand)
        gamma_out.append(gamma)
        sums[uid] = float(gamma.sum())

    return UserPriors(
        candidates=tuple(candidates_out),
        gamma=tuple(gamma_out),
        gamma_sum=sums,
    )
