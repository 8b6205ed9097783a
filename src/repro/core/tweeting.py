"""Tweeting models: location-based TL (Eq. 2, collapsed) and random TR.

TL is a per-location multinomial ``psi_l`` over venue names with a
symmetric Dirichlet(delta) prior.  In the collapsed Gibbs sampler
``psi`` is integrated out, so TL lives as count matrices
``phi_{l,v}`` updated incrementally; this module owns those counts and
the smoothed probability reads of Eq. 6/9.

TR is the empirical random tweeting model of Sec. 4.2:
``p(t<i,j> | TR) = (# mentions of v_j) / K``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.model import Dataset


class CollapsedTweetingModel:
    """TL with psi integrated out: venue-per-location count matrix.

    ``phi[l, v]`` counts location-based (nu=0) tweeting relationships
    currently assigned ``z = l`` with venue ``v``; ``totals[l]`` is the
    row sum.  Reads apply Dirichlet smoothing with the symmetric prior
    ``delta``.
    """

    def __init__(self, n_locations: int, n_venues: int, delta: float):
        if delta <= 0:
            raise ValueError("delta must be positive")
        self._phi = np.zeros((n_locations, n_venues), dtype=np.float64)
        self._totals = np.zeros(n_locations, dtype=np.float64)
        self._delta = delta
        self._delta_sum = delta * n_venues
        self._n_venues = n_venues

    @property
    def delta(self) -> float:
        """The additive smoothing parameter."""
        return self._delta

    def clear(self) -> None:
        """Zero every count in place (views from :meth:`repack_flat`
        stay valid)."""
        self._phi.fill(0.0)
        self._totals.fill(0.0)

    def increment(self, location: int, venue: int) -> None:
        """Add one mention to ``phi[location, venue]``."""
        self._phi[location, venue] += 1.0
        self._totals[location] += 1.0

    def increment_many(self, locations: np.ndarray, venues: np.ndarray) -> None:
        """Add one mention per ``(locations[k], venues[k])`` pair."""
        np.add.at(self._phi, (locations, venues), 1.0)
        np.add.at(self._totals, locations, 1.0)

    def decrement(self, location: int, venue: int) -> None:
        """Remove one mention; raises if a count goes negative."""
        self._phi[location, venue] -= 1.0
        self._totals[location] -= 1.0
        if self._phi[location, venue] < -1e-9 or self._totals[location] < -1e-9:
            raise RuntimeError(
                "tweeting count went negative -- increment/decrement mismatch"
            )

    def probability(self, location: int, venue: int) -> float:
        """Smoothed ``P(v | psi_l)`` -- the TL factor of Eq. 6."""
        return (self._phi[location, venue] + self._delta) / (
            self._totals[location] + self._delta_sum
        )

    def probability_over(self, candidates: np.ndarray, venue: int) -> np.ndarray:
        """``P(v | psi_l)`` for an array of candidate locations (Eq. 9)."""
        return (self._phi[candidates, venue] + self._delta) / (
            self._totals[candidates] + self._delta_sum
        )

    def venue_distribution(self, location: int) -> np.ndarray:
        """The full smoothed multinomial psi_l (used in reports/Fig 3b)."""
        return (self._phi[location] + self._delta) / (
            self._totals[location] + self._delta_sum
        )

    def counts_copy(self) -> np.ndarray:
        """Snapshot of the raw count matrix (tests, diagnostics)."""
        return self._phi.copy()

    def add_counts_into(self, accumulator: np.ndarray) -> None:
        """Accumulate a snapshot: ``accumulator += phi``.

        The venue-side analogue of
        :meth:`~repro.core.state.UserLocationCounts.add_into`; the
        inference driver averages these post-burn-in snapshots into the
        frozen psi table that serving fold-in scores against.
        """
        accumulator += self._phi

    def repack_flat(self) -> np.ndarray:
        """Repack counts into one flat arena ``[phi.ravel() | totals]``.

        The vectorized engine reads the Eq. 9 numerator (``phi[l, v]``)
        and denominator (``totals[l]``) of every candidate location in a
        single gather; backing both with one buffer makes that possible.
        After this call the model's own reads and writes go through
        views of the returned arena, so the two stay coherent whichever
        side mutates.  Current values are preserved; safe to call
        mid-run.
        """
        n_cells = self._phi.size
        arena = np.empty(n_cells + self._totals.size, dtype=np.float64)
        arena[:n_cells] = self._phi.reshape(-1)
        arena[n_cells:] = self._totals
        self._phi = arena[:n_cells].reshape(self._phi.shape)
        self._totals = arena[n_cells:]
        return arena


@dataclass(frozen=True, slots=True)
class RandomTweetingModel:
    """TR -- global venue popularity, learned empirically (Sec. 4.2)."""

    venue_probabilities: np.ndarray

    @classmethod
    def from_world(cls, world) -> "RandomTweetingModel":
        """Build from a compiled :class:`~repro.data.columnar.ColumnarWorld`.

        The world's mention counts are integer-accumulated, so the
        probabilities are bit-identical to the object-graph path.
        """
        return cls._from_counts(world.venue_mention_counts)

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "RandomTweetingModel":
        """Build the noise mention model from dataset counts."""
        return cls._from_counts(dataset.venue_mention_counts)

    @classmethod
    def _from_counts(cls, counts: np.ndarray) -> "RandomTweetingModel":
        total = counts.sum()
        if total == 0:
            # No tweets at all: fall back to uniform so probability()
            # stays well-defined (the tweeting side is then inert).
            probs = np.full_like(counts, 1.0 / max(1, counts.size))
        else:
            # Laplace-smooth so unseen venues keep nonzero random-model
            # mass (a zero here would make nu=1 impossible for them).
            probs = (counts + 1.0) / (total + counts.size)
        return cls(venue_probabilities=probs)

    def probability(self, venue: int) -> float:
        """``p(t<i,j> | TR)`` for venue ``v_j``."""
        return float(self.venue_probabilities[venue])
