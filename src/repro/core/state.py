"""Collapsed Gibbs sampler state: assignments and count caches.

The sampler owns five assignment arrays (mu, x, y over following
relationships; nu, z over tweeting relationships -- Table 1's hidden
variables) and the user-side count matrix ``phi_{i,l}`` ("the frequency
that the l-th location has been observed from u_i's location
assignments", Sec. 4.5).  The venue-side counts live in
:class:`repro.core.tweeting.CollapsedTweetingModel`.

Post-burn-in accumulators support the two outputs: summed phi snapshots
for theta estimation (Eq. 10 over averaged counts) and per-edge
assignment tallies for relationship explanation.
"""

from __future__ import annotations

import numpy as np


class UserLocationCounts:
    """``phi_{i,l}``: per-user location-assignment counts, dense.

    Dense ``(N, L)`` float64 is the simplest structure that supports the
    sampler's random-access increment/decrement and vectorized candidate
    reads; at the scales this reproduction runs (N, L in the low
    thousands) it is a few tens of megabytes at most.
    """

    def __init__(self, n_users: int, n_locations: int):
        #: Raw count matrix; the sampler's hot loop reads and writes it
        #: directly (documented public access, no copies).
        self.phi = np.zeros((n_users, n_locations), dtype=np.float64)
        #: Row sums of ``phi``.
        self.totals = np.zeros(n_users, dtype=np.float64)

    def clear(self) -> None:
        """Zero every count in place (views of ``phi`` stay valid)."""
        self.phi.fill(0.0)
        self.totals.fill(0.0)

    def increment(self, user: int, location: int) -> None:
        """Add one assignment to ``phi[user, location]``."""
        self.phi[user, location] += 1.0
        self.totals[user] += 1.0

    def increment_many(self, users: np.ndarray, locations: np.ndarray) -> None:
        """Add one assignment per ``(users[k], locations[k])`` pair."""
        np.add.at(self.phi, (users, locations), 1.0)
        np.add.at(self.totals, users, 1.0)

    def decrement(self, user: int, location: int) -> None:
        """Remove one assignment; raises if a count goes negative."""
        self.phi[user, location] -= 1.0
        self.totals[user] -= 1.0
        if self.phi[user, location] < -1e-9:
            raise RuntimeError(
                "user location count went negative -- "
                "increment/decrement mismatch"
            )

    def counts_over(self, user: int, candidates: np.ndarray) -> np.ndarray:
        """``phi_{i,l}`` for an array of candidate locations."""
        return self.phi[user, candidates]

    def total(self, user: int) -> float:
        """``phi_i`` -- total number of the user's assignments."""
        return float(self.totals[user])

    def row(self, user: int) -> np.ndarray:
        """Copy of the user's full count row (diagnostics)."""
        return self.phi[user].copy()

    def add_into(self, accumulator: np.ndarray) -> None:
        """Accumulate a snapshot: ``accumulator += phi`` (theta averaging)."""
        accumulator += self.phi


class EdgeAssignmentTally:
    """Post-burn-in tallies of per-edge assignments and noise selections.

    For following edge ``s`` we tally the sampled pair ``(x_s, y_s)``;
    for tweeting edge ``k`` the sampled ``z_k``; for both, how often the
    random model was selected.  Modes of these tallies become the
    relationship explanations.
    """

    def __init__(self, n_following: int, n_tweeting: int):
        self._xy: list[dict[tuple[int, int], int]] = [
            {} for _ in range(n_following)
        ]
        self._z: list[dict[int, int]] = [{} for _ in range(n_tweeting)]
        self._mu_noise = np.zeros(n_following, dtype=np.int64)
        self._nu_noise = np.zeros(n_tweeting, dtype=np.int64)
        self._samples = 0

    @property
    def n_samples(self) -> int:
        """Number of post-burn-in snapshots recorded."""
        return self._samples

    def record_iteration(
        self,
        mu: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        nu: np.ndarray,
        z: np.ndarray,
    ) -> None:
        """Record one post-burn-in sweep (noise samples carry no x/y/z)."""
        for s in range(len(x)):
            if mu[s] == 1:
                continue
            key = (int(x[s]), int(y[s]))
            tally = self._xy[s]
            tally[key] = tally.get(key, 0) + 1
        self._mu_noise += mu.astype(np.int64)
        for k in range(len(z)):
            if nu[k] == 1:
                continue
            zk = int(z[k])
            tally_z = self._z[k]
            tally_z[zk] = tally_z.get(zk, 0) + 1
        self._nu_noise += nu.astype(np.int64)
        self._samples += 1

    def copy(self) -> "EdgeAssignmentTally":
        """Deep copy (starting point for cross-chain merges)."""
        clone = EdgeAssignmentTally(len(self._xy), len(self._z))
        clone._xy = [dict(t) for t in self._xy]
        clone._z = [dict(t) for t in self._z]
        clone._mu_noise = self._mu_noise.copy()
        clone._nu_noise = self._nu_noise.copy()
        clone._samples = self._samples
        return clone

    def merge(self, other: "EdgeAssignmentTally") -> None:
        """Accumulate another tally over the same edges (chain pooling).

        Sample counts add, so modal explanations and noise
        probabilities are computed as if both chains' post-burn-in
        sweeps had been recorded into one tally.
        """
        if len(self._xy) != len(other._xy) or len(self._z) != len(other._z):
            raise ValueError("tallies cover different edge sets")
        for mine, theirs in zip(self._xy, other._xy):
            for key, count in theirs.items():
                mine[key] = mine.get(key, 0) + count
        for mine_z, theirs_z in zip(self._z, other._z):
            for z, count in theirs_z.items():
                mine_z[z] = mine_z.get(z, 0) + count
        self._mu_noise += other._mu_noise
        self._nu_noise += other._nu_noise
        self._samples += other._samples

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten the tally into plain arrays (serving artifact hook).

        Following tallies become parallel ``(edge, x, y, count)``
        columns, tweeting tallies ``(edge, z, count)`` columns, both in
        deterministic (edge, key) order; scalars ride in 1-element
        arrays.  :meth:`from_arrays` inverts this exactly.
        """
        f_edge, f_x, f_y, f_count = [], [], [], []
        for s, tally in enumerate(self._xy):
            for (x, y), count in sorted(tally.items()):
                f_edge.append(s)
                f_x.append(x)
                f_y.append(y)
                f_count.append(count)
        z_edge, z_z, z_count = [], [], []
        for k, tally_z in enumerate(self._z):
            for z, count in sorted(tally_z.items()):
                z_edge.append(k)
                z_z.append(z)
                z_count.append(count)
        return {
            "f_edge": np.array(f_edge, dtype=np.int64),
            "f_x": np.array(f_x, dtype=np.int64),
            "f_y": np.array(f_y, dtype=np.int64),
            "f_count": np.array(f_count, dtype=np.int64),
            "z_edge": np.array(z_edge, dtype=np.int64),
            "z_z": np.array(z_z, dtype=np.int64),
            "z_count": np.array(z_count, dtype=np.int64),
            "mu_noise": self._mu_noise.copy(),
            "nu_noise": self._nu_noise.copy(),
            "samples": np.array([self._samples], dtype=np.int64),
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "EdgeAssignmentTally":
        """Rebuild a tally from :meth:`to_arrays` output."""
        tally = cls(len(arrays["mu_noise"]), len(arrays["nu_noise"]))
        for s, x, y, count in zip(
            arrays["f_edge"].tolist(),
            arrays["f_x"].tolist(),
            arrays["f_y"].tolist(),
            arrays["f_count"].tolist(),
        ):
            tally._xy[s][(x, y)] = count
        for k, z, count in zip(
            arrays["z_edge"].tolist(),
            arrays["z_z"].tolist(),
            arrays["z_count"].tolist(),
        ):
            tally._z[k][z] = count
        tally._mu_noise = arrays["mu_noise"].astype(np.int64).copy()
        tally._nu_noise = arrays["nu_noise"].astype(np.int64).copy()
        tally._samples = int(arrays["samples"][0])
        return tally

    def modal_following(
        self, edge_index: int
    ) -> tuple[int, int, float] | None:
        """Modal ``(x, y)`` pair and its support fraction for an edge.

        ``None`` when the edge was noise-selected in every sample.
        """
        if self._samples == 0:
            raise ValueError("no samples recorded")
        tally = self._xy[edge_index]
        if not tally:
            return None
        (x, y), count = max(
            tally.items(), key=lambda kv: (kv[1], -kv[0][0], -kv[0][1])
        )
        return x, y, count / self._samples

    def modal_tweeting(self, edge_index: int) -> tuple[int, float] | None:
        """Modal ``z`` and its support fraction for a tweeting edge.

        ``None`` when the mention was noise-selected in every sample.
        """
        if self._samples == 0:
            raise ValueError("no samples recorded")
        tally = self._z[edge_index]
        if not tally:
            return None
        z, count = max(tally.items(), key=lambda kv: (kv[1], -kv[0]))
        return z, count / self._samples

    def noise_probability_following(self, edge_index: int) -> float:
        """Posterior noise probability of one following edge."""
        if self._samples == 0:
            raise ValueError("no samples recorded")
        return float(self._mu_noise[edge_index]) / self._samples

    def noise_probability_tweeting(self, edge_index: int) -> float:
        """Posterior noise probability of one tweeting edge."""
        if self._samples == 0:
            raise ValueError("no samples recorded")
        return float(self._nu_noise[edge_index]) / self._samples


class GibbsState:
    """All mutable sampler state for one fit.

    Assignment arrays are allocated here but *initialized* by the
    sampler (it draws them from the priors); counts start at zero and
    are filled by the initialization pass.
    """

    def __init__(
        self,
        n_users: int,
        n_locations: int,
        n_following: int,
        n_tweeting: int,
        track_edges: bool,
    ):
        s = n_following
        k = n_tweeting
        self.mu = np.zeros(s, dtype=np.int8)
        self.x = np.full(s, -1, dtype=np.int64)
        self.y = np.full(s, -1, dtype=np.int64)
        self.nu = np.zeros(k, dtype=np.int8)
        self.z = np.full(k, -1, dtype=np.int64)
        self.user_counts = UserLocationCounts(n_users, n_locations)
        self.theta_accumulator = np.zeros(
            (n_users, n_locations), dtype=np.float64
        )
        self.theta_samples = 0
        self.edge_tally = (
            EdgeAssignmentTally(s, k) if track_edges else None
        )

    def accumulate_theta_snapshot(self) -> None:
        """Add the current phi counts into the theta accumulator."""
        self.user_counts.add_into(self.theta_accumulator)
        self.theta_samples += 1

    def record_edge_snapshot(self) -> None:
        """Tally the current assignments (post-burn-in only)."""
        if self.edge_tally is not None:
            self.edge_tally.record_iteration(
                self.mu, self.x, self.y, self.nu, self.z
            )

    def mean_theta_counts(self) -> np.ndarray:
        """Averaged phi over recorded snapshots (input to Eq. 10)."""
        if self.theta_samples == 0:
            raise RuntimeError("no theta snapshots recorded")
        return self.theta_accumulator / self.theta_samples
