"""The vectorized Gibbs engine: same chain, precomputed data layout.

A collapsed Gibbs sweep is inherently sequential -- every edge's
conditional depends on the counts left behind by the previous edge, and
the synthetic corpora (like real crawls) list edges grouped by user, so
consecutive edges almost always share an endpoint.  What *can* be
removed from the inner loop is everything that does not depend on the
evolving counts:

- **distance kernels**: the Eq. 1 factor ``beta * d(x, y)**alpha`` over
  an edge's candidate pair grid is constant until the law changes.  The
  loop engine rebuilds it (gather + clamp + pow) for every edge in
  every sweep; this engine evaluates the law once over the full
  distance matrix and caches one ``(|cand_i|, |cand_j|)`` table per
  edge, rebuilding only when :meth:`set_following_law` swaps the law.
- **collapsed-profile arena**: the Eq. 7-9 weight vectors
  ``phi[u, candidates[u]] + gamma[u]`` for *all* users live packed in
  one contiguous arena, refreshed per sweep with a single gather + add
  and then patched scalar-wise as assignments move.  Each patch
  recomputes its cell as ``(count +- 1) + gamma`` -- the exact
  expression the loop engine evaluates -- so the arena stays
  bit-identical to a fresh computation.  Per-edge weight lookups are
  then plain views: no gather, no add, no allocation in the hot loop.
  The arena *skeleton* (slot offsets, gather indices, flat gamma) is
  the shared :meth:`~repro.core.priors.UserPriors.packed` layout,
  built once per priors instance and reused by every chain of a pool
  instead of being reconstructed per fit.
- **tracked assignment positions**: each edge remembers the arena slot
  of its current assignment, so count updates are index arithmetic
  (the inverse-CDF draw index *is* the slot offset) instead of
  location-id lookups.
- **flat tweeting arena**: the collapsed TL counts and their row sums
  share one flat buffer (see
  :meth:`~repro.core.tweeting.CollapsedTweetingModel.repack_flat`), so
  the Eq. 9 numerator and denominator arrive in a single ``take`` with
  per-edge precomputed flat indices.
- **scratch reuse**: joint tables and cumulative sums are views into
  preallocated scratch buffers; per-sweep, user-side counts flow back
  into ``phi`` through one vectorized scatter.

Every arithmetic step mirrors the loop engine op for op (IEEE-754
multiplication is commutative bit-for-bit, elementwise ufuncs are
deterministic, and the RNG is consumed in the identical order), so a
fixed seed yields **bit-identical** states across engines -- the golden
tests assert exactly that.  The price is memory: the kernel cache is
``sum_s |cand_i| * |cand_j|`` doubles (tens of MB at benchmark scale),
which is the documented time-space trade against the loop engine.
"""

from __future__ import annotations

import numpy as np

from repro.core.gibbs import NO_ASSIGNMENT, GibbsSampler


class VectorizedGibbsSampler(GibbsSampler):
    """Drop-in :class:`GibbsSampler` with precomputed sweep layouts.

    Construction, initialization, scheduling and estimation are all
    inherited; only the two sweep kernels are replaced.  The layout is
    built lazily on the first sweep (and the kernel cache refreshed
    whenever the following law changes), so Gibbs-EM refits keep
    working unmodified.

    One contract is stricter than the loop engine's: assignment arrays
    (``state.x`` etc.) must not be mutated externally between sweeps --
    the engine tracks their arena positions incrementally.  Counts may
    be read freely; they are consistent with the assignments whenever
    no sweep is mid-flight.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._layout_ready = False
        self._kernel_law = None
        self._positions_dirty = True
        # Repack the tweeting counts into one flat arena so numerator
        # (counts) and denominator (row totals) reads share one take.
        self._tl_arena = self.tweeting_model.repack_flat()

    def initialize(self) -> None:
        """Reset sampler state; marks cached positions dirty."""
        super().initialize()
        self._positions_dirty = True

    # -- layout ----------------------------------------------------------

    def _build_layout(self) -> None:
        """Static sweep geometry, built per user and per shape.

        The arena skeleton (slot offsets, gather indices, flat gamma)
        is the shared :meth:`~repro.core.priors.UserPriors.packed`
        layout: built once per priors instance and reused by every
        chain of a pool instead of being reconstructed per fit.

        Everything an edge's sweep tuple refers to depends either on
        its users (arena row and column views, candidate lists, slot
        offsets, gamma sums) or on its candidate-set shape (the scratch
        views and their bound ``searchsorted``/``item``), so each is
        built once and shared; an edge tuple only points at them.  The
        tweeting ``tl_idx`` rows are views into one ragged gather.
        ``tests/reference_setup.py::reference_layout`` is the per-edge
        form the tuples must match.
        """
        priors = self.priors
        cands = priors.candidates
        n_loc = self.state.user_counts.phi.shape[1]
        n_ven = self.world.n_venues
        self._n_loc = n_loc
        self._n_ven = n_ven
        self._phi_flat = self.state.user_counts.phi.reshape(-1)

        # Collapsed-profile arena: phi[u, candidates[u]] + gamma[u],
        # packed per user.  _raw_counts mirrors the un-smoothed counts
        # as Python floats so patches can recompute cells exactly.
        pack = priors.packed()
        self._cand_arena = np.empty(pack.total_slots, dtype=np.float64)
        self._arena_src = pack.flat_candidates + n_loc * pack.slot_user
        self._gamma_flat = pack.flat_gamma
        self._gamma_vals = pack.gamma_list
        self._raw_counts: list[float] = []
        offsets = pack.offsets.tolist()
        sizes = np.diff(pack.offsets)
        size_of = sizes.tolist()
        rows = [
            self._cand_arena[a:b] for a, b in zip(offsets, offsets[1:])
        ]
        cols = [row.reshape(row.size, 1) for row in rows]
        cand_lists = [c.tolist() for c in cands]
        gamma_sum = priors.gamma_sum.tolist()

        cmax = max(size_of, default=0)
        pair_sizes = sizes[self._followers] * sizes[self._friends]
        joint_buf = np.empty(int(pair_sizes.max()) if pair_sizes.size else 0)
        w_buf = np.empty(max(cmax, 1))
        nd_buf = np.empty(2 * max(cmax, 1))

        pair_views: dict[tuple[int, int], tuple] = {}
        self._f_edges = f_edges = []
        for i, j in zip(self._followers.tolist(), self._friends.tolist()):
            ni = size_of[i]
            nj = size_of[j]
            views = pair_views.get((ni, nj))
            if views is None:
                npair = ni * nj
                jflat = joint_buf[:npair]
                views = pair_views[ni, nj] = (
                    jflat.reshape(ni, nj),
                    jflat,
                    jflat.searchsorted,
                    jflat.item,
                    nj,
                    npair,
                )
            joint, jflat, cum_search, cum_item, nj, npair = views
            f_edges.append((
                i, j, cols[i], rows[j], joint, jflat, cum_search, cum_item,
                gamma_sum[i], gamma_sum[j], offsets[i], offsets[j],
                cand_lists[i], cand_lists[j], nj, npair,
            ))

        delta = self.tweeting_model.delta
        delta_sum = delta * n_ven
        tl_total_base = n_loc * n_ven  # totals live after phi in the arena
        rho_t = self.params.rho_t
        p_noise = [
            rho_t * p for p in self.random_tweeting.venue_probabilities.tolist()
        ]
        tl_rows = self._tweet_index_rows(pack, sizes, tl_total_base)
        size_views: dict[int, tuple] = {}
        self._t_edges = t_edges = []
        for i, v, tl_idx in zip(
            self._tw_users.tolist(), self._tw_venues.tolist(), tl_rows
        ):
            n = size_of[i]
            views = size_views.get(n)
            if views is None:
                dvec = np.empty(2 * n)
                dvec[:n] = delta
                dvec[n:] = delta_sum
                w = w_buf[:n]
                views = size_views[n] = (
                    w,
                    nd_buf[:2 * n],
                    nd_buf[:n],
                    nd_buf[n:2 * n],
                    dvec,
                    w.searchsorted,
                    w.item,
                )
            w, nd, nd_num, nd_den, dvec, cum_search, cum_item = views
            t_edges.append((
                i, v, rows[i], w, nd, nd_num, nd_den, dvec, tl_idx,
                cum_search, cum_item, gamma_sum[i], p_noise[v], offsets[i],
                cand_lists[i], n,
            ))
        self._layout_ready = True

    def _tweet_index_rows(self, pack, sizes, tl_total_base) -> list:
        """Each mention's ``tl_idx``, as a view into one ragged gather.

        Row ``k`` is ``cand * n_ven + v_k`` followed by ``tl_total_base
        + cand`` over its user's candidates ``cand``: the flat TL-arena
        cells of the Eq. 9 numerators, then of their row totals.
        """
        users = self._tw_users
        # Two segments per mention (numerators, then totals), each one
        # pass over the user's candidate slots in the packed arena.
        seg_len = np.repeat(sizes[users], 2)
        seg_end = np.cumsum(seg_len)
        slot = np.arange(int(seg_end[-1]) if seg_end.size else 0, dtype=np.int64)
        slot += np.repeat(
            np.repeat(pack.offsets[users], 2) - seg_end + seg_len, seg_len
        )
        flat = pack.flat_candidates[slot]
        del slot
        flat *= np.repeat(np.tile([self._n_ven, 1], users.size), seg_len)
        flat += np.repeat(
            np.column_stack(
                [self._tw_venues, np.full(users.size, tl_total_base)]
            ).ravel(),
            seg_len,
        )
        bounds = [0] + seg_end[1::2].tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    def _build_kernels(self) -> None:
        """Per-edge Eq. 1 tables for the current law (law-dependent)."""
        law = self.following_model.law
        # Elementwise ufuncs make law(dmat)[ix] bit-identical to
        # law(dmat[ix]), so one full-matrix evaluation feeds every edge.
        law_matrix = law(self.following_model.distance_matrix)
        cands = self.priors.candidates
        self._f_kernels = [
            law_matrix[cands[int(i)][:, None], cands[int(j)][None, :]]
            for i, j in zip(self._followers, self._friends)
        ]
        self._kernel_law = law

    def _ensure_layout(self) -> None:
        if not self._layout_ready:
            self._build_layout()
        if self._kernel_law is not self.following_model.law:
            self._build_kernels()
        if self._positions_dirty:
            self._rebuild_positions()

    def _rebuild_positions(self) -> None:
        """Map current assignments to arena slots (post-initialize).

        Each edge remembers the arena slot of its current assignment;
        the slot is valid while its selector is on the location branch
        (noise edges carry a placeholder the sweeps never read).
        """
        state = self.state
        pack = self.priors.packed()

        def slots(users, locations, live):
            pos = np.zeros(live.size, dtype=np.int64)
            pos[live] = pack.slot_of(users[live], locations[live], self._n_loc)
            return pos.tolist()

        f_live = state.mu == 0
        self._x_pos = slots(self._followers, state.x, f_live)
        self._y_pos = slots(self._friends, state.y, f_live)
        self._z_pos = slots(self._tw_users, state.z, state.nu == 0)
        self._positions_dirty = False

    def _refresh_arena(self) -> None:
        """Re-gather counts and re-smooth: arena = phi[gather] + gamma."""
        arena = self._cand_arena
        np.take(self._phi_flat, self._arena_src, out=arena)
        self._raw_counts = arena.tolist()
        np.add(arena, self._gamma_flat, out=arena)

    def _flush_phi(self) -> None:
        """Scatter the raw counts back into phi (one write per sweep).

        Assignments are always drawn from candidate sets, so every
        nonzero phi cell has an arena slot; cells outside every
        candidate set stay zero forever.  Patching cells scalar-wise
        during the sweep and scattering once is therefore equivalent to
        the loop engine's per-edge phi writes.
        """
        self._phi_flat[self._arena_src] = np.asarray(self._raw_counts)

    # -- sweeps ----------------------------------------------------------

    def _sweep_following(self) -> int:
        self._ensure_layout()
        self._refresh_arena()
        params = self.params
        rng_random = self.rng.random
        state = self.state
        arena = self._cand_arena
        raw = self._raw_counts
        gvals = self._gamma_vals
        x_pos = self._x_pos
        y_pos = self._y_pos
        totals = state.user_counts.totals
        totals_l = totals.tolist()
        mu_l = state.mu.tolist()
        x_l = state.x.tolist()
        y_l = state.y.tolist()
        p_noise = params.rho_f * self.random_following.probability()
        one_minus_rho = 1.0 - params.rho_f
        kernels = self._f_kernels
        old_mu_arr = state.mu.copy()
        old_x_arr = state.x.copy()
        old_y_arr = state.y.copy()
        np_multiply = np.multiply
        add_reduce = np.add.reduce
        accumulate = np.add.accumulate
        isfinite = np.isfinite

        for s, (i, j, wi_col, wj, joint, jflat,
                cum_search, cum_item, gsi, gsj, off_i, off_j, cil, cjl,
                nj, npair) in enumerate(self._f_edges):
            if mu_l[s] == 0:
                p = x_pos[s]
                count = raw[p] - 1.0
                raw[p] = count
                arena[p] = count + gvals[p]
                totals_l[i] -= 1.0
                p = y_pos[s]
                count = raw[p] - 1.0
                raw[p] = count
                arena[p] = count + gvals[p]
                totals_l[j] -= 1.0

            np_multiply(kernels[s], wj, out=joint)
            np_multiply(joint, wi_col, out=joint)
            joint_sum = float(add_reduce(jflat))

            denom = (totals_l[i] + gsi) * (totals_l[j] + gsj)
            p_location = one_minus_rho * joint_sum / denom

            if rng_random() * (p_noise + p_location) < p_noise:
                mu, new_x, new_y = 1, NO_ASSIGNMENT, NO_ASSIGNMENT
            else:
                mu = 0
                accumulate(jflat, out=jflat)
                total = cum_item(npair - 1)
                if total <= 0.0 or not isfinite(total):
                    raise RuntimeError(
                        "degenerate sampling weights in Gibbs sweep"
                    )
                u = rng_random() * total
                flat = int(cum_search(u, side="right"))
                if flat >= npair:
                    flat = npair - 1
                xi_idx = flat // nj
                yj_idx = flat - xi_idx * nj
                new_x = cil[xi_idx]
                new_y = cjl[yj_idx]
                p = off_i + xi_idx
                x_pos[s] = p
                count = raw[p] + 1.0
                raw[p] = count
                arena[p] = count + gvals[p]
                totals_l[i] += 1.0
                p = off_j + yj_idx
                y_pos[s] = p
                count = raw[p] + 1.0
                raw[p] = count
                arena[p] = count + gvals[p]
                totals_l[j] += 1.0

            mu_l[s] = mu
            x_l[s] = new_x
            y_l[s] = new_y

        self._flush_phi()
        totals[:] = totals_l
        state.mu[:] = mu_l
        state.x[:] = x_l
        state.y[:] = y_l
        return int(
            np.count_nonzero(state.mu != old_mu_arr)
            + np.count_nonzero(state.x != old_x_arr)
            + np.count_nonzero(state.y != old_y_arr)
        )

    def _sweep_tweeting(self) -> int:
        self._ensure_layout()
        self._refresh_arena()
        params = self.params
        rng_random = self.rng.random
        state = self.state
        arena = self._cand_arena
        raw = self._raw_counts
        gvals = self._gamma_vals
        z_pos = self._z_pos
        totals = state.user_counts.totals
        totals_l = totals.tolist()
        nu_l = state.nu.tolist()
        z_l = state.z.tolist()
        tl_arena = self._tl_arena
        tl_take = tl_arena.take
        n_ven = self._n_ven
        tl_total_base = self._n_loc * n_ven
        one_minus_rho = 1.0 - params.rho_t
        old_nu_arr = state.nu.copy()
        old_z_arr = state.z.copy()
        np_add = np.add
        np_divide = np.divide
        np_multiply = np.multiply
        add_reduce = np.add.reduce
        accumulate = np.add.accumulate
        isfinite = np.isfinite

        for k, (i, v, wi, w, nd, nd_num, nd_den, dvec, tl_idx,
                cum_search, cum_item, gsi, p_noise, off_i, cil, n
                ) in enumerate(self._t_edges):
            if nu_l[k] == 0:
                old_z = z_l[k]
                p = z_pos[k]
                count = raw[p] - 1.0
                raw[p] = count
                arena[p] = count + gvals[p]
                totals_l[i] -= 1.0
                cell = tl_arena[old_z * n_ven + v] - 1.0
                tl_arena[old_z * n_ven + v] = cell
                tl_arena[tl_total_base + old_z] -= 1.0
                if cell < -1e-9:
                    raise RuntimeError(
                        "tweeting count went negative -- "
                        "increment/decrement mismatch"
                    )

            tl_take(tl_idx, out=nd)
            np_add(nd, dvec, out=nd)
            np_divide(nd_num, nd_den, out=nd_num)
            np_multiply(wi, nd_num, out=w)
            weight_sum = float(add_reduce(w))

            p_location = one_minus_rho * weight_sum / (totals_l[i] + gsi)

            if rng_random() * (p_noise + p_location) < p_noise:
                nu, new_z = 1, NO_ASSIGNMENT
            else:
                nu = 0
                accumulate(w, out=w)
                total = cum_item(n - 1)
                if total <= 0.0 or not isfinite(total):
                    raise RuntimeError(
                        "degenerate sampling weights in Gibbs sweep"
                    )
                u = rng_random() * total
                flat = int(cum_search(u, side="right"))
                if flat >= n:
                    flat = n - 1
                new_z = cil[flat]
                p = off_i + flat
                z_pos[k] = p
                count = raw[p] + 1.0
                raw[p] = count
                arena[p] = count + gvals[p]
                totals_l[i] += 1.0
                tl_arena[new_z * n_ven + v] += 1.0
                tl_arena[tl_total_base + new_z] += 1.0

            nu_l[k] = nu
            z_l[k] = new_z

        self._flush_phi()
        totals[:] = totals_l
        state.nu[:] = nu_l
        state.z[:] = z_l
        return int(
            np.count_nonzero(state.nu != old_nu_arr)
            + np.count_nonzero(state.z != old_z_arr)
        )
