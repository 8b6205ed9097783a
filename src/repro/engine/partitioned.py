"""The partitioned Gibbs engine: conflict-free parallel block sweeps.

The loop and vectorized engines honor a bit-identity chain contract --
every edge's conditional sees the counts left behind by the previous
edge -- which caps them at per-edge speed (docs/PERFORMANCE.md: ~3x
single-core is the structural ceiling).  This engine trades that
contract for set-at-a-time execution:

1. the user-conflict graph is greedy-colored once per fit
   (:mod:`repro.engine.partition`): users sharing a following edge
   never share a color;
2. a sweep processes colors sequentially.  Within one color, *every*
   relationship conditional is a function of state frozen at color
   start (a proper coloring guarantees no same-color user's own
   ``phi`` row is written by another same-color user's block), so the
   whole color collapses into flat segment kernels;
3. count updates are deferred to the color barrier and applied in
   deterministic edge order.  Shared-friend ``phi`` rows and the
   venue-count (TL) arena are therefore read as of color start -- the
   two documented relaxations of exactness (see
   :mod:`repro.engine.partition`);
4. with ``MLPParams.n_jobs > 1`` each color's edge range is split into
   contiguous chunks swept by a thread pool.  The large-array NumPy
   kernels release the GIL, chunk boundaries never split a segment,
   and all writes happen at the barrier, so results are **independent
   of n_jobs** -- parallelism changes wall time, never the chain.

The following sweep never materializes the |cand_i| x |cand_j|
candidate-pair arena the vectorized engine walks edge by edge.  The
Eq. 5 location mass factors::

    sum_xy wi[x] * wj[y] * L[x, y]  =  sum_x wi[x] * (L @ wj)[x]

so a single BLAS GEMM ``H = W @ L`` (``W`` = dense candidate-weight
rows, ``L`` = the symmetric power-law kernel over the gazetteer) turns
the per-edge pair sum into an O(|cand_i|) dot product.  ``H`` rows are
cached per *user* across colors and sweeps; a dirty-row set tracks
which ``phi`` rows changed at any barrier, and each color re-GEMMs
only its friends' stale rows, so GEMM work scales with state churn
rather than with edges-times-colors.  The "-1" own-contribution
exclusion folds in exactly: subtracting this edge's assignment from
``wj`` shifts ``(L @ wj)[x]`` by ``-L[x, y_old]``, a rank-one
correction applied per stale edge.  The joint ``(x, y)`` draw then
proceeds in two exact stages -- ``x`` from its marginal
``wi[x] * t[x]``, ``y`` from the conditional ``L[x, cand_j] * wj`` --
which realizes the same joint distribution as the pairwise inverse-CDF
draw while consuming three pool uniforms per relationship (selector,
x, y) instead of two.

Randomness is drawn as one flat pool per sweep phase (three uniforms
per following relationship, two per tweeting one, consumed by edge
id), so the chain is deterministic given ``seed`` regardless of color
count, chunking or thread scheduling.  The chain it realizes is
*statistically* equivalent to the exact engines -- R-hat,
posterior-summary and predicted-home agreement tests quantify the
approximation -- but not bit-identical, with one exception: a world
whose conflict graph is edgeless (e.g. the MLP_C ablation: no
following edges) colors to a single block, and the engine then runs
the inherited exact vectorized sweeps unchanged.  That golden
cross-check anchors the relaxed engine to the oracle at small scale.

Index arenas use ``int32`` wherever the addressed range allows
(candidate-copy slots, ``phi``/``H`` cells): those arenas are the
dominant static allocation at scale and halving their width is part of
the dtype audit that lets 500k-user fits stay in memory.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.core.gibbs import NO_ASSIGNMENT
from repro.engine.partition import UserPartition, color_users
from repro.engine.vectorized import VectorizedGibbsSampler
from repro.obs.hooks import partition_observer


def _indptr(lengths: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: segment lengths -> CSR-style offsets."""
    out = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(start, start + length)`` per segment."""
    indptr = _indptr(lengths)
    total = int(indptr[-1])
    out = np.arange(total, dtype=np.int64)
    out -= np.repeat(indptr[:-1], lengths)
    out += np.repeat(starts, lengths)
    return out


def _balanced_bounds(weights: np.ndarray, parts: int) -> list[tuple[int, int]]:
    """Split ``range(len(weights))`` into <= ``parts`` contiguous runs
    of roughly equal total weight (never splitting an element)."""
    n = weights.size
    if n == 0:
        return []
    parts = max(1, min(parts, n))
    cum = np.cumsum(weights, dtype=np.float64)
    targets = cum[-1] * (np.arange(1, parts) / parts)
    cuts = np.searchsorted(cum, targets, side="left") + 1
    bounds = np.unique(np.concatenate(([0], cuts, [n])))
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


class _FollowBlock:
    """Static geometry of one (color, chunk) run of following edges."""

    __slots__ = (
        "eids", "i", "j", "gamma_sum_i", "gamma_sum_j", "ni", "nj",
        "wi_indptr", "wj_indptr", "src_i", "src_j",
        "phi_src_i", "phi_src_j", "h_src",
    )


class _TweetBlock:
    """Static geometry of one (color, chunk) run of tweeting edges."""

    __slots__ = (
        "kids", "i", "gamma_sum", "indptr", "phi_src", "gamma",
        "cand", "tl_num", "tl_den", "p_noise",
    )


class PartitionedGibbsSampler(VectorizedGibbsSampler):
    """Color-parallel :class:`~repro.core.gibbs.GibbsSampler` drop-in.

    Construction, initialization, scheduling and estimation are
    inherited; the two sweep kernels batch whole conflict-free colors.
    When the conflict graph is edgeless (one color) the engine
    delegates to the inherited exact vectorized sweeps, reproducing the
    oracle chain bit-for-bit.  The externally visible state contract
    matches the vectorized engine: counts and assignments are coherent
    between sweeps; assignment arrays must not be mutated externally.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._n_jobs = max(1, int(getattr(self.params, "n_jobs", 1)))
        self._part: UserPartition | None = None
        self._part_layout_ready = False
        self._part_kernel_law = None
        self._ppos_dirty = True
        self._pexecutor = None
        self._h_all: np.ndarray | None = None

    # -- partition ------------------------------------------------------

    @property
    def partition(self) -> UserPartition:
        """The user coloring (built lazily, once per sampler)."""
        if self._part is None:
            self._part = color_users(
                self.world.n_users, self._followers, self._friends
            )
        return self._part

    @property
    def delegates_to_exact(self) -> bool:
        """True when the 1-color fallback runs the exact chain."""
        return self.partition.n_colors == 1

    def initialize(self) -> None:
        """Reset sampler state; marks packed positions dirty."""
        super().initialize()
        self._ppos_dirty = True
        if self._h_all is not None:
            self._h_dirty[:] = True

    def close(self) -> None:
        """Release worker threads (idempotent; also runs on GC)."""
        if self._pexecutor is not None:
            self._pexecutor.shutdown(wait=False)
            self._pexecutor = None

    def __del__(self):  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    @property
    def _pool(self):
        if self._pexecutor is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pexecutor = ThreadPoolExecutor(
                max_workers=self._n_jobs, thread_name_prefix="gibbs-part"
            )
        return self._pexecutor

    # -- layout ---------------------------------------------------------

    def _ensure_partition_layout(self) -> None:
        if not self._part_layout_ready:
            self._build_partition_layout()
        if self._part_kernel_law is not self.following_model.law:
            self._build_partition_kernels()
        if self._ppos_dirty:
            self._rebuild_partition_positions()

    def _build_partition_layout(self) -> None:
        """Per-(color, chunk) static index arenas for both sweep phases."""
        if len(self._followers) and bool(
            np.any(self._followers == self._friends)
        ):
            # The per-edge weight copies assume the two endpoints are
            # distinct users (the generators never emit self-follows,
            # but from_edge_arrays worlds could).
            raise ValueError(
                "engine=partitioned does not support self-follow edges; "
                "use engine=vectorized for such worlds"
            )
        part = self.partition
        pack = self.priors.packed()
        self._poffsets = pack.offsets
        self._pcounts = np.diff(pack.offsets)
        self._pflat_cand = pack.flat_candidates
        self._pflat_gamma = pack.flat_gamma
        self._pn_loc = self.state.user_counts.phi.shape[1]
        self._pn_ven = self.world.n_venues
        self._pphi_flat = self.state.user_counts.phi.reshape(-1)
        # Candidate-slot / phi-cell / H-cell indices fit int32 for any
        # world below ~4B cells; fall back to int64 past that.
        self._pidx_t = (
            np.int32
            if max(
                self._pflat_cand.size,
                self.world.n_users * self._pn_loc,
            ) < 2**31
            else np.int64
        )
        self._x_idx = np.full(len(self._followers), -1, dtype=np.int32)
        self._y_idx = np.full(len(self._followers), -1, dtype=np.int32)
        self._z_idx = np.full(len(self._tw_users), -1, dtype=np.int32)

        colors = part.colors
        if len(self._followers):
            # The per-user H = W @ L cache behind the GEMM follow sweep,
            # plus the stale-row set driving incremental refresh.
            self._h_all = np.zeros(
                (self.world.n_users, self._pn_loc), dtype=np.float64
            )
            self._h_flat = self._h_all.reshape(-1)
            self._h_dirty = np.ones(self.world.n_users, dtype=bool)
            ecolor = colors[self._followers]
            self._f_color_friends = [
                np.unique(self._friends[ecolor == c])
                for c in range(part.n_colors)
            ]
        else:
            self._f_color_friends = [
                np.empty(0, dtype=np.int64) for _ in range(part.n_colors)
            ]
        self._f_color_blocks = self._grouped_blocks(
            colors, self._followers, part.n_colors,
            self._pcounts[self._followers] + self._pcounts[self._friends]
            if len(self._followers) else np.empty(0, dtype=np.int64),
            self._build_follow_block,
        )
        self._t_color_blocks = self._grouped_blocks(
            colors, self._tw_users, part.n_colors,
            self._pcounts[self._tw_users]
            if len(self._tw_users) else np.empty(0, dtype=np.int64),
            self._build_tweet_block,
        )
        self._part_layout_ready = True

    def _grouped_blocks(self, colors, owners, n_colors, work, build):
        """Group edges by owner color, chunk each color by ``work``."""
        per_color: list[list] = [[] for _ in range(n_colors)]
        if len(owners) == 0:
            return per_color
        ecolor = colors[owners]
        order = np.argsort(ecolor, kind="stable")
        bounds = np.searchsorted(
            ecolor[order], np.arange(n_colors + 1), side="left"
        )
        for c in range(n_colors):
            eids = order[bounds[c]:bounds[c + 1]]
            if eids.size == 0:
                continue
            for lo, hi in _balanced_bounds(work[eids], self._n_jobs):
                per_color[c].append(build(eids[lo:hi]))
        return per_color

    def _build_follow_block(self, eids: np.ndarray) -> _FollowBlock:
        offsets, counts = self._poffsets, self._pcounts
        n_loc = self._pn_loc
        idx_t = self._pidx_t
        b = _FollowBlock()
        b.eids = eids
        i = self._followers[eids]
        j = self._friends[eids]
        b.i, b.j = i, j
        b.gamma_sum_i = self.priors.gamma_sum[i]
        b.gamma_sum_j = self.priors.gamma_sum[j]
        ni, nj = counts[i], counts[j]
        b.ni, b.nj = ni, nj
        b.wi_indptr = _indptr(ni)
        b.wj_indptr = _indptr(nj)
        src_i = _ragged_arange(offsets[i], ni)
        src_j = _ragged_arange(offsets[j], nj)
        cand_i = self._pflat_cand[src_i]
        cand_j = self._pflat_cand[src_j]
        b.src_i = src_i.astype(idx_t)
        b.src_j = src_j.astype(idx_t)
        b.phi_src_i = (np.repeat(i, ni) * n_loc + cand_i).astype(idx_t)
        b.phi_src_j = (np.repeat(j, nj) * n_loc + cand_j).astype(idx_t)
        b.h_src = (np.repeat(j, ni) * n_loc + cand_i).astype(idx_t)
        return b

    def _build_tweet_block(self, kids: np.ndarray) -> _TweetBlock:
        offsets, counts = self._poffsets, self._pcounts
        n_loc, n_ven = self._pn_loc, self._pn_ven
        b = _TweetBlock()
        b.kids = kids
        i = self._tw_users[kids]
        v = self._tw_venues[kids]
        b.i = i
        b.gamma_sum = self.priors.gamma_sum[i]
        n = counts[i]
        b.indptr = _indptr(n)
        src = _ragged_arange(offsets[i], n)
        b.cand = self._pflat_cand[src]
        b.gamma = self._pflat_gamma[src]
        b.phi_src = np.repeat(i, n) * n_loc + b.cand
        v_rep = np.repeat(v, n)
        b.tl_num = b.cand * n_ven + v_rep
        b.tl_den = n_loc * n_ven + b.cand
        b.p_noise = self.params.rho_t * (
            self.random_tweeting.venue_probabilities[v]
        )
        return b

    def _build_partition_kernels(self) -> None:
        """Refresh the dense Eq. 1 kernel for the current law."""
        law = self.following_model.law
        self._plaw_matrix = np.ascontiguousarray(
            law(self.following_model.distance_matrix), dtype=np.float64
        )
        self._plaw_flat = self._plaw_matrix.reshape(-1)
        if self._h_all is not None:
            self._h_dirty[:] = True
        self._part_kernel_law = law

    def _rebuild_partition_positions(self) -> None:
        """Candidate-list index of every live assignment (post-init)."""
        state = self.state
        pack = self.priors.packed()
        n_loc = self.world.n_locations

        def fill(index, users, locations, live):
            users = users[live]
            slots = pack.slot_of(users, locations[live], n_loc)
            index[live] = slots - pack.offsets[users]

        f_live = state.mu == 0
        fill(self._x_idx, self._followers, state.x, f_live)
        fill(self._y_idx, self._friends, state.y, f_live)
        fill(self._z_idx, self._tw_users, state.z, state.nu == 0)
        self._ppos_dirty = False

    # -- H cache --------------------------------------------------------

    def _refresh_h(self, users: np.ndarray) -> None:
        """Re-GEMM the stale rows of ``H = W @ L`` among ``users``.

        Runs at color start, so the refreshed rows capture exactly the
        frozen-color ``phi`` state every same-color conditional reads.
        """
        rows = users[self._h_dirty[users]]
        if rows.size == 0:
            return
        n_loc = self._pn_loc
        cnt = self._pcounts[rows]
        src = _ragged_arange(self._poffsets[rows], cnt)
        cand = self._pflat_cand[src]
        w = np.zeros((rows.size, n_loc), dtype=np.float64)
        w[np.repeat(np.arange(rows.size), cnt), cand] = (
            self._pphi_flat[np.repeat(rows, cnt) * n_loc + cand]
            + self._pflat_gamma[src]
        )
        self._h_all[rows] = w @ self._plaw_matrix
        self._h_dirty[rows] = False

    # -- block kernels --------------------------------------------------

    def _follow_block_draw(self, b: _FollowBlock, u, p_noise, one_minus_rho):
        """Draw new (mu, x, y) for one block against frozen color state."""
        t0 = time.perf_counter()
        phi_flat = self._pphi_flat
        flat_cand = self._pflat_cand
        flat_gamma = self._pflat_gamma
        law_flat = self._plaw_flat
        totals = self.state.user_counts.totals
        state = self.state
        n_loc = self._pn_loc
        n_edges = b.eids.size

        wi = phi_flat[b.phi_src_i] + flat_gamma[b.src_i]
        t = self._h_flat[b.h_src]
        mu0 = state.mu[b.eids] == 0
        dec = np.flatnonzero(mu0)
        if dec.size:
            # Exclude each edge's own contribution ("-1"): a unit off
            # wi at the x slot, and the rank-one shift -L[x, y_old]
            # across the whole t segment (== removing one unit of wj at
            # y_old from the cached friend row).
            wi[b.wi_indptr[:-1][dec] + self._x_idx[b.eids[dec]]] -= 1.0
            slots = _ragged_arange(b.wi_indptr[:-1][dec], b.ni[dec])
            ci = flat_cand[b.src_i[slots]]
            y_rep = np.repeat(state.y[b.eids[dec]], b.ni[dec])
            t[slots] -= law_flat[ci * n_loc + y_rep]
        ti = totals[b.i] - mu0
        tj = totals[b.j] - mu0

        g = wi * t
        seg_sum = np.add.reduceat(g, b.wi_indptr[:-1])
        denom = (ti + b.gamma_sum_i) * (tj + b.gamma_sum_j)
        p_location = one_minus_rho * seg_sum / denom

        u1 = u[3 * b.eids]
        u2 = u[3 * b.eids + 1]
        u3 = u[3 * b.eids + 2]
        noise = u1 * (p_noise + p_location) < p_noise

        new_mu = np.ones(n_edges, dtype=np.int8)
        new_x = np.full(n_edges, NO_ASSIGNMENT, dtype=np.int64)
        new_y = np.full(n_edges, NO_ASSIGNMENT, dtype=np.int64)
        new_xi = np.full(n_edges, -1, dtype=np.int32)
        new_yi = np.full(n_edges, -1, dtype=np.int32)
        sel = np.flatnonzero(~noise)
        if sel.size:
            if not np.all(np.isfinite(seg_sum[sel])) or np.any(
                seg_sum[sel] <= 0.0
            ):
                raise RuntimeError("degenerate sampling weights in Gibbs sweep")
            # Stage 1: x from its marginal wi[x] * t[x] over cand_i.
            nis = b.ni[sel]
            isel = _indptr(nis)
            gsel = g[_ragged_arange(b.wi_indptr[:-1][sel], nis)]
            cum = np.cumsum(gsel)
            base = np.concatenate(([0.0], cum))[isel[:-1]]
            tot = cum[isel[1:] - 1] - base
            flat = np.searchsorted(cum, base + u2[sel] * tot, side="right")
            flat = np.minimum(flat, isel[1:] - 1)
            row = flat - isel[:-1]
            win = b.wi_indptr[:-1][sel] + row
            xs = flat_cand[b.src_i[win]]
            new_mu[sel] = 0
            new_xi[sel] = row
            new_x[sel] = xs
            # Stage 2: y | x from L[x, cand_j] * wj over cand_j.  The
            # same joint as the pairwise draw, by the chain rule.
            njs = b.nj[sel]
            jsel = _indptr(njs)
            slots_j = _ragged_arange(b.wj_indptr[:-1][sel], njs)
            src_j = b.src_j[slots_j]
            wjs = phi_flat[b.phi_src_j[slots_j]] + flat_gamma[src_j]
            seldec = np.flatnonzero(mu0[sel])
            if seldec.size:
                wjs[
                    jsel[:-1][seldec]
                    + self._y_idx[b.eids[sel[seldec]]]
                ] -= 1.0
            cj = flat_cand[src_j]
            wy = law_flat[np.repeat(xs, njs) * n_loc + cj]
            wy *= wjs
            cum2 = np.cumsum(wy)
            base2 = np.concatenate(([0.0], cum2))[jsel[:-1]]
            tot2 = cum2[jsel[1:] - 1] - base2
            flat2 = np.searchsorted(cum2, base2 + u3[sel] * tot2, side="right")
            flat2 = np.minimum(flat2, jsel[1:] - 1)
            new_yi[sel] = flat2 - jsel[:-1]
            new_y[sel] = cj[flat2]
        return time.perf_counter() - t0, (new_mu, new_x, new_y, new_xi, new_yi)

    def _apply_follow_result(self, b: _FollowBlock, result) -> None:
        """Deferred barrier merge: deterministic, main-thread only."""
        new_mu, new_x, new_y, new_xi, new_yi = result
        phi_flat = self._pphi_flat
        totals = self.state.user_counts.totals
        state = self.state
        n_loc = self._pn_loc
        eids = b.eids
        old_mu = state.mu[eids]
        old_x = state.x[eids]
        old_y = state.y[eids]
        dec = np.flatnonzero(old_mu == 0)
        if dec.size:
            np.subtract.at(phi_flat, b.i[dec] * n_loc + old_x[dec], 1.0)
            np.subtract.at(phi_flat, b.j[dec] * n_loc + old_y[dec], 1.0)
            np.subtract.at(totals, b.i[dec], 1.0)
            np.subtract.at(totals, b.j[dec], 1.0)
            self._h_dirty[b.i[dec]] = True
            self._h_dirty[b.j[dec]] = True
        inc = np.flatnonzero(new_mu == 0)
        if inc.size:
            np.add.at(phi_flat, b.i[inc] * n_loc + new_x[inc], 1.0)
            np.add.at(phi_flat, b.j[inc] * n_loc + new_y[inc], 1.0)
            np.add.at(totals, b.i[inc], 1.0)
            np.add.at(totals, b.j[inc], 1.0)
            self._h_dirty[b.i[inc]] = True
            self._h_dirty[b.j[inc]] = True
        state.mu[eids] = new_mu
        state.x[eids] = new_x
        state.y[eids] = new_y
        self._x_idx[eids] = new_xi
        self._y_idx[eids] = new_yi

    def _tweet_block_draw(self, b: _TweetBlock, u, one_minus_rho):
        """Draw new (nu, z) for one block against frozen color state."""
        t0 = time.perf_counter()
        phi_flat = self._pphi_flat
        totals = self.state.user_counts.totals
        state = self.state
        tl = self._tl_arena
        delta = self.tweeting_model.delta
        delta_sum = delta * self._pn_ven
        n_edges = b.kids.size

        wi = phi_flat[b.phi_src] + b.gamma
        num = tl[b.tl_num] + delta
        den = tl[b.tl_den] + delta_sum
        nu0 = state.nu[b.kids] == 0
        dec = np.flatnonzero(nu0)
        if dec.size:
            slots = b.indptr[:-1][dec] + self._z_idx[b.kids[dec]]
            wi[slots] -= 1.0
            num[slots] -= 1.0
            den[slots] -= 1.0
        ti = totals[b.i] - nu0

        w = wi * num
        w /= den
        seg_sum = np.add.reduceat(w, b.indptr[:-1])
        p_location = one_minus_rho * seg_sum / (ti + b.gamma_sum)

        u1 = u[2 * b.kids]
        u2 = u[2 * b.kids + 1]
        noise = u1 * (b.p_noise + p_location) < b.p_noise

        new_nu = np.ones(n_edges, dtype=np.int8)
        new_z = np.full(n_edges, NO_ASSIGNMENT, dtype=np.int64)
        new_zi = np.full(n_edges, -1, dtype=np.int32)
        sel = np.flatnonzero(~noise)
        if sel.size:
            sums = seg_sum[sel]
            if not np.all(np.isfinite(sums)) or np.any(sums <= 0.0):
                raise RuntimeError("degenerate sampling weights in Gibbs sweep")
            cum = np.cumsum(w)
            starts = b.indptr[:-1][sel]
            base = np.concatenate(([0.0], cum))[starts]
            flat = np.searchsorted(cum, base + u2[sel] * sums, side="right")
            flat = np.minimum(flat, b.indptr[1:][sel] - 1)
            zi = flat - starts
            new_nu[sel] = 0
            new_zi[sel] = zi
            new_z[sel] = b.cand[flat]
        return time.perf_counter() - t0, (new_nu, new_z, new_zi)

    def _apply_tweet_result(self, b: _TweetBlock, result) -> None:
        new_nu, new_z, new_zi = result
        phi_flat = self._pphi_flat
        totals = self.state.user_counts.totals
        state = self.state
        tl = self._tl_arena
        n_loc, n_ven = self._pn_loc, self._pn_ven
        tl_total_base = n_loc * n_ven
        kids = b.kids
        v = self._tw_venues[kids]
        old_nu = state.nu[kids]
        old_z = state.z[kids]
        dec = np.flatnonzero(old_nu == 0)
        if dec.size:
            np.subtract.at(phi_flat, b.i[dec] * n_loc + old_z[dec], 1.0)
            np.subtract.at(totals, b.i[dec], 1.0)
            np.subtract.at(tl, old_z[dec] * n_ven + v[dec], 1.0)
            np.subtract.at(tl, tl_total_base + old_z[dec], 1.0)
        inc = np.flatnonzero(new_nu == 0)
        if inc.size:
            np.add.at(phi_flat, b.i[inc] * n_loc + new_z[inc], 1.0)
            np.add.at(totals, b.i[inc], 1.0)
            np.add.at(tl, new_z[inc] * n_ven + v[inc], 1.0)
            np.add.at(tl, tl_total_base + new_z[inc], 1.0)
        if self._h_all is not None:
            if dec.size:
                self._h_dirty[b.i[dec]] = True
            if inc.size:
                self._h_dirty[b.i[inc]] = True
        state.nu[kids] = new_nu
        state.z[kids] = new_z
        self._z_idx[kids] = new_zi

    # -- color scheduling -----------------------------------------------

    def _run_color(self, blocks: Sequence, draw, apply) -> tuple[float, ...]:
        """Compute all chunks of one color (parallel when n_jobs > 1),
        then merge at the barrier in deterministic chunk order."""
        if self._n_jobs > 1 and len(blocks) > 1:
            results = list(self._pool.map(draw, blocks))
        else:
            results = [draw(b) for b in blocks]
        for b, (_seconds, payload) in zip(blocks, results):
            apply(b, payload)
        return tuple(seconds for seconds, _payload in results)

    # -- sweeps ---------------------------------------------------------

    def _sweep_following(self) -> int:
        if self.delegates_to_exact:
            return super()._sweep_following()
        self._ensure_partition_layout()
        state = self.state
        n = len(self._followers)
        if n == 0:
            return 0
        old_mu = state.mu.copy()
        old_x = state.x.copy()
        old_y = state.y.copy()
        u = self.rng.random(3 * n)
        p_noise = self.params.rho_f * self.random_following.probability()
        one_minus_rho = 1.0 - self.params.rho_f
        observer = partition_observer()
        n_colors = self.partition.n_colors
        for c, blocks in enumerate(self._f_color_blocks):
            if not blocks:
                continue
            start = time.perf_counter()
            self._refresh_h(self._f_color_friends[c])
            worker_seconds = self._run_color(
                blocks,
                lambda b: self._follow_block_draw(b, u, p_noise, one_minus_rho),
                self._apply_follow_result,
            )
            if observer is not None:
                observer(
                    "following", c, n_colors,
                    time.perf_counter() - start, worker_seconds,
                )
        return int(
            np.count_nonzero(state.mu != old_mu)
            + np.count_nonzero(state.x != old_x)
            + np.count_nonzero(state.y != old_y)
        )

    def _sweep_tweeting(self) -> int:
        if self.delegates_to_exact:
            return super()._sweep_tweeting()
        self._ensure_partition_layout()
        state = self.state
        n = len(self._tw_users)
        if n == 0:
            return 0
        old_nu = state.nu.copy()
        old_z = state.z.copy()
        u = self.rng.random(2 * n)
        one_minus_rho = 1.0 - self.params.rho_t
        observer = partition_observer()
        n_colors = self.partition.n_colors
        for c, blocks in enumerate(self._t_color_blocks):
            if not blocks:
                continue
            start = time.perf_counter()
            worker_seconds = self._run_color(
                blocks,
                lambda b: self._tweet_block_draw(b, u, one_minus_rho),
                self._apply_tweet_result,
            )
            if observer is not None:
                observer(
                    "tweeting", c, n_colors,
                    time.perf_counter() - start, worker_seconds,
                )
        return int(
            np.count_nonzero(state.nu != old_nu)
            + np.count_nonzero(state.z != old_z)
        )
