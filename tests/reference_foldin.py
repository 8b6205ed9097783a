"""One-user-at-a-time reference form of the fold-in fixed point.

The library solves every fold-in through the batch engine
(:mod:`repro.serving.batch`), which lowers many users into flat arenas
and iterates them together.  This is the direct per-user form that
engine must match bit for bit: candidacy from Python sets, one dense
``(relationships, candidates)`` weight matrix, and the expected-count
iteration of Eqs. 5-6 on it.  Test-only; it costs a string of small
numpy calls per iteration per user.

The reductions are chosen to fix the floats, not for speed: each
per-relationship and per-user sum is one ``np.add.reduceat`` segment,
and the scattered ``phi`` accumulation is ``np.bincount``, which adds
strictly in input order (relationship by relationship).
"""

from __future__ import annotations

import numpy as np

from repro.serving.batch import _Solution


def reference_candidates(predictor, spec, world=None):
    """Candidacy vector and gamma prior of one spec, as in training."""
    params = predictor.params
    world = world if world is not None else predictor.world
    observed = world.observed_location
    cand_set: set[int] = set()
    if params.use_candidacy:
        if spec.observed_location is not None:
            cand_set.add(spec.observed_location)
        if params.use_following:
            for nb in set(spec.friends) | set(spec.followers):
                loc = int(observed[nb])
                if loc >= 0:
                    cand_set.add(loc)
        if params.use_tweeting:
            for vid in set(spec.venues):
                cand_set.update(world.referents_of(vid).tolist())
    if cand_set:
        cand = np.array(sorted(cand_set), dtype=np.int64)
    else:
        cand = np.arange(predictor.n_locations, dtype=np.int64)
    gamma = np.full(cand.size, params.tau, dtype=np.float64)
    if spec.observed_location is not None:
        pos = int(np.searchsorted(cand, spec.observed_location))
        if pos < cand.size and cand[pos] == spec.observed_location:
            gamma[pos] += params.boost
    return cand, gamma


def reference_rows(predictor, spec, cand):
    """``(M, noise, factor)``: one weight row per relationship.

    Rows come in the order friends, followers, venues; following rows
    are the neighbour's kernel row at the candidates, venue rows the
    frozen ``psi`` column.
    """
    params = predictor.params
    rows, noise, factor = [], [], []
    if params.use_following:
        for nb in spec.friends + spec.followers:
            rows.append(predictor._kernel_row(nb)[cand])
            noise.append(predictor._fr_noise)
            factor.append(1.0 - params.rho_f)
    if params.use_tweeting:
        for vid in spec.venues:
            rows.append(predictor._psi[cand, vid])
            noise.append(params.rho_t * float(predictor._tr_probs[vid]))
            factor.append(1.0 - params.rho_t)
    if not rows:
        zero = np.zeros(0, dtype=np.float64)
        return np.zeros((0, cand.size)), zero, zero
    return np.stack(rows), np.array(noise), np.array(factor)


def reference_solve(predictor, spec, world=None) -> _Solution:
    """Fold in one spec by iterating its dense blocked conditionals."""
    world = world if world is not None else predictor.world
    predictor.engine._validate([spec], world)
    cand, gamma = reference_candidates(predictor, spec, world)
    n_cand = cand.size
    one_segment = np.zeros(1, dtype=np.intp)
    gamma_sum = float(np.add.reduceat(gamma, one_segment)[0])
    M, noise, factor = reference_rows(predictor, spec, cand)
    phi = np.zeros(n_cand, dtype=np.float64)
    iterations = 0
    converged = True
    if len(M):
        n_rel = M.shape[0]
        row_starts = np.arange(0, n_rel * n_cand, n_cand, dtype=np.intp)
        cand_of_cell = np.tile(np.arange(n_cand), n_rel)
        converged = False
        for iterations in range(1, predictor.max_iterations + 1):
            w = phi + gamma
            total = float(np.add.reduceat(phi, one_segment)[0]) + gamma_sum
            joint = M * w
            sums = np.add.reduceat(joint.ravel(), row_starts)
            p_loc = factor * sums / total
            denom = p_loc + noise
            resp = np.divide(
                p_loc, denom, out=np.zeros_like(p_loc), where=denom > 0
            )
            scale = np.divide(
                resp, sums, out=np.zeros_like(sums), where=sums > 0
            )
            phi_new = np.bincount(
                cand_of_cell,
                weights=(joint * scale[:, None]).ravel(),
                minlength=n_cand,
            )
            drift = float(np.max(np.abs(phi_new - phi)))
            phi = phi_new
            if drift < predictor.tolerance:
                converged = True
                break
    theta = (phi + gamma) / (
        float(np.add.reduceat(phi, one_segment)[0]) + gamma_sum
    )
    return _Solution(
        candidates=cand,
        gamma=gamma,
        phi=phi,
        theta=theta,
        iterations=iterations,
        converged=converged,
    )


def assert_solutions_identical(expected, actual):
    """Exact equality of two solutions: every float and both flags."""
    assert np.array_equal(expected.candidates, actual.candidates)
    assert np.array_equal(expected.gamma, actual.gamma)
    assert np.array_equal(expected.phi, actual.phi)
    assert np.array_equal(expected.theta, actual.theta)
    assert expected.iterations == actual.iterations
    assert expected.converged == actual.converged
