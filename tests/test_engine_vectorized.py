"""Golden tests: the vectorized engine replays the loop engine's chain.

The loop engine (:class:`repro.core.gibbs.GibbsSampler`) is the oracle.
Under a fixed seed the vectorized engine must produce **bit-identical**
state after every sweep -- assignments, selectors, user counts, venue
counts -- including across Gibbs-EM law swaps and for the ablation
parameterizations.  Any divergence, even in the last ulp, fails here.
"""

import numpy as np
import pytest

from repro.core.gibbs import GibbsSampler
from repro.core.model import MLPModel, mlp_c_params, mlp_u_params
from repro.core.params import MLPParams
from repro.engine import ENGINES, VectorizedGibbsSampler, make_sampler
from repro.mathx.powerlaw import PowerLaw


def assert_states_identical(a: GibbsSampler, b: GibbsSampler) -> None:
    """Every piece of sampler state, compared exactly."""
    assert np.array_equal(a.state.mu, b.state.mu)
    assert np.array_equal(a.state.x, b.state.x)
    assert np.array_equal(a.state.y, b.state.y)
    assert np.array_equal(a.state.nu, b.state.nu)
    assert np.array_equal(a.state.z, b.state.z)
    assert np.array_equal(a.state.user_counts.phi, b.state.user_counts.phi)
    assert np.array_equal(
        a.state.user_counts.totals, b.state.user_counts.totals
    )
    assert np.array_equal(
        a.tweeting_model.counts_copy(), b.tweeting_model.counts_copy()
    )


def engine_pair(world, params):
    a = GibbsSampler(world, params)
    b = VectorizedGibbsSampler(world, params)
    a.initialize()
    b.initialize()
    return a, b


class TestGoldenBitIdentity:
    def test_initialization_identical(self, small_world):
        params = MLPParams(n_iterations=3, burn_in=1, seed=7)
        a, b = engine_pair(small_world, params)
        assert_states_identical(a, b)

    def test_every_sweep_identical(self, small_world):
        params = MLPParams(n_iterations=5, burn_in=1, seed=7)
        a, b = engine_pair(small_world, params)
        for _ in range(4):
            changed_a = a.sweep()
            changed_b = b.sweep()
            assert changed_a == changed_b
            assert_states_identical(a, b)

    def test_identical_across_law_swap(self, small_world):
        """The Gibbs-EM path: swapping (alpha, beta) mid-run."""
        params = MLPParams(n_iterations=4, burn_in=1, seed=3)
        a, b = engine_pair(small_world, params)
        a.sweep()
        b.sweep()
        law = PowerLaw(alpha=-0.9, beta=0.02)
        a.set_following_law(law)
        b.set_following_law(law)
        for _ in range(2):
            a.sweep()
            b.sweep()
        assert_states_identical(a, b)

    def test_full_inference_identical(self, small_world):
        """End to end through run_inference: EM refits, accumulation."""
        results = {}
        for engine in ENGINES:
            params = MLPParams(
                n_iterations=6, burn_in=2, seed=5, engine=engine
            )
            results[engine] = MLPModel(params).fit(small_world)
        loop, vec = results["loop"], results["vectorized"]
        for p_loop, p_vec in zip(loop.profiles, vec.profiles):
            assert p_loop.entries == p_vec.entries
        assert loop.explanations == vec.explanations
        assert loop.trace.changed_fractions() == vec.trace.changed_fractions()

    @pytest.mark.parametrize("variant", [mlp_u_params, mlp_c_params])
    def test_ablations_identical(self, small_world, variant):
        params = variant(MLPParams(n_iterations=3, burn_in=1, seed=2))
        a, b = engine_pair(small_world, params)
        for _ in range(2):
            a.sweep()
            b.sweep()
        assert_states_identical(a, b)


class TestVectorizedInvariants:
    """The loop engine's invariants hold for the vectorized engine."""

    @pytest.fixture(scope="class")
    def swept(self, small_world):
        params = MLPParams(n_iterations=4, burn_in=1, seed=9)
        sampler = VectorizedGibbsSampler(small_world, params)
        sampler.initialize()
        for _ in range(3):
            sampler.sweep()
        return sampler

    def test_counts_match_assignments(self, swept):
        expected = np.zeros_like(swept.state.user_counts.phi)
        for s in range(len(swept._followers)):
            if swept.state.mu[s] == 0:
                expected[swept._followers[s], swept.state.x[s]] += 1
                expected[swept._friends[s], swept.state.y[s]] += 1
        for k in range(len(swept._tw_users)):
            if swept.state.nu[k] == 0:
                expected[swept._tw_users[k], swept.state.z[k]] += 1
        assert np.array_equal(expected, swept.state.user_counts.phi)
        assert np.array_equal(
            expected.sum(axis=1), swept.state.user_counts.totals
        )

    def test_venue_counts_nonnegative(self, swept):
        assert np.all(swept.tweeting_model.counts_copy() >= 0)

    def test_sweep_requires_initialize(self, small_world):
        sampler = VectorizedGibbsSampler(
            small_world, MLPParams(n_iterations=2, burn_in=0)
        )
        with pytest.raises(RuntimeError):
            sampler.sweep()


class TestDeterminism:
    def test_same_seed_identical_state(self, small_world):
        """Same seed => identical GibbsState, twice over, per engine."""
        states = []
        for _ in range(2):
            params = MLPParams(
                n_iterations=4, burn_in=1, seed=13, engine="vectorized"
            )
            sampler = make_sampler(small_world, params)
            sampler.run()
            states.append(
                (sampler.state.mu.copy(), sampler.state.x.copy(),
                 sampler.state.z.copy())
            )
        for a, b in zip(states[0], states[1]):
            assert np.array_equal(a, b)

    def test_different_seed_differs(self, small_world):
        chains = []
        for seed in (1, 2):
            params = MLPParams(
                n_iterations=3, burn_in=1, seed=seed, engine="vectorized"
            )
            sampler = make_sampler(small_world, params)
            sampler.run()
            chains.append(sampler.state.x.copy())
        assert not np.array_equal(chains[0], chains[1])


class TestFactory:
    def test_engine_registry(self):
        assert set(ENGINES) == {"loop", "vectorized", "partitioned"}
        assert ENGINES["loop"] is GibbsSampler
        assert ENGINES["vectorized"] is VectorizedGibbsSampler

    def test_make_sampler_dispatches(self, tiny_world):
        for engine, cls in ENGINES.items():
            params = MLPParams(n_iterations=2, burn_in=0, engine=engine)
            assert type(make_sampler(tiny_world, params)) is cls

    def test_params_reject_unknown_engine(self):
        with pytest.raises(ValueError):
            MLPParams(engine="gpu")

    def test_params_reject_bad_chains(self):
        with pytest.raises(ValueError):
            MLPParams(n_chains=0)


def _view_key(arr: np.ndarray, roots: dict) -> tuple:
    """Where a view points: its buffer (by first use), offset and shape."""
    root = arr.base if arr.base is not None else arr
    label = roots.setdefault(id(root), (len(roots), root))[0]
    offset = (
        arr.__array_interface__["data"][0]
        - root.__array_interface__["data"][0]
    )
    return (label, offset, arr.shape, arr.strides, arr.dtype.str)


def _layout_signature(edges, arena, data_positions) -> list:
    """Each tuple entry by value, or by where it points for views."""
    roots = {id(arena): ("arena", arena)}
    signature = []
    for entry in edges:
        items = []
        for pos, item in enumerate(entry):
            if pos in data_positions:
                items.append((item.dtype.str, item.shape, item.tolist()))
            elif isinstance(item, np.ndarray):
                items.append(_view_key(item, roots))
            elif callable(item):
                items.append((item.__name__, _view_key(item.__self__, roots)))
            else:
                items.append((type(item), item))
        signature.append(tuple(items))
    return signature


class TestLayoutMatchesReference:
    """The per-user/per-shape layout == the per-edge reference layout."""

    @pytest.mark.parametrize("shape", ["generated", "irregular", "edgeless"])
    def test_layout_matches_per_edge_builder(self, small_world, shape):
        from reference_setup import (
            edgeless_world,
            irregular_world,
            reference_layout,
        )

        world = {
            "generated": lambda w: w,
            "irregular": irregular_world,
            "edgeless": edgeless_world,
        }[shape](small_world)
        sampler = VectorizedGibbsSampler(
            world, MLPParams(n_iterations=3, burn_in=1, seed=7)
        )
        sampler.initialize()
        sampler._ensure_layout()
        f_ref, t_ref = reference_layout(sampler)
        arena = sampler._cand_arena
        assert len(sampler._f_edges) == len(f_ref)
        assert len(sampler._t_edges) == len(t_ref)
        assert (len(f_ref) > 0) == (len(t_ref) > 0) == (shape != "edgeless")
        assert _layout_signature(
            sampler._f_edges, arena, ()
        ) == _layout_signature(f_ref, arena, ())
        # dvec (7) and tl_idx (8) are data: compared by value.
        assert _layout_signature(
            sampler._t_edges, arena, (7, 8)
        ) == _layout_signature(t_ref, arena, (7, 8))
        # Per-user objects are shared, not rebuilt per edge.
        cand_lists = {id(edge[12]) for edge in sampler._f_edges}
        assert len(cand_lists) == np.unique(sampler._followers).size
