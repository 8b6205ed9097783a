"""Figure drivers: compute the data series behind each paper figure.

Every driver returns a plain dataclass of series (no plotting backend
needed offline); :mod:`repro.experiments.report` renders them as
aligned text so benchmark logs read like the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.calibration import sampled_pair_buckets
from repro.core.convergence import ConvergenceTrace
from repro.core.model import MLPModel
from repro.core.params import MLPParams
from repro.data.columnar import compile_world
from repro.data.model import Dataset
from repro.evaluation.metrics import accuracy_at
from repro.evaluation.tasks import (
    ExplanationTaskResult,
    HomePredictionResult,
    MultiLocationResult,
)
from repro.mathx.powerlaw import PowerLaw, fit_power_law, r_squared_loglog


# ---------------------------------------------------------------------------
# Fig. 3(a): following probability versus distance
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Fig3aResult:
    """The empirical curve, the fitted power law, and the fit quality."""

    distances: np.ndarray
    probabilities: np.ndarray
    pair_counts: np.ndarray
    law: PowerLaw
    r_squared: float


def fig3a(
    dataset: Dataset,
    max_users: int = 2000,
    n_buckets: int = 30,
    seed: int = 0,
) -> Fig3aResult:
    """Reproduce Fig. 3(a) over the labeled users of a dataset."""
    rng = np.random.default_rng(seed)
    labeled = np.array(dataset.labeled_user_ids, dtype=np.int64)
    if labeled.size < 10:
        raise ValueError("need at least 10 labeled users for Fig. 3(a)")
    if labeled.size > max_users:
        labeled = rng.choice(labeled, size=max_users, replace=False)
    buckets = sampled_pair_buckets(
        compile_world(dataset), labeled, n_buckets=n_buckets
    ).nonzero()
    law = fit_power_law(
        buckets.centers, buckets.probabilities, weights=buckets.totals
    )
    r2 = r_squared_loglog(law, buckets.centers, buckets.probabilities)
    return Fig3aResult(
        distances=buckets.centers,
        probabilities=buckets.probabilities,
        pair_counts=buckets.totals,
        law=law,
        r_squared=r2,
    )


# ---------------------------------------------------------------------------
# Fig. 3(b): tweeting probabilities of venues at two cities
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Fig3bResult:
    """Per-city venue probabilities: the Fig. 3(b) bars."""

    city_names: tuple[str, str]
    #: Per city: [(venue name, probability), ...] sorted descending.
    top_venues: tuple[tuple[tuple[str, float], ...], tuple[tuple[str, float], ...]]


def fig3b(
    dataset: Dataset,
    city_a: str = "Austin, TX",
    city_b: str = "Los Angeles, CA",
    top_n: int = 5,
    min_labeled_users: int = 3,
) -> Fig3bResult:
    """Venue tweeting probabilities of labeled users at two cities.

    Defaults to the paper's Austin/Los Angeles pair; when a requested
    city hosts fewer than ``min_labeled_users`` labeled users (small
    synthetic worlds), the most-populated labeled cities are used
    instead so the figure always has data.
    """
    gaz = dataset.gazetteer
    observed = dataset.observed_locations
    labeled_counts = np.zeros(len(gaz), dtype=np.int64)
    for loc in observed.values():
        labeled_counts[loc] += 1

    resolved = []
    for name in (city_a, city_b):
        city, _, state = name.rpartition(",")
        loc = gaz.lookup_city_state(city.strip(), state.strip())
        if loc is None:
            raise ValueError(f"unknown city: {name}")
        resolved.append(loc.location_id)
    if any(labeled_counts[loc] < min_labeled_users for loc in resolved):
        by_count = np.argsort(-labeled_counts)
        resolved = [int(by_count[0]), int(by_count[1])]
        city_a = gaz.by_id(resolved[0]).name
        city_b = gaz.by_id(resolved[1]).name
    n_venues = len(gaz.venue_vocabulary)
    counts = {loc: np.zeros(n_venues) for loc in resolved}
    for t in dataset.tweeting:
        loc = observed.get(t.user)
        if loc in counts:
            counts[loc][t.venue_id] += 1.0
    tops = []
    for loc in resolved:
        c = counts[loc]
        total = c.sum()
        if total == 0:
            tops.append(())
            continue
        order = np.argsort(-c)[:top_n]
        tops.append(
            tuple(
                (gaz.venue_vocabulary[v], float(c[v] / total))
                for v in order
                if c[v] > 0
            )
        )
    return Fig3bResult(
        city_names=(city_a, city_b), top_venues=(tops[0], tops[1])
    )


# ---------------------------------------------------------------------------
# Fig. 3(c): one user's relationships as a mixture of locations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Fig3cResult:
    """A two-location user's relationships grouped by nearest region."""

    user_id: int
    true_locations: tuple[str, ...]
    #: Per true location: friend home city names within the region.
    friends_by_region: tuple[tuple[str, ...], ...]
    #: Per true location: venues tweeted whose referent lies in-region.
    venues_by_region: tuple[tuple[str, ...], ...]
    unassigned_friends: tuple[str, ...]


def fig3c(
    dataset: Dataset,
    user_id: int | None = None,
    region_miles: float = 100.0,
) -> Fig3cResult:
    """Pick (or accept) a two-location user and split their signals."""
    if user_id is None:
        user_id = _pick_two_location_user(dataset)
    user = dataset.users[user_id]
    if len(user.true_locations) < 2:
        raise ValueError(f"user {user_id} does not have multiple locations")
    gaz = dataset.gazetteer
    regions = list(user.true_locations)
    friends_by_region: list[list[str]] = [[] for _ in regions]
    unassigned: list[str] = []
    for friend in dataset.friends_of[user_id]:
        home = dataset.users[friend].true_home
        if home is None:
            continue
        dists = [gaz.distance(home, r) for r in regions]
        best = int(np.argmin(dists))
        if dists[best] <= region_miles:
            friends_by_region[best].append(gaz.by_id(home).name)
        else:
            unassigned.append(gaz.by_id(home).name)
    venues_by_region: list[list[str]] = [[] for _ in regions]
    referent_cache: dict[int, list[int]] = {}
    for vid in dataset.venues_of[user_id]:
        if vid not in referent_cache:
            name = gaz.venue_vocabulary[vid]
            referent_cache[vid] = [loc.location_id for loc in gaz.lookup_name(name)]
        for r_idx, region in enumerate(regions):
            if any(
                gaz.distance(ref, region) <= region_miles
                for ref in referent_cache[vid]
            ):
                venues_by_region[r_idx].append(gaz.venue_vocabulary[vid])
                break
    return Fig3cResult(
        user_id=user_id,
        true_locations=tuple(gaz.by_id(r).name for r in regions),
        friends_by_region=tuple(tuple(f) for f in friends_by_region),
        venues_by_region=tuple(tuple(v) for v in venues_by_region),
        unassigned_friends=tuple(unassigned),
    )


def _pick_two_location_user(
    dataset: Dataset, region_miles: float = 100.0
) -> int:
    """The two-location user whose *weaker* region has the most signal.

    "Signal" counts friends whose true home lies in a region plus venue
    mentions referring into it; maximizing the minimum across the two
    regions guarantees the Fig. 3(c) case study shows both clusters.
    """
    gaz = dataset.gazetteer
    referents: dict[int, list[int]] = {}
    best_uid, best_score = -1, -1.0
    for uid in dataset.multi_location_user_ids():
        user = dataset.users[uid]
        if len(user.true_locations) != 2:
            continue
        signal = [0, 0]
        for friend in dataset.friends_of[uid]:
            home = dataset.users[friend].true_home
            if home is None:
                continue
            for r_idx, region in enumerate(user.true_locations):
                if gaz.distance(home, region) <= region_miles:
                    signal[r_idx] += 1
                    break
        for vid in dataset.venues_of[uid]:
            if vid not in referents:
                name = gaz.venue_vocabulary[vid]
                referents[vid] = [
                    loc.location_id for loc in gaz.lookup_name(name)
                ]
            for r_idx, region in enumerate(user.true_locations):
                if any(
                    gaz.distance(ref, region) <= region_miles
                    for ref in referents[vid]
                ):
                    signal[r_idx] += 1
                    break
        score = min(signal) + 0.01 * max(signal)
        if score > best_score:
            best_uid, best_score = uid, score
    if best_uid < 0:
        raise ValueError("dataset has no two-location users")
    return best_uid


# ---------------------------------------------------------------------------
# Fig. 4: accumulative accuracy at distance
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Fig4Result:
    """AAD curves per method over a shared mile grid."""

    mile_grid: tuple[float, ...]
    #: method name -> accuracies parallel to ``mile_grid``.
    curves: dict[str, tuple[float, ...]]


def fig4(
    dataset: Dataset,
    home_results: dict[str, HomePredictionResult],
    mile_grid: tuple[float, ...] = tuple(float(m) for m in range(0, 150, 10)),
) -> Fig4Result:
    """Fig. 4: ACC@m curves per method over the mile grid."""
    curves = {
        name: tuple(acc for _, acc in result.aad(dataset, mile_grid))
        for name, result in home_results.items()
    }
    return Fig4Result(mile_grid=mile_grid, curves=curves)


# ---------------------------------------------------------------------------
# Fig. 5: convergence
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Fig5Result:
    """Per-iteration accuracy and the accuracy-change series."""

    accuracies: tuple[float, ...]
    accuracy_changes: tuple[float, ...]
    converged_at: int | None


def fig5(
    dataset: Dataset,
    params: MLPParams,
    test_user_ids: np.ndarray,
    test_truth: np.ndarray,
    tolerance: float = 1e-3,
) -> Fig5Result:
    """Run MLP with a per-sweep accuracy probe (the Fig. 5 series).

    Fig. 5 plots the trajectory of *one* chain, so the fit is forced to
    a single chain: the per-sweep probe needs the live sampler, which a
    chain pool (possibly running in worker processes) cannot expose.
    """

    def probe(sampler, _iteration: int) -> float:
        homes = sampler.current_home_estimates()
        return accuracy_at(
            dataset.gazetteer, homes[test_user_ids], test_truth
        )

    single_chain = params.with_overrides(n_chains=1)
    result = MLPModel(single_chain).fit(dataset, metric_callback=probe)
    return fig5_from_trace(result.trace, tolerance)


def fig5_from_trace(
    trace: ConvergenceTrace, tolerance: float = 1e-3
) -> Fig5Result:
    """Fig. 5: per-sweep |metric change| from a recorded trace."""
    accuracies = tuple(m for m in trace.metrics() if m is not None)
    changes = tuple(trace.metric_changes())
    return Fig5Result(
        accuracies=accuracies,
        accuracy_changes=changes,
        converged_at=trace.converged_at(tolerance),
    )


# ---------------------------------------------------------------------------
# Fig. 6 / Fig. 7: DP and DR at ranks
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RankSweepResult:
    """DP@K (Fig. 6) or DR@K (Fig. 7) per method per rank."""

    metric: str  # "DP" or "DR"
    ranks: tuple[int, ...]
    values: dict[str, tuple[float, ...]]


def fig6(
    dataset: Dataset,
    multi_results: dict[str, MultiLocationResult],
    ranks: tuple[int, ...] = (1, 2, 3),
) -> RankSweepResult:
    """Fig. 6: DP at each rank k per method."""
    values = {
        name: tuple(result.dp(dataset, k) for k in ranks)
        for name, result in multi_results.items()
    }
    return RankSweepResult(metric="DP", ranks=ranks, values=values)


def fig7(
    dataset: Dataset,
    multi_results: dict[str, MultiLocationResult],
    ranks: tuple[int, ...] = (1, 2, 3),
) -> RankSweepResult:
    """Fig. 7: DR at each rank k per method."""
    values = {
        name: tuple(result.dr(dataset, k) for k in ranks)
        for name, result in multi_results.items()
    }
    return RankSweepResult(metric="DR", ranks=ranks, values=values)


# ---------------------------------------------------------------------------
# Fig. 8: relationship explanation accuracy at distance
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Fig8Result:
    """Explanation ACC@m per method over a mile grid."""

    mile_grid: tuple[float, ...]
    curves: dict[str, tuple[float, ...]]


def fig8(
    dataset: Dataset,
    explanation_results: dict[str, ExplanationTaskResult],
    mile_grid: tuple[float, ...] = (25.0, 50.0, 75.0, 100.0),
) -> Fig8Result:
    """Fig. 8: explanation accuracy vs mile threshold."""
    curves = {
        name: tuple(result.accuracy_at(dataset, m) for m in mile_grid)
        for name, result in explanation_results.items()
    }
    return Fig8Result(mile_grid=mile_grid, curves=curves)
