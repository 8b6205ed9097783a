"""Training and scoring, the same in all three workloads.

Every workload trains a model in its set-up (``fit`` on a paper-shaped
world, ``serve`` on a sparse 3k world, ``ingest`` on the first users of
a sparse 30k world), so the ``core``/``engine`` per-layer metrics and
the paper's quality numbers are measured on all three, each on its own
model.  :class:`Fits` times every fit; in a traced run it also times
``build_user_priors`` on the fit's input and every Gibbs sweep through
the public ``repro.obs.hooks.set_sweep_observer``.  Fits of the same
input use the same seed, so their quality must be identical -- a
difference is a failed operation.  A workload's quality numbers are
pooled over its distinct inputs, each user or edge counting once.
"""

from __future__ import annotations

import time

import numpy as np

from harness import p50, percentile, tail


def quality(ds, result) -> dict:
    """ACC@100 (unlabeled users), DR@2 (unlabeled multi-location users)
    and explanation ACC@100 (evaluable edges) of ``result``, trained on
    ``ds``, against generator truth."""
    from repro.evaluation.metrics import accuracy_at, dr_at_k, explanation_accuracy

    gaz = ds.gazetteer
    unlabeled = list(ds.unlabeled_user_ids)
    homes = [result.predicted_home(u) for u in unlabeled]
    truths = [ds.users[u].true_home for u in unlabeled]
    multi = [u for u in unlabeled if ds.users[u].is_multi_location]
    edges = [
        s
        for s, e in enumerate(ds.following)
        if e.true_x is not None and e.true_y is not None
    ]
    predicted_pairs = [
        (result.explanations[s].x, result.explanations[s].y) for s in edges
    ]
    true_pairs = [(ds.following[s].true_x, ds.following[s].true_y) for s in edges]
    # Population-prior baseline: everyone at the most common labeled home.
    labeled = [ds.users[u].registered_location for u in ds.labeled_user_ids]
    majority = int(np.bincount(labeled).argmax())
    return {
        "acc100": accuracy_at(gaz, homes, truths),
        "dr2": dr_at_k(
            gaz,
            [result.profile_of(u).top_k(2) for u in multi],
            [list(ds.users[u].true_locations) for u in multi],
            k=2,
        ),
        "expl_acc": explanation_accuracy(gaz, predicted_pairs, true_pairs),
        "prior_acc100": accuracy_at(gaz, [majority] * len(truths), truths),
        "homes_digest": hash(tuple(homes)),
        "n_unlabeled": len(unlabeled),
        "n_multi": len(multi),
        "n_edges": len(edges),
    }


#: Each pooled quality number and the count it is a mean over.
POOLED = (("acc100", "n_unlabeled"), ("dr2", "n_multi"), ("expl_acc", "n_edges"))


class Fits:
    """Every ``MLPModel.fit`` of one run, its timings and its quality."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.seconds: list[float] = []
        self.sweeps: list[list[float]] = []
        self.qualities: dict = {}

    def fit(self, params, ds):
        """Fit ``ds``; times the fit (and, traced, priors and sweeps)."""
        from repro import MLPModel

        ctx = self.ctx
        sweeps: list[float] = []
        if ctx.trace:
            from repro.core.priors import build_user_priors
            from repro.data.columnar import compile_world
            from repro.obs.hooks import set_sweep_observer

            world = compile_world(ds)
            with ctx.spans.span("core.priors"):
                build_user_priors(world, params)
            set_sweep_observer(lambda engine, it, seconds: sweeps.append(seconds))
        try:
            with ctx.spans.span("core.fit"):
                start = time.perf_counter()
                result = MLPModel(params).fit(ds)
                self.seconds.append(time.perf_counter() - start)
        finally:
            if ctx.trace:
                set_sweep_observer(None)
        self.sweeps.append(sweeps)
        return result

    def score(self, key, ds, result) -> None:
        """Score a fit of input ``key`` against truth (call outside any
        timed region); a repeated ``key`` must score as its first fit."""
        ctx = self.ctx
        ctx.attempted += 1
        got = quality(ds, result)
        first = self.qualities.setdefault(key, got)
        if got is first and got["acc100"] <= got["prior_acc100"]:
            ctx.fail(
                "MLPModel.fit", "-", f"input {key}: ACC@100 does not beat the prior"
            )
        elif got != first:
            ctx.fail(
                "MLPModel.fit",
                "-",
                f"input {key}: a repeated fit (same seed, same input) scored "
                "differently from the first",
            )

    def finish(self) -> dict:
        """Record the pooled quality and the timings.

        Records ``dr2`` and ``expl_acc`` (end to end) and ``core.fit_s``
        (per layer, every run); with tracing, the ``core``/``engine``
        per-layer metrics too.  Returns the pooled quality numbers.
        """
        ctx = self.ctx
        firsts = list(self.qualities.values())
        pooled = {
            name: sum(q[name] * q[count] for q in firsts)
            / max(1, sum(q[count] for q in firsts))
            for name, count in POOLED
        }
        ctx.metric("dr2", pooled["dr2"], "fraction")
        ctx.metric("expl_acc", pooled["expl_acc"], "fraction")
        ctx.layer("core.fit_s", p50(self.seconds), "s")
        ctx.report["fits"] = {
            "fit_s": [round(t, 4) for t in self.seconds],
            "pooled": pooled,
            "inputs": {
                str(key): {k: v for k, v in q.items() if k != "homes_digest"}
                for key, q in self.qualities.items()
            },
        }
        if ctx.trace:
            flat = [s * 1e3 for fit in self.sweeps for s in fit]
            nonsweep = [f - sum(s) for f, s in zip(self.seconds, self.sweeps)]
            sweep_tail, sweep_pct = tail(flat)
            priors_ms = ctx.spans.durations_ms("core.priors")
            ctx.layer("core.priors_s", p50(priors_ms) / 1e3, "s")
            ctx.layer("engine.sweep_ms", p50(flat), "ms")
            ctx.layer("engine.sweep_tail_ms", sweep_tail, "ms")
            ctx.layer("core.nonsweep_s", p50(nonsweep), "s")
            ctx.report["fits"]["trace"] = {
                "sweep_tail_pct": sweep_pct,
                "sweeps_per_fit": [len(s) for s in self.sweeps],
                "sweep_p90_ms": percentile(flat, 90),
            }
        return pooled
