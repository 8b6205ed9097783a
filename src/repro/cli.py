"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``generate``  -- build a synthetic world and save it as JSON;
- ``stats``     -- print corpus statistics of a saved dataset;
- ``fit``       -- fit MLP on a saved dataset, print profile summaries
  (``--save-artifact`` persists the fitted result as a ``.mlp.npz``
  serving artifact);
- ``evaluate``  -- run the five-method Table 2 protocol on a dataset;
- ``reproduce`` -- regenerate every paper table/figure;
- ``predict``   -- offline batch fold-in scoring against a saved
  artifact;
- ``ingest``    -- stream WorldDelta batches into an artifact's world
  (the offline twin of the server's ``POST /ingest``), optionally
  re-scoring the delta-affected users; ``--journal DIR`` makes every
  delta durable through the write-ahead journal;
- ``replay``    -- recover a journaled world (snapshot + tail replay)
  and report its generation/chained hash; ``--verify`` golden-checks
  the replayed arrays against a from-scratch recompile;
- ``compact``   -- snapshot a journaled world and truncate the journal
  behind it, bounding future recovery time;
- ``serve``     -- the JSON-over-HTTP inference server over a saved
  artifact; ``--journal DIR`` recovers the durable world on boot and
  write-ahead journals every ``POST /ingest``;
- ``info``      -- build/runtime versions (package, engines, numpy,
  artifact format), for triaging served artifacts.

All commands are deterministic given ``--seed``.  ``fit``, ``evaluate``
and ``reproduce`` accept the engine knobs shared by every inference in
this codebase: ``--engine`` selects the sweep implementation from the
registered engines (``loop``/``vectorized`` sample identical chains
with different speed/memory trades; ``partitioned`` sweeps
conflict-free color blocks set-at-a-time -- see :mod:`repro.engine`),
``--jobs N`` adds worker threads to the partitioned color sweeps, and
``--chains K`` runs K independently-seeded chains whose posteriors are
pooled and cross-checked with R-hat.

Every subcommand documents its flags in ``--help``; run
``python -m repro <command> --help`` for the full story.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ENGINE_EPILOG = """\
engine knobs:
  --engine loop         reference Python-loop Gibbs sweeps (the oracle)
  --engine vectorized   precomputed-layout sweeps; bit-identical chain,
                        ~2.5-3x faster, more memory (kernel cache)
  --engine partitioned  conflict-free color-block sweeps over the
                        user-conflict graph; statistically equivalent
                        chain (not bit-identical), fastest at scale
  --jobs N              worker threads for partitioned color sweeps
                        (results are independent of N)
  --chains K            K independent chains with deterministic seeds
                        (base, base+7919, ...); profiles average the
                        pooled posterior, explanations merge per-edge
                        tallies, and an R-hat summary is reported.
"""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_engine_arguments(p: argparse.ArgumentParser) -> None:
    """The engine knobs shared by fit/evaluate/reproduce."""
    from repro.engine.registry import engine_names

    p.add_argument(
        "--engine",
        choices=engine_names(),
        default="loop",
        help="Gibbs sweep implementation (default: %(default)s)",
    )
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker threads for partitioned color sweeps; other "
        "engines ignore it (default: %(default)s)",
    )
    p.add_argument(
        "--chains",
        type=_positive_int,
        default=1,
        metavar="K",
        help="independent chains to run and pool (default: %(default)s)",
    )


def _add_generate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "generate",
        help="generate a synthetic world",
        description=(
            "Generate a synthetic MLP world (users, homes, following "
            "edges, venue mentions) and save it as JSON.  The generator "
            "mirrors the paper's data assumptions: power-law distance "
            "decay for friendships, noisy celebrity follows, ambiguous "
            "venue names."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "example:\n"
            "  python -m repro generate world.json --users 2000 --seed 7\n"
        ),
    )
    p.add_argument("output", type=Path, help="output JSON path")
    p.add_argument(
        "--users", type=int, default=1000, help="number of users (default: %(default)s)"
    )
    p.add_argument("--seed", type=int, default=7, help="RNG seed (default: %(default)s)")
    p.add_argument(
        "--labeled-fraction",
        type=float,
        default=0.8,
        help="fraction of users with an observed home (default: %(default)s)",
    )
    p.add_argument(
        "--mean-friends",
        type=float,
        default=10.0,
        help="mean following edges per user (default: %(default)s)",
    )
    p.add_argument(
        "--mean-venues",
        type=float,
        default=14.0,
        help="mean venue mentions per user (default: %(default)s)",
    )
    p.add_argument(
        "--render-tweets", action="store_true", help="emit raw tweet text"
    )
    p.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        metavar="N",
        help="use the sharded columnar generator with N shards "
        "(array-native, scales to very large worlds; different RNG "
        "stream than the default object-graph generator)",
    )


def _add_stats(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "stats",
        help="print dataset statistics",
        description=(
            "Print corpus statistics (user, edge, venue and label "
            "counts; degree and distance summaries) of a saved dataset "
            "as JSON."
        ),
    )
    p.add_argument("dataset", type=Path, help="dataset JSON path")


def _add_fit(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "fit",
        help="fit MLP and print profiles",
        description=(
            "Run full MLP inference (collapsed Gibbs with Gibbs-EM "
            "power-law refits) on a saved dataset and print location "
            "profiles for selected users."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_ENGINE_EPILOG + (
            "\nexample:\n"
            "  python -m repro fit world.json --engine vectorized --chains 4\n"
        ),
    )
    p.add_argument("dataset", type=Path, help="dataset JSON path")
    p.add_argument(
        "--iterations",
        type=int,
        default=30,
        help="total Gibbs sweeps (default: %(default)s)",
    )
    p.add_argument(
        "--burn-in",
        type=int,
        default=12,
        help="sweeps discarded before accumulation (default: %(default)s)",
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: %(default)s)")
    p.add_argument(
        "--users", type=int, nargs="*", default=None,
        help="user ids to print (default: first 5 multi-location users)",
    )
    p.add_argument(
        "--top-k",
        type=int,
        default=3,
        help="profile entries to print per user (default: %(default)s)",
    )
    p.add_argument(
        "--save-artifact",
        type=Path,
        default=None,
        metavar="PATH",
        help="persist the fitted result as a serving artifact "
        "(conventionally *.mlp.npz)",
    )
    _add_engine_arguments(p)


def _add_predict(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "predict",
        help="offline batch fold-in scoring against a saved artifact",
        description=(
            "Score users against a frozen fitted posterior (a .mlp.npz "
            "artifact written by `fit --save-artifact`) without "
            "re-running Gibbs: training users by id, or new unseen "
            "users from a JSON request file."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "request file: a JSON list of user specs, each either\n"
            '  {"user_id": 7}                          (training user)\n'
            '  {"friends": [3, 17], "venues": [42],    (new user)\n'
            '   "venue_names": ["austin"], "observed_location": null}\n'
            "\nbulk mode: --input takes JSONL (one spec per line) and\n"
            "streams predictions as JSONL to --output, scored through\n"
            "the vectorized batch fold-in engine -- the way to profile\n"
            "whole populations offline.\n"
            "\nexample:\n"
            "  python -m repro predict model.mlp.npz --users 0 1 2\n"
            "  python -m repro predict model.mlp.npz --requests specs.json "
            "-o out.json\n"
            "  python -m repro predict model.mlp.npz --input specs.jsonl "
            "--output preds.jsonl\n"
        ),
    )
    p.add_argument("artifact", type=Path, help="model artifact path (.mlp.npz)")
    p.add_argument(
        "--users",
        type=int,
        nargs="*",
        default=None,
        help="training-set user ids to score",
    )
    p.add_argument(
        "--requests",
        type=Path,
        default=None,
        help="JSON file with a list of user specs",
    )
    p.add_argument(
        "--input",
        type=Path,
        default=None,
        help="JSONL file of user specs (one JSON object per line); "
        "bulk mode, mutually exclusive with --users/--requests",
    )
    p.add_argument(
        "--top-k",
        type=int,
        default=3,
        help="profile entries per prediction (default: %(default)s)",
    )
    p.add_argument(
        "--output",
        "-o",
        type=Path,
        default=None,
        help="write predictions to this file (default: stdout); JSON "
        "normally, JSONL in --input bulk mode",
    )


def _add_ingest(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "ingest",
        help="stream world deltas into a saved artifact's world offline",
        description=(
            "Apply a stream of WorldDelta batches (new users, follow "
            "edges, venue mentions, label updates) to a saved "
            "artifact's world -- the offline twin of the server's "
            "POST /ingest.  Each input line is one delta; each output "
            "line reports the new world generation and chained hash.  "
            "Optionally re-scores the delta-affected unlabeled users "
            "afterwards."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "delta JSONL line format:\n"
            '  {"new_users": [{"observed_location": 5}, {}],\n'
            '   "edges": [[0, 3], [612, 4]],\n'
            '   "tweets": [[612, 17], [3, "austin"]],\n'
            '   "labels": {"12": 3, "15": null}}\n'
            "\nexample:\n"
            "  python -m repro ingest model.mlp.npz --input deltas.jsonl\n"
            "  python -m repro ingest model.mlp.npz --input deltas.jsonl \\\n"
            "      --journal journal/ --score-output rescored.jsonl\n"
        ),
    )
    p.add_argument("artifact", type=Path, help="model artifact path (.mlp.npz)")
    p.add_argument(
        "--input",
        type=Path,
        required=True,
        help="JSONL file of delta payloads (one JSON object per line)",
    )
    p.add_argument(
        "--journal",
        type=Path,
        default=None,
        metavar="DIR",
        help="durable ingest: recover this write-ahead journal "
        "directory first, then append every delta to it before "
        "applying -- repeated invocations continue the generation "
        "chain",
    )
    p.add_argument(
        "--score-output",
        type=Path,
        default=None,
        metavar="PATH",
        help="after ingesting, re-score the delta-affected unlabeled "
        "users through the batch fold-in engine and write JSONL "
        "predictions here",
    )
    p.add_argument(
        "--top-k",
        type=int,
        default=3,
        help="profile entries per re-scored prediction (default: %(default)s)",
    )


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve",
        help="serve fold-in inference over HTTP from a saved artifact",
        description=(
            "Run the JSON-over-HTTP inference server on a saved model "
            "artifact: POST /predict-home (fold-in), POST /predict-batch "
            "(bulk population scoring), POST /profile (stored "
            "posterior), POST /explain-edge, GET /healthz, GET /artifact."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "example:\n"
            "  python -m repro serve model.mlp.npz --port 8000 &\n"
            "  curl -s localhost:8000/healthz\n"
            "  curl -s -X POST localhost:8000/predict-home \\\n"
            '       -d \'{"users": [{"user_id": 7}]}\'\n'
        ),
    )
    p.add_argument("artifact", type=Path, help="model artifact path (.mlp.npz)")
    p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)"
    )
    p.add_argument(
        "--port", type=int, default=8000, help="bind port (default: %(default)s)"
    )
    p.add_argument(
        "--cache-size",
        type=_positive_int,
        default=1024,
        help="LRU prediction cache capacity (default: %(default)s)",
    )
    p.add_argument(
        "--access-log",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit one structured JSON line per request (route, status, "
        "latency_ms, trace id) to FILE, or stderr when no FILE is given",
    )
    p.add_argument(
        "--journal",
        type=Path,
        default=None,
        metavar="DIR",
        help="durable ingest: recover this write-ahead journal "
        "directory on boot (snapshot + tail replay) and journal every "
        "POST /ingest before applying it",
    )
    p.add_argument(
        "--journal-fsync",
        type=_positive_int,
        default=1,
        metavar="N",
        help="fsync the journal every N appends (default: %(default)s "
        "-- every acknowledged ingest survives kill -9)",
    )
    p.add_argument(
        "--workers",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="fork N predictor processes (attached to a world store by "
        "mmap) and dispatch predict traffic to them; 0 (the default) "
        "solves every request in this process",
    )
    p.add_argument(
        "--coalesce-ms",
        type=float,
        default=2.0,
        metavar="MS",
        help="micro-batching window: predict requests arriving within "
        "MS milliseconds coalesce into one batch solve, at any "
        "--workers count (default: %(default)s)",
    )
    p.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help="world-store directory the --workers N > 0 topology "
        "publishes to (generation-versioned mmap arenas; default: a "
        "temporary directory removed on exit)",
    )
    p.add_argument(
        "--drain-seconds",
        type=float,
        default=10.0,
        metavar="S",
        help="graceful-shutdown deadline: on SIGTERM/SIGINT, stop "
        "accepting and give in-flight requests up to S seconds "
        "(default: %(default)s)",
    )


def _add_replay(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "replay",
        help="recover a journaled world and report its identity",
        description=(
            "Open a write-ahead journal directory against an "
            "artifact's world, recover it (load the newest chaining "
            "snapshot, replay the delta tail, repair any torn/corrupt "
            "suffix) and print the recovery report as JSON: final "
            "generation, chained world hash, records replayed/dropped "
            "and bytes repaired."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "example:\n"
            "  python -m repro replay model.mlp.npz --journal journal/\n"
            "  python -m repro replay model.mlp.npz --journal journal/ "
            "--verify\n"
        ),
    )
    p.add_argument("artifact", type=Path, help="model artifact path (.mlp.npz)")
    p.add_argument(
        "--journal",
        type=Path,
        required=True,
        metavar="DIR",
        help="write-ahead journal directory to recover",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="golden check: recompile the replayed world from its raw "
        "relationship arrays and require bit-identical derived arrays "
        "(exit 1 on mismatch)",
    )


def _add_compact(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "compact",
        help="snapshot a journaled world and truncate the journal",
        description=(
            "Recover a journal directory, checkpoint the recovered "
            "world as a snapshot directory (snapshot-<generation>/: "
            "one .npy per arena plus meta.json) and truncate "
            "the journal behind it -- future recoveries load the "
            "snapshot and replay only the post-compaction tail.  "
            "Prints the compaction report as JSON."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "example:\n"
            "  python -m repro compact model.mlp.npz --journal journal/\n"
        ),
    )
    p.add_argument("artifact", type=Path, help="model artifact path (.mlp.npz)")
    p.add_argument(
        "--journal",
        type=Path,
        required=True,
        metavar="DIR",
        help="write-ahead journal directory to compact",
    )


def _add_info(sub: argparse._SubParsersAction) -> None:
    sub.add_parser(
        "info",
        help="print version and runtime information as JSON",
        description=(
            "Print the package version, available Gibbs engines, numpy "
            "version and the artifact format version this build reads "
            "and writes -- the first things to check when a served "
            "artifact misbehaves."
        ),
    )


def _add_evaluate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "evaluate",
        help="five-method home-prediction comparison (Table 2)",
        description=(
            "Run the Sec. 5.1 home-prediction protocol: hide a holdout "
            "of labels, predict them with MLP, MLP_U, MLP_C and the "
            "baselines, and print the Table 2 accuracy comparison."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_ENGINE_EPILOG,
    )
    p.add_argument("dataset", type=Path, help="dataset JSON path")
    p.add_argument(
        "--iterations",
        type=int,
        default=24,
        help="total Gibbs sweeps per fit (default: %(default)s)",
    )
    p.add_argument(
        "--burn-in",
        type=int,
        default=10,
        help="sweeps discarded before accumulation (default: %(default)s)",
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: %(default)s)")
    p.add_argument(
        "--holdout",
        type=float,
        default=0.2,
        help="fraction of labels hidden for testing (default: %(default)s)",
    )
    _add_engine_arguments(p)


def _add_reproduce(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "reproduce",
        help="regenerate every paper table and figure",
        description=(
            "Regenerate the full artifact set of the paper (Tables 2-5, "
            "Figures 3-8) from one synthetic world, printing each as "
            "text and optionally writing them to a directory."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_ENGINE_EPILOG,
    )
    p.add_argument(
        "--users", type=int, default=900, help="world size (default: %(default)s)"
    )
    p.add_argument("--seed", type=int, default=11, help="RNG seed (default: %(default)s)")
    p.add_argument(
        "--output-dir", type=Path, default=None,
        help="also write each artifact to this directory",
    )
    _add_engine_arguments(p)


def _add_metrics(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "metrics",
        help="dump (or watch) a running server's /metrics",
        description=(
            "Fetch GET /metrics from a running `repro serve` instance "
            "and print the Prometheus text exposition, optionally "
            "filtered and refreshed on an interval."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "example:\n"
            "  python -m repro metrics\n"
            "  python -m repro metrics --url http://127.0.0.1:8000 "
            "--grep http_request --watch 2\n"
        ),
    )
    p.add_argument(
        "--url",
        default="http://127.0.0.1:8000",
        help="server base URL (default: %(default)s)",
    )
    p.add_argument(
        "--grep",
        default=None,
        metavar="SUBSTR",
        help="only print sample/comment lines containing SUBSTR",
    )
    p.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="refresh every SECONDS until interrupted instead of "
        "dumping once",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argparse tree (one subparser per command)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multiple Location Profiling (VLDB 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_stats(sub)
    _add_fit(sub)
    _add_evaluate(sub)
    _add_reproduce(sub)
    _add_predict(sub)
    _add_ingest(sub)
    _add_replay(sub)
    _add_compact(sub)
    _add_serve(sub)
    _add_metrics(sub)
    _add_query(sub)
    _add_info(sub)
    return parser


def _add_query(sub) -> None:
    """Register ``repro query`` (tree lives in :mod:`repro.query.cli`)."""
    from repro.query.cli import add_query_parser

    add_query_parser(sub)


def cmd_query(args: argparse.Namespace) -> int:
    """``repro query <kind>``: geo-analytics over predicted homes."""
    from repro.query.cli import cmd_query as run

    return run(args)


def cmd_info(args: argparse.Namespace) -> int:
    """``repro info``: print version and runtime information as JSON."""
    import platform

    import numpy as np

    import repro
    from repro.engine import ENGINES
    from repro.serving.artifacts import (
        ARTIFACT_VERSION,
        SUPPORTED_ARTIFACT_VERSIONS,
    )

    print(
        json.dumps(
            {
                "version": repro.__version__,
                "engines": sorted(ENGINES),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "artifact_format_version": ARTIFACT_VERSION,
                "artifact_format_reads": list(SUPPORTED_ARTIFACT_VERSIONS),
            },
            indent=2,
        )
    )
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    """``repro generate``: write a synthetic world to disk."""
    from repro.data.generator import SyntheticWorldConfig, generate_world
    from repro.data.io import save_dataset

    config = SyntheticWorldConfig(
        n_users=args.users,
        seed=args.seed,
        labeled_fraction=args.labeled_fraction,
        mean_friends=args.mean_friends,
        mean_venues=args.mean_venues,
        render_tweets=args.render_tweets,
    )
    dataset = generate_world(config, shards=args.shards)
    save_dataset(dataset, args.output)
    print(f"wrote {dataset} -> {args.output}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats``: print dataset statistics."""
    from repro.data.io import load_dataset
    from repro.data.stats import compute_stats

    dataset = load_dataset(args.dataset)
    print(json.dumps(compute_stats(dataset).as_dict(), indent=2))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    """``repro fit``: fit the MLP model and print profiles."""
    from repro.core.model import MLPModel
    from repro.core.params import MLPParams
    from repro.data.io import load_dataset

    dataset = load_dataset(args.dataset)
    params = MLPParams(
        n_iterations=args.iterations,
        burn_in=args.burn_in,
        seed=args.seed,
        engine=args.engine,
        n_jobs=args.jobs,
        n_chains=args.chains,
    )
    result = MLPModel(params).fit(dataset)
    law = result.fitted_law
    print(f"fitted law: alpha={law.alpha:.3f} beta={law.beta:.5f}")
    if result.posterior is not None:
        summary = ", ".join(
            f"{name}={value:.3f}"
            for name, value in result.posterior.convergence_summary().items()
        )
        print(f"chains: {args.chains}  R-hat: {summary}")

    if args.users is not None:
        user_ids = args.users
    else:
        user_ids = list(dataset.multi_location_user_ids()[:5])
    gaz = dataset.gazetteer
    for uid in user_ids:
        if not 0 <= uid < dataset.n_users:
            print(f"user {uid}: not in dataset", file=sys.stderr)
            continue
        profile = result.profile_of(uid)
        print(f"user {uid}: {profile.describe(gaz, k=args.top_k)}")
    if args.save_artifact is not None:
        from repro.serving.artifacts import save_result

        artifact_id = save_result(result, args.save_artifact)
        print(f"saved artifact -> {args.save_artifact} (id {artifact_id})")
    return 0


def _load_predictor(artifact_path, cache_size: int = 1024):
    """Shared predict/serve bootstrap: artifact -> FoldInPredictor."""
    from repro.serving.artifacts import artifact_metadata, load_result
    from repro.serving.foldin import FoldInPredictor

    meta = artifact_metadata(artifact_path)
    return FoldInPredictor(
        load_result(artifact_path),
        artifact_id=meta["artifact_id"],
        cache_size=cache_size,
    )


def _cmd_predict_bulk(args: argparse.Namespace, predictor) -> int:
    """``predict --input specs.jsonl --output preds.jsonl``: the bulk path.

    Reads one spec per line, scores in batches through the vectorized
    engine, and streams one prediction per line -- memory stays bounded
    no matter how large the population dump is.
    """
    gaz = predictor.dataset.gazetteer
    chunk = 4096
    written = 0
    try:
        # Open (and thereby validate) the input *before* touching the
        # output: a typo'd --input must not truncate an existing
        # predictions file.
        lines = args.input.open()
    except OSError as exc:
        print(f"cannot read --input: {exc}", file=sys.stderr)
        return 2
    try:
        out = args.output.open("w") if args.output is not None else sys.stdout
    except OSError as exc:
        lines.close()
        print(f"cannot write --output: {exc}", file=sys.stderr)
        return 2
    try:
        with lines:
            batch: list[dict] = []
            for line_no, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    batch.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    print(f"bad JSONL line {line_no}: {exc}", file=sys.stderr)
                    return 2
                if len(batch) < chunk:
                    continue
                written += _write_bulk_predictions(predictor, batch, gaz, args, out)
                batch = []
            if batch:
                written += _write_bulk_predictions(predictor, batch, gaz, args, out)
    except ValueError as exc:
        print(f"bad request: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.output is not None:
            out.close()
    if args.output is not None:
        print(f"wrote {written} predictions -> {args.output}")
    return 0


def _write_bulk_predictions(predictor, requests, gaz, args, out) -> int:
    from repro.serving.foldin import prediction_payload

    specs = [predictor.resolve_request(entry) for entry in requests]
    # One-shot population dumps are mostly-unique specs: caching them
    # would only churn the LRU (score_population does the same).
    predictions = predictor.predict_batch(specs, use_cache=False)
    for request, prediction in zip(requests, predictions):
        record = {
            "request": request,
            **prediction_payload(prediction, gaz, top_k=args.top_k),
        }
        out.write(json.dumps(record) + "\n")
    return len(specs)


def cmd_predict(args: argparse.Namespace) -> int:
    """``repro predict``: offline batch fold-in against an artifact."""
    from repro.serving.foldin import prediction_payload

    if args.input is not None and (
        args.users is not None or args.requests is not None
    ):
        # Knowable from the flags alone -- fail before paying the
        # artifact load.
        print(
            "--input (bulk JSONL) cannot be combined with "
            "--users/--requests",
            file=sys.stderr,
        )
        return 2
    predictor = _load_predictor(args.artifact)
    if args.input is not None:
        return _cmd_predict_bulk(args, predictor)
    requests: list[dict] = []
    if args.users is not None:
        requests.extend({"user_id": uid} for uid in args.users)
    if args.requests is not None:
        entries = json.loads(args.requests.read_text())
        if not isinstance(entries, list):
            print("--requests file must hold a JSON list", file=sys.stderr)
            return 2
        requests.extend(entries)
    if not requests:
        print("nothing to score: pass --users and/or --requests", file=sys.stderr)
        return 2
    try:
        specs = [predictor.resolve_request(entry) for entry in requests]
    except ValueError as exc:
        print(f"bad request: {exc}", file=sys.stderr)
        return 2
    gaz = predictor.dataset.gazetteer
    payload = {
        "artifact_id": predictor.artifact_id,
        "predictions": [
            {"request": request, **prediction_payload(p, gaz, top_k=args.top_k)}
            for request, p in zip(
                requests, predictor.predict_batch(specs)
            )
        ],
    }
    text = json.dumps(payload, indent=2)
    if args.output is not None:
        args.output.write_text(text + "\n")
        print(f"wrote {len(specs)} predictions -> {args.output}")
    else:
        print(text)
    return 0


def _rebuild_predictor(predictor, world):
    """A predictor over a journal-recovered world, same frozen tables."""
    from repro.serving.foldin import FoldInPredictor

    return FoldInPredictor(
        predictor.result,
        artifact_id=predictor.artifact_id,
        cache_size=predictor.cache.max_size,
        world=world,
    )


def _recover_journaled_predictor(predictor, journal_dir, fsync_every=1):
    """Open + recover a journal over the predictor's world.

    Returns ``(predictor, journal, report)``, the predictor swapped to
    the recovered world when the journal was ahead of the artifact.
    ``JournalError`` propagates for the caller to turn into exit code 2.
    """
    from repro.data.journal import open_journal

    world, journal, report = open_journal(
        journal_dir, predictor.world, fsync_every=fsync_every
    )
    if world is not predictor.world:
        predictor = _rebuild_predictor(predictor, world)
    return predictor, journal, report


def cmd_ingest(args: argparse.Namespace) -> int:
    """Stream deltas into an artifact's world; optionally re-score."""
    from repro.data.delta import WorldDelta
    from repro.serving.batch import score_population
    from repro.serving.foldin import prediction_payload

    predictor = _load_predictor(args.artifact)
    gaz = predictor.world.gazetteer
    journal = None
    boot_generation = 0
    if args.journal is not None:
        from repro.data.journal import JournalError, journaled_ingest

        try:
            predictor, journal, report = _recover_journaled_predictor(
                predictor, args.journal
            )
        except JournalError as exc:
            print(f"cannot open --journal: {exc}", file=sys.stderr)
            return 2
        boot_generation = predictor.world.generation
        print(json.dumps({"recovered": report}), file=sys.stderr)
    try:
        try:
            lines = args.input.open()
        except OSError as exc:
            print(f"cannot read --input: {exc}", file=sys.stderr)
            return 2
        applied = 0
        with lines:
            for line_no, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    payload = json.loads(line)
                    delta = WorldDelta.from_payload(payload, gazetteer=gaz)
                    if journal is not None:
                        world = journaled_ingest(predictor, journal, delta)
                    else:
                        world = predictor.refresh(delta)
                except (
                    json.JSONDecodeError,
                    ValueError,
                    TypeError,
                    KeyError,
                ) as exc:
                    print(
                        f"bad delta on line {line_no}: {exc}", file=sys.stderr
                    )
                    return 2
                applied += 1
                record = world.delta_log[-1]
                print(
                    json.dumps(
                        {
                            "generation": world.generation,
                            "world_hash": world.content_hash,
                            "users": world.n_users,
                            "new_users": record.n_new_users,
                            "edges": record.n_edges,
                            "tweets": record.n_tweets,
                            "label_updates": record.n_label_updates,
                            "touched_users": int(record.touched_users.size),
                        }
                    )
                )
        if args.score_output is not None:
            # Always produce the requested file -- zero applied deltas
            # means zero affected users, which is an *empty* JSONL, not
            # a silently missing one.  On a journaled run the window
            # starts at the *recovered* generation -- only this
            # invocation's deltas are re-scored.
            if applied:
                from repro.data.delta import StaleWindowError

                try:
                    predictions = score_population(
                        predictor.world,
                        predictor.result,
                        predictor=predictor,
                        since_generation=boot_generation,
                    )
                except StaleWindowError as exc:
                    # A stream longer than the retained log: the
                    # touched set is gone, so re-score the whole
                    # unlabeled population instead of failing after a
                    # successful ingest -- but say so, loudly: a silent
                    # fallback turns "re-scored the delta" into
                    # "re-scored the world" without anyone noticing the
                    # cost or the cause (docs/API.md, "Incremental
                    # re-scoring window").
                    print(
                        "warning: incremental re-score window lost "
                        f"({exc}); falling back to a FULL re-score of "
                        "the unlabeled population",
                        file=sys.stderr,
                    )
                    predictions = score_population(
                        predictor.world, predictor.result, predictor=predictor
                    )
            else:
                predictions = {}
            with args.score_output.open("w") as out:
                for uid in sorted(predictions):
                    record = {
                        "user_id": uid,
                        **prediction_payload(
                            predictions[uid], gaz, top_k=args.top_k
                        ),
                    }
                    out.write(json.dumps(record) + "\n")
            print(
                f"re-scored {len(predictions)} delta-affected users -> "
                f"{args.score_output}",
                file=sys.stderr,
            )
        return 0
    finally:
        if journal is not None:
            journal.close()


def cmd_replay(args: argparse.Namespace) -> int:
    """Recover a journaled world; print the report; optionally verify."""
    from repro.data.journal import JournalError, open_journal

    predictor = _load_predictor(args.artifact)
    try:
        world, journal, report = open_journal(
            args.journal, predictor.world, create=False
        )
    except JournalError as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 2
    journal.close()
    print(json.dumps(report))
    if args.verify:
        from repro.data.columnar import ColumnarWorld

        rebuilt = ColumnarWorld.from_edge_arrays(
            world.gazetteer,
            world.observed_location,
            world.edge_src,
            world.edge_dst,
            world.tweet_user,
            world.tweet_venue,
        )
        if rebuilt.rehash() != world.rehash():
            print(
                "verify FAILED: replayed arrays differ from a "
                "from-scratch recompile of the same relationships",
                file=sys.stderr,
            )
            return 1
        print(
            f"verify ok: generation {world.generation} is bit-identical "
            "to a from-scratch recompile",
            file=sys.stderr,
        )
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    """Recover a journaled world, snapshot it, truncate the journal."""
    from repro.data.journal import JournalError, open_journal

    predictor = _load_predictor(args.artifact)
    try:
        world, journal, _report = open_journal(
            args.journal, predictor.world, create=False
        )
    except JournalError as exc:
        print(f"compact failed: {exc}", file=sys.stderr)
        return 2
    try:
        print(json.dumps(journal.compact(world)))
    finally:
        journal.close()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: serve fold-in inference over HTTP."""
    predictor = _load_predictor(args.artifact, cache_size=args.cache_size)
    journal = None
    if args.journal is not None:
        from repro.data.journal import JournalError

        try:
            predictor, journal, report = _recover_journaled_predictor(
                predictor, args.journal, fsync_every=args.journal_fsync
            )
        except JournalError as exc:
            print(f"cannot open --journal: {exc}", file=sys.stderr)
            return 2
        print(
            f"journal {args.journal}: recovered generation "
            f"{report['generation']} ({report['world_hash']}), "
            f"replayed {report['replayed']} of {report['records']} "
            f"records"
            + (
                f" from snapshot generation "
                f"{report['snapshot_generation']}"
                if report["snapshot"] is not None
                else ""
            ),
            flush=True,
        )
    access_log = None
    access_log_fh = None
    if args.access_log is not None:
        if args.access_log == "-":
            access_log = sys.stderr
        else:
            access_log_fh = open(args.access_log, "a", encoding="utf-8")
            access_log = access_log_fh
    try:
        return _serve(args, predictor, journal, access_log)
    finally:
        if journal is not None:
            journal.close()
        if access_log_fh is not None:
            access_log_fh.close()


def _serve(args, predictor, journal, access_log) -> int:
    """Run the asyncio front end until SIGTERM/SIGINT, then drain.

    With ``--workers N > 0`` the world is published to a store (a
    temporary one unless ``--store`` names it) and N workers are forked
    before the event loop starts; at 0 workers neither exists.
    """
    import asyncio
    import shutil
    import signal
    import tempfile

    from repro.serving.frontend import make_frontend
    from repro.serving.store import StoreError, WorldStore

    store = store_dir = None
    temp_store = False
    try:
        if args.workers > 0:
            store_dir = args.store
            temp_store = store_dir is None
            if temp_store:
                store_dir = tempfile.mkdtemp(prefix="repro-store-")
            store = WorldStore(store_dir, predictor.world.gazetteer)
        try:
            frontend = make_frontend(
                predictor,
                store,
                args.workers,
                host=args.host,
                port=args.port,
                coalesce_ms=args.coalesce_ms,
                journal=journal,
                access_log=access_log,
            )
        except StoreError as exc:
            print(f"cannot open --store: {exc}", file=sys.stderr)
            return 2
        # The 0-worker banner ends at the port: scripts parse it.
        topology = ""
        if store is not None:
            topology = (
                f" [{args.workers} workers, coalesce {args.coalesce_ms}ms, "
                f"store {store_dir}]"
            )

        async def main() -> None:
            await frontend.start()
            print(
                f"serving artifact {predictor.artifact_id} "
                f"({predictor.world.n_users} users, generation "
                f"{predictor.world.generation}) on "
                f"http://{args.host}:{frontend.port}{topology}",
                flush=True,
            )
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, stop.set)
            await stop.wait()
            print("draining...", flush=True)
            await frontend.drain(args.drain_seconds)

        asyncio.run(main())
    finally:
        if store is not None:
            store.close()
        if temp_store:
            shutil.rmtree(store_dir, ignore_errors=True)
    print("shut down cleanly", flush=True)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """``repro metrics``: dump (or watch) a server's /metrics."""
    import time as _time
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + "/metrics"

    def fetch_and_print() -> int:
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                text = response.read().decode("utf-8")
        except (urllib.error.URLError, OSError) as exc:
            print(f"cannot fetch {url}: {exc}", file=sys.stderr)
            return 1
        if args.grep is not None:
            text = "\n".join(
                line for line in text.splitlines() if args.grep in line
            )
            if text:
                text += "\n"
        print(text, end="" if text.endswith("\n") or not text else "\n")
        return 0

    if args.watch is None:
        return fetch_and_print()
    try:
        while True:
            print(f"--- {url} @ {_time.strftime('%H:%M:%S')} ---")
            fetch_and_print()
            _time.sleep(max(args.watch, 0.1))
    except KeyboardInterrupt:
        return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """``repro evaluate``: five-method home-prediction comparison."""
    from repro.core.params import MLPParams
    from repro.data.io import load_dataset
    from repro.evaluation.methods import standard_methods
    from repro.evaluation.splits import single_holdout_split
    from repro.evaluation.tasks import run_home_prediction
    from repro.experiments import report, tables

    dataset = load_dataset(args.dataset)
    params = MLPParams(
        n_iterations=args.iterations,
        burn_in=args.burn_in,
        seed=args.seed,
        track_edge_assignments=False,
        engine=args.engine,
        n_jobs=args.jobs,
        n_chains=args.chains,
    )
    split = single_holdout_split(dataset, args.holdout, seed=args.seed)
    results = run_home_prediction(
        dataset, standard_methods(params), splits=[split]
    )
    print(report.render_table2(tables.table2(dataset, results)))
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """``repro reproduce``: regenerate every paper table and figure."""
    from repro.experiments import report
    from repro.experiments.config import default_config
    from repro.experiments.runner import ExperimentSuite

    config = default_config(
        n_users=args.users,
        seed=args.seed,
        engine=args.engine,
        jobs=args.jobs,
        chains=args.chains,
    )
    suite = ExperimentSuite(config)
    artifacts = {
        "fig3a": report.render_fig3a(suite.fig3a),
        "fig3b": report.render_fig3b(suite.fig3b),
        "fig3c": report.render_fig3c(suite.fig3c),
        "table2": report.render_table2(suite.table2),
        "fig4": report.render_fig4(suite.fig4),
        "fig5": report.render_fig5(suite.fig5),
        "table3": report.render_table3(suite.table3),
        "fig6": report.render_rank_sweep(suite.fig6),
        "fig7": report.render_rank_sweep(suite.fig7),
        "table4": report.render_table4(suite.table4),
        "fig8": report.render_fig8(suite.fig8),
        "table5": report.render_table5(suite.table5),
    }
    for name, text in artifacts.items():
        print(text)
        print()
        if args.output_dir is not None:
            args.output_dir.mkdir(parents=True, exist_ok=True)
            (args.output_dir / f"{name}.txt").write_text(text + "\n")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "stats": cmd_stats,
    "fit": cmd_fit,
    "evaluate": cmd_evaluate,
    "reproduce": cmd_reproduce,
    "predict": cmd_predict,
    "ingest": cmd_ingest,
    "replay": cmd_replay,
    "compact": cmd_compact,
    "serve": cmd_serve,
    "metrics": cmd_metrics,
    "query": cmd_query,
    "info": cmd_info,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: parse argv and dispatch to one command."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
