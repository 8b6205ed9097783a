"""``repro query``: the geo-analytics query layer from the command line.

Four subcommands mirror the four ``GET /query/*`` routes (docs/API.md):

- ``repro query radius      --artifact m.mlp.npz --city "Austin, TX" --radius 100``
- ``repro query top-cities  --artifact m.mlp.npz -k 10``
- ``repro query venue-residents --artifact m.mlp.npz --venue princeton``
- ``repro query aggregate   --artifact m.mlp.npz --by state``

Offline mode (``--artifact``, optionally ``--journal`` to reflect
journaled ingest) builds the prediction index in-process and prints the
same JSON payload the HTTP routes serve.  ``--url`` mode instead issues
the corresponding GET against a running server -- handy for poking a
live deployment without loading the artifact locally -- and prints the
response body verbatim, so both modes are diffable against each other.
"""

from __future__ import annotations

import argparse
import json
import sys
from urllib.parse import urlencode


def add_query_parser(subparsers) -> None:
    """Register the ``query`` subcommand tree on the root CLI parser."""
    parser = subparsers.add_parser(
        "query",
        help="geo-analytics queries over predicted homes",
        description=(
            "Query the prediction index: radius lookups, top cities by "
            "predicted population, venue residents, and aggregates. "
            "Runs offline against an artifact or remotely via --url."
        ),
    )
    kinds = parser.add_subparsers(dest="query_command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        source = sub.add_mutually_exclusive_group(required=True)
        source.add_argument(
            "--artifact", type=str, default=None,
            help="score offline against this .mlp.npz artifact",
        )
        source.add_argument(
            "--url", type=str, default=None,
            help="query a running server (e.g. http://localhost:8000)",
        )
        sub.add_argument(
            "--journal", type=str, default=None,
            help="with --artifact: recover this delta journal first",
        )
        sub.add_argument(
            "--min-confidence", type=float, default=None,
            help="only count predictions with at least this posterior "
            "mass on the home",
        )

    radius = kinds.add_parser(
        "radius", help="predicted residents within a radius of a point/city"
    )
    common(radius)
    radius.add_argument("--radius", type=float, required=True,
                        help="radius in miles")
    radius.add_argument("--lat", type=float, default=None)
    radius.add_argument("--lon", type=float, default=None)
    radius.add_argument("--city", type=str, default=None,
                        help='center city, e.g. "Austin, TX"')
    radius.add_argument("--state", type=str, default=None)
    radius.add_argument("--limit", type=int, default=None,
                        help="max per-user rows in the answer")

    top = kinds.add_parser(
        "top-cities", help="cities ranked by predicted population"
    )
    common(top)
    top.add_argument("-k", type=int, default=None, help="cities to return")

    venue = kinds.add_parser(
        "venue-residents",
        help="predicted residents of the locations behind a venue name",
    )
    common(venue)
    venue.add_argument("--venue", type=str, default=None,
                       help="venue name, e.g. princeton")
    venue.add_argument("--venue-id", type=int, default=None,
                       help="dense venue id instead of a name")
    venue.add_argument("--limit", type=int, default=None)

    aggregate = kinds.add_parser(
        "aggregate", help="group-level aggregates of predicted homes"
    )
    common(aggregate)
    aggregate.add_argument("--by", type=str, default=None,
                           choices=("state", "city"))


def _request_of(args: argparse.Namespace) -> tuple[str, str]:
    """Map parsed CLI arguments to ``(route, query_string)``."""
    params: dict[str, str] = {}

    def put(key: str, value) -> None:
        if value is not None:
            params[key] = str(value)

    put("min_confidence", args.min_confidence)
    if args.query_command == "radius":
        route = "/query/radius"
        put("radius", args.radius)
        put("lat", args.lat)
        put("lon", args.lon)
        put("city", args.city)
        put("state", args.state)
        put("limit", args.limit)
    elif args.query_command == "top-cities":
        route = "/query/top-cities"
        put("k", args.k)
    elif args.query_command == "venue-residents":
        route = "/query/venue-residents"
        put("venue", args.venue)
        put("venue_id", args.venue_id)
        put("limit", args.limit)
    else:
        route = "/query/aggregate"
        put("by", args.by)
    return route, urlencode(params)


def _query_remote(url: str, route: str, query: str) -> int:
    """GET the route from a live server; print the body verbatim."""
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    target = url.rstrip("/") + route + ("?" + query if query else "")
    try:
        with urlopen(target, timeout=60) as response:
            print(response.read().decode("utf-8"))
            return 0
    except HTTPError as exc:
        print(exc.read().decode("utf-8", "replace"), file=sys.stderr)
        print(f"query failed: HTTP {exc.code} from {target}",
              file=sys.stderr)
        return 1
    except URLError as exc:
        print(f"cannot reach {target}: {exc}", file=sys.stderr)
        return 2


def cmd_query(args: argparse.Namespace) -> int:
    """Entry point wired into ``repro.cli`` for ``repro query ...``."""
    route, query = _request_of(args)
    if args.url is not None:
        return _query_remote(args.url, route, query)
    # Offline: load the artifact (recovering the journal when given)
    # and answer through the same QueryService the servers use.
    from repro.cli import _load_predictor, _recover_journaled_predictor
    from repro.query.service import QueryService

    predictor = _load_predictor(args.artifact)
    journal = None
    try:
        if args.journal is not None:
            from repro.data.journal import JournalError

            try:
                predictor, journal, _report = _recover_journaled_predictor(
                    predictor, args.journal
                )
            except JournalError as exc:
                print(f"cannot open --journal: {exc}", file=sys.stderr)
                return 2
        service = QueryService(predictor)
        try:
            payload = service.answer(route, query)
        except ValueError as exc:
            print(f"bad query: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(payload, indent=2))
        return 0
    finally:
        if journal is not None:
            journal.close()
