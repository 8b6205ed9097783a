"""docs/API.md must cover every registered HTTP route, and only those.

The route tables in :mod:`repro.serving.server` (``GET_ROUTES`` /
``POST_ROUTES``, which the front end routes by) are diffed
against the ``### GET /...`` / ``### POST /...`` headings in
docs/API.md: an undocumented route or a documented-but-unregistered
route fails here, which is what keeps the reference complete as the
API grows.
"""

import re
from pathlib import Path

from repro.serving.server import GET_ROUTES, POST_ROUTES

DOC = Path(__file__).resolve().parent.parent / "docs" / "API.md"

HEADING = re.compile(r"^### (GET|POST) (/\S+)\s*$", re.MULTILINE)


def _documented_routes() -> dict[str, set[str]]:
    routes: dict[str, set[str]] = {"GET": set(), "POST": set()}
    for method, route in HEADING.findall(DOC.read_text(encoding="utf-8")):
        routes[method].add(route)
    return routes


def test_every_get_route_documented():
    documented = _documented_routes()["GET"]
    assert documented == set(GET_ROUTES), (
        f"docs/API.md GET headings {sorted(documented)} != registered "
        f"routes {sorted(GET_ROUTES)}"
    )


def test_every_post_route_documented():
    documented = _documented_routes()["POST"]
    assert documented == set(POST_ROUTES), (
        f"docs/API.md POST headings {sorted(documented)} != registered "
        f"routes {sorted(POST_ROUTES)}"
    )


def test_no_route_documented_under_both_methods():
    documented = _documented_routes()
    assert not documented["GET"] & documented["POST"]


def test_window_contract_documented():
    """The StaleWindowError docstrings point at this section by name."""
    text = DOC.read_text(encoding="utf-8")
    assert "## Incremental re-scoring window" in text
    assert "StaleWindowError" in text
    assert 'full_fallback' in text
    # One bound for every topology: a journal does not extend the
    # window past the world's delta log.
    section = text.split("## Incremental re-scoring window", 1)[1]
    section = section.split("\n## ", 1)[0]
    assert "DELTA_LOG_LIMIT" in section
    assert "last compaction" not in section
    assert "journal.touched_since" not in section
