"""The HTTP server: one asyncio accept loop, optionally N worker processes.

``repro serve`` has exactly one HTTP implementation, this one, run in
one of two topologies chosen by ``--workers N``:

- ``N == 0`` (the default): one process, no world store, no worker
  pool.  Each coalesced predict window is solved inline on this
  process's predictor, in an executor thread;
- ``N > 0``: the writer's world is published to a
  :class:`~repro.serving.store.WorldStore`, N forked predictor workers
  attach it by mmap, and predict windows are dispatched to them.

Common to both:

- the accept loop speaks the protocol of :mod:`repro.serving.server`
  (route table, body caps, request metrics, payload builders);
- ``/predict-home`` and ``/predict-batch`` are **micro-batched**:
  requests arriving within a ``coalesce_ms`` window are coalesced into
  one dispatch, where the whole window folds into a single
  ``predict_batch`` call -- the fold-in engine pays its per-call cost
  (arena lowering, the iteration's numpy dispatch) once per window,
  not once per request;
- with workers, dispatches round-robin over the :class:`~repro.serving
  .workers.WorkerPool`; a dead worker (``kill -9``) is detected by its
  broken pipe, the batch re-dispatched to a survivor, and -- with no
  survivors -- served inline as at ``N == 0``: requests degrade, they
  are never lost to a worker death;
- ``/ingest`` runs on the **writer** predictor here (the single
  writer), write-ahead journaled when a journal is attached, then --
  with workers -- published to their store so they adopt the new
  generation before their next batch (RCU);
- ``/profile``, ``/explain-edge``, ``/artifact``, ``/healthz``,
  ``/metrics`` and ``GET /query/*`` are served inline on the writer
  predictor, the one predictor guaranteed to be at the newest
  generation (so the prediction index reflects every acknowledged
  ingest); blocking work such as a first-query index build runs in an
  executor thread so it never stalls the accept loop;
- predict responses carry an ``X-World-Generation`` header naming the
  generation they were served from.

HTTP/1.1 framing is strict: keep-alive connections, ASCII-digit
``Content-Length`` only, and every response that leaves a body unread
closes the connection so keep-alive clients cannot desync.  The request
head is bounded as the stdlib server bounds it -- a request line over
:data:`MAX_LINE_BYTES` is a 414, a longer header line or more than
:data:`MAX_HEADERS` header lines a 431, an unparsable request line a
400 -- and a head or body not delivered within
:data:`HEAD_READ_TIMEOUT` / :data:`BODY_READ_TIMEOUT` of its start is a
408; each of these closes the connection.  A keep-alive connection idle
between requests is left open.  Every response goes out in
one write, so the headers and body leave together rather than as two
segments that Nagle and delayed ACK hold apart on keep-alive.

Observability: every request is counted and timed in the
``repro_http_*`` families, logged to the optional JSON access log, and
run under a :func:`repro.obs.trace.trace_request` trace kept in the
front end's :class:`~repro.obs.trace.TraceBuffer` (slow requests in a
separate log, counts in ``/healthz``).  Executor hops go through
``asyncio.to_thread``, which copies the request's context, so spans
opened there (``foldin.solve``, ``ingest.apply``, ``journal.append``)
land in the request's trace.  A coalesced window is solved for many
requests at once, so a predict trace records its wait for the window
as one ``frontend.dispatch`` span.  Worker processes keep their own
metric registries: ``/metrics`` exports this process's view, and
worker-side solve counts surface through ``/healthz``'s per-worker
rows.

Graceful shutdown closes the listener and every idle keep-alive
connection, lets in-flight requests finish and write their responses
within a bounded deadline, then stops the coalescer and the pool.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.trace import TraceBuffer, span, trace_request
from repro.query.service import QueryService, split_query_path
from repro.serving.foldin import FoldInPredictor
from repro.serving.server import (
    GET_ROUTES,
    HTTP_ERRORS,
    HTTP_INFLIGHT,
    HTTP_LATENCY,
    HTTP_REQUESTS,
    MAX_BATCH_BODY_BYTES,
    MAX_BODY_BYTES,
    METRICS_CONTENT_TYPE,
    POST_ROUTES,
    apply_ingest,
    artifact_payload,
    explain_edge_payload,
    healthz_payload,
    ingest_response,
    profile_payload,
)
from repro.serving.store import WorldStore
from repro.serving.workers import (
    WorkerDied,
    WorkerPool,
    serve_predict_requests,
)

_REG = obs_metrics.get_registry()
#: Size of each coalesced dispatch, in requests -- the histogram that
#: shows whether the coalescing window is actually merging traffic
#: (all-ones means the window is too short or the load too thin).
COALESCE_BATCH_SIZE = _REG.histogram(
    "repro_serve_coalesced_batch_size",
    "Requests per coalesced predict dispatch",
    buckets=np.array([1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64], dtype=float),
)
COALESCE_DISPATCHES = _REG.counter(
    "repro_serve_dispatches_total",
    "Coalesced predict dispatches, by outcome",
    labelnames=("outcome",),
)

#: The two routes that go through the coalescer; every other route is
#: served inline on the event loop / writer.
_WORKER_ROUTES = ("/predict-home", "/predict-batch")

#: Methods counted under their own ``method`` label; any other token a
#: client sends counts as ``<unknown>``, so label cardinality stays
#: bounded exactly like the route label's.
_METHODS = frozenset(
    ("GET", "POST", "PUT", "DELETE", "PATCH", "HEAD", "OPTIONS")
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}

#: A declared body that never arrives must not pin its coroutine
#: forever: past this many seconds the request is answered 408.
BODY_READ_TIMEOUT = 30.0
#: The same bound for a request head, counted from its first byte: a
#: head still incomplete this long after it began is answered 408.  A
#: keep-alive connection idle *between* requests has no deadline.
HEAD_READ_TIMEOUT = 30.0
#: How long a drain waits, after the in-flight deadline, for closed
#: connections to flush what they still buffer (a peer that never
#: reads would hold one open forever).
CLOSE_GRACE_SECONDS = 1.0

#: Request-head bounds, the stdlib ``http.server`` values: any one line
#: of the head may be as long as the stream reader's buffer limit, and
#: a head may carry at most this many header lines.
MAX_LINE_BYTES = 1 << 16
MAX_HEADERS = 100


class AsyncFrontend:
    """Asyncio accept loop + micro-batcher, over an optional worker pool.

    With ``pool=None`` every coalesced window is solved inline on
    ``predictor`` and an ingest is applied to the writer only; with a
    pool, windows go to its workers and each ingest is published to
    the pool's store.
    """

    def __init__(
        self,
        predictor: FoldInPredictor,
        pool: WorkerPool | None = None,
        host: str = "127.0.0.1",
        port: int = 8000,
        coalesce_ms: float = 2.0,
        max_coalesce: int = 64,
        journal=None,
        access_log=None,
    ):
        #: The *writer* predictor: ingest applies deltas here, and the
        #: inline routes (profile/explain/healthz) read from it.  It is
        #: always at the newest generation by construction.
        self.predictor = predictor
        self.pool = pool
        self.host = host
        self.port = port
        self.coalesce_ms = float(coalesce_ms)
        self.max_coalesce = int(max_coalesce)
        #: Optional :class:`repro.data.journal.DeltaJournal`: when set,
        #: ``POST /ingest`` write-ahead journals every delta before
        #: applying it, and ``/healthz`` reports the journal position.
        self.journal = journal
        #: Optional writable text stream: one JSON line per request.
        self.access_log = access_log
        #: ``GET /query/*`` served on the writer predictor (always at
        #: the newest generation).
        self.query_service = QueryService(predictor)
        #: Completed request traces (recent ring + slow-request log).
        self.trace_buffer = TraceBuffer()
        self.started_unix = time.time()
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue | None = None
        self._coalescer: asyncio.Task | None = None
        self._ingest_lock: asyncio.Lock | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        #: Connection tasks idle between requests, waiting for the
        #: first byte of the next head; a drain closes these at once.
        self._parked: set[asyncio.Task] = set()
        #: Writers of connections not yet fully closed (flushed).
        self._writers: set[asyncio.StreamWriter] = set()
        self._inflight = 0
        self._idle: asyncio.Event | None = None
        self._draining = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start accepting requests."""
        self._queue = asyncio.Queue()
        self._ingest_lock = asyncio.Lock()
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._coalescer = asyncio.create_task(self._coalesce_loop())

    async def drain(self, deadline_seconds: float = 10.0) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight, stop pool.

        Idle keep-alive connections are closed at once; requests in
        flight get until the deadline to finish and write their
        response.  Returns ``True`` when every one of them did; either
        way the coalescer is cancelled, remaining connections are closed
        and the workers stopped afterwards.  No step waits on a client
        beyond ``deadline_seconds`` + :data:`CLOSE_GRACE_SECONDS`.
        """
        if self._draining:
            return True
        self._draining = True
        if self._server is not None:
            self._server.close()
        for task in list(self._parked):
            task.cancel()
        drained = True
        if self._idle is not None and self._inflight > 0:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), timeout=deadline_seconds
                )
            except TimeoutError:
                drained = False
        if self._coalescer is not None:
            self._coalescer.cancel()
            try:
                await self._coalescer
            except (asyncio.CancelledError, Exception):
                pass
        writers = list(self._writers)
        for task in list(self._conn_tasks):
            task.cancel()
        # A closed transport still flushes its buffer, but only while
        # the loop runs: give every connection a bounded chance to.
        # (Not ``Server.wait_closed``, which since Python 3.12.1 waits
        # for every connection with no bound.)
        for writer in writers:
            writer.close()
        try:
            await asyncio.wait_for(
                asyncio.gather(
                    *(w.wait_closed() for w in writers),
                    return_exceptions=True,
                ),
                timeout=CLOSE_GRACE_SECONDS,
            )
        except TimeoutError:
            pass
        if self.pool is not None:
            await asyncio.to_thread(self.pool.stop_all)
        return drained

    # -- coalescing dispatcher ---------------------------------------------

    async def _coalesce_loop(self) -> None:
        """Collect predict traffic into windows; one dispatch per window.

        Classic micro-batching: the first request opens a window of
        ``coalesce_ms``; everything arriving inside it (up to
        ``max_coalesce``) joins the same dispatch.  Each dispatch runs
        as its own task, so consecutive windows solve concurrently
        (on *different* workers, or in different executor threads)
        while the loop is already collecting the next one.
        """
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        window = self.coalesce_ms / 1000.0
        while True:
            batch = [await self._queue.get()]
            deadline = loop.time() + window
            while len(batch) < self.max_coalesce:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(
                            self._queue.get(), timeout=remaining
                        )
                    )
                except TimeoutError:
                    break
            COALESCE_BATCH_SIZE.observe(len(batch))
            task = asyncio.create_task(self._dispatch_batch(batch))
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)

    async def _dispatch_batch(self, batch: list) -> None:
        """Serve one coalesced batch: on a worker, else inline.

        With a pool, tries every live worker once (round-robin); a
        :class:`WorkerDied` marks the casualty and re-dispatches the
        *entire* batch to the next -- the worker never acknowledged, so
        nothing was half-served.  Without a pool, or with the whole
        pool dead, the batch is served inline on the writer's
        predictor; after worker deaths that is slower, never wrong,
        and ``/healthz`` makes the degradation visible.
        """
        requests = [
            {"route": route, "payload": payload}
            for route, payload, _ in batch
        ]
        if self.pool is not None:
            message = {"kind": "predict", "requests": requests}
            for _ in range(len(self.pool.workers)):
                worker = self.pool.next_worker()
                if worker is None:
                    break
                try:
                    reply = await asyncio.to_thread(
                        worker.call, message, self.pool.call_timeout
                    )
                except WorkerDied:
                    COALESCE_DISPATCHES.labels(outcome="worker_died").inc()
                    continue
                if not isinstance(reply, dict) or not reply.get("ok"):
                    error = (
                        reply.get("error", "worker error")
                        if isinstance(reply, dict)
                        else "worker protocol error"
                    )
                    self._resolve_batch(
                        batch,
                        [{"status": 500, "body": {"error": error}}]
                        * len(batch),
                        None,
                    )
                    COALESCE_DISPATCHES.labels(outcome="worker_error").inc()
                    return
                self._resolve_batch(
                    batch, reply["results"], reply.get("generation")
                )
                COALESCE_DISPATCHES.labels(outcome="ok").inc()
                return
            # Every worker is gone: degrade to the writer's own predictor.
            outcome, failed = "fallback_inline", "fallback_error"
        else:
            outcome, failed = "inline", "inline_error"
        try:
            results = await asyncio.to_thread(
                serve_predict_requests, self.predictor, requests
            )
        except Exception as exc:
            self._resolve_batch(
                batch,
                [
                    {
                        "status": 500,
                        "body": {
                            "error": f"internal error: {type(exc).__name__}"
                        },
                    }
                ]
                * len(batch),
                None,
            )
            COALESCE_DISPATCHES.labels(outcome=failed).inc()
            return
        self._resolve_batch(batch, results, self.predictor.world.generation)
        COALESCE_DISPATCHES.labels(outcome=outcome).inc()

    @staticmethod
    def _resolve_batch(batch, results, generation) -> None:
        for (_, _, future), result in zip(batch, results):
            if not future.done():
                future.set_result(
                    (result["status"], result["body"], generation)
                )

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            while True:
                if not await self._handle_one_request(reader, writer):
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            finally:
                self._writers.discard(writer)

    def _request_started(self) -> None:
        self._inflight += 1
        HTTP_INFLIGHT.inc()
        if self._idle is not None:
            self._idle.clear()

    def _request_finished(self) -> None:
        """The response is written: the drain need not wait for it."""
        self._inflight -= 1
        if self._inflight <= 0 and self._idle is not None:
            self._idle.set()

    async def _read_head(self, reader):
        """Read one request head, bounded.

        Returns ``None`` at end of stream, else ``(method, target,
        headers, error)``, where ``error`` is ``None`` or the
        ``(status, message)`` to answer instead of serving.  Waiting
        for the head's first byte is unbounded (and cancelled by a
        drain); the rest must arrive within :data:`HEAD_READ_TIMEOUT`.
        """
        task = asyncio.current_task()
        self._parked.add(task)
        try:
            first = await reader.read(1)
        finally:
            self._parked.discard(task)
        if not first:
            return None
        try:
            async with asyncio.timeout(HEAD_READ_TIMEOUT):
                return await self._read_head_rest(first, reader)
        except TimeoutError:
            error = (
                f"request head not received within "
                f"{HEAD_READ_TIMEOUT:g} seconds"
            )
            return "<unknown>", "", {}, (408, error)

    @staticmethod
    async def _read_head_rest(first: bytes, reader):
        """:meth:`_read_head` after the first byte (``first``)."""
        try:
            line = first
            if first != b"\n":
                line += await reader.readline()
        except ValueError:  # longer than the reader's buffer limit
            return "<unknown>", "", {}, (
                414, f"request line exceeds {MAX_LINE_BYTES} bytes"
            )
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            return "<unknown>", "", {}, (400, "malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            try:
                line = await reader.readline()
            except ValueError:
                return method, target, headers, (
                    431, f"header line exceeds {MAX_LINE_BYTES} bytes"
                )
            if line in (b"\r\n", b"\n", b""):
                return method, target, headers, None
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method, target, headers, (
            431, f"more than {MAX_HEADERS} header lines"
        )

    async def _handle_one_request(self, reader, writer) -> bool:
        """Read/serve one request; returns False to drop the connection.

        The request is counted, logged and its trace deposited *before*
        the response is written, so a client holding the response
        always finds it in ``/metrics``, the access log and the trace
        buffer.  It stays in flight for a drain until the response has
        been written out.
        """
        head = await self._read_head(reader)
        if head is None or self._draining:
            return False
        method, target, headers, error = head
        route, _ = split_query_path(target)
        if route not in GET_ROUTES and route not in POST_ROUTES:
            route = "<unknown>"
        method_label = method if method in _METHODS else "<unknown>"
        self._request_started()
        try:
            t0 = time.perf_counter()
            status = 0
            with trace_request(
                f"{method_label} {route}",
                self.trace_buffer,
                meta={"route": route},
            ) as trace:
                try:
                    if error is not None:
                        status, message = error
                        response = _json_response(
                            status, {"error": message}, close=True
                        )
                        keep_alive = False
                    else:
                        status, response, keep_alive = (
                            await self._serve_request(
                                method, target, headers, reader
                            )
                        )
                finally:
                    trace.meta["status"] = status
                    elapsed = time.perf_counter() - t0
                    HTTP_INFLIGHT.dec()
                    HTTP_REQUESTS.labels(
                        route=route, method=method_label, status=str(status)
                    ).inc()
                    HTTP_LATENCY.labels(route=route).observe(elapsed)
                    if status >= 400:
                        HTTP_ERRORS.labels(
                            route=route, status=str(status)
                        ).inc()
                    self._write_access_log(
                        method, route, target, status, elapsed, trace.trace_id
                    )
            writer.write(response)
            await writer.drain()
        finally:
            self._request_finished()
        return keep_alive and not self._draining

    async def _serve_request(
        self, method, path, headers, reader
    ) -> tuple[int, bytes, bool]:
        """Route one request; returns ``(status, response, keep_alive)``.

        The error contract: 404 unknown route, 405 + ``Allow`` on a
        method mismatch, 400 for malformed framing/JSON/client errors,
        408 + close for a body that never arrives, 500 + close for
        anything unexpected, and any response that leaves the body
        unread closes the connection so keep-alive clients cannot
        desync.
        """
        wants_close = headers.get("connection", "").lower() == "close"
        keep = not wants_close
        route, query = split_query_path(path)
        if method == "GET":
            if route not in GET_ROUTES:
                return _reject_unknown(
                    path, "POST" if route in POST_ROUTES else None
                )
            if route == "/metrics":
                body = obs_metrics.render_prometheus().encode("utf-8")
                response = _encode_response(
                    200, body, METRICS_CONTENT_TYPE, close=wants_close
                )
                return 200, response, keep
            extra = None
            try:
                if route.startswith("/query/"):
                    # Index builds/refreshes can take seconds at scale:
                    # run off the event loop, on the writer predictor.
                    payload = await asyncio.to_thread(
                        self.query_service.answer, route, query
                    )
                    extra = {
                        "X-World-Generation": str(payload["generation"])
                    }
                elif route == "/healthz":
                    payload = self._healthz()
                else:
                    payload = artifact_payload(self.predictor)
            except (ValueError, KeyError, TypeError) as exc:
                return 400, _json_response(
                    400, {"error": str(exc)}, close=wants_close
                ), keep
            except Exception as exc:
                return _internal_error(exc)
            return 200, _json_response(
                200, payload, extra, close=wants_close
            ), keep
        if method != "POST":
            if route in GET_ROUTES:
                return _reject_unknown(path, "GET")
            if route in POST_ROUTES:
                return _reject_unknown(path, "POST")
            return _reject_unknown(path, None)
        if route not in POST_ROUTES:
            return _reject_unknown(
                path, "GET" if route in GET_ROUTES else None
            )
        max_bytes = (
            MAX_BATCH_BODY_BYTES if route == "/predict-batch"
            else MAX_BODY_BYTES
        )
        # Strict ASCII digits only: Python's int() also accepts "1_0",
        # "+10" and whitespace, and str.isdigit() alone admits Unicode
        # digits like "²" -- either way the body would be mis-framed and
        # desync a keep-alive connection.
        raw_length = headers.get("content-length")
        stripped = raw_length.strip() if raw_length is not None else "0"
        if not (stripped.isascii() and stripped.isdigit()):
            error = f"invalid Content-Length header {raw_length!r}"
            return 400, _json_response(
                400, {"error": error}, close=True
            ), False
        length = int(stripped)
        if length <= 0:
            return 400, _json_response(
                400, {"error": "request body required"}, close=wants_close
            ), keep
        if length > max_bytes:
            error = f"request body exceeds {max_bytes} bytes"
            return 400, _json_response(
                400, {"error": error}, close=True
            ), False
        try:
            raw = await asyncio.wait_for(
                reader.readexactly(length), timeout=BODY_READ_TIMEOUT
            )
        except TimeoutError:
            error = (
                f"request body not received within "
                f"{BODY_READ_TIMEOUT:g} seconds"
            )
            return 408, _json_response(
                408, {"error": error}, close=True
            ), False
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            return 400, _json_response(
                400, {"error": f"invalid JSON body: {exc}"},
                close=wants_close,
            ), keep
        try:
            status, body, extra = await self._handle_post(route, payload)
        except (ValueError, KeyError, TypeError) as exc:
            status, body, extra = 400, {"error": str(exc)}, None
        except TimeoutError:
            status, body, extra = (
                500, {"error": "internal error: TimeoutError"}, None,
            )
        except Exception as exc:
            return _internal_error(exc)
        return status, _json_response(
            status, body, extra, close=wants_close
        ), keep

    async def _handle_post(self, path, payload):
        """Dispatch one parsed POST body; returns (status, body, headers)."""
        if path in _WORKER_ROUTES:
            assert self._queue is not None
            with span("frontend.dispatch"):
                future = asyncio.get_running_loop().create_future()
                await self._queue.put((path, payload, future))
                status, body, generation = await future
            extra = (
                {"X-World-Generation": str(generation)}
                if generation is not None
                else None
            )
            return status, body, extra
        if path == "/ingest":
            return await self._ingest(payload)
        if path == "/profile":
            body = await asyncio.to_thread(
                profile_payload, self.predictor, payload
            )
            return 200, body, None
        if path == "/explain-edge":
            body = await asyncio.to_thread(
                explain_edge_payload, self.predictor, payload
            )
            return 200, body, None
        raise ValueError(f"unroutable path {path!r}")  # unreachable

    async def _ingest(self, payload):
        """The single-writer path: apply, journal, publish, respond.

        Serialized on an asyncio lock (one delta at a time, matching
        the chained-hash discipline), applied on the writer predictor
        in an executor thread, then -- with workers -- published to
        their store so they adopt it.  The response is built only after the
        publish: an acknowledged ingest is always visible to every
        future reader.
        """
        assert self._ingest_lock is not None

        def apply_and_publish():
            world, delta = apply_ingest(
                self.predictor, payload, journal=self.journal
            )
            if self.pool is not None:
                with span("store.publish"):
                    self.pool.store.publish(
                        world, label_users=delta.label_users.tolist()
                    )
            return ingest_response(
                self.predictor, world, journal=self.journal
            )

        async with self._ingest_lock:
            body = await asyncio.to_thread(apply_and_publish)
        return (
            200, body,
            {"X-World-Generation": str(body["generation"])},
        )

    def _healthz(self) -> dict:
        pool = self.pool
        if pool is None:
            serving = {
                "mode": "inline", "workers": 0,
                "coalesce_ms": self.coalesce_ms,
                "store": None, "worker_info": [],
            }
        else:
            serving = {
                "mode": "multiprocess", "workers": len(pool.workers),
                "coalesce_ms": self.coalesce_ms,
                "store": pool.store.stats(), "worker_info": pool.snapshot(),
            }
        return healthz_payload(
            self.predictor,
            journal=self.journal,
            trace_buffer=self.trace_buffer,
            started_unix=self.started_unix,
            serving=serving,
        )

    def _write_access_log(
        self, method, route, path, status, elapsed, trace_id
    ) -> None:
        if self.access_log is None:
            return
        line = json.dumps(
            {
                "ts": round(time.time(), 6),
                "method": method,
                "route": route,
                "path": path,
                "status": status,
                "latency_ms": round(elapsed * 1e3, 3),
                "trace_id": trace_id,
            }
        )
        try:
            self.access_log.write(line + "\n")
            self.access_log.flush()
        except (OSError, ValueError):
            pass  # a dead log sink must never fail the request


def _encode_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: dict | None = None,
    close: bool = False,
) -> bytes:
    """One complete HTTP/1.1 response: status line, headers and body."""
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Server: repro-serve/1",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
    ]
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    if close:
        head.append("Connection: close")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def _json_response(
    status: int, payload, extra_headers: dict | None = None, close=False
) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    return _encode_response(
        status, body, extra_headers=extra_headers, close=close
    )


def _reject_unknown(path: str, allowed: str | None):
    """404 for an unknown route, 405 + Allow for a known one.

    Either way the request body (if any) was never read: close so a
    keep-alive client cannot desync on the leftover bytes.
    """
    if allowed is None:
        return 404, _json_response(
            404, {"error": f"unknown route {path}"}, close=True
        ), False
    return 405, _json_response(
        405,
        {"error": f"method not allowed for {path}; use {allowed}"},
        {"Allow": allowed},
        close=True,
    ), False


def _internal_error(exc: Exception):
    """500 + close: the failed handler may have left state half-read."""
    return 500, _json_response(
        500, {"error": f"internal error: {type(exc).__name__}"}, close=True
    ), False


def make_frontend(
    predictor: FoldInPredictor,
    store: WorldStore | None = None,
    n_workers: int = 0,
    host: str = "127.0.0.1",
    port: int = 8000,
    coalesce_ms: float = 2.0,
    max_coalesce: int = 64,
    journal=None,
    access_log=None,
) -> AsyncFrontend:
    """Build the front end; with ``n_workers > 0``, publish and fork first.

    ``n_workers == 0`` needs no store and forks nothing.  Otherwise the
    ordering matters: the current generation must be published (and the
    writer lock held) before the fork, so every worker finds a world to
    attach at birth, and the fork must happen before any event loop
    exists in this process.
    """
    pool = None
    if n_workers > 0:
        if store is None:
            raise ValueError("serving through workers needs a WorldStore")
        store.lock_writer()
        store.publish(predictor.world)
        pool = WorkerPool(n_workers, predictor, store)
    return AsyncFrontend(
        predictor,
        pool,
        host=host,
        port=port,
        coalesce_ms=coalesce_ms,
        max_coalesce=max_coalesce,
        journal=journal,
        access_log=access_log,
    )


class FrontendThread:
    """Run an :class:`AsyncFrontend` on a background event loop.

    The tests and ``tools/loadgen.py`` use this to stand a server up
    inside one Python process: the event loop lives on a daemon thread,
    ``port`` is known once ``start`` returns, and ``stop`` drains
    gracefully from any thread.
    """

    def __init__(self, frontend: AsyncFrontend):
        self.frontend = frontend
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = None

    @property
    def port(self) -> int:
        """The bound port (valid after start)."""
        return self.frontend.port

    def start(self, timeout: float = 30.0) -> "FrontendThread":
        """Start the loop thread; block until the socket is bound."""
        ready = threading.Event()

        def run_loop() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            loop.run_until_complete(self.frontend.start())
            ready.set()
            loop.run_forever()
            loop.close()

        self._thread = threading.Thread(
            target=run_loop, name="repro-frontend", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout):
            raise RuntimeError("frontend failed to start in time")
        return self

    def stop(self, deadline_seconds: float = 10.0) -> bool:
        """Drain, stop the loop and join the thread.

        Returns the drain outcome: ``True`` when every in-flight request
        finished within ``deadline_seconds``.
        """
        if self._loop is None:
            return True
        future = asyncio.run_coroutine_threadsafe(
            self.frontend.drain(deadline_seconds), self._loop
        )
        try:
            return future.result(timeout=deadline_seconds + 10.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=10.0)
