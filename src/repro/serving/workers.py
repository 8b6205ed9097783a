"""Predictor worker processes: mmap readers behind the async front end.

Each worker is a forked child running the *existing* fold-in stack
unchanged -- the same :class:`~repro.serving.foldin.FoldInPredictor`,
the same fold-in engine, the same response builders as the
front end's inline path (:mod:`repro.serving.server`).  What changes is only
where the world comes from: instead of sharing the parent's address
space, a worker attaches generations published through a
:class:`~repro.serving.store.WorldStore` by mmap, so N workers cost one
page-cache image of the arenas, not N copies, and no arena is ever
pickled across the process boundary.

The fork inheritance is deliberate: workers are forked *before* the
event loop starts, so each child gets the frozen posterior (law matrix,
psi, CSR profiles -- all read-only after construction) copy-on-write
for free, and only the evidence world flows through the store.

Protocol (length-delimited pickles over a ``multiprocessing.Pipe``;
one request in flight per worker -- the front end is the only caller
and serializes on :class:`WorkerHandle`):

- ``{"kind": "predict", "requests": [{"route", "payload"}, ...]}`` --
  one coalesced micro-batch.  The worker syncs to the newest published
  generation first (RCU read-side swap via
  :meth:`FoldInPredictor.attach_world`, invalidating exactly the
  ``label_users`` union of the generations skipped), then resolves
  every request's specs and folds them into **one**
  ``predict_batch`` call -- the coalescing win: k requests of one spec
  each cost one engine call over k specs, whose per-call cost is paid
  once, not k times.  Replies
  with per-request ``{"status", "body"}`` plus the generation served;
- ``{"kind": "status"}`` -- pid + attached generation (healthz);
- ``{"kind": "stop"}`` -- clean exit.

Worker death is the front end's problem by design: a ``kill -9`` shows
up here as a broken pipe / dead process, surfaces as
:class:`WorkerDied`, and the front end re-dispatches the batch to a
survivor -- requests degrade, state never corrupts (the store is
read-only to workers; a dying reader can leave nothing behind).
"""

from __future__ import annotations

import os
import threading
import time

from repro.obs import metrics as obs_metrics
from repro.serving.foldin import FoldInPredictor, prediction_payload
from repro.serving.server import require_object
from repro.serving.store import WorldStore

_REG = obs_metrics.get_registry()
WORKER_BATCHES = _REG.counter(
    "repro_worker_batches_total",
    "Coalesced micro-batches dispatched, by worker",
    labelnames=("worker",),
)
WORKER_DEATHS = _REG.counter(
    "repro_worker_deaths_total",
    "Predictor workers observed dead by the dispatcher",
)
WORKER_GENERATION_SWAPS = _REG.counter(
    "repro_worker_generation_swaps_total",
    "RCU generation adoptions performed by workers "
    "(observed process-locally; the exported value is the parent's)",
)

#: How long the dispatcher waits for a worker's reply before declaring
#: it dead.  Generous: a micro-batch is a handful of fold-in solves,
#: normally milliseconds.
DEFAULT_CALL_TIMEOUT = 60.0


class WorkerDied(RuntimeError):
    """The worker did not answer (killed, crashed, or hung past timeout)."""


def sync_generation(predictor: FoldInPredictor, store: WorldStore, lease):
    """Adopt the newest published generation; returns the live lease.

    The reader half of the RCU protocol, run between micro-batches so a
    batch is always served against one coherent generation.  Skipping
    several generations at once invalidates the union of their
    ``label_users`` (surgical, same policy as single-process
    ``refresh``); if any skipped generation's metadata was already
    retired, provenance is unknown and the whole prediction cache is
    dropped instead.  Cheap in steady state: one ``stat`` on the store
    manifest.
    """
    current = store.current_generation()
    if current is None or current == lease.generation:
        return lease
    new_lease = store.acquire()
    if new_lease.generation == lease.generation:
        new_lease.release()
        return lease
    invalidate = store.label_users_between(
        lease.generation, new_lease.generation
    )
    predictor.attach_world(new_lease.world, invalidate_users=invalidate)
    lease.release()
    WORKER_GENERATION_SWAPS.inc()
    return new_lease


def serve_predict_requests(
    predictor: FoldInPredictor, requests: list[dict]
) -> list[dict]:
    """Serve one coalesced micro-batch through a single solver pass.

    Every request's specs are resolved, concatenated, and handed to
    ``predict_batch`` **once** -- signature dedup and the batch-engine
    crossover then work across the whole micro-batch, which is where
    coalescing buys throughput.  Each request still gets exactly the
    body it would get served alone (same ``prediction_payload``
    rendering, same error strings); only the ``cached`` marker can
    differ, because a spec solved for one request in the batch is a
    cache hit for its duplicates.  Per-request client errors 400
    individually; they never fail the batch.  The front end calls this
    in a worker process, or inline on the writer at ``--workers 0``.
    """
    parsed: list[tuple] = []
    merged: list = []
    for request in requests:
        route = request.get("route")
        payload = request.get("payload")
        try:
            if route == "/predict-home":
                body = require_object(payload)
                users = body.get("users")
                if not isinstance(users, list) or not users:
                    raise ValueError(
                        '"users" must be a non-empty list of specs'
                    )
                top_k = int(body.get("top_k", 3))
                specs = [predictor.resolve_request(e) for e in users]
                parsed.append(("home", top_k, len(merged), len(specs)))
                merged.extend(specs)
            elif route == "/predict-batch":
                if not isinstance(payload, list):
                    raise ValueError(
                        "request body must be a JSON array of user specs"
                    )
                specs = [predictor.resolve_request(e) for e in payload]
                parsed.append(("batch", None, len(merged), len(specs)))
                merged.extend(specs)
            else:
                raise ValueError(f"worker cannot serve route {route!r}")
        except (ValueError, KeyError, TypeError) as exc:
            parsed.append(("error", {"error": str(exc)}, None, None))
    predictions = predictor.predict_batch(merged)
    gaz = predictor.dataset.gazetteer
    results: list[dict] = []
    for kind, arg, start, count in parsed:
        if kind == "error":
            results.append({"status": 400, "body": arg})
            continue
        chunk = predictions[start : start + count]
        if kind == "home":
            results.append(
                {
                    "status": 200,
                    "body": {
                        "artifact_id": predictor.artifact_id,
                        "predictions": [
                            prediction_payload(p, gaz, top_k=arg)
                            for p in chunk
                        ],
                    },
                }
            )
        else:
            results.append(
                {
                    "status": 200,
                    "body": [prediction_payload(p, gaz) for p in chunk],
                }
            )
    return results


def worker_main(
    worker_id: int,
    conn,
    parent_conn,
    predictor: FoldInPredictor,
    store: WorldStore,
) -> None:
    """A worker process's entire life: attach, serve, exit on EOF.

    ``parent_conn`` is the parent's pipe end, inherited across the
    fork; closing it here is what makes the parent's death (or a
    deliberate ``stop``/close) observable as EOF instead of a hang.
    """
    if parent_conn is not None:
        parent_conn.close()
    lease = store.acquire()
    predictor.attach_world(lease.world, invalidate_users=())
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message.get("kind")
        if kind == "stop":
            try:
                conn.send({"ok": True, "worker": worker_id})
            except (BrokenPipeError, OSError):
                pass
            break
        try:
            lease = sync_generation(predictor, store, lease)
            if kind == "predict":
                results = serve_predict_requests(
                    predictor, message.get("requests", [])
                )
                reply = {
                    "ok": True,
                    "worker": worker_id,
                    "pid": os.getpid(),
                    "generation": lease.generation,
                    "world_hash": predictor.world.content_hash,
                    "solves": predictor.solve_count,
                    "results": results,
                }
            elif kind == "status":
                reply = {
                    "ok": True,
                    "worker": worker_id,
                    "pid": os.getpid(),
                    "generation": lease.generation,
                    "solves": predictor.solve_count,
                }
            else:
                reply = {
                    "ok": False,
                    "worker": worker_id,
                    "error": f"unknown message kind {kind!r}",
                }
        except Exception as exc:  # the reply, not the process, fails
            reply = {
                "ok": False,
                "worker": worker_id,
                "pid": os.getpid(),
                "error": f"{type(exc).__name__}: {exc}",
            }
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break


class WorkerHandle:
    """The parent's view of one worker: pipe, process, liveness."""

    def __init__(self, worker_id: int, process, conn):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.alive = True
        self.generation: int | None = None
        self.dispatches = 0
        self._mutex = threading.Lock()
        self._batches = WORKER_BATCHES.labels(worker=str(worker_id))

    @property
    def pid(self) -> int | None:
        """The worker process pid (None before spawn)."""
        return self.process.pid

    def _mark_dead(self) -> None:
        if self.alive:
            self.alive = False
            WORKER_DEATHS.inc()

    def call(self, message: dict, timeout: float = DEFAULT_CALL_TIMEOUT):
        """One request/reply round trip; raises :class:`WorkerDied`.

        Serialized per worker (one request in flight); a broken pipe,
        EOF, dead process, or blown timeout all mark the worker dead --
        the caller re-dispatches elsewhere.  A worker that answers
        after its timeout was declared dead stays dead: its pipe is no
        longer trusted to be aligned with the request stream.
        """
        with self._mutex:
            if not self.alive:
                raise WorkerDied(f"worker {self.worker_id} is dead")
            try:
                self.conn.send(message)
            except (BrokenPipeError, OSError) as exc:
                self._mark_dead()
                raise WorkerDied(
                    f"worker {self.worker_id}: pipe closed"
                ) from exc
            deadline = time.monotonic() + timeout
            while True:
                try:
                    if self.conn.poll(0.05):
                        reply = self.conn.recv()
                        break
                except (EOFError, OSError) as exc:
                    self._mark_dead()
                    raise WorkerDied(
                        f"worker {self.worker_id}: connection lost"
                    ) from exc
                if not self.process.is_alive():
                    # One last poll: the reply may have raced the exit.
                    try:
                        if self.conn.poll(0):
                            reply = self.conn.recv()
                            break
                    except (EOFError, OSError):
                        pass
                    self._mark_dead()
                    raise WorkerDied(
                        f"worker {self.worker_id} (pid {self.pid}) died"
                    )
                if time.monotonic() > deadline:
                    self._mark_dead()
                    raise WorkerDied(
                        f"worker {self.worker_id}: no reply in {timeout}s"
                    )
            if message.get("kind") == "predict":
                self.dispatches += 1
                self._batches.inc()
            if isinstance(reply, dict) and "generation" in reply:
                self.generation = reply["generation"]
            return reply

    def stop(self, timeout: float = 5.0) -> None:
        """Terminate the worker process and join it."""
        if self.alive and self.process.is_alive():
            try:
                self.call({"kind": "stop"}, timeout=timeout)
            except WorkerDied:
                pass
        self.alive = False
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=timeout)


class WorkerPool:
    """N forked predictor workers sharing one store by mmap."""

    def __init__(
        self,
        n_workers: int,
        predictor: FoldInPredictor,
        store: WorldStore,
        call_timeout: float = DEFAULT_CALL_TIMEOUT,
    ):
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        import multiprocessing

        # Fork, not spawn: the children inherit the frozen posterior
        # copy-on-write instead of re-unpickling it, and nothing about
        # the predictor survives a spawn-pickle anyway (locks, caches).
        ctx = multiprocessing.get_context("fork")
        #: The store the workers attach; the front end publishes each
        #: ingest here.
        self.store = store
        self.call_timeout = call_timeout
        self.workers: list[WorkerHandle] = []
        self._rr = 0
        self._rr_lock = threading.Lock()
        for worker_id in range(n_workers):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=worker_main,
                args=(worker_id, child_conn, parent_conn, predictor, store),
                daemon=True,
                name=f"repro-worker-{worker_id}",
            )
            process.start()
            # The child holds its own copy of this end; keeping ours
            # open would mask worker death as a never-EOF pipe.
            child_conn.close()
            self.workers.append(WorkerHandle(worker_id, process, parent_conn))

    def alive_workers(self) -> list[WorkerHandle]:
        """Handles of workers currently alive."""
        return [w for w in self.workers if w.alive]

    def next_worker(self) -> WorkerHandle | None:
        """Round-robin over live workers (None when all are dead)."""
        with self._rr_lock:
            alive = self.alive_workers()
            if not alive:
                return None
            worker = alive[self._rr % len(alive)]
            self._rr += 1
            return worker

    def snapshot(self) -> list[dict]:
        """Per-worker healthz rows, from parent-side state (non-blocking)."""
        return [
            {
                "worker": w.worker_id,
                "pid": w.pid,
                "alive": w.alive and w.process.is_alive(),
                "generation": w.generation,
                "dispatches": w.dispatches,
            }
            for w in self.workers
        ]

    def stop_all(self) -> None:
        """Stop every worker in the pool."""
        for worker in self.workers:
            worker.stop()
