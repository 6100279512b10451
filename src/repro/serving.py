"""JSON-lines front-end of the scheduled selection service.

``python -m repro serve`` wraps a :class:`~repro.service.SelectionService`
in a long-lived, line-oriented JSON protocol — over stdin/stdout by default
or a TCP socket with ``--port`` — so non-Python clients can drive the
epoch scheduler.  One request or response per line:

* ``{"op": "select", "target": "mnli", "id": "r1", "top_k": 4}`` —
  submit a request; answered immediately with an ``accepted`` event, then
  asynchronously with ``progress`` events as stages complete and finally a
  ``result`` (or ``failed``) event.  With ``"total_epochs"`` (alias
  ``"raise_budget"``) the request runs under a larger fine-selection
  budget — against a plan store this continues a finished request from its
  journaled rungs instead of restarting it.  ``"extrapolate": true``
  enables curve-extrapolation early stopping for this request;
  ``"exact": true`` forces the bitwise paper-faithful path regardless of
  the server's ``--extrapolate`` default (``docs/extrapolation.md``).
* ``{"op": "poll", "id": "r1"}`` — progress snapshot of one request;
  ``"best": true`` adds the anytime answer (current best candidate with
  confidence ordering) while the request is still training.
* ``{"op": "resume"}`` — resubmit journaled requests a crashed process
  left unfinished (requires ``--store-dir``); the recovered handles are
  tracked like fresh submissions and stream the usual events.
* ``{"op": "stats"}`` — service counters (scheduler + session pool included).
* ``{"op": "shutdown"}`` — drain outstanding requests and stop serving.

Responses echo the client-chosen ``id``.  The protocol itself — parsing,
argument checks, the op table, error encoding, the locked line writer and
the stdio/TCP line loops — lives once in :class:`LineProtocol`;
:class:`ServeFrontEnd` and the routed
:class:`~repro.distrib.router.RouterFrontEnd` only register handlers and a
session lifecycle.  Admission failures surface as
``failed`` events with the same structured error object the CLI's
``select``/``batch`` commands emit on budget exhaustion (see
:func:`error_payload`).  The protocol, fairness policies and tuning knobs
are documented in ``docs/serving.md``.
"""

from __future__ import annotations

import json
import socketserver
import threading
from typing import Dict, Iterable, Optional, TextIO

from repro.core.results import TwoPhaseResult
from repro.utils.exceptions import ReproError

#: Exit code of CLI commands failing on scheduler admission/budget errors —
#: distinct from 2 (usage / library errors) so scripts can tell backpressure
#: from misuse.
EXIT_SCHEDULER = 3

#: Structured error codes per scheduler exception type.
_ERROR_CODES = {
    "QueueFullError": "queue_full",
    "BudgetExhaustedError": "budget_exhausted",
    "RequestTimeoutError": "timeout",
    "RateLimitError": "rate_limited",
    "WorkerLostError": "worker_lost",
    "ShutdownTimeout": "timeout",
}

#: Seconds between progress sweeps of the emitter thread.
_POLL_INTERVAL = 0.02


def result_payload(result: TwoPhaseResult) -> Dict[str, object]:
    """JSON-friendly view of one two-phase result (shared with the CLI)."""
    payload = {
        "target": result.target_name,
        "selected_model": result.selected_model,
        "selected_accuracy": result.selected_accuracy,
        "total_cost": result.total_cost,
        "runtime_epochs": result.selection.runtime_epochs,
        "recall_epoch_cost": result.recall.epoch_cost,
        "recalled_models": list(result.recall.recalled_models),
    }
    extrapolation = result.selection.extras.get("extrapolation")
    if extrapolation:
        # Budget-honesty accounting of speculative early stops: which arms
        # were pruned, the epochs saved and the regret bound at decision
        # time.  Absent on the exact path, so exact payloads are unchanged.
        payload["extrapolation"] = extrapolation
    return payload


def error_payload(error: Exception) -> Dict[str, object]:
    """Structured JSON error object for scheduler/request failures."""
    name = type(error).__name__
    return {
        "error": {
            "code": _ERROR_CODES.get(name, "error"),
            "type": name,
            "message": str(error),
        }
    }


class ShutdownTimeout(ReproError):
    """A request still running when its stream drained at shutdown."""

    def __init__(self, message: str = "request still running at shutdown"):
        super().__init__(message)


def with_id(payload: Dict[str, object], request_id) -> Dict[str, object]:
    """Append the client's correlation ``id`` to ``payload`` when it has one."""
    if request_id is not None:
        payload["id"] = request_id
    return payload


class LineSession:
    """One client stream of the serve protocol.

    Owns the stream's locked JSON-lines writer — event lines from any
    thread never interleave — and the ``shutdown`` flag.  A write that
    fails because the client went away marks the session ``closed`` and
    drops the line: a vanished client must never kill the thread that was
    writing to it.  ``binary`` streams (socket files) get UTF-8 bytes.
    """

    def __init__(self, out, *, binary: bool = False) -> None:
        self._out = out
        self._binary = binary
        self._write_lock = threading.Lock()
        self.shutdown_requested = False
        self.closed = False

    def emit(self, payload: Dict[str, object]) -> None:
        text = json.dumps(payload) + "\n"
        try:
            with self._write_lock:
                self._out.write(text.encode("utf-8") if self._binary else text)
                self._out.flush()
        except (OSError, ValueError):
            self.closed = True  # client gone; later events are dropped


class LineProtocol:
    """The JSON-lines serve protocol, shared by every front end.

    Parses and checks each line, answers ``shutdown``, encodes
    :class:`~repro.utils.exceptions.ReproError` as a structured ``failed``
    event, and dispatches every other op through one table to a handler
    ``handler(message, session) -> reply or None`` the subclass defines.
    ``_open_session(out, binary=...)`` / ``_close_session(session)`` are
    the subclass's per-stream lifecycle around :meth:`serve_stream`.
    """

    #: op -> handler method; ``shutdown`` is answered here.
    _OPS = {
        "select": "_handle_select",
        "poll": "_handle_poll",
        "resume": "_handle_resume",
        "stats": "_handle_stats",
        "refresh": "_handle_refresh",
        "ping": "_handle_ping",
    }

    def handle_line(self, line: str, session: LineSession) -> Optional[Dict]:
        """Dispatch one protocol line; return the immediate response (if any)."""
        try:
            message = json.loads(line)
        except json.JSONDecodeError as error:
            return {"event": "error", "message": f"malformed JSON: {error}"}
        if not isinstance(message, dict):
            return {"event": "error", "message": "expected a JSON object"}
        op = message.get("op")
        request_id = message.get("id")
        if op == "shutdown":
            session.shutdown_requested = True
            return with_id({"event": "shutting_down"}, request_id)
        handler = self._OPS.get(op) if isinstance(op, str) else None
        if handler is None:
            problem = f"unknown op {op!r}"
        elif op == "select" and not (
            isinstance(message.get("target"), str) and message["target"]
        ):
            problem = "select needs a 'target' string"
        elif op == "refresh" and not (
            message.get("added") or message.get("removed")
        ):
            problem = "refresh needs 'added' and/or 'removed' model names"
        else:
            try:
                return getattr(self, handler)(message, session)
            except ReproError as error:
                return with_id(
                    {"event": "failed", **error_payload(error)}, request_id
                )
        return {"event": "error", "id": request_id, "message": problem}

    def serve_stream(self, lines: Iterable[str], out: TextIO, *,
                     binary: bool = False) -> int:
        """Serve line-delimited JSON requests from ``lines`` until EOF/shutdown.

        Events for in-flight requests are written asynchronously between
        reads; at EOF (or an explicit ``shutdown`` op) outstanding requests
        are drained before returning.  ``binary`` marks ``out`` as a byte
        stream (a socket file).  Returns a process exit code.
        """
        session = self._open_session(out, binary=binary)
        try:
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                response = self.handle_line(line, session)
                if response is not None:
                    session.emit(response)
                if session.shutdown_requested:
                    break
        finally:
            self._close_session(session)
        return 0

    def serve_tcp(self, host: str, port: int):
        """Bind a threading TCP server speaking the same line protocol.

        Returns the started server; callers own its lifecycle
        (``server.serve_forever()`` / ``server.shutdown()``).  The bound
        port is ``server.server_address[1]`` (useful with ``port=0``).
        """
        front = self

        def socket_lines(rfile):
            try:
                for raw in rfile:
                    yield raw.decode("utf-8")
            except OSError:
                return  # a reset client ends its stream like EOF

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                front.serve_stream(socket_lines(self.rfile), self.wfile,
                                   binary=True)

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        return Server((host, port), Handler)


class ServeFrontEnd(LineProtocol):
    """Line-oriented JSON protocol over one :class:`SelectionService`.

    One front end serves any number of streams/connections; submissions
    from all of them multiplex onto the service's single epoch scheduler,
    which is the point — concurrent clients share the training budget and
    session pool.
    """

    def __init__(
        self,
        service,
        *,
        default_timeout: Optional[float] = None,
        recover: bool = False,
    ) -> None:
        self.service = service
        self.default_timeout = default_timeout
        self._recover_lock = threading.Lock()
        #: Handles recovered at startup, waiting for the first stream to
        #: adopt them (so their result/failed events reach a client).
        self._startup_recovered = list(service.recover()) if recover else []

    def _adopt_recovered(self, emitter: "_EventEmitter") -> None:
        """Hand startup-recovered handles to the first connected stream."""
        with self._recover_lock:
            handles, self._startup_recovered = self._startup_recovered, []
        for handle in handles:
            emitter.track(f"recovered-{handle.id}", handle)

    @property
    def recovered_count(self) -> int:
        """Startup-recovered requests not yet adopted by a stream."""
        with self._recover_lock:
            return len(self._startup_recovered)

    # ------------------------------------------------------------------ #
    # session lifecycle
    # ------------------------------------------------------------------ #
    def _open_session(self, out, *, binary: bool) -> "_EventEmitter":
        emitter = _EventEmitter(self, out, binary=binary)
        emitter.start()
        self._adopt_recovered(emitter)
        return emitter

    def _close_session(self, emitter: "_EventEmitter") -> None:
        emitter.drain_and_stop()

    # ------------------------------------------------------------------ #
    # op handlers
    # ------------------------------------------------------------------ #
    def _handle_select(self, message: Dict, emitter: "_EventEmitter") -> Dict:
        target = message["target"]
        total_epochs = message.get("total_epochs", message.get("raise_budget"))
        # Per-request speculative mode: "exact" wins over "extrapolate";
        # absent both, the service default applies.
        extrapolate = None
        if message.get("exact"):
            extrapolate = False
        elif message.get("extrapolate"):
            extrapolate = True
        handle = self.service.submit(
            target,
            top_k=message.get("top_k"),
            timeout=message.get("timeout", self.default_timeout),
            epoch_quota=message.get("epoch_quota"),
            total_epochs=total_epochs,
            extrapolate=extrapolate,
        )
        request_id = message.get("id", f"req-{handle.id}")
        emitter.track(request_id, handle)
        return {"event": "accepted", "id": request_id, "target": target,
                "request": handle.id}

    def _handle_poll(self, message: Dict, emitter: "_EventEmitter") -> Dict:
        request_id = message.get("id")
        handle = emitter.tracked(request_id)
        if handle is None:
            return {"event": "error", "id": request_id,
                    "message": f"unknown request id {request_id!r}"}
        snapshot = self.service.poll(handle, best=bool(message.get("best")))
        # The scheduler's numeric id moves to "request"; "id" stays the
        # client-chosen correlation id.
        snapshot["request"] = snapshot.pop("id", None)
        return {"event": "status", "id": request_id, **snapshot}

    def _handle_ping(self, message: Dict, emitter: "_EventEmitter") -> Dict:
        # Cheap liveness probe: answered from the scheduler's lock without
        # touching artifacts — heartbeat traffic must stay O(1) however
        # loaded the service is.
        return with_id({"event": "pong", **self.service.load()},
                       message.get("id"))

    def _handle_stats(self, message: Dict, emitter: "_EventEmitter") -> Dict:
        return with_id({"event": "stats", "stats": self.service.stats()},
                       message.get("id"))

    def _handle_refresh(self, message: Dict, emitter: "_EventEmitter") -> Dict:
        """Apply a zoo update in place: in-flight requests drain on the old
        epoch, later admissions see the new one (``docs/zoo-updates.md``)."""
        result = self.service.refresh(added=message.get("added") or [],
                                      removed=message.get("removed") or [])
        return with_id({
            "event": "refreshed",
            "zoo_version": result.new_version.key,
            "old_version": result.old_version.key,
            "added": len(result.added),
            "removed": len(result.removed),
            "reclustered": result.reclustered,
        }, message.get("id"))

    def _handle_resume(self, message: Dict, emitter: "_EventEmitter") -> Dict:
        """Recover journaled in-flight requests and track them here."""
        self._adopt_recovered(emitter)  # startup recoveries join this stream
        handles = self.service.recover()
        entries = []
        for handle in handles:
            rid = f"recovered-{handle.id}"
            emitter.track(rid, handle)
            entries.append(
                {"id": rid, "target": handle.target_name, "request": handle.id}
            )
        return with_id(
            {"event": "recovered", "count": len(entries), "requests": entries},
            message.get("id"),
        )


class _EventEmitter(LineSession):
    """Streams request lifecycle events for one client stream.

    A small poller thread watches tracked handles and emits a ``progress``
    event whenever a request completes another stage, then a terminal
    ``result``/``failed`` event — the streaming per-stage feedback of the
    serve protocol.
    """

    def __init__(self, front: ServeFrontEnd, out, *, binary: bool) -> None:
        super().__init__(out, binary=binary)
        self._front = front
        self._tracked: Dict[object, object] = {}
        self._last_stage: Dict[object, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._watch, name="repro-serve-emitter", daemon=True
        )
        self._thread.start()

    def track(self, request_id, handle) -> None:
        with self._lock:
            self._tracked[request_id] = handle
            self._last_stage[request_id] = -1

    def tracked(self, request_id):
        with self._lock:
            return self._tracked.get(request_id)

    # ------------------------------------------------------------------ #
    def _watch(self) -> None:
        while not self._stop.wait(_POLL_INTERVAL):
            self._sweep()

    def _sweep(self) -> None:
        with self._lock:
            items = list(self._tracked.items())
        for request_id, handle in items:
            snapshot = self._front.service.poll(handle)
            progress = snapshot.get("progress") or {}
            stage = progress.get("stage", 0)
            if handle.state in ("done", "failed"):
                self._finish(request_id, handle)
            elif stage > self._last_stage.get(request_id, -1):
                self._last_stage[request_id] = stage
                self.emit({
                    "event": "progress", "id": request_id,
                    "target": handle.target_name,
                    "stage": stage, "num_stages": progress.get("num_stages"),
                    "surviving": progress.get("surviving", []),
                })

    def _finish(self, request_id, handle) -> None:
        with self._lock:
            # Another sweep may have finished it concurrently.
            if request_id not in self._tracked:
                return
            del self._tracked[request_id]
            self._last_stage.pop(request_id, None)
        if handle.error is None and handle.result is not None:
            payload = result_payload(handle.result)
            payload["latency_seconds"] = handle.latency_seconds()
            self.emit({"event": "result", "id": request_id, **payload})
            return
        # No result yet means the drain timed out: report abandonment
        # rather than crash on a result that does not exist yet.
        self.emit({"event": "failed", "id": request_id,
                   "target": handle.target_name,
                   **error_payload(handle.error if handle.error is not None
                                   else ShutdownTimeout())})

    def drain_and_stop(self) -> None:
        """Wait out every tracked request, emit its terminal event, stop."""
        while True:
            with self._lock:
                handles = list(self._tracked.items())
            if not handles:
                break
            for request_id, handle in handles:
                handle.wait(timeout=60.0)
                self._finish(request_id, handle)
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
