"""Byte-exact serve protocol: both front ends answer the same lines alike.

The JSON-lines serve protocol is one decision shared by the single-process
:class:`~repro.serving.ServeFrontEnd` and the routed
:class:`~repro.distrib.router.RouterFrontEnd`.  Every reply that needs no
training — parse errors, argument checks, unknown ops and ids, shutdown —
is pinned here as a literal line, key order and ``"id": null`` included,
and both tiers must print exactly those lines.  Driven in-process over
stubs, so the fast tier runs it.

The second half checks that a TCP client that vanishes mid-request harms
neither the server nor the other clients.
"""

import io
import json
import pathlib
import socket
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.distrib.router import RouterFrontEnd
from repro.serving import ServeFrontEnd

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "distrib"))
from test_router_relay import _FakeSupervisor  # noqa: E402

#: (request line, exact reply line) — identical for both tiers.
EXCHANGES = [
    ("not json",
     '{"event": "error", "message": "malformed JSON: '
     'Expecting value: line 1 column 1 (char 0)"}'),
    ("[1, 2]",
     '{"event": "error", "message": "expected a JSON object"}'),
    ('{"op": "bogus", "id": "u1"}',
     '{"event": "error", "id": "u1", "message": "unknown op \'bogus\'"}'),
    ('{"op": "bogus"}',
     '{"event": "error", "id": null, "message": "unknown op \'bogus\'"}'),
    ('{"op": "select", "id": "s1"}',
     '{"event": "error", "id": "s1", '
     '"message": "select needs a \'target\' string"}'),
    ('{"op": "select"}',
     '{"event": "error", "id": null, '
     '"message": "select needs a \'target\' string"}'),
    ('{"op": "select", "target": "", "id": "s2"}',
     '{"event": "error", "id": "s2", '
     '"message": "select needs a \'target\' string"}'),
    ('{"op": "refresh", "id": "r1"}',
     '{"event": "error", "id": "r1", '
     '"message": "refresh needs \'added\' and/or \'removed\' model names"}'),
    ('{"op": "refresh"}',
     '{"event": "error", "id": null, '
     '"message": "refresh needs \'added\' and/or \'removed\' model names"}'),
    ('{"op": "poll", "id": "ghost"}',
     '{"event": "error", "id": "ghost", '
     '"message": "unknown request id \'ghost\'"}'),
    ('{"op": "poll"}',
     '{"event": "error", "id": null, "message": "unknown request id None"}'),
    ('{"op": "shutdown", "id": "end"}',
     '{"event": "shutting_down", "id": "end"}'),
]


class _StubService:
    """Just enough service for replies that never reach the scheduler."""

    def recover(self):
        return []

    def load(self):
        return {}


def _single_process():
    return ServeFrontEnd(_StubService())


def _routed():
    return RouterFrontEnd(_FakeSupervisor())


@pytest.mark.parametrize("make_front", [_single_process, _routed],
                         ids=["single-process", "routed"])
def test_replies_are_byte_exact(make_front):
    front = make_front()
    out = io.StringIO()
    assert front.serve_stream([line for line, _ in EXCHANGES], out) == 0
    assert out.getvalue().splitlines() == [reply for _, reply in EXCHANGES]


#: The fake selection every stub request ends with.
_RESULT = SimpleNamespace(
    target_name="mnli", selected_model="m0", selected_accuracy=0.5,
    total_cost=2.0, selection=SimpleNamespace(runtime_epochs=2.0, extras={}),
    recall=SimpleNamespace(epoch_cost=0.0, recalled_models=["m0"]),
)


class _Handle:
    """A scheduled request that finishes when the test says so."""

    id = 1
    target_name = "mnli"

    def __init__(self) -> None:
        self._done = threading.Event()
        self.state = "running"
        self.error = None
        self.result = None

    def finish(self) -> None:
        self.result = _RESULT
        self.state = "done"
        self._done.set()

    def wait(self, timeout=None):
        return self._done.wait(timeout)

    def latency_seconds(self):
        return 0.0


class _StreamingService(_StubService):
    """Accepts selects and reports a new stage on every poll, so the
    server keeps writing to a client for as long as a request runs."""

    def __init__(self) -> None:
        self.handles = []
        self._polls = 0

    def submit(self, target, **_):
        handle = _Handle()
        self.handles.append(handle)
        return handle

    def poll(self, handle, best=False):
        self._polls += 1
        return {"progress": {"stage": self._polls, "num_stages": 3}}


def _read_event(sock_file, event):
    for raw in sock_file:
        message = json.loads(raw)
        if message["event"] == event:
            return message
    raise AssertionError(f"stream ended before a {event!r} event")


def test_tcp_client_disconnect_mid_request_is_harmless(monkeypatch):
    hook_errors = []
    monkeypatch.setattr(threading, "excepthook", hook_errors.append)
    service = _StreamingService()
    server = ServeFrontEnd(service).serve_tcp("127.0.0.1", 0)
    handler_errors = []
    server.handle_error = lambda request, address: handler_errors.append(
        sys.exc_info()[1]
    )
    handled = threading.Semaphore(0)
    close_request = server.shutdown_request

    def shutdown_request(request):
        close_request(request)
        handled.release()

    server.shutdown_request = shutdown_request
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    address = ("127.0.0.1", server.server_address[1])
    select = json.dumps({"op": "select", "target": "mnli", "id": "x"}) + "\n"
    try:
        with socket.create_connection(address, timeout=30) as sock:
            sock.sendall(select.encode())
            _read_event(sock.makefile("rb"), "accepted")
        # The server keeps streaming progress into the closed socket,
        # then drains the request into it.
        time.sleep(0.3)
        service.handles[0].finish()
        assert handled.acquire(timeout=30)

        with socket.create_connection(address, timeout=30) as sock:
            sock.sendall(select.encode())
            reader = sock.makefile("rb")
            _read_event(reader, "accepted")
            service.handles[1].finish()
            result = _read_event(reader, "result")
        assert result["id"] == "x"
        assert result["selected_model"] == "m0"
    finally:
        server.shutdown()
        server.server_close()
    assert hook_errors == []
    assert handler_errors == []
