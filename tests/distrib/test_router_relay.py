"""The router relay survives a failing dispatch and counts it.

A relay thread must never die on one bad worker message, but a dropped
message must not vanish silently either: each failure is counted as
``relay_errors`` in the router section of the ``stats`` op.  Driven
in-process against a fake supervisor and link — no worker processes.
"""

from types import SimpleNamespace

from repro.distrib.router import RouterFrontEnd


class _FakeSupervisor:
    names = []

    def workers(self):
        banner = {"zoo_version": "v0", "num_models": 3, "recovered": 0}
        return [SimpleNamespace(banner=banner)]

    def stats(self):
        return {}


class _ScriptedConnection:
    def __init__(self, payloads):
        self._payloads = list(payloads)

    def recv(self):
        return self._payloads.pop(0) if self._payloads else None


def test_failing_dispatch_is_counted_in_router_stats(monkeypatch):
    router = RouterFrontEnd(_FakeSupervisor())

    def failing_dispatch(link, payload):
        raise RuntimeError("malformed worker reply")

    monkeypatch.setattr(router, "_dispatch", failing_dispatch)
    link = SimpleNamespace(
        name="w0",
        generation=0,
        conn=_ScriptedConnection([{"id": "a"}, {"id": "b"}]),
        dead=False,
    )
    router._relay(link)  # returns at EOF instead of dying on the errors
    assert link.dead

    emitted = []
    monkeypatch.setattr(router, "_broadcast", lambda payload, merge: merge({}))
    router._handle_stats(
        {"op": "stats", "id": 7}, SimpleNamespace(emit=emitted.append)
    )
    assert emitted[0]["id"] == 7
    assert emitted[0]["stats"]["router"]["relay_errors"] == 2
