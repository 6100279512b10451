"""The router relay survives a failing dispatch and counts it.

A relay thread must never die on one bad worker message, but a dropped
message must not vanish silently either: each failure is counted as
``relay_errors`` in the router section of the ``stats`` op, and a client
whose request the message belonged to gets a ``failed`` event instead of
waiting forever.  Routes retire exactly once, so a tenant's admission slot
is released once however many paths race to close it.  Driven in-process
against a fake supervisor and link — no worker processes.
"""

from types import SimpleNamespace

from repro.distrib.router import RouterFrontEnd, _Route


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


def _live_route(router, session, tenant="t"):
    """Admit one request for ``tenant`` and register its route."""
    router._admission.admit(tenant)
    route = _Route("w0", "c0-1", "mine", session, {"op": "select"},
                   tenant, "mnli")
    router._routes[("w0", "c0-1")] = route
    session.by_client["mine"] = ("w0", "c0-1")
    return route


def test_failing_dispatch_fails_the_waiting_client(monkeypatch):
    router = RouterFrontEnd(_FakeSupervisor())
    emitted = []
    session = SimpleNamespace(by_client={}, emit=emitted.append)
    _live_route(router, session)

    def failing_dispatch(link, payload):
        raise RuntimeError("malformed worker reply")

    monkeypatch.setattr(router, "_dispatch", failing_dispatch)
    link = SimpleNamespace(
        name="w0", generation=0, dead=False,
        conn=_ScriptedConnection([{"event": "result", "id": "c0-1"}]),
    )
    router._relay(link)

    assert router._relay_errors == 1
    assert len(emitted) == 1
    failed = emitted[0]
    assert failed["event"] == "failed"
    assert failed["id"] == "mine"
    assert failed["target"] == "mnli"
    assert failed["error"]["code"] == "error"
    assert "malformed worker reply" in failed["error"]["message"]
    assert router._routes == {}
    assert session.by_client == {}
    assert router._admission.stats()["inflight"] == 0


def test_closing_a_route_twice_releases_its_slot_once(monkeypatch):
    router = RouterFrontEnd(_FakeSupervisor())
    session = SimpleNamespace(by_client={})
    route = _live_route(router, session)
    releases = []
    release = router._admission.release
    monkeypatch.setattr(
        router._admission, "release",
        lambda tenant, **kw: (releases.append(tenant), release(tenant, **kw)),
    )

    assert router._close_route(route) is True
    assert router._close_route(route) is False
    assert releases == ["t"]
    assert router._admission.stats()["inflight"] == 0

