"""The routed-durable workload: ``python -m repro serve --workers 2`` over TCP.

The benchmark starts the routed front end with a plan store in a working
directory of the checkout, waits for its banner (``setup_s``), then drives
one TCP connection through the seeded arrival schedule: each request is
sent when it is due, or when the answer to the one before arrives if that
is later, so one request is in flight at a time.  After the last answer a
``stats`` op collects the program's own counters, and the router is
stopped with SIGTERM (which stops its workers too).

The serve processes inherit the benchmark's pin to one CPU (see
``runner.one_cpu``).  A request's latency is the CPU time the router and
its workers spent between the request's send and its answer, read from
their process CPU clocks and scaled to reference seconds by probes run
just before the send and just after the answer (see
:mod:`perfbench.refclock`).  With one request in
flight and one CPU, that is the request's wall latency on an idle machine,
less the client's own share; on a shared host the wall latency would also
count the time other tenants held the CPU.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import inputs
from perfbench.answers import consistent_wire_answer, digest, wire_view
from perfbench.metrics import (
    empty_per_layer,
    median,
    peak_rss_mb,
    percentile,
    process_peak_rss_mb,
    ratio,
)
from perfbench.refclock import ProbeThread, ReferenceClock
from perfbench.workloads import Phase, Profile, Result, blocking_answers, latency_metrics

#: Root of the checkout: the served program is imported from ``src`` here.
ROOT = Path(__file__).resolve().parents[1]
#: Seconds to wait for one answer (and for the stats reply).
ANSWER_TIMEOUT = 60.0
#: Seconds before a request is due at which its probe starts (a probe takes
#: about 2 ms), so the request still goes out on time.
PROBE_LEAD_S = 0.004
#: Seconds to wait for the banner of a starting server.
BANNER_TIMEOUT = 120.0


class Server:
    """One routed serve process tree, started and stopped by the benchmark."""

    def __init__(self, store_dir: Path, num_models: Optional[int]) -> None:
        argv = [
            sys.executable, "-m", "repro", "serve", "--workers", "2",
            "--store-dir", str(store_dir), "--scale", "small", "--port", "0",
        ]
        if num_models is not None:
            argv += ["--num-models", str(num_models)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._log = open(store_dir.parent / f"{store_dir.name}.log", "wb")
        self.proc = subprocess.Popen(
            argv, cwd=str(ROOT), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            line = _readline_with_timeout(self.proc.stdout, BANNER_TIMEOUT)
            self.banner = json.loads(line)
        except (OSError, ValueError) as error:
            self.stop()
            raise RuntimeError(f"serve did not start: {error}") from error
        self.port = int(self.banner["port"])
        self.worker_pids = [int(worker["pid"]) for worker in self.banner.get("workers", [])]
        self.pids = [self.proc.pid, *self.worker_pids]
        #: CPU seconds the serve processes spent until the banner.
        self.setup_cpu = self.cpu()

    def cpu(self) -> float:
        """CPU seconds the router and its workers have run so far."""
        return sum(time.clock_gettime(_process_cpu_clock(pid)) for pid in self.pids)

    def stop(self) -> None:
        """SIGTERM the router, wait for it and for every worker to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        for pid in getattr(self, "worker_pids", []):
            _wait_gone(pid)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def _process_cpu_clock(pid: int) -> int:
    """Clock id of another process's CPU clock, as ``clock_getcpuclockid`` makes it."""
    return (~pid << 3) | 2


def _readline_with_timeout(stream, timeout: float) -> bytes:
    holder: Dict[str, bytes] = {}
    reader = threading.Thread(target=lambda: holder.update(line=stream.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    line = holder.get("line", b"")
    if not line:
        raise OSError("no banner line")
    return line


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _wait_gone(pid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if _alive(pid):
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def _drive(server: Server, schedule: List[inputs.Arrival], clock: ReferenceClock):
    """Send ``schedule`` one request at a time; collect every answer and the stats.

    A probe runs just before each send and just after each answer, while
    the serve processes are idle.  Returns per request its send time, due
    time, serve CPU spent on it, the index of the probe before it (the one
    after it is the next) and its answer event.
    """
    sock = socket.create_connection(("127.0.0.1", server.port))
    sock.settimeout(ANSWER_TIMEOUT)
    reader = sock.makefile("rb")

    def send(payload: Dict[str, object]) -> None:
        sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))

    def answer(rid: str, kinds: Tuple[str, ...]) -> Optional[Dict[str, object]]:
        while True:
            line = reader.readline()
            if not line:
                return None
            event = json.loads(line)
            if event.get("event") in kinds and event.get("id") == rid:
                return event

    records: List[Dict[str, object]] = []
    stats: Optional[Dict[str, object]] = None
    start = time.perf_counter()
    try:
        for index, arrival in enumerate(schedule):
            due = start + arrival.due
            delay = due - PROBE_LEAD_S - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            probe = clock.probes
            clock.probe()
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            rid = f"q{index}"
            before, sent = server.cpu(), time.perf_counter()
            send({"op": "select", "id": rid, "target": arrival.target, "top_k": arrival.top_k})
            event = answer(rid, ("result", "failed", "error"))
            at, after = time.perf_counter(), server.cpu()
            clock.probe()
            records.append({"due": due, "sent": sent, "at": at, "cpu": after - before,
                            "probe": probe, "event": event})
            if event is None:
                break
        end = time.perf_counter()
        send({"op": "stats", "id": "perfbench-stats"})
        event = answer("perfbench-stats", ("stats",))
        stats = (event or {}).get("stats")
    except (OSError, ValueError):
        end = time.perf_counter()
    finally:
        reader.close()
        sock.close()
    peaks = [process_peak_rss_mb(pid) for pid in server.worker_pids]
    return start, end, records, stats or {}, peaks


def _reference_answers(num_models: Optional[int], pairs: List[Tuple[str, int]]):
    """Blocking answers of the served zoo, built in this process."""
    from repro.core import OfflineArtifacts, PipelineConfig
    from repro.data import DataScale, WorkloadSuite
    from repro.zoo import ModelHub

    suite = WorkloadSuite("nlp", seed=0, scale=DataScale.small())
    hub = ModelHub(suite, seed=0)
    if num_models is not None:
        hub = hub.subset(hub.model_names[:num_models])
    artifacts = OfflineArtifacts.build(hub, suite, config=PipelineConfig.for_modality("nlp"))
    return blocking_answers(artifacts, pairs)


def _phase(server: Server, schedule, result: Result, num_models: int, collected: Dict) -> Phase:
    """Drive one timed phase and check every answer that needs no reference.

    A request's reference latency is the serve CPU spent on it times the
    mean speed of the probes just before and just after it.
    """
    clock = ReferenceClock()
    start, end, records, stats, peaks = _drive(server, schedule, clock)
    speeds = clock.speeds()
    latencies, cpu_latencies, hops, lags = [], [], [], []
    first_answer: Dict[Tuple[str, int], Dict[str, object]] = {}
    for index, arrival in enumerate(schedule):
        rid = f"q{index}"
        result.attempted += 1
        record = records[index] if index < len(records) else None
        if record is None or (record["event"] or {}).get("event") != "result":
            result.failed += 1
            continue
        payload = record["event"]
        lags.append(record["sent"] - record["due"])
        cpu_latencies.append(record["cpu"])
        speed = (speeds[record["probe"]] + speeds[record["probe"] + 1]) / 2.0
        latencies.append(record["cpu"] * speed)
        if payload.get("latency_seconds") is not None:
            hops.append(record["at"] - record["sent"] - float(payload["latency_seconds"]))
        pair = (arrival.target, arrival.top_k)
        view = wire_view(payload)
        result.ledger.check(
            consistent_wire_answer(payload, arrival.top_k, num_models),
            f"routed answer {rid} {pair} is inconsistent",
        )
        earlier = first_answer.setdefault(pair, view)
        result.ledger.check(earlier == view, f"repeat {rid} {pair} differs from its first answer")
        collected.setdefault(pair, []).append((rid, view))
    return Phase(
        answers=[record["event"] for record in records],
        latencies=latencies,
        cpu_latencies=cpu_latencies,
        seconds=sum(latencies),
        cpu_seconds=sum(cpu_latencies),
        wall_seconds=end - start,
        counters={
            "stats": stats,
            "client": {
                "hops": hops, "lags": lags, "worker_peaks": peaks,
                "repeats": sum(1 for arrival in schedule if arrival.repeat),
                "mean_speed": clock.mean_speed(),
            },
        },
    )


def _workers(phase: Phase) -> List[Dict]:
    return [worker or {} for worker in (phase.counters["stats"].get("workers") or {}).values()]


def _per_layer(phase: Phase, untraced: Phase) -> Dict[str, float]:
    """Per-layer metrics from the serve ``stats`` op and the client's timing.

    Worker counters are totals of the fresh workers of this phase.
    """
    out = empty_per_layer()
    client = phase.counters["client"]
    workers = _workers(phase)
    persist = [((w.get("scheduler") or {}).get("persist") or {}) for w in workers]
    pools = [((w.get("scheduler") or {}).get("session_pool") or {}) for w in workers]
    trains = [((w.get("scheduler") or {}).get("train") or {}) for w in workers]
    restored = sum(p.get("results_restored", 0) for p in persist)
    out["persist.results_restored"] = float(restored)
    out["persist.restore_ratio"] = ratio(restored, client["repeats"])
    out["persist.sessions"] = float(sum(p.get("sessions", 0) for p in persist))
    out["persist.journal_errors"] = float(sum(p.get("journal_errors", 0) for p in persist))
    trained = sum(p.get("epochs_trained", 0) for p in pools)
    reused = sum(p.get("epochs_reused", 0) for p in pools)
    out["sched.pool.hits"] = float(sum(p.get("hits", 0) for p in pools))
    out["sched.pool.misses"] = float(sum(p.get("misses", 0) for p in pools))
    out["sched.pool.epochs_trained"] = float(trained)
    out["sched.pool.epochs_reused"] = float(reused)
    out["sched.pool.reuse_ratio"] = ratio(reused, trained + reused)
    out["sched.rounds"] = float(sum((w.get("scheduler") or {}).get("rounds", 0) for w in workers))
    fused = sum(t.get("fused_epochs", 0) for t in trains)
    serial = sum(t.get("serial_epochs", 0) for t in trains)
    out["nn.fused.epochs"] = float(fused)
    out["nn.serial.epochs"] = float(serial)
    out["nn.probe.epochs"] = float(sum(t.get("probe_epochs", 0) for t in trains))
    out["nn.delegated_groups"] = float(sum(t.get("delegated_groups", 0) for t in trains))
    out["nn.fused_share"] = ratio(fused, fused + serial)
    hits = sum(((w.get("cache") or {}).get("memory") or {}).get("hits", 0) for w in workers)
    misses = sum(((w.get("cache") or {}).get("memory") or {}).get("misses", 0) for w in workers)
    out["cache.hits"], out["cache.misses"] = float(hits), float(misses)
    router = phase.counters["stats"].get("router") or {}
    rejected = (router.get("admission") or {}).get("rejected") or {}
    out["distrib.rejected"] = float(sum(rejected.values()))
    served = [float(w.get("requests", 0)) for w in workers]
    out["distrib.worker_share_max"] = ratio(max(served, default=0.0), sum(served))
    out["distrib.hop_p50_s"] = median(client["hops"])
    out["distrib.hop_p90_s"] = percentile(client["hops"], 90.0)
    out["distrib.worker_peak_rss_mb"] = max(client["worker_peaks"], default=0.0)
    out["loadgen.lag_p90_s"] = percentile(client["lags"], 90.0)
    out["trace.wall_s"] = phase.wall_seconds
    out["trace.overhead"] = ratio(phase.seconds, untraced.seconds)
    return out


def run_routed_durable(seed: int, seconds: float, trace: bool, profile: Profile,
                       corrupt: int = 0, *, work_dir: Path) -> Result:
    from repro.data import DataScale, WorkloadSuite

    result = Result()
    names = WorkloadSuite("nlp", seed=0, scale=DataScale.small()).dataset_names
    rate = profile.routed_rate
    schedule = inputs.arrival_schedule(
        seed, names, rate=rate, seconds=max(seconds, profile.routed_requests / rate)
    )
    passes = 2 if trace else 1
    setup_times: List[float] = []
    phases: List[Phase] = []
    collected: Dict[Tuple[str, int], List] = {}
    num_models = profile.routed_models or 40
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for index in range(profile.setups):
            # Set-up is the serve processes' CPU until the banner, scaled by
            # the median speed a probe thread saw while they started.
            clock = ReferenceClock()
            with ProbeThread(clock):
                server = Server(work_dir / f"store-{index}", profile.routed_models)
            try:
                setup_times.append(server.setup_cpu * clock.median_speed())
                if index >= profile.setups - passes:
                    phases.append(_phase(server, schedule, result, num_models, collected))
            finally:
                server.stop()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced = phases[0]
    trained = sum(
        ((w.get("scheduler") or {}).get("session_pool") or {}).get("epochs_trained", 0)
        for w in _workers(untraced)
    )
    result.end_to_end = {
        "setup_s": median(setup_times),
        **latency_metrics(untraced),
        "epochs_trained_per_request": ratio(trained, len(untraced.latencies)),
    }
    result.extras = {
        "requests": float(len(schedule)),
        "offered_rps": profile.routed_rate,
        "worker_peak_rss_mb": max(untraced.counters["client"]["worker_peaks"], default=0.0),
        "cpu_latency_p50_s": median(untraced.cpu_latencies),
        "cpu_latency_p90_s": percentile(untraced.cpu_latencies, 90.0),
        "wall_s": untraced.wall_seconds,
        "lag_p90_s": percentile(untraced.counters["client"]["lags"], 90.0),
        "mean_speed": untraced.counters["client"]["mean_speed"],
    }
    if trace:
        result.per_layer = _per_layer(phases[1], untraced)

    # An evenly spaced sample of the distinct pairs is checked against the
    # blocking answer computed in this process, outside the timed phases.
    pairs = sorted(collected)
    stride = max(1, len(pairs) // max(1, profile.routed_ref_checks))
    sample = pairs[::stride][: profile.routed_ref_checks]
    references = _reference_answers(profile.routed_models, sample)
    if corrupt and sample:
        collected[sample[0]][0] = (collected[sample[0]][0][0], {"selected_model": "corrupted"})
    for pair, reference in zip(sample, references):
        expected = wire_view(reference)
        for rid, view in collected[pair]:
            result.ledger.check(
                view == expected, f"routed answer {rid} {pair} differs from blocking"
            )
    result.ledger.check_digest(
        f"routed-durable/{seed}/{profile.name}/{len(schedule)}/blocking",
        digest([[list(pair), wire_view(reference)] for pair, reference in zip(sample, references)]),
        result.digests,
    )
    result.end_to_end["peak_rss_mb"] = peak_rss_mb()
    return result
