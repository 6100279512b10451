"""Reference clock: CPU time converted to seconds at a fixed CPU speed.

The benchmark runs on shared virtual machines.  Two things there make
wall time measure the neighbours as much as the program: other tenants
take the CPU away for milliseconds at a time, and the CPU's speed drifts
by tens of percent within seconds as neighbours load the host.  So
intervals are measured on the *CPU axis* of the process under test (the
CPU seconds its threads have run, which stands still while it is
descheduled), and every timed phase also runs a short, fixed probe (NumPy
and interpreter work of the same small-array kind the program does,
defined here and independent of the program) every few tens of
milliseconds.  Each probe's duration gives the machine's speed at that
moment: ``NOMINAL_PROBE_S / probe``.  An interval of CPU time is
converted to *reference seconds* by integrating that speed over the
interval, taking the nearest probe at each instant.  A probe's duration
is the CPU time of its own thread, so waiting for the interpreter lock
does not count as slowness.  Where the probes run between the program's
calls on the same thread, time inside them is left out.

The process is pinned to one CPU while it is measured (see
``runner.one_cpu``), so on an idle machine its CPU axis advances like the
wall clock, and a probe takes ``NOMINAL_PROBE_S``: a reference second is
then a wall second.  The report prints the unscaled CPU figures and the
mean speed next to the reference ones.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import threading
import time
from typing import List, Optional, Tuple

import numpy as np

#: The CPU axis of this process: seconds its threads have run.
cpu_now = time.process_time

#: Probe duration that defines one reference second per wall second.  A
#: fixed unit: the probe takes 1.0-1.6 ms on a 2-CPU container (Intel Xeon,
#: 2.1 GHz) as the host's load varies.
NOMINAL_PROBE_S = 0.00175

_RNG = np.random.default_rng(20240)
_X = _RNG.standard_normal((192, 32))
_Y = _RNG.integers(0, 4, size=192)
_W1 = _RNG.standard_normal((32, 24)) * 0.1
_W2 = _RNG.standard_normal((24, 4)) * 0.1


def probe_work(epochs: int = 2) -> float:
    """The fixed probe workload; returns a checksum so nothing is skipped.

    A two-layer soft-max head on 192 rows of 32 features, trained with Adam
    in mini-batches of 32, then 24 rows hashed into seeded generators: the
    array sizes and kinds of call the program's fine-tuning and encoders
    make, written here so that a change to the program does not change the
    probe.  When the host is loaded, work like this slows more than plain
    matrix products and loops do: against the fine-tuning jobs of
    offline-build, the log-log slope of windowed medians was 0.90 for a
    training probe of this kind and 1.17 for such a loop of the same length.
    """
    w1, w2 = _W1.copy(), _W2.copy()
    moments = [np.zeros_like(w) for w in (w1, w1, w2, w2)]
    order_rng = np.random.default_rng(0)
    step = 0
    for _ in range(epochs):
        order = order_rng.permutation(len(_X))
        for begin in range(0, len(_X), 32):
            rows = order[begin:begin + 32]
            x, y = _X[rows], _Y[rows]
            hidden = np.maximum(x @ w1, 0.0)
            logits = hidden @ w2
            logits -= logits.max(axis=1, keepdims=True)
            grad = np.exp(logits)
            grad /= grad.sum(axis=1, keepdims=True)
            grad[np.arange(len(y)), y] -= 1.0
            grad /= len(y)
            grads = (x.T @ ((grad @ w2.T) * (hidden > 0)), hidden.T @ grad)
            step += 1
            for weight, g, m, v in zip((w1, w2), grads, moments[::2], moments[1::2]):
                m *= 0.9
                m += 0.1 * g
                v *= 0.999
                v += 0.001 * g * g
                weight -= 0.05 * (m / (1 - 0.9 ** step)) / (np.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
    total = float(w1.sum() + w2.sum())
    for row in _X[:24]:
        key = int.from_bytes(hashlib.blake2b(row.tobytes(), digest_size=8).digest(), "little")
        total += float(np.random.default_rng(key).standard_normal(24).sum())
    return total


class ReferenceClock:
    """Probe samples of one run and the CPU-to-reference conversion.

    Speeds are used as measured, not smoothed: the speed changes within a
    tenth of a second, and the probes right next to a request track it
    best.  Over a thousand back-to-back 4 ms work items on a 2-CPU
    container, the p90/p50 of the scaled times of identical work was
    1.04-1.09 with a probe on either side of every item, against 1.08-1.20
    with a probe every eight items smoothed by a running median of five
    (unscaled: 1.08-1.49).
    """

    def __init__(self) -> None:
        self._times: List[float] = []
        self._speeds: List[float] = []
        self._probe_spans: List[Tuple[float, float]] = []
        self._lock = threading.Lock()
        self._last = float("-inf")
        self._marks: Tuple[List[float], List[float]] = ([], [])

    # ------------------------------------------------------------------ #
    def probe(self) -> None:
        # A garbage collection the probe happens to trigger would read as
        # slowness, so collections wait until the probe is done.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = cpu_now()
            probe_work(1)  # untimed warm-up, so a cold cache does not read as slowness
            cpu_start = time.thread_time()
            probe_work()
            cpu = time.thread_time() - cpu_start
            end = cpu_now()
        finally:
            if collecting:
                gc.enable()
        with self._lock:
            self._times.append((start + end) / 2.0)
            # CPU time of this thread, not wall time: while another thread
            # of this process holds the interpreter lock the probe waits,
            # and that wait says nothing about the machine's speed.
            self._speeds.append(NOMINAL_PROBE_S / max(cpu, 1e-6))
            self._probe_spans.append((start, end))
            self._last = time.perf_counter()

    def maybe_probe(self, gap: float) -> None:
        """Probe unless the last probe ended less than ``gap`` wall seconds ago."""
        if time.perf_counter() - self._last >= gap:
            self.probe()

    def mark(self) -> None:
        """Record where the wall clock and the CPU axis stand together."""
        wall, cpu = time.perf_counter(), cpu_now()
        self._marks[0].append(wall)
        self._marks[1].append(cpu)

    def cpu_at(self, wall: float) -> float:
        """The CPU axis at ``perf_counter`` time ``wall``, from the marks.

        For timestamps the program takes itself with the monotonic clock;
        linear between the marks around ``wall``.
        """
        walls, cpus = self._marks
        return float(np.interp(wall, walls, cpus))

    @property
    def probes(self) -> int:
        return len(self._times)

    def mean_speed(self) -> float:
        with self._lock:
            return float(np.mean(self._speeds)) if self._speeds else 1.0

    def speeds(self) -> List[float]:
        """Every probe's speed, in probe order."""
        with self._lock:
            return list(self._speeds)

    def raw_seconds(self, start: float, end: float) -> float:
        """CPU seconds of ``[start, end]`` outside probes."""
        with self._lock:
            spans = list(self._probe_spans)
        inside = sum(max(0.0, min(end, b) - max(start, a)) for a, b in spans)
        return max(0.0, end - start - inside)

    def median_speed(self) -> float:
        """Median speed of every probe so far (1 without probes)."""
        speeds = self.speeds()
        return float(np.median(speeds)) if speeds else 1.0

    # ------------------------------------------------------------------ #
    def seconds(self, start: float, end: float, *, exclude_probes: bool = True) -> float:
        """Reference seconds of the CPU-axis interval ``[start, end]``."""
        with self._lock:
            times, speeds = list(self._times), list(self._speeds)
            spans = list(self._probe_spans)
        if not times or end <= start:
            return max(0.0, end - start)
        # Each probe speaks for the stretch of time nearer to it than to
        # any other probe; integrate speed over those stretches.
        bounds = [(a + b) / 2.0 for a, b in zip(times, times[1:])]
        total = 0.0
        index = bisect.bisect_right(bounds, start)
        cursor = start
        while cursor < end:
            stop = min(end, bounds[index]) if index < len(bounds) else end
            total += (stop - cursor) * speeds[index]
            cursor = stop
            index += 1
        if exclude_probes:
            for (probe_start, probe_end), speed in zip(spans, speeds):
                overlap = min(end, probe_end) - max(start, probe_start)
                if overlap > 0:
                    total -= overlap * speed
        return max(0.0, total)


class ProbeThread:
    """Probe every ``gap`` seconds from a background thread.

    For stretches whose work runs in other processes while the benchmark's
    own threads wait, so a probe delays nothing of the program's.  The
    probe's speed is its own thread's CPU time, so sharing the CPU with
    those processes does not read as slowness.
    """

    def __init__(self, clock: ReferenceClock, gap: float = 0.1) -> None:
        self.clock = clock
        self.gap = gap
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "ProbeThread":
        def run() -> None:
            while not self._stop.is_set():
                self.clock.probe()
                self._stop.wait(self.gap)

        self._thread = threading.Thread(target=run, name="perfbench-probe", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
