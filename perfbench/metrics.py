"""Metric catalogue, summary statistics and process measurements.

The names, units and directions here are the ones ``BENCHMARK.json``
declares; ``tests/test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

import math
import resource
from typing import Dict, List, Sequence, Tuple

#: End-to-end metrics: ``(name, unit, better, bound)``.  Every workload
#: reports every one of them (see ``README.md`` for the per-workload
#: meaning of a "request").
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_p90_s", "s", "lower", 0.25),
    ("throughput_rps", "req/s", "higher", 0.25),
    ("epochs_trained_per_request", "epochs", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: Per-layer metrics of the traced run: ``(name, unit, better)``.  Every
#: workload reports all of them; a layer the workload does not exercise
#: reads 0.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("zoo.encode.calls", "count", "lower"),
    ("zoo.encode.rows", "rows", "lower"),
    ("zoo.encode.self_s", "s", "lower"),
    ("zoo.start_session.self_s", "s", "lower"),
    ("zoo.source_posterior.self_s", "s", "lower"),
    ("zoo.train_epochs.epochs", "epochs", "lower"),
    ("zoo.train_epochs.self_s", "s", "lower"),
    ("core.recall.calls", "count", "lower"),
    ("core.recall.self_s", "s", "lower"),
    ("metrics.score.self_s", "s", "lower"),
    ("core.convergence.mine.calls", "count", "lower"),
    ("core.convergence.mine.self_s", "s", "lower"),
    ("core.selection.filter_stage.self_s", "s", "lower"),
    ("core.performance.self_s", "s", "lower"),
    ("core.similarity.self_s", "s", "lower"),
    ("cluster.self_s", "s", "lower"),
    ("sched.rounds", "count", "lower"),
    ("sched.round_s", "s", "lower"),
    ("sched.round_overhead_s", "s", "lower"),
    ("sched.pool.self_s", "s", "lower"),
    ("sched.pool.hits", "count", "higher"),
    ("sched.pool.misses", "count", "lower"),
    ("sched.pool.epochs_trained", "epochs", "lower"),
    ("sched.pool.epochs_reused", "epochs", "higher"),
    ("sched.pool.reuse_ratio", "ratio", "higher"),
    ("nn.fused.epochs", "epochs", "higher"),
    ("nn.serial.epochs", "epochs", "lower"),
    ("nn.probe.epochs", "epochs", "lower"),
    ("nn.delegated_groups", "count", "lower"),
    ("nn.fused_share", "ratio", "higher"),
    ("nn.fused.advance.self_s", "s", "lower"),
    ("persist.results_restored", "count", "higher"),
    ("persist.restore_ratio", "ratio", "higher"),
    ("persist.sessions", "count", "lower"),
    ("persist.journal_errors", "count", "lower"),
    ("distrib.hop_p50_s", "s", "lower"),
    ("distrib.hop_p90_s", "s", "lower"),
    ("distrib.rejected", "count", "lower"),
    ("distrib.worker_share_max", "ratio", "lower"),
    ("distrib.worker_peak_rss_mb", "MB", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("loadgen.lag_p90_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``0 <= q <= 100``)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was attempted."""
    return float(numerator) / float(denominator) if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def empty_per_layer() -> Dict[str, float]:
    return {name: 0.0 for name, _, _ in PER_LAYER}
