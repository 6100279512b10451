"""Dispatch a workload run and render its report."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Dict, List

from perfbench.metrics import END_TO_END, PER_LAYER, UNITS
from perfbench.workloads import (
    PROFILES,
    Result,
    run_offline_build,
    run_scheduled_overlap,
    run_select_distinct,
)

WORKLOADS = ("offline-build", "select-distinct", "scheduled-overlap", "routed-durable")

#: Figures that apply to one workload only (or describe the run), printed in the
#: report lines but not part of the JSON contract.
EXTRA_UNITS = {
    "build_s": "s",
    "refresh_s": "s",
    "error_rate": "ratio",
    "requests": "count",
    "offline_jobs": "count",
    "offered_rps": "req/s",
    "worker_peak_rss_mb": "MB",
    "cpu_latency_p50_s": "s",
    "cpu_latency_p90_s": "s",
    "cpu_throughput_rps": "req/s",
    "wall_s": "s",
    "lag_p90_s": "s",
    "mean_speed": "ratio",
    "probes": "count",
}


@contextlib.contextmanager
def one_cpu():
    """Run this thread, and the threads and processes it starts, on a single CPU.

    The reference clock's probes (see ``refclock.py``) run on the main
    thread while the scheduled workload's work runs on the scheduler thread,
    and the routed workload's in the serve processes.  On a shared virtual
    machine the two CPUs can run at different speeds, so the probes only
    measure the work's speed when both share one CPU.  With the process
    pinned, the p50 spread of scheduled-overlap over five seeds fell from
    0.083 to 0.025 of its median.  The interpreter lock lets one thread run
    at a time anyway, and the routed workload has one request in flight.
    Pinned, the CPU axis of the work advances like the wall clock whenever
    the work runs.  The previous affinity is restored after the run.
    """
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(previous)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    root: Path,
    corrupt: int = 0,
) -> Result:
    """Run one workload and return what it measured and checked."""
    profile = PROFILES[size]
    in_process = {
        "offline-build": run_offline_build,
        "select-distinct": run_select_distinct,
        "scheduled-overlap": run_scheduled_overlap,
    }
    if name in in_process:
        with one_cpu():
            result = in_process[name](seed, seconds, trace, profile, corrupt)
    elif name == "routed-durable":
        from perfbench.routed import run_routed_durable

        work_dir = root / ".perfbench" / f"run-{os.getpid()}"
        with one_cpu():
            result = run_routed_durable(seed, seconds, trace, profile, corrupt,
                                        work_dir=work_dir)
    else:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    result.extras["error_rate"] = result.error_rate
    if trace and result.tracer is not None:
        out_dir = root / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        result.tracer.write(str(out_dir / f"trace-{name}-seed{seed}.jsonl"))
    return result


def report_lines(name: str, result: Result, trace: bool) -> List[str]:
    """Human-readable report: every metric with its unit, then the checks."""
    lines = [f"workload {name}"]
    values = result.per_layer if trace else result.end_to_end
    for metric, value in (values or {}).items():
        lines.append(f"  {metric:40s} {value:14.6f} {UNITS[metric]}")
    for metric, value in result.extras.items():
        lines.append(f"  {metric:40s} {value:14.6f} {EXTRA_UNITS.get(metric, '')}")
    if trace and result.per_layer:
        wall = result.per_layer.get("trace.wall_s") or 0.0
        shares = sorted(
            ((value / wall, metric) for metric, value in result.per_layer.items()
             if metric.endswith("self_s") and wall and value > 0),
            reverse=True,
        )
        lines.append("  where the traced phase's time went (self time / wall):")
        lines.extend(f"    {metric:38s} {share:7.1%}" for share, metric in shares)
    ledger = result.ledger
    lines.append(
        f"  answers checked {ledger.checked}, wrong {ledger.wrong}, "
        f"digest mismatches {ledger.digest_mismatches}, failed requests {result.failed}"
    )
    lines.extend(f"  mismatch: {reason}" for reason in ledger.reasons)
    lines.extend(f"  digest {key} {value}" for key, value in sorted(result.digests.items()))
    return lines


def result_json(result: Result, trace: bool) -> Dict[str, object]:
    """The contract's last stdout line."""
    names = [name for name, *_ in (PER_LAYER if trace else END_TO_END)]
    values = (result.per_layer if trace else result.end_to_end) or {}
    return {
        "correct": result.ledger.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed + result.ledger.wrong),
        "metrics": {
            name: {"value": float(values[name]), "unit": UNITS[name]} for name in names
        },
    }

