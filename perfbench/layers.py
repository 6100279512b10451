"""Which public functions the traced run wraps, and the per-layer report.

:func:`install` wraps the layers' public entry points at class level (the
module-level offline functions wherever they were imported).
:func:`per_layer_metrics` turns the recorded spans plus the program's own
counters into the named per-layer metrics of :data:`metrics.PER_LAYER`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from perfbench.metrics import empty_per_layer, ratio
from perfbench.tracing import Span, Tracer, layer_totals, round_gaps


def _rows(args, kwargs, result) -> Dict[str, float]:
    features = args[1] if len(args) > 1 else kwargs.get("features")
    return {"rows": float(np.shape(features)[0])}


def _epochs(args, kwargs, result) -> Dict[str, float]:
    epochs = args[1] if len(args) > 1 else kwargs.get("num_epochs", 1)
    return {"epochs": float(epochs)}


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap every traced public function; undo with ``tracer.uninstall()``."""
    import repro.metrics  # noqa: F401 - registers every scorer class
    from repro.core import performance, similarity
    from repro.core.convergence import ConvergenceTrendMiner
    from repro.core.model_clustering import ModelClusterer
    from repro.core.plan import StagePolicy
    from repro.core.recall import CoarseRecall
    from repro.metrics.base import ProxyScorer
    from repro.nn.batched import FusedSessionGroup
    from repro.sched.pool import SessionPool
    from repro.zoo.finetune import FineTuner, FineTuneSession
    from repro.zoo.models import PretrainedModel

    tracer.patch_method(PretrainedModel, "encode", "zoo.encode", _rows)
    tracer.patch_method(PretrainedModel, "source_posterior", "zoo.source_posterior")
    tracer.patch_method(FineTuner, "start_session", "zoo.start_session")
    tracer.patch_method(FineTuneSession, "train_epochs", "zoo.train_epochs", _epochs)
    tracer.patch_method(CoarseRecall, "recall", "core.recall")
    for cls in set(_subclasses(ProxyScorer)):
        if "score" in cls.__dict__:
            tracer.patch_method(cls, "score", "metrics.score")
    tracer.patch_method(ConvergenceTrendMiner, "mine", "core.convergence.mine")
    for cls in set(_subclasses(StagePolicy)):
        if "filter_stage" in cls.__dict__:
            tracer.patch_method(cls, "filter_stage", "core.selection.filter_stage")
    for name in ("build_performance_matrix", "update_performance_matrix"):
        tracer.patch_function(performance, name, "core.performance")
    for name in ("performance_similarity_matrix", "update_similarity_matrix"):
        tracer.patch_function(similarity, name, "core.similarity")
    tracer.patch_method(ModelClusterer, "cluster", "cluster")
    for name in ("acquire", "advance", "record_round"):
        tracer.patch_method(SessionPool, name, f"sched.pool.{name}")
    tracer.patch_method(FusedSessionGroup, "advance", "nn.fused.advance")


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: float(after.get(key, 0)) - float(before.get(key, 0)) for key in after}


def per_layer_metrics(
    spans: Iterable[Span],
    *,
    wall_s: float,
    overhead: float,
    pool: Optional[Dict[str, float]] = None,
    train: Optional[Dict[str, float]] = None,
    cache: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Named per-layer metrics of one traced timed phase.

    ``wall_s`` is the phase's raw wall time and ``overhead`` its reference
    time over the untraced phase's.  ``pool``, ``train`` and ``cache`` are
    the program's own counters over the phase (session pool, scheduler
    training report, artifact-cache delta); counts come from there, times
    from spans.
    """
    spans = list(spans)
    totals = layer_totals(spans)
    out = empty_per_layer()

    def self_s(name: str) -> float:
        entry = totals.get(name)
        return entry.self_s if entry is not None else 0.0

    def calls(name: str) -> float:
        entry = totals.get(name)
        return float(entry.calls) if entry is not None else 0.0

    def attr(name: str, key: str) -> float:
        entry = totals.get(name)
        return entry.attrs.get(key, 0.0) if entry is not None else 0.0

    out["zoo.encode.calls"] = calls("zoo.encode")
    out["zoo.encode.rows"] = attr("zoo.encode", "rows")
    out["zoo.encode.self_s"] = self_s("zoo.encode")
    out["zoo.start_session.self_s"] = self_s("zoo.start_session")
    out["zoo.source_posterior.self_s"] = self_s("zoo.source_posterior")
    out["zoo.train_epochs.epochs"] = attr("zoo.train_epochs", "epochs")
    out["zoo.train_epochs.self_s"] = self_s("zoo.train_epochs")
    out["core.recall.calls"] = calls("core.recall")
    out["core.recall.self_s"] = self_s("core.recall")
    out["metrics.score.self_s"] = self_s("metrics.score")
    out["core.convergence.mine.calls"] = calls("core.convergence.mine")
    out["core.convergence.mine.self_s"] = self_s("core.convergence.mine")
    out["core.selection.filter_stage.self_s"] = self_s("core.selection.filter_stage")
    out["core.performance.self_s"] = self_s("core.performance")
    out["core.similarity.self_s"] = self_s("core.similarity")
    out["cluster.self_s"] = self_s("cluster")
    out["sched.pool.self_s"] = sum(
        self_s(f"sched.pool.{name}") for name in ("acquire", "advance", "record_round")
    )
    out["nn.fused.advance.self_s"] = self_s("nn.fused.advance")

    gaps = round_gaps(spans, "sched.pool.record_round")
    out["sched.rounds"] = calls("sched.pool.record_round")
    if gaps:
        out["sched.round_s"] = sum(gap for gap, _ in gaps) / len(gaps)
        out["sched.round_overhead_s"] = sum(idle for _, idle in gaps) / len(gaps)

    if pool:
        out["sched.pool.hits"] = pool.get("hits", 0.0)
        out["sched.pool.misses"] = pool.get("misses", 0.0)
        out["sched.pool.epochs_trained"] = pool.get("epochs_trained", 0.0)
        out["sched.pool.epochs_reused"] = pool.get("epochs_reused", 0.0)
        out["sched.pool.reuse_ratio"] = ratio(
            out["sched.pool.epochs_reused"],
            out["sched.pool.epochs_reused"] + out["sched.pool.epochs_trained"],
        )
    if train:
        out["nn.fused.epochs"] = train.get("fused_epochs", 0.0)
        out["nn.serial.epochs"] = train.get("serial_epochs", 0.0)
        out["nn.probe.epochs"] = train.get("probe_epochs", 0.0)
        out["nn.delegated_groups"] = train.get("delegated_groups", 0.0)
        out["nn.fused_share"] = ratio(
            out["nn.fused.epochs"], out["nn.fused.epochs"] + out["nn.serial.epochs"]
        )
    if cache:
        out["cache.hits"] = cache.get("hits", 0.0)
        out["cache.misses"] = cache.get("misses", 0.0)

    out["trace.self_sum_s"] = sum(entry.self_s for entry in totals.values())
    out["trace.wall_s"] = wall_s
    out["trace.overhead"] = overhead
    return out
