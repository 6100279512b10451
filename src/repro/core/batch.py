"""Batched multi-task selection: one offline phase, many online queries.

The paper's offline artifacts (performance matrix + model clustering) are
independent of the target task, so a production deployment serving many
selection queries should build them once and amortise them.
:class:`BatchedSelectionRunner` does exactly that: it accepts a batch of
target tasks, shares a single clustering and a single
:class:`~repro.core.selection.FineSelection` engine across all of them,
and submits every task as one request to a batch-scoped
:class:`~repro.sched.scheduler.EpochScheduler`, which interleaves their
epoch steps over a shared training budget and session pool before the
per-task :class:`~repro.core.results.SelectionResult` records are
aggregated into one :class:`BatchSelectionReport`.  This is also the
blocking path: :meth:`~repro.core.pipeline.TwoPhaseSelector.select` is a
one-target batch.

Typical use::

    from repro.core import BatchedSelectionRunner
    from repro.data import nlp_suite
    from repro.zoo import ModelHub

    suite = nlp_suite(seed=0)
    hub = ModelHub(suite, seed=0)
    runner = BatchedSelectionRunner.from_hub(hub, suite)
    report = runner.run(["mnli", "boolq"])
    report.selected_models()            # {'mnli': ..., 'boolq': ...}
    report.totals()["total_cost"]       # summed epoch-equivalent cost
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core.recall import CoarseRecall
from repro.core.results import (
    SelectionResult,
    TwoPhaseResult,
    aggregate_epoch_accounting,
)
from repro.core.selection import FineSelection
from repro.data.tasks import ClassificationTask
from repro.parallel.executor import ExecutorLike, get_executor
from repro.utils.exceptions import SelectionError
from repro.zoo.finetune import FineTuner

TargetLike = Union[str, ClassificationTask]


def build_phase_engines(
    artifacts, fine_tuner: FineTuner, *, parallel: ExecutorLike = None,
    extrapolation=None,
):
    """Construct the online-phase engine pair for one set of offline artifacts.

    Shared by :class:`BatchedSelectionRunner` and
    :class:`~repro.core.pipeline.TwoPhaseSelector` so the entry points
    can never drift in how they wire :class:`CoarseRecall` and
    :class:`FineSelection`.  ``parallel`` (an executor, config or spec
    string) overrides ``artifacts.config.parallel`` as the executor the
    recall fans its proxy scoring out over (fine-selection training fans
    out over the scheduler's executor instead).  ``extrapolation`` (an
    :class:`~repro.core.extrapolation.ExtrapolationConfig`) sets the fine
    selection's default speculative early-stopping mode; ``None`` is exact.
    """
    config = artifacts.config
    executor = get_executor(
        parallel if parallel is not None else getattr(config, "parallel", None)
    )
    recall = CoarseRecall(
        artifacts.hub,
        artifacts.matrix,
        artifacts.clustering,
        config=config.recall,
        executor=executor,
    )
    fine_selection = FineSelection(
        artifacts.hub,
        artifacts.matrix,
        fine_tuner,
        config=config.fine_selection,
        extrapolation=extrapolation,
    )
    return recall, fine_selection


def resolve_target_task(suite, target: TargetLike) -> ClassificationTask:
    """Resolve a target given by name or task object against ``suite``.

    Shared by :class:`BatchedSelectionRunner` and
    :class:`~repro.core.pipeline.TwoPhaseSelector`.
    """
    if isinstance(target, ClassificationTask):
        return target
    if target not in suite.dataset_names:
        raise SelectionError(
            f"unknown target dataset {target!r}; known: {suite.dataset_names}"
        )
    return suite.task(target)


@dataclass
class BatchSelectionReport:
    """Outcome of one batched multi-task selection run.

    Attributes
    ----------
    results:
        Per-target :class:`TwoPhaseResult`, keyed by target name in the
        order the targets were submitted.
    """

    results: Dict[str, TwoPhaseResult] = field(default_factory=dict)

    @property
    def target_names(self) -> List[str]:
        """Targets in submission order."""
        return list(self.results)

    def result_for(self, target_name: str) -> TwoPhaseResult:
        """Full two-phase result of one target."""
        if target_name not in self.results:
            raise SelectionError(
                f"no batch result for target {target_name!r}; "
                f"known: {self.target_names}"
            )
        return self.results[target_name]

    def selected_models(self) -> Dict[str, str]:
        """Selected checkpoint per target."""
        return {name: result.selected_model for name, result in self.results.items()}

    def selection_results(self) -> List[SelectionResult]:
        """The per-task fine-selection records (carrying the epoch accounting)."""
        return [result.selection for result in self.results.values()]

    def totals(self) -> Dict[str, float]:
        """Aggregated epoch accounting across every task in the batch.

        The proxy-inference cost of each task's recall phase is folded into
        its ``SelectionResult.extra_epoch_cost`` before aggregation, so
        ``totals()["total_cost"]`` is the batch's full epoch-equivalent bill.
        """
        return aggregate_epoch_accounting(self.selection_results())

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary (totals plus the mean selected accuracy)."""
        totals = self.totals()
        if self.results:
            totals["mean_selected_accuracy"] = sum(
                result.selected_accuracy for result in self.results.values()
            ) / len(self.results)
        return totals


class BatchedSelectionRunner:
    """Run the two-phase pipeline for many target tasks off one clustering.

    Parameters
    ----------
    artifacts:
        Offline products (:class:`~repro.core.pipeline.OfflineArtifacts`)
        shared by every task in the batch — hub, suite, performance matrix,
        clustering and configuration.
    fine_tuner:
        Optional fine-tuning engine shared across tasks (a fresh seeded one
        is created otherwise).
    recall, fine_selection:
        Optional prebuilt engines (both or neither) — passed by
        :meth:`~repro.core.pipeline.TwoPhaseSelector.select_many` so batched
        queries reuse the selector's existing engines instead of
        constructing fresh ones per call.
    parallel:
        Executor, :class:`~repro.parallel.config.ParallelConfig` or spec
        string the batch's scheduler fans each round's training ops out
        over (and the engines their inner loops).  Defaults to
        ``artifacts.config.parallel``.  Every training step draws from a
        named per-``(model, task)`` random stream, so all backends return
        reports identical to the serial path.

    One :class:`~repro.core.recall.CoarseRecall` and one
    :class:`~repro.core.selection.FineSelection` instance are shared by
    every task, so the batch pays the offline cost exactly once regardless
    of its size.
    """

    def __init__(
        self,
        artifacts,
        *,
        fine_tuner: Optional[FineTuner] = None,
        seed: int = 0,
        recall: Optional[CoarseRecall] = None,
        fine_selection: Optional[FineSelection] = None,
        parallel: ExecutorLike = None,
    ) -> None:
        self.artifacts = artifacts
        self.fine_tuner = fine_tuner or FineTuner(seed=seed)
        if parallel is None:
            parallel = getattr(artifacts.config, "parallel", None)
        self._executor = get_executor(parallel)
        if (recall is None) != (fine_selection is None):
            raise SelectionError(
                "recall and fine_selection must be supplied together"
            )
        if recall is None:
            recall, fine_selection = build_phase_engines(
                artifacts, self.fine_tuner, parallel=self._executor
            )
        self._recall = recall
        self._fine_selection = fine_selection

    # ------------------------------------------------------------------ #
    @classmethod
    def from_hub(
        cls,
        hub,
        suite=None,
        *,
        config=None,
        fine_tuner: Optional[FineTuner] = None,
        seed: int = 0,
    ) -> "BatchedSelectionRunner":
        """Build the offline artifacts once and wrap them in a batch runner."""
        from repro.core.pipeline import OfflineArtifacts

        artifacts = OfflineArtifacts.build(
            hub, suite, config=config, fine_tuner=fine_tuner
        )
        return cls(artifacts, fine_tuner=fine_tuner, seed=seed)

    # ------------------------------------------------------------------ #
    def _resolve_task(self, target: TargetLike) -> ClassificationTask:
        return resolve_target_task(self.artifacts.suite, target)

    def run(
        self, targets: Sequence[TargetLike], *, top_k: Optional[int] = None
    ) -> BatchSelectionReport:
        """Select a checkpoint for every target task in the batch.

        The runner is a thin client of the epoch scheduler: every target is
        submitted as one request to a batch-scoped
        :class:`~repro.sched.scheduler.EpochScheduler` sharing this
        runner's engines, and the scheduler interleaves their epoch steps
        over the configured executor — so overlapping requests share
        partially-trained sessions through the
        :class:`~repro.sched.pool.SessionPool` instead of each training
        privately.  Results are collected in submission order and every
        per-target record is bitwise-identical to running that target
        alone (one-target batches are how
        :meth:`~repro.core.pipeline.TwoPhaseSelector.select` runs); each
        task's recall proxy cost is recorded on its
        ``SelectionResult.extra_epoch_cost`` exactly as before.
        """
        from repro.sched.config import SchedulerConfig
        from repro.sched.scheduler import EpochScheduler

        tasks = [self._resolve_task(target) for target in targets]
        if not tasks:
            raise SelectionError("target batch must not be empty")
        seen: Dict[str, None] = {}
        for task in tasks:
            if task.name in seen:
                raise SelectionError(f"duplicate target {task.name!r} in batch")
            seen[task.name] = None

        # A bulk batch wants the fewest, fattest scheduling rounds: every
        # request is admitted at once and the unbounded epoch budget makes
        # each round one full stage wave — a single executor dispatch per
        # stage across the whole batch (fairness between requests that all
        # arrived together is moot).
        scheduler = EpochScheduler.for_artifacts(
            self.artifacts,
            fine_tuner=self.fine_tuner,
            recall=self._recall,
            fine_selection=self._fine_selection,
            config=SchedulerConfig(
                max_concurrent=len(tasks),
                max_queue=len(tasks),
                epoch_budget=None,
            ),
            parallel=self._executor,
        )
        requests = [scheduler.submit(task, top_k=top_k) for task in tasks]
        scheduler.run_until_idle()

        report = BatchSelectionReport()
        for task, request in zip(tasks, requests):
            report.results[task.name] = scheduler.result(request)
        return report
