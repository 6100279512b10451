"""Serial reference loop for :class:`~repro.core.plan.SelectionPlan`.

The library trains every plan through the epoch scheduler (pooled sessions,
fused rounds, journals).  This oracle is the plain loop the scheduler must
agree with bitwise: private, unpooled sessions, trained stage by stage in
candidate order.  Suites that check the scheduler compare against it, not
against ``TwoPhaseSelector.select`` (which is itself the scheduler).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.batch import build_phase_engines, resolve_target_task
from repro.core.plan import SelectionPlan, SessionView
from repro.core.results import SelectionResult, TwoPhaseResult


def build_plan(policy, candidates: Sequence[str], task, recall_result=None):
    """A plan over fresh per-request sessions of ``policy``'s hub."""
    return SelectionPlan(
        policy=policy,
        task=task,
        candidates=list(candidates),
        recall_result=recall_result,
        view_factory=lambda name: SessionView(
            policy.fine_tuner.start_session(policy.hub.get(name), task)
        ),
    )


def drive(plan: SelectionPlan) -> SelectionResult:
    """Train ``plan`` to completion, one whole stage at a time."""
    while not plan.done:
        steps = []
        while (step := plan.claim_next()) is not None:
            steps.append(step)
        for step in steps:
            view = plan.views[step.model]
            view.session.train_epochs(step.epochs)
            view.adopt(view.session, advance=step.epochs)
            plan.complete(step)
    return plan.result


def serial_run(policy, candidates: Sequence[str], task) -> SelectionResult:
    """Reference for ``policy.run(candidates, task)``."""
    return drive(build_plan(policy, candidates, task))


def serial_select(
    artifacts, target, *, top_k: Optional[int] = None, fine_tuner=None
) -> TwoPhaseResult:
    """Reference for ``TwoPhaseSelector(artifacts).select(target)``."""
    from repro.zoo.finetune import FineTuner

    recall, fine_selection = build_phase_engines(
        artifacts, fine_tuner or FineTuner(seed=0)
    )
    task = resolve_target_task(artifacts.suite, target)
    recall_result = recall.recall(task, top_k=top_k)
    plan = build_plan(
        fine_selection, recall_result.recalled_models, task, recall_result
    )
    drive(plan)
    return plan.two_phase_result()
