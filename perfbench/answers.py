"""Canonical answer forms, comparisons and recorded digests.

An answer is reduced to a JSON-friendly dict whose floats round-trip
exactly, so two answers are equal exactly when the program produced the
same numbers.  ``digests.json`` records, for the default seed, a SHA-256
of the answers each workload checks; a later commit that changes any of
those answers fails the benchmark.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, Optional

import numpy as np

DIGEST_FILE = Path(__file__).with_name("digests.json")

#: Fields of the serve protocol's ``result`` event compared with the
#: blocking answer (the wire carries no stage records or recall scores).
WIRE_FIELDS = (
    "selected_model",
    "selected_accuracy",
    "total_cost",
    "runtime_epochs",
    "recall_epoch_cost",
    "recalled_models",
)


def canonical_result(result) -> Dict[str, object]:
    """Everything a :class:`TwoPhaseResult` answers, in comparable form."""
    selection = result.selection
    return {
        "target": result.target_name,
        "selected_model": result.selected_model,
        "selected_accuracy": float(result.selected_accuracy),
        "total_cost": float(result.total_cost),
        "runtime_epochs": float(selection.runtime_epochs),
        "recall_epoch_cost": float(result.recall.epoch_cost),
        "recalled_models": list(result.recall.recalled_models),
        "recall_scores": {k: float(v) for k, v in sorted(result.recall.recall_scores.items())},
        "stages": [
            {
                "stage": record.stage,
                "surviving": list(record.surviving_models),
                "val": {k: float(v) for k, v in sorted(record.validation_accuracy.items())},
                "predicted": {k: float(v) for k, v in sorted(record.predicted_accuracy.items())},
                "by_trend": list(record.removed_by_trend),
                "by_halving": list(record.removed_by_halving),
            }
            for record in selection.stages
        ],
    }


def wire_view(answer: Dict[str, object]) -> Dict[str, object]:
    """The subset of an answer the serve protocol carries."""
    return {field: answer.get(field) for field in WIRE_FIELDS}


def consistent_wire_answer(payload: Dict[str, object], top_k: int, num_models: int) -> bool:
    """Invariants every served answer must satisfy on its own."""
    recalled = payload.get("recalled_models") or []
    try:
        total = float(payload["total_cost"])
        parts = float(payload["runtime_epochs"]) + float(payload["recall_epoch_cost"])
        accuracy = float(payload["selected_accuracy"])
    except (KeyError, TypeError, ValueError):
        return False
    return (
        payload.get("selected_model") in recalled
        and len(recalled) == min(top_k, num_models)
        and len(set(recalled)) == len(recalled)
        and abs(total - parts) < 1e-9
        and 0.0 <= accuracy <= 1.0
    )


def digest(items: Iterable[object]) -> str:
    """SHA-256 over the canonical JSON of ``items`` (order matters)."""
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(json.dumps(item, sort_keys=True).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def array_digest(*arrays: np.ndarray) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        hasher.update(str((array.dtype.str, array.shape)).encode("ascii"))
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def recorded_digest(key: str) -> Optional[str]:
    """Digest recorded for ``key`` (``workload/seed/size/what``), if any."""
    if not DIGEST_FILE.exists():
        return None
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8")).get(key)


class AnswerLedger:
    """Counts checked answers and mismatches; keeps the first few reasons."""

    def __init__(self) -> None:
        self.checked = 0
        self.wrong = 0
        self.digest_mismatches = 0
        self.reasons = []

    def check(self, ok: bool, reason: str) -> bool:
        self.checked += 1
        if not ok:
            self.wrong += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)
        return ok

    def check_digest(self, key: str, actual: str, computed: Dict[str, str]) -> None:
        """Compare with the recorded digest for ``key`` when one exists."""
        computed[key] = actual
        expected = recorded_digest(key)
        if expected is not None and expected != actual:
            self.digest_mismatches += 1
            self.reasons.append(f"digest {key}: {actual} != recorded {expected}")

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.digest_mismatches == 0
