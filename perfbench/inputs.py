"""Seeded input generators for the four workloads.

Everything a workload sends to the program is made here from the workload
seed alone, so the same seed always yields the same inputs.  Generators
take a suite (for its domain space and specs) but never the program's
answers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: ``num_train`` sizes of generated targets.
TRAIN_SIZES = (96, 192, 384)
#: Suite specs the scheduled workload's hot targets vary: the paper's four
#: NLP targets and two benchmarks.
HOT_BASES = ("tweet_eval", "mnli", "multirc", "boolq", "sst2", "qnli")
#: ``top_k`` values of the scheduled workload.
SCHEDULED_TOP_K = (3, 5, 10)
#: ``top_k`` range of the routed workload (inclusive).
ROUTED_TOP_K = (2, 10)


def _rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream) pair."""
    return np.random.default_rng([int(seed), sum(map(ord, stream)), len(stream)])


def _dealt(rng: np.random.Generator, size: int, count: int) -> np.ndarray:
    """``count`` indices into ``range(size)``, each round of ``size`` in a seeded order."""
    return np.concatenate([rng.permutation(size) for _ in range(count // size + 1)])[:count]


def generated_targets(
    suite,
    seed: int,
    count: int,
    *,
    prefix: str,
    sizes: Sequence[int] = TRAIN_SIZES,
    bases: Optional[Sequence[str]] = None,
) -> List:
    """``count`` distinct target tasks, each a seeded variant of a suite spec.

    A variant keeps a suite spec's domain and class count, takes a new
    name, a ``num_train`` from ``sizes`` and a noise level jittered by up
    to 10%, and draws fresh data — so no two targets share an input row.
    Specs and sizes are dealt round-robin in a seeded order, so every seed
    asks the same mix of task shapes and only the data differ.
    """
    from repro.data.tasks import generate_task

    rng = _rng(seed, f"targets-{prefix}")
    names = list(suite.dataset_names)
    spec_order = _dealt(rng, len(names), count)
    size_order = _dealt(rng, len(sizes), count)
    tasks = []
    for index in range(count):
        base = suite.spec(names[int(spec_order[index])])
        spec = dataclasses.replace(
            base,
            name=f"{prefix}-{seed}-{index}",
            num_train=int(sizes[int(size_order[index])]),
            noise=float(base.noise * rng.uniform(0.9, 1.1)),
            role="target",
            metadata={},
        )
        tasks.append(generate_task(spec, suite.space, np.random.default_rng(rng.integers(2**63))))
    return tasks


def zipf_stream(seed: int, hot: int, count: int, *, exponent: float = 1.2) -> List[Tuple[int, int]]:
    """``count`` draws of ``(hot-set index, top_k)``; index ``i`` has Zipf rank ``i + 1``."""
    rng = _rng(seed, "zipf")
    weights = 1.0 / np.arange(1, hot + 1) ** exponent
    weights /= weights.sum()
    picks = rng.choice(hot, size=count, p=weights)
    top_ks = rng.choice(SCHEDULED_TOP_K, size=count)
    return [(int(i), int(k)) for i, k in zip(picks, top_ks)]


@dataclass(frozen=True)
class Arrival:
    """One routed request: when it is due and what it asks."""

    due: float
    target: str
    top_k: int
    repeat: bool


def arrival_schedule(
    seed: int,
    names: Sequence[str],
    *,
    rate: float,
    seconds: float,
    repeat_share: float = 0.25,
) -> List[Arrival]:
    """``round(rate * seconds)`` arrivals at the fixed ``rate``.

    Arrival ``i`` is due at ``(i + 0.5 + u) / rate`` with ``u`` uniform in
    ``[-0.25, 0.25]``: the offered load is the same for every seed and no
    two arrivals come closer than half a period (bursts of a Poisson
    process would make the tail latency a measure of the draw), while the
    jitter spreads arrivals over the server's 20 ms event-polling cycle
    instead of locking them to one phase of it.  The seed also decides
    what is asked: exactly ``repeat_share`` of the arrivals after the
    first, at seeded positions, repeat an earlier ``(target, top_k)``; the
    others ask a pair not asked before.  Fresh pairs come in rounds that
    ask every target once, in a seeded order; in round ``r`` target ``t``
    asks the ``top_k`` at position ``(offset[t] + r) mod 9`` of 2..10, with
    the offsets a seeded permutation.  So every seed asks each target
    equally often and each ``top_k`` within one of equally often, never the
    same pair twice, and the seed decides which target meets which
    ``top_k`` and the order.
    """
    rng = _rng(seed, "open-loop")
    low, high = ROUTED_TOP_K
    top_ks = list(range(low, high + 1))
    offsets = rng.permutation(len(names))
    count = max(1, int(round(rate * seconds)))
    jitter = rng.uniform(-0.25, 0.25, size=count)
    # Exactly ``repeat_share`` of the arrivals after the first are repeats.
    repeats = set((1 + rng.permutation(count - 1))[: int(round(repeat_share * (count - 1)))])
    fresh = count - len(repeats)
    if fresh > len(names) * len(top_ks):
        raise ValueError("arrival schedule ran out of distinct pairs")
    order = _dealt(rng, len(names), fresh)
    pairs = [
        (names[int(t)], top_ks[(int(offsets[t]) + i // len(names)) % len(top_ks)])
        for i, t in enumerate(order)
    ]
    asked: List[Tuple[str, int]] = []
    schedule: List[Arrival] = []
    for index, due in enumerate((np.arange(count) + 0.5 + jitter) / rate):
        if index in repeats:
            name, k = asked[int(rng.integers(len(asked)))]
        else:
            name, k = pairs[len(asked)]
            asked.append((name, k))
        schedule.append(Arrival(float(due), name, k, index in repeats))
    return schedule
