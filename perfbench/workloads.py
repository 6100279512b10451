"""The in-process workloads: offline-build, select-distinct, scheduled-overlap.

Each ``run_*`` function sets the system up several times (the median is
``setup_s``), runs one timed phase without tracing and, with
``trace=True``, a second, traced phase over exactly the same inputs on a
fresh set-up.  End-to-end metrics come from the untraced phase only; the
traced phase gives the per-layer metrics and ``trace.overhead``.  Every
answer of both phases is checked (see :mod:`perfbench.answers`).  Times
are reference seconds, measured on the process's CPU axis (see
:mod:`perfbench.refclock`); the report also prints the unscaled CPU
figures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench import inputs, layers
from perfbench.answers import AnswerLedger, array_digest, canonical_result, digest
from perfbench.metrics import median, peak_rss_mb, percentile, ratio
from perfbench.refclock import ReferenceClock, cpu_now
from perfbench.tracing import Tracer

#: Work per run is fixed from ``--seconds``: requests per second of
#: ``--seconds`` (about the rates a 2-CPU container sustains) and seconds
#: per offline cycle.  So two commits always answer the same inputs: a
#: faster commit finishes sooner rather than doing more.
SELECT_RPS = 12.0
SCHEDULED_RPS = 30.0
OFFLINE_CYCLE_S = 10.0
#: The scheduled workload's hot targets are the same for every seed; the
#: seed draws the request stream over them.
HOT_SET_SEED = 0
#: Probe cadence: every Nth fine-tuning job of an online set-up (the timed
#: offline phase probes before every job), and at most one probe per this
#: many seconds while scheduled requests are in flight.
PROBE_EVERY_JOBS = 8
PROBE_GAP_S = 0.1


def request_count(seconds: float, rate: float, minimum: int) -> int:
    """Requests of one timed phase: ``seconds`` at the nominal ``rate``."""
    return max(minimum, int(round(seconds * rate)))


@dataclass(frozen=True)
class Profile:
    """Input sizes of one benchmark size (``full`` or the test-only ``tiny``)."""

    name: str
    setups: int
    min_requests: int
    offline_scale: str
    offline_models: Optional[int]
    offline_added: int
    offline_benchmarks: Optional[int]
    online_models: Optional[int]
    outstanding: int
    hot_set: int
    sample_checks: int
    routed_models: Optional[int]
    routed_rate: float
    routed_requests: int
    routed_ref_checks: int


PROFILES = {
    "full": Profile(
        "full", setups=2, min_requests=100, offline_scale="default",
        offline_models=None, offline_added=4, offline_benchmarks=None,
        online_models=None, outstanding=8, hot_set=6, sample_checks=10,
        routed_models=None, routed_rate=16.0, routed_requests=240, routed_ref_checks=24,
    ),
    "tiny": Profile(
        "tiny", setups=2, min_requests=6, offline_scale="small",
        offline_models=8, offline_added=2, offline_benchmarks=6,
        online_models=10, outstanding=4, hot_set=3, sample_checks=2,
        routed_models=8, routed_rate=8.0, routed_requests=6, routed_ref_checks=4,
    ),
}


@dataclass
class Result:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    ledger: AnswerLedger = field(default_factory=AnswerLedger)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)
    per_layer: Optional[Dict[str, float]] = None
    digests: Dict[str, str] = field(default_factory=dict)
    tracer: Optional[Tracer] = None
    clock: ReferenceClock = field(default_factory=ReferenceClock)

    @property
    def error_rate(self) -> float:
        return ratio(self.failed + self.ledger.wrong, self.attempted)


@dataclass
class Phase:
    """One timed phase: answers plus reference, CPU and wall timings."""

    answers: list
    latencies: List[float]
    cpu_latencies: List[float]
    seconds: float
    cpu_seconds: float
    wall_seconds: float
    failures: int = 0
    counters: Dict[str, Dict[str, float]] = field(default_factory=dict)


def timed_phase(answers, intervals, start: float, end: float, clock: ReferenceClock,
                *, wall_seconds: float, exclude_probes: bool = True, **extra) -> Phase:
    """A :class:`Phase` from per-request CPU-axis intervals and the phase's span.

    ``exclude_probes`` leaves probe time out, which is right when the
    probes ran on the program's own thread between its calls.
    ``wall_seconds`` is the phase's wall time, which traced spans are
    compared with.
    """
    def cpu(a: float, b: float) -> float:
        return clock.raw_seconds(a, b) if exclude_probes else b - a

    return Phase(
        answers=answers,
        latencies=[clock.seconds(a, b, exclude_probes=exclude_probes) for a, b in intervals],
        cpu_latencies=[cpu(a, b) for a, b in intervals],
        seconds=clock.seconds(start, end, exclude_probes=exclude_probes),
        cpu_seconds=cpu(start, end),
        wall_seconds=wall_seconds,
        **extra,
    )


def latency_metrics(phase: Phase) -> Dict[str, float]:
    return {
        "latency_p50_s": median(phase.latencies),
        "latency_p90_s": percentile(phase.latencies, 90.0),
        "throughput_rps": ratio(len(phase.latencies), phase.seconds),
    }


def cpu_extras(phase: Phase, clock: ReferenceClock) -> Dict[str, float]:
    """Unscaled CPU figures and the measured speed, for the readable report."""
    return {
        "cpu_latency_p50_s": median(phase.cpu_latencies),
        "cpu_latency_p90_s": percentile(phase.cpu_latencies, 90.0),
        "cpu_throughput_rps": ratio(len(phase.cpu_latencies), phase.cpu_seconds),
        "wall_s": phase.wall_seconds,
        "mean_speed": clock.mean_speed(),
        "probes": float(clock.probes),
    }


def _clear_cache() -> None:
    from repro.cache import clear_cache

    clear_cache()


def _cache_counts() -> Dict[str, float]:
    from repro.cache import cache_stats

    memory = cache_stats().get("memory", {})
    return {"hits": float(memory.get("hits", 0)), "misses": float(memory.get("misses", 0))}


def _traced(run: Callable[[], object]) -> Tuple[Tracer, object]:
    """Run one phase with every layer wrapped."""
    tracer = Tracer()
    layers.install(tracer)
    try:
        outcome = run()
    finally:
        tracer.uninstall()
    return tracer, outcome


def _per_layer(tracer: Tracer, traced: Phase, untraced: Phase, **counters) -> Dict[str, float]:
    return layers.per_layer_metrics(
        tracer.spans, wall_s=traced.wall_seconds,
        overhead=ratio(traced.seconds, untraced.seconds),
        **counters,
    )


# --------------------------------------------------------------------------- #
# a fine-tuner that times jobs and probes the machine's speed
# --------------------------------------------------------------------------- #
def _timed_fine_tuner(clock: ReferenceClock, probe_every: Optional[int] = PROBE_EVERY_JOBS):
    """The default fine-tuner, also recording each fine-tuning job's interval.

    Passed through the public ``fine_tuner`` parameter of the offline
    build, it trains exactly as the default ``FineTuner(seed=0)`` does.
    One job is one (checkpoint, benchmark) fine-tuning run, the unit the
    paper counts the offline cost in.  Every ``probe_every`` jobs it
    probes the machine's speed between two jobs (never with ``None``).
    """
    from repro.zoo.finetune import FineTuner

    class TimedFineTuner(FineTuner):
        def __init__(self) -> None:
            super().__init__(seed=0)
            self.jobs: List[Tuple[float, float, int]] = []

        def fine_tune(self, model, task, *, epochs=None, config=None):
            if probe_every and len(self.jobs) % probe_every == 0:
                clock.probe()
            start = cpu_now()
            curve = super().fine_tune(model, task, epochs=epochs, config=config)
            self.jobs.append((start, cpu_now(), curve.epochs))
            return curve

    return TimedFineTuner()


# --------------------------------------------------------------------------- #
# offline-build
# --------------------------------------------------------------------------- #
def _offline_setup(seed: int, profile: Profile, clock: ReferenceClock):
    """Materialise the suite's tasks and the base hub's checkpoints."""
    from repro.data import DataScale, WorkloadSuite
    from repro.zoo import ModelHub
    from repro.zoo.catalog import catalog_for_modality

    clock.probe()
    start = cpu_now()
    scale = DataScale.default() if profile.offline_scale == "default" else DataScale.small()
    catalogue = catalog_for_modality("nlp")
    if profile.offline_models is not None:
        catalogue = catalogue[: profile.offline_models]
    suite = WorkloadSuite("nlp", seed=seed, scale=scale)
    if profile.offline_benchmarks is not None:
        suite = WorkloadSuite(
            "nlp", seed=seed, scale=scale,
            benchmark_names=suite.benchmark_names[: profile.offline_benchmarks],
        )
    for name in suite.dataset_names:
        suite.task(name)
    base = catalogue[: len(catalogue) - profile.offline_added]
    hub = ModelHub(suite, entries=base, seed=seed)
    hub.models()
    added = [entry.name for entry in catalogue[len(base):]]
    end = cpu_now()
    clock.probe()
    return (suite, hub, added), clock.seconds(start, end)


@dataclass
class OfflineCycle:
    """One build + refresh: the artifacts, both walls and the job phase."""

    built: object
    refreshed: object
    build_s: float
    refresh_s: float
    phase: Phase


def _offline_cycle(state, clock: ReferenceClock, *, traced: bool = False) -> OfflineCycle:
    """Build the offline artifacts, then refresh them with the held-out models.

    A traced cycle probes only before and after: a probe between two jobs
    would land inside the traced offline spans.
    """
    from repro.core import OfflineArtifacts, PipelineConfig

    suite, hub, added = state
    tuner = _timed_fine_tuner(clock, None if traced else 1)
    clock.probe()
    _clear_cache()
    cache_before = _cache_counts()
    wall_start, start = time.perf_counter(), cpu_now()
    built = OfflineArtifacts.build(
        hub, suite, config=PipelineConfig.for_modality("nlp"), fine_tuner=tuner
    )
    middle = cpu_now()
    refreshed = built.refresh(added=added).artifacts
    end, wall_end = cpu_now(), time.perf_counter()
    clock.probe()
    phase = timed_phase(
        tuner.jobs, [(a, b) for a, b, _ in tuner.jobs], start, end, clock,
        wall_seconds=wall_end - wall_start,
        counters={"cache": layers.counter_delta(cache_before, _cache_counts())},
    )
    return OfflineCycle(
        built, refreshed, clock.seconds(start, middle), clock.seconds(middle, end), phase
    )


def _check_offline(built, refreshed, added, ledger: AnswerLedger):
    """Check the refreshed artifacts against independent recomputation."""
    from repro.core.similarity import performance_similarity_matrix
    from repro.zoo.finetune import FineTuner

    old_names = list(built.matrix.model_names)
    matrix = refreshed.matrix
    ledger.check(
        list(matrix.model_names) == old_names + list(added),
        "refreshed model order differs from base + added",
    )
    for column, name in enumerate(old_names):
        ledger.check(
            np.array_equal(matrix.values[:, column], built.matrix.values[:, column]),
            f"surviving column {name} changed on refresh",
        )
    # Added columns must equal fine-tuning the new checkpoints from scratch.
    tuner = FineTuner(seed=0)
    for name in added:
        model = refreshed.hub.get(name)
        expected = np.array([
            tuner.fine_tune(model, refreshed.suite.task(dataset), epochs=matrix.epochs).final_test
            for dataset in matrix.dataset_names
        ])
        ledger.check(
            np.array_equal(matrix.values[:, matrix.model_index(name)], expected),
            f"added column {name} differs from a from-scratch fine-tune",
        )
    similarity = performance_similarity_matrix(
        matrix, top_k=refreshed.config.clustering.top_k, cache=False
    )
    ledger.check(
        np.array_equal(np.asarray(refreshed.clustering.similarity), similarity),
        "refreshed similarity differs from a from-scratch Eq. 1 matrix",
    )
    clustering = refreshed.clustering
    ledger.check(
        sorted(clustering.model_names) == sorted(matrix.model_names),
        "refreshed clustering does not cover every model",
    )
    labels = np.asarray([clustering.cluster_of(name) for name in matrix.model_names])
    representatives = sorted((int(k), v) for k, v in clustering.representatives.items())
    return [array_digest(matrix.values, similarity, labels), representatives]


def run_offline_build(seed: int, seconds: float, trace: bool, profile: Profile,
                      corrupt: int = 0) -> Result:
    result = Result()
    clock = result.clock
    passes = 2 if trace else 1
    setup_times: List[float] = []
    states = []
    # Materialisation takes tens of milliseconds, so it is repeated more
    # often than the online set-ups to keep its median steady.
    setups = 3 * profile.setups
    for index in range(setups):
        state, elapsed = _offline_setup(seed, profile, clock)
        setup_times.append(elapsed)
        if index >= setups - passes:
            states.append(state)
    added = states[0][2]

    def check(cycle: OfflineCycle) -> None:
        result.attempted += len(cycle.phase.answers)
        result.ledger.check_digest(
            f"offline-build/{seed}/{profile.name}/refreshed",
            digest(_check_offline(cycle.built, cycle.refreshed, added, result.ledger)),
            result.digests,
        )

    # Untraced timed phase: whole offline cycles, one per nominal window
    # (at least one); later cycles get a fresh, untimed set-up.
    cycles = [_offline_cycle(states[0], clock)]
    for _ in range(1, max(1, int(round(seconds / OFFLINE_CYCLE_S)))):
        state, _ = _offline_setup(seed, profile, clock)
        cycles.append(_offline_cycle(state, clock))
    phase = Phase(
        answers=[job for cycle in cycles for job in cycle.phase.answers],
        latencies=[x for cycle in cycles for x in cycle.phase.latencies],
        cpu_latencies=[x for cycle in cycles for x in cycle.phase.cpu_latencies],
        seconds=sum(cycle.phase.seconds for cycle in cycles),
        cpu_seconds=sum(cycle.phase.cpu_seconds for cycle in cycles),
        wall_seconds=sum(cycle.phase.wall_seconds for cycle in cycles),
    )
    if corrupt:
        cycles[-1].refreshed.matrix.values[0, -1] += 1.0
    for cycle in cycles:
        check(cycle)
    result.end_to_end = {
        "setup_s": median(setup_times),
        **latency_metrics(phase),
        "epochs_trained_per_request": ratio(
            sum(epochs for _, _, epochs in phase.answers), len(phase.answers)
        ),
    }
    result.extras = {
        "build_s": median([cycle.build_s for cycle in cycles]),
        "refresh_s": median([cycle.refresh_s for cycle in cycles]),
        "offline_jobs": float(len(phase.answers)),
        **cpu_extras(phase, clock),
    }

    if trace:
        result.tracer, traced = _traced(lambda: _offline_cycle(states[1], clock, traced=True))
        check(traced)
        result.per_layer = _per_layer(
            result.tracer, traced.phase, cycles[0].phase, cache=traced.phase.counters["cache"]
        )
    result.end_to_end["peak_rss_mb"] = peak_rss_mb()
    return result


# --------------------------------------------------------------------------- #
# online set-up shared by select-distinct and scheduled-overlap
# --------------------------------------------------------------------------- #
def _input_suite():
    """The suite whose specs and domain space the generated targets vary."""
    from repro.data import DataScale, WorkloadSuite

    return WorkloadSuite("nlp", seed=0, scale=DataScale.small())


def _online_setup(profile: Profile, clock: ReferenceClock):
    """Offline build of the served zoo plus warm-up of every lazy part.

    Warm-up builds every checkpoint and trains its source head (the
    first request would otherwise pay for the heads it touches).
    """
    from repro.core import OfflineArtifacts, PipelineConfig
    from repro.data import DataScale, WorkloadSuite
    from repro.zoo import ModelHub

    _clear_cache()
    clock.probe()
    start = cpu_now()
    suite = WorkloadSuite("nlp", seed=0, scale=DataScale.small())
    hub = ModelHub(suite, seed=0)
    if profile.online_models is not None:
        hub = hub.subset(hub.model_names[: profile.online_models])
    artifacts = OfflineArtifacts.build(
        hub, suite, config=PipelineConfig.for_modality("nlp"),
        fine_tuner=_timed_fine_tuner(clock),
    )
    for model in hub.models():
        model.source_head()
    end = cpu_now()
    clock.probe()
    return artifacts, clock.seconds(start, end)


def _online_setups(profile: Profile, passes: int, clock: ReferenceClock):
    setup_times: List[float] = []
    kept = []
    for index in range(profile.setups):
        artifacts, elapsed = _online_setup(profile, clock)
        setup_times.append(elapsed)
        if index >= profile.setups - passes:
            kept.append(artifacts)
    return kept, setup_times


def blocking_answers(artifacts, requests) -> List[Dict[str, object]]:
    """Cold blocking ``TwoPhaseSelector.select`` answers to ``(target, top_k)`` pairs."""
    from repro.core import TwoPhaseSelector

    _clear_cache()
    selector = TwoPhaseSelector(artifacts, seed=0)
    return [canonical_result(selector.select(task, top_k=top_k)) for task, top_k in requests]


# --------------------------------------------------------------------------- #
# select-distinct
# --------------------------------------------------------------------------- #
def _select_phase(artifacts, targets, clock: ReferenceClock) -> Phase:
    """Closed loop of blocking selects, one per target, a probe before each."""
    from repro.service import SelectionService

    _clear_cache()
    service = SelectionService(artifacts, seed=0)
    cache_before = _cache_counts()
    answers, intervals = [], []
    wall_start, start = time.perf_counter(), cpu_now()
    for task in targets:
        clock.probe()
        began = cpu_now()
        answers.append(service.select(task))
        intervals.append((began, cpu_now()))
    end, wall_end = cpu_now(), time.perf_counter()
    clock.probe()
    return timed_phase(
        answers, intervals, start, end, clock,
        wall_seconds=wall_end - wall_start,
        counters={"cache": layers.counter_delta(cache_before, _cache_counts())},
    )


def run_select_distinct(seed: int, seconds: float, trace: bool, profile: Profile,
                        corrupt: int = 0) -> Result:
    result = Result()
    clock = result.clock
    targets = inputs.generated_targets(
        _input_suite(), seed, request_count(seconds, SELECT_RPS, profile.min_requests),
        prefix="sd",
    )
    kept, setup_times = _online_setups(profile, 2 if trace else 1, clock)
    phase = _select_phase(kept[0], targets, clock)
    result.attempted = len(phase.answers)
    canon = [canonical_result(answer) for answer in phase.answers]
    if corrupt:
        canon[0]["selected_model"] = "corrupted"
    result.end_to_end = {
        "setup_s": median(setup_times),
        **latency_metrics(phase),
        "epochs_trained_per_request": ratio(
            sum(answer.selection.runtime_epochs for answer in phase.answers),
            len(phase.answers),
        ),
    }
    result.extras = {"requests": float(len(phase.answers)), **cpu_extras(phase, clock)}

    if trace:
        result.tracer, traced = _traced(lambda: _select_phase(kept[1], targets, clock))
        result.attempted += len(traced.answers)
        # Same inputs, fresh set-up: every traced answer must equal its
        # untraced twin.
        for index, answer in enumerate(traced.answers):
            result.ledger.check(
                canonical_result(answer) == canon[index],
                f"traced answer {index} differs from the untraced one",
            )
        result.per_layer = _per_layer(
            result.tracer, traced, phase, cache=traced.counters["cache"]
        )

    # An evenly spaced sample (always including the first request) is
    # recomputed cold outside the timed phase; the first ``min_requests``
    # answers of the default seed must match the recorded digest.
    count = len(phase.answers)
    picks = sorted({int(i) for i in np.linspace(0, count - 1, profile.sample_checks)})
    references = blocking_answers(kept[-1], [(targets[i], None) for i in picks])
    for index, reference in zip(picks, references):
        result.ledger.check(
            canon[index] == reference, f"answer {index} differs from a cold recompute"
        )
    result.ledger.check_digest(
        f"select-distinct/{seed}/{profile.name}/{count}/answers",
        digest(canon[: profile.min_requests]),
        result.digests,
    )
    result.end_to_end["peak_rss_mb"] = peak_rss_mb()
    return result


# --------------------------------------------------------------------------- #
# scheduled-overlap
# --------------------------------------------------------------------------- #
def _scheduled_phase(artifacts, hot, stream, *, outstanding: int,
                     clock: ReferenceClock) -> Phase:
    """``outstanding`` logical clients on one thread, closed loop over submit.

    ``answers`` holds ``(stream index, result)`` pairs; ``counters`` the
    scheduler's report and the artifact-cache delta.  Probes run on this
    thread while the scheduler thread trains, so their time stays in the
    latencies (at most one probe per ``PROBE_GAP_S``).  The scheduler
    stamps requests with the monotonic clock; this thread marks that clock
    against the CPU axis every few milliseconds, so each request's interval
    is converted to the CPU the process spent while it was in flight.
    """
    from repro.service import SelectionService
    from repro.utils.exceptions import ReproError

    _clear_cache()
    service = SelectionService(artifacts, seed=0)
    cache_before = _cache_counts()
    answers, intervals = [], []
    failures = 0
    in_flight: List[Tuple[int, object]] = []
    next_index = 0
    clock.mark()
    wall_start, start = time.perf_counter(), cpu_now()
    try:
        while True:
            while len(in_flight) < outstanding and next_index < len(stream):
                target, top_k = stream[next_index]
                try:
                    in_flight.append((next_index, service.submit(hot[target], top_k=top_k)))
                except ReproError:
                    failures += 1
                next_index += 1
            if not in_flight:
                break
            clock.maybe_probe(PROBE_GAP_S)
            clock.mark()
            finished = [item for item in in_flight if item[1].wait(0)]
            if not finished:
                in_flight[0][1].wait(0.005)
                continue
            for item in finished:
                in_flight.remove(item)
                index, handle = item
                if handle.error is not None or handle.result is None:
                    failures += 1
                    continue
                # The scheduler stamps both ends with the monotonic clock,
                # which is perf_counter's clock on Linux.
                intervals.append((handle.submitted_at, handle.finished_at))
                answers.append((index, handle.result))
        end, wall_end = cpu_now(), time.perf_counter()
        clock.mark()
        scheduler = service.stats()["scheduler"] or {}
    finally:
        service.close()
    clock.probe()
    intervals = [(clock.cpu_at(a), clock.cpu_at(b)) for a, b in intervals]
    return timed_phase(
        answers, intervals, start, end, clock,
        wall_seconds=wall_end - wall_start,
        exclude_probes=False,
        failures=failures,
        counters={
            "pool": scheduler.get("session_pool", {}),
            "train": scheduler.get("train", {}),
            "cache": layers.counter_delta(cache_before, _cache_counts()),
        },
    )


def run_scheduled_overlap(seed: int, seconds: float, trace: bool, profile: Profile,
                          corrupt: int = 0) -> Result:
    result = Result()
    clock = result.clock
    # One fixed hot set: every seed trains the same sessions, so the
    # epochs a run trains depend on the program, not on the seed.
    hot = inputs.generated_targets(
        _input_suite(), HOT_SET_SEED, profile.hot_set, prefix="so", sizes=(192,),
        bases=inputs.HOT_BASES[: profile.hot_set],
    )
    stream = inputs.zipf_stream(
        seed, profile.hot_set, request_count(seconds, SCHEDULED_RPS, profile.min_requests)
    )
    kept, setup_times = _online_setups(profile, 2 if trace else 1, clock)
    phase = _scheduled_phase(kept[0], hot, stream, outstanding=profile.outstanding, clock=clock)
    result.attempted = len(phase.answers) + phase.failures
    result.failed = phase.failures
    result.end_to_end = {
        "setup_s": median(setup_times),
        **latency_metrics(phase),
        "epochs_trained_per_request": ratio(
            phase.counters["pool"].get("epochs_trained", 0), len(phase.answers)
        ),
    }
    result.extras = {"requests": float(len(phase.answers)), **cpu_extras(phase, clock)}
    checked = [(index, canonical_result(answer)) for index, answer in phase.answers]
    if corrupt:
        checked[0][1]["selected_model"] = "corrupted"

    if trace:
        result.tracer, traced = _traced(lambda: _scheduled_phase(
            kept[1], hot, stream, outstanding=profile.outstanding, clock=clock
        ))
        result.attempted += len(traced.answers) + traced.failures
        result.failed += traced.failures
        checked += [(index, canonical_result(answer)) for index, answer in traced.answers]
        result.per_layer = _per_layer(result.tracer, traced, phase, **traced.counters)

    # Every scheduled answer must equal the blocking answer for its
    # (target, top_k); the references cover the whole hot set.
    pairs = [(t, k) for t in range(profile.hot_set) for k in inputs.SCHEDULED_TOP_K]
    references = dict(zip(pairs, blocking_answers(kept[-1], [(hot[t], k) for t, k in pairs])))
    for index, answer in checked:
        result.ledger.check(
            answer == references[stream[index]],
            f"scheduled answer {index} {stream[index]} differs from the blocking answer",
        )
    result.ledger.check_digest(
        f"scheduled-overlap/{seed}/{profile.name}/blocking",
        digest([references[pair] for pair in pairs]),
        result.digests,
    )
    result.end_to_end["peak_rss_mb"] = peak_rss_mb()
    return result
