"""Tests of the benchmark itself: contract, tracing arithmetic, checks."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from perfbench import inputs
from perfbench.metrics import END_TO_END, PER_LAYER, UNITS
from perfbench.runner import WORKLOADS, result_json, run_workload
from perfbench.tracing import Span, Tracer, layer_totals, round_gaps, self_times

ROOT = Path(__file__).resolve().parents[2]


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


# --------------------------------------------------------------------------- #
# contract
# --------------------------------------------------------------------------- #
def test_benchmark_json_declares_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_prints_every_end_to_end_metric(workload):
    done = _run_cli("--workload", workload, "--seed", "3", "--seconds", "0.5",
                    "--trace", "0", "--size", "tiny")
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] is True and payload["failed"] == 0
    assert payload["attempted"] >= 1
    assert list(payload["metrics"]) == [name for name, *_ in END_TO_END]
    for name, metric in payload["metrics"].items():
        assert metric["unit"] == UNITS[name]
        assert metric["value"] > 0, name
    for name, *_ in END_TO_END:  # the readable report names them too
        assert name in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_pass_reports_every_per_layer_metric(workload, tmp_path):
    result = run_workload(workload, seed=4, seconds=0.5, trace=True, size="tiny", root=tmp_path)
    payload = result_json(result, trace=True)
    assert payload["correct"] is True
    metrics = payload["metrics"]
    assert list(metrics) == [name for name, *_ in PER_LAYER]
    assert all(m["unit"] == UNITS[name] for name, m in metrics.items())
    assert metrics["trace.overhead"]["value"] > 0
    # Traced layers' self times never exceed the traced phase's wall time.
    assert metrics["trace.self_sum_s"]["value"] <= metrics["trace.wall_s"]["value"]
    if workload == "offline-build":
        assert metrics["core.performance.self_s"]["value"] > 0
        assert metrics["zoo.train_epochs.epochs"]["value"] > 0
    elif workload == "routed-durable":
        assert metrics["persist.sessions"]["value"] > 0
        assert metrics["distrib.hop_p50_s"]["value"] > 0
    else:
        assert metrics["core.recall.calls"]["value"] > 0
        assert metrics["core.convergence.mine.calls"]["value"] > 0
    if workload == "scheduled-overlap":
        assert metrics["sched.rounds"]["value"] > 0
        assert metrics["sched.pool.hits"]["value"] > 0


@pytest.mark.parametrize("workload", ["offline-build", "select-distinct", "scheduled-overlap"])
def test_corrupted_answer_is_counted(workload, tmp_path):
    result = run_workload(workload, seed=5, seconds=0.5, trace=False, size="tiny",
                          root=tmp_path, corrupt=1)
    assert result.ledger.wrong >= 1
    assert result.error_rate > 0
    payload = result_json(result, trace=False)
    assert payload["correct"] is False and payload["failed"] >= 1


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_cli("--workload", "select-distinct", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# --------------------------------------------------------------------------- #
# tracing arithmetic
# --------------------------------------------------------------------------- #
def test_self_time_of_nested_spans_on_two_threads():
    spans = [
        # thread 1: root [0, 10] > a [1, 3], b [4, 8] > c [5, 6]
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 3.0, 0, 1),
        Span(2, "b", 4.0, 8.0, 0, 1),
        Span(3, "c", 5.0, 6.0, 2, 1),
        # thread 2 overlaps thread 1 in time: root2 [2, 9] > d [3, 5]
        Span(4, "root", 2.0, 9.0, None, 2),
        Span(5, "d", 3.0, 5.0, 4, 2),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 5.0, 5: 2.0}
    totals = layer_totals(spans)
    assert totals["root"].calls == 2 and totals["root"].self_s == 9.0
    # Per thread, self times add up to the root spans' durations.
    assert sum(selfs[s.id] for s in spans if s.thread == 1) == 10.0
    assert sum(selfs[s.id] for s in spans if s.thread == 2) == 7.0


def test_tracer_keeps_one_stack_per_thread():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))

    def outer():
        inner()
        inner()

    outer = tracer.wrap("outer", outer)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_id = {span.id: span for span in tracer.spans}
    outers = [s for s in tracer.spans if s.name == "outer"]
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(outers) == 2 and len(inners) == 4
    for span in inners:
        parent = by_id[span.parent]
        assert parent.name == "outer" and parent.thread == span.thread
        assert parent.start <= span.start and span.end <= parent.end
    selfs = self_times(tracer.spans)
    for span in outers:
        children = sum(s.duration for s in inners if s.parent == span.id)
        assert selfs[span.id] == pytest.approx(span.duration - children)
        assert selfs[span.id] >= 0


def test_round_gaps_subtract_top_level_spans_of_the_round_thread():
    spans = [
        Span(0, "mark", 0.0, 1.0, None, 7),
        Span(1, "work", 2.0, 4.0, None, 7),
        Span(2, "other-thread", 1.0, 6.0, None, 8),
        Span(3, "mark", 5.0, 6.0, None, 7),
    ]
    assert round_gaps(spans, "mark") == [(5.0, 2.0)]


def test_patching_a_function_reaches_every_importer_and_is_undone():
    from repro.core import performance, pipeline

    original = performance.build_performance_matrix
    tracer = Tracer()
    tracer.patch_function(performance, "build_performance_matrix", "core.performance")
    assert pipeline.build_performance_matrix is not original
    assert performance.build_performance_matrix is pipeline.build_performance_matrix
    tracer.uninstall()
    assert pipeline.build_performance_matrix is original
    assert performance.build_performance_matrix is original


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #
def test_inputs_are_a_function_of_the_seed():
    from repro.data import DataScale, WorkloadSuite

    suite = WorkloadSuite("nlp", seed=0, scale=DataScale.small())
    first = inputs.generated_targets(suite, 1, 4, prefix="t")
    again = inputs.generated_targets(suite, 1, 4, prefix="t")
    other = inputs.generated_targets(suite, 2, 4, prefix="t")
    for a, b in zip(first, again):
        assert a.name == b.name and (a.train.features == b.train.features).all()
    assert len({task.name for task in first}) == 4
    assert {task.spec.num_train for task in first} <= set(inputs.TRAIN_SIZES)
    assert any(
        a.train.features.shape != b.train.features.shape
        or not (a.train.features == b.train.features).all()
        for a, b in zip(first, other)
    )
    assert inputs.zipf_stream(3, 6, 50) == inputs.zipf_stream(3, 6, 50)

    names = suite.dataset_names
    schedule = inputs.arrival_schedule(3, names, rate=20, seconds=10)
    assert schedule == inputs.arrival_schedule(3, names, rate=20, seconds=10)
    assert len(schedule) == 200
    assert all(a.due <= b.due for a, b in zip(schedule, schedule[1:]))
    seen = set()
    for arrival in schedule:
        pair = (arrival.target, arrival.top_k)
        assert (pair in seen) == arrival.repeat
        seen.add(pair)
    share = sum(a.repeat for a in schedule) / len(schedule)
    assert 0.15 < share < 0.35
    # Fresh pairs are balanced: every target as often as any other (to
    # within one), and every top_k too.
    fresh = [(a.target, a.top_k) for a in schedule if not a.repeat]
    per_target = [sum(t == name for t, _ in fresh) for name in names]
    per_top_k = [sum(k == top_k for _, k in fresh) for top_k in range(2, 11)]
    assert max(per_target) - min(per_target) <= 1
    assert max(per_top_k) - min(per_top_k) <= 2


# --------------------------------------------------------------------------- #
# reference clock and digests
# --------------------------------------------------------------------------- #
def test_reference_seconds_integrate_the_nearest_probe_speed():
    from perfbench.refclock import ReferenceClock

    clock = ReferenceClock()
    # Probes centred at t = 1, 3, 5, 7 on the CPU axis, each 0.2 s long.
    for centre, speed in zip((1.0, 3.0, 5.0, 7.0), (1.0, 0.5, 2.0, 0.5)):
        clock._times.append(centre)
        clock._speeds.append(speed)
        clock._probe_spans.append((centre - 0.1, centre + 0.1))
    assert clock.speeds() == [1.0, 0.5, 2.0, 0.5]
    # [2.2, 2.8] lies in the stretch of the probe at t = 3.
    assert clock.seconds(2.2, 2.8) == pytest.approx(0.6 * 0.5)
    # A request between two probes takes each one's speed for its half.
    assert clock.seconds(1.1, 2.9) == pytest.approx(0.9 * 1.0 + 0.9 * 0.5)
    # Probe time is left out unless asked for.
    assert clock.seconds(6.5, 7.5) == pytest.approx(0.8 * 0.5)
    assert clock.seconds(6.5, 7.5, exclude_probes=False) == pytest.approx(0.5)
    assert clock.raw_seconds(6.5, 7.5) == pytest.approx(0.8)
    assert clock.median_speed() == pytest.approx(0.75)


def test_cpu_at_maps_monotonic_stamps_onto_the_cpu_axis():
    from perfbench.refclock import ReferenceClock

    clock = ReferenceClock()
    clock._marks = ([10.0, 11.0, 13.0], [2.0, 2.5, 2.5])
    assert clock.cpu_at(10.5) == pytest.approx(2.25)
    assert clock.cpu_at(12.0) == pytest.approx(2.5)  # descheduled: the axis stands still


def test_serve_cpu_reads_another_process_cpu_clock():
    from perfbench.routed import _process_cpu_clock

    busy = "import time\nend = time.process_time() + 0.3\nwhile time.process_time() < end: pass\nimport sys; sys.stdin.read()"
    child = subprocess.Popen([sys.executable, "-c", busy], stdin=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 30
        while time.clock_gettime(_process_cpu_clock(child.pid)) < 0.3:
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert time.clock_gettime(_process_cpu_clock(child.pid)) < 1.0
    finally:
        child.communicate(b"")


def test_a_digest_mismatch_makes_the_run_incorrect(tmp_path, monkeypatch):
    from perfbench import answers

    recorded = tmp_path / "digests.json"
    recorded.write_text(json.dumps({"w/0/full/x": "expected"}))
    monkeypatch.setattr(answers, "DIGEST_FILE", recorded)
    wrong, right = answers.AnswerLedger(), answers.AnswerLedger()
    wrong.check_digest("w/0/full/x", "actual", {})
    right.check_digest("w/0/full/x", "expected", {})
    assert wrong.digest_mismatches == 1 and not wrong.correct
    assert right.correct
    unrecorded = answers.AnswerLedger()
    unrecorded.check_digest("w/1/full/x", "anything", {})
    assert unrecorded.correct
