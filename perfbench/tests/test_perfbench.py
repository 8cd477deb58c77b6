"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from benchstats import (  # noqa: E402
    loglog_exponent,
    percentile,
    quartile_spread,
    samples_needed,
    tail_percentile,
)
from layers import (  # noqa: E402
    PER_LAYER,
    layer_metrics,
    replayed_request_s,
)
from spans import Span, Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    HuntAnswer,
    Tally,
    check_hunt,
    check_report,
    race_digest,
)


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------

def test_percentile_interpolates_between_ranks():
    assert percentile(list(range(1, 11)), 50) == 5.5
    assert percentile(list(range(1, 101)), 90) == pytest.approx(90.1)
    assert percentile([7.0], 90) == 7.0


@pytest.mark.parametrize("count, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_samples_needed_matches_the_rule():
    assert samples_needed(90) == 100
    assert samples_needed(99) == 1000


# ----------------------------------------------------------------------
# exponent fit
# ----------------------------------------------------------------------

@pytest.mark.parametrize("power", [1.0, 2.0, 1.5])
def test_loglog_exponent_recovers_power_law(power):
    sizes = [100, 320, 1070, 4000]
    times = [3e-6 * n ** power for n in sizes]
    assert loglog_exponent(sizes, times) == pytest.approx(power)


def test_loglog_exponent_fits_repeated_sizes():
    sizes = [100, 100, 1000, 1000]
    times = [1.0, 1.2, 100.0, 120.0]
    assert loglog_exponent(sizes, times) == pytest.approx(2.0)


def test_loglog_exponent_needs_two_sizes():
    with pytest.raises(ValueError):
        loglog_exponent([10, 10], [1.0, 2.0])


def test_quartile_spread_is_relative_to_median():
    assert quartile_spread([10.0] * 5) == 0.0
    values = [90.0, 95.0, 100.0, 105.0, 110.0]
    assert quartile_spread(values) == pytest.approx((107.5 - 92.5) / 100)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

def _span(span_id, name, parent, start, end, **counts):
    record = Span(span_id, name, parent, "r")
    record.start, record.end = start, end
    record.counts.update(counts)
    return record


def test_self_time_subtracts_children_only():
    spans = [
        _span(0, "try", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 3.0),
        _span(2, "b", 0, 4.0, 8.0),
        _span(3, "b.inner", 2, 5.0, 6.0),
    ]
    own = self_times(spans)
    assert own == {0: pytest.approx(4.0), 1: pytest.approx(2.0),
                   2: pytest.approx(3.0), 3: pytest.approx(1.0)}
    assert sum(own.values()) == pytest.approx(spans[0].duration)


def test_tracer_nests_spans_and_shares_request_ids():
    tracer = Tracer()
    with tracer.span("try", request="0:1"):
        with tracer.span("machine.record_execution"):
            pass
    with tracer.span("try", request="0:2"):
        pass
    first, inner, second = tracer.spans
    assert inner.parent == first.id and inner.request == "0:1"
    assert second.parent is None and second.request == "0:2"
    assert first.start <= inner.start <= inner.end <= first.end


def test_layer_metrics_rates_and_unexercised_layers():
    spans = [
        _span(0, "try", None, 0.0, 4.0, races=6),
        _span(1, "machine.record_execution", 0, 0.0, 2.0, operations=100),
        _span(2, "core.races", 0, 2.0, 3.0, events=50),
        _span(3, "try", None, 4.0, 6.0, races=2),
        _span(4, "machine.record_execution", 3, 4.0, 5.0, operations=100),
    ]
    facts = {"hunt_wall_s": 5.0, "hunt_tries": 2, "hunt_cache_hits": 1,
             "jobs": 1, "failures": 0.0, "retries": 0.0, "import_s": 0.4,
             "traced_request_s": 5.5, "untraced_request_s": 5.0}
    metrics, unexercised = layer_metrics(spans, facts)
    assert set(metrics) == {name for name, _ in PER_LAYER}
    assert metrics["machine.us_per_op"] == pytest.approx(3.0 / 200 * 1e6)
    assert metrics["machine.ops_per_try"] == pytest.approx(100)
    assert metrics["machine.share"] == pytest.approx(3.0 / 4.0)
    assert metrics["core.races_us_per_event"] == pytest.approx(1e6 / 50)
    assert metrics["core.races_per_try"] == pytest.approx(4)
    assert metrics["analysis.cache_hit_frac"] == pytest.approx(0.5)
    assert metrics["analysis.overhead_frac"] == pytest.approx(1 - 4.0 / 5.0)
    assert "analysis.failures" not in unexercised
    assert "trace.load_us_per_event.jsonl" in unexercised
    assert metrics["trace.load_us_per_event.jsonl"] == 0.0
    assert "core.races.exponent" in unexercised
    assert metrics["bench.trace_overhead_frac"] == pytest.approx(0.1)


def test_replayed_request_time_leaves_out_replay_only_calls():
    spans = [
        _span(0, "try", None, 0.0, 4.0),
        _span(1, "machine.record_execution", 0, 0.0, 2.0),
        _span(2, "core.streaming", 0, 2.0, 2.5),
        _span(3, "graph.topo", 0, 2.5, 3.0),
        _span(4, "try", None, 4.0, 6.0),
    ]
    assert replayed_request_s(spans, ("core.streaming", "graph.topo")) \
        == pytest.approx(5.0)
    assert replayed_request_s(spans, ()) == pytest.approx(6.0)


# ----------------------------------------------------------------------
# known answers
# ----------------------------------------------------------------------

def _outcomes(statuses, robust=None):
    return [SimpleNamespace(job=SimpleNamespace(index=i), status=status,
                            robust=robust, error="boom")
            for i, status in enumerate(statuses)]


def _tally(problems):
    tally = Tally()
    for problem in problems:
        tally.record(problem)
    return tally


def test_right_hunt_answer_fails_nothing():
    result = SimpleNamespace(soundness=None)
    problems = check_hunt(result, _outcomes(["racy"] * 4),
                          HuntAnswer("racy"), expected_tries=4)
    assert _tally(problems).failed_frac == 0.0


def test_wrong_hunt_answer_raises_failed_frac():
    result = SimpleNamespace(soundness=None)
    problems = check_hunt(result, _outcomes(["racy"] * 4),
                          HuntAnswer("clean"), expected_tries=4)
    tally = _tally(problems)
    assert (tally.attempted, tally.failed) == (4, 4)
    assert tally.failed_frac == 1.0


def test_hunt_failures_soundness_and_missing_tries_count():
    result = SimpleNamespace(soundness="degraded")
    outcomes = _outcomes(["clean", "error", "clean"], robust=True)
    problems = check_hunt(result, outcomes,
                          HuntAnswer("clean", soundness="sc-justified"),
                          expected_tries=4)
    assert len(problems) == 4
    assert all(p is not None for p in problems)
    assert "failed: boom" in problems[1]
    assert problems[3] == "try never settled"


def _race(a, b, data):
    return SimpleNamespace(a=SimpleNamespace(proc=a[0], pos=a[1]),
                           b=SimpleNamespace(proc=b[0], pos=b[1]),
                           locations=(3,), is_data_race=data)


def _report(races):
    data = [r for r in races if r.is_data_race]
    return SimpleNamespace(races=races, data_races=data,
                           reported_races=data[:1])


def test_report_checks_race_set_and_data_race_answer():
    races = [_race((0, 1), (1, 2), False), _race((0, 3), (1, 4), True)]
    digest = race_digest(reversed(races))
    assert check_report(_report(races), digest, racy=True) is None
    assert check_report(_report(races), digest, racy=False) is not None
    assert check_report(_report(races[:1]), digest, racy=True) is not None


def test_report_check_against_the_real_detector():
    import repro
    from repro.machine.models import make_model
    from repro.machine.simulator import run_program

    trace = repro.build_trace(run_program(
        repro.buggy_workqueue_program(), make_model("WO"), seed=3))
    report = repro.detect(trace)
    streaming = repro.detect(trace, detector="streaming")
    digest = race_digest(streaming.races)
    assert check_report(report, digest, racy=True) is None
    wrong = _tally([check_report(report, digest, racy=False)])
    assert wrong.failed_frac == 1.0


# ----------------------------------------------------------------------
# contract
# ----------------------------------------------------------------------

def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hunt-workqueue",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
