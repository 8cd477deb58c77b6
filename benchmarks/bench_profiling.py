"""Observability overhead: disabled-mode cost must stay below 3%.

The instrumentation contract (see ``repro.obs``) is that the hot path
pays one attribute load and one ``None`` check per pipeline *stage*
when no profiler is active — and the telemetry layer
(``repro.obs.metrics`` / ``repro.obs.events``) pays one registry
lookup per *hunt*, nothing per job, when disabled.  This bench
verifies that contract on the hunt workload two ways:

* **accounting** — count every ``obs.span``/``obs.count``/
  ``obs.enabled`` call the workload makes, microbenchmark the per-call
  disabled cost, and assert ``calls x cost / workload_time < 3%``;
* **measurement** — report the wall-clock ratio of the enabled
  (profiler active) run over the disabled run, which bounds what a
  user opting in actually pays.
"""

from __future__ import annotations

import time

from conftest import emit
from repro import obs
from repro.analysis import hunt_races
from repro.machine.models import make_model
from repro.programs.kernels import racy_counter_program

TRIES = 24
MICRO_REPS = 200_000
BUDGET = 0.03


def _workload():
    return hunt_races(
        racy_counter_program(4, 8),
        lambda: make_model("WO"),
        tries=TRIES,
        jobs=1,
    )


def _best_of(fn, runs: int = 3) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _count_disabled_calls() -> dict:
    """Run the workload with counting wrappers around the hot-path
    primitives (still disabled: no profiler or metrics registry is
    active).  ``metrics_active`` counts the metrics layer's one
    registry lookup per hunt (see repro.analysis.hunt_races)."""
    calls = {"span": 0, "count": 0, "enabled": 0, "metrics_active": 0}
    real = {
        "span": obs.span, "count": obs.count, "enabled": obs.enabled,
        "metrics_active": obs.metrics.active,
    }

    def span(name):
        calls["span"] += 1
        return real["span"](name)

    def count(name, n=1):
        calls["count"] += 1
        return real["count"](name, n)

    def enabled():
        calls["enabled"] += 1
        return real["enabled"]()

    def metrics_active():
        calls["metrics_active"] += 1
        return real["metrics_active"]()

    obs.span, obs.count, obs.enabled = span, count, enabled
    obs.metrics.active = metrics_active
    try:
        _workload()
    finally:
        obs.span, obs.count, obs.enabled = (
            real["span"], real["count"], real["enabled"],
        )
        obs.metrics.active = real["metrics_active"]
    return calls


def _per_call_disabled_cost() -> dict:
    """Microbenchmark one disabled-path call of each primitive."""
    out = {}
    for name, fn in (
        ("span", lambda: obs.span("bench")),
        ("count", lambda: obs.count("bench")),
        ("enabled", obs.enabled),
        ("metrics_active", obs.metrics.active),
    ):
        start = time.perf_counter()
        for _ in range(MICRO_REPS):
            fn()
        out[name] = (time.perf_counter() - start) / MICRO_REPS
    return out


def test_disabled_overhead_under_budget(benchmark):
    assert obs.active() is None, "bench requires profiling off"
    assert obs.metrics.active() is None, "bench requires metrics off"
    calls = _count_disabled_calls()
    per_call = _per_call_disabled_cost()
    t_work = _best_of(_workload)
    benchmark(_workload)
    overhead = sum(calls[name] * per_call[name] for name in calls)
    fraction = overhead / t_work
    emit(
        benchmark,
        "Disabled-mode instrumentation overhead (hunt workload)",
        [
            f"workload: racy_counter hunt, {TRIES} executions, "
            f"{t_work * 1000:.1f}ms",
            f"primitive calls: span={calls['span']}, "
            f"count={calls['count']}, enabled={calls['enabled']}, "
            f"metrics.active={calls['metrics_active']}",
            f"per-call cost: span={per_call['span'] * 1e9:.0f}ns, "
            f"count={per_call['count'] * 1e9:.0f}ns, "
            f"enabled={per_call['enabled'] * 1e9:.0f}ns",
            f"accounted overhead: {overhead * 1e6:.1f}us "
            f"({fraction:.4%} of workload, budget {BUDGET:.0%})",
        ],
    )
    assert fraction < BUDGET, (
        f"disabled-mode overhead {fraction:.4%} exceeds {BUDGET:.0%}"
    )


def test_enabled_overhead_reported(benchmark):
    """The opt-in cost: same workload with a profiler recording."""
    t_off = _best_of(_workload)

    def profiled():
        profiler = obs.Profiler()
        with profiler.activate():
            return _workload()

    t_on = _best_of(profiled)
    benchmark(profiled)
    ratio = t_on / t_off if t_off > 0 else float("inf")
    emit(
        benchmark,
        "Enabled-mode profiling overhead (hunt workload)",
        [
            f"disabled: {t_off * 1000:.1f}ms, "
            f"enabled: {t_on * 1000:.1f}ms ({ratio:.2f}x)",
        ],
    )
    # Spans wrap stages, not iterations: even recording everything the
    # workload should not double in cost.
    assert ratio < 2.0, f"enabled-mode profiling costs {ratio:.2f}x"
