"""Full pipeline integration: simulate -> trace file -> detect -> report."""

from repro import load_trace
from repro.analysis.metrics import event_race_accuracy, trace_overhead
from repro.analysis.naive import NaiveDetector
from repro.core.detector import PostMortemDetector
from repro.core.onthefly import detect_on_the_fly
from repro.machine.models import make_model
from repro.machine.simulator import run_program
from repro.programs.random_programs import random_racy_program
from repro.programs.workqueue import run_figure2
from repro.trace.build import build_trace
from repro.trace.tracefile import write_trace


def test_file_based_pipeline(tmp_path):
    result = run_figure2(make_model("WO"))
    trace = build_trace(result)
    path = tmp_path / "exec.trace"
    write_trace(trace, path)

    loaded = load_trace(path)
    report = PostMortemDetector().analyze(loaded)
    assert not report.race_free
    assert len(report.first_partitions) == 1


def test_three_detectors_agree_on_race_existence():
    """Post-mortem (first-partition), naive, and on-the-fly must agree
    on whether *any* data race exists."""
    for seed in range(8):
        prog = random_racy_program(seed, race_prob=0.5)
        result = run_program(prog, make_model("WO"), seed=seed)
        trace = build_trace(result)
        ours = PostMortemDetector().analyze(trace)
        naive = NaiveDetector().analyze(trace)
        otf = detect_on_the_fly(
            result.operations, result.processor_count,
            reader_history=64, writer_history=64,
        )
        assert (not ours.race_free) == bool(naive.data_races), seed
        assert bool(naive.data_races) == bool(otf), seed


def test_metrics_pipeline():
    result = run_figure2(make_model("WO"))
    trace = build_trace(result)
    report = PostMortemDetector().analyze(trace)

    accuracy = event_race_accuracy(result, trace, report.reported_races)
    assert accuracy.precision == 1.0

    overhead = trace_overhead(result, trace)
    assert overhead.events < overhead.operations


def test_report_stable_across_runs():
    r1 = PostMortemDetector().analyze_execution(run_figure2(make_model("WO")))
    r2 = PostMortemDetector().analyze_execution(run_figure2(make_model("WO")))
    assert r1.format() == r2.format()


def test_public_api_surface():
    import repro
    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__
