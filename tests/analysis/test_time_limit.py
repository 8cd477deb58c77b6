"""Edge cases of the SIGALRM job time limit: degenerate budgets,
timer hygiene after exit, C-level sleeps, and timeouts escaping
through non-execution code paths like pickling."""

import signal
import threading
import time

import pytest

from repro import faults
from repro.analysis import hunt_races
from repro.analysis.parallel import JobTimeout, _time_limit
from repro.faults import FaultPlan
from repro.machine.models import make_model
from repro.machine.propagation import StubbornPropagation
from repro.programs.kernels import racy_counter_program


def _wo():
    return make_model("WO")


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


# ----------------------------------------------------------------------
# degenerate budgets
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seconds", [0, 0.0, -1, -0.5])
def test_nonpositive_budget_is_rejected(seconds):
    with pytest.raises(ValueError, match="time limit must be positive"):
        with _time_limit(seconds):
            pass


def test_none_means_no_limit():
    with _time_limit(None):
        time.sleep(0.01)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_hunt_rejects_zero_timeout_before_spawning(jobs):
    with pytest.raises(ValueError, match="job_timeout"):
        hunt_races(racy_counter_program(), _wo, tries=2,
                   policies=[("stubborn", StubbornPropagation)],
                   jobs=jobs, job_timeout=0)


# ----------------------------------------------------------------------
# timer hygiene
# ----------------------------------------------------------------------

def test_no_stray_alarm_after_clean_exit():
    with _time_limit(0.05):
        pass
    # the itimer must be disarmed: sleeping past the budget after the
    # context exits must not raise
    time.sleep(0.08)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_previous_handler_restored_after_timeout():
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(JobTimeout):
        with _time_limit(0.01):
            time.sleep(5)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_timer_disarmed_even_when_body_raises():
    with pytest.raises(RuntimeError, match="boom"):
        with _time_limit(0.05):
            raise RuntimeError("boom")
    time.sleep(0.08)  # past the budget: no stray JobTimeout
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_noop_off_main_thread():
    errors = []

    def body():
        try:
            with _time_limit(0.01):
                time.sleep(0.05)  # would time out on the main thread
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    worker = threading.Thread(target=body)
    worker.start()
    worker.join()
    assert errors == []


# ----------------------------------------------------------------------
# what the timeout interrupts
# ----------------------------------------------------------------------

def test_timeout_interrupts_c_level_sleep():
    """SIGALRM must break a worker stuck inside a C call that releases
    the GIL (time.sleep stands in for a wedged native extension)."""
    start = time.monotonic()
    with pytest.raises(JobTimeout):
        with _time_limit(0.05):
            time.sleep(10)
    assert time.monotonic() - start < 2.0


def test_timeout_interrupts_pure_python_loop():
    with pytest.raises(JobTimeout):
        with _time_limit(0.05):
            while True:
                pass


def test_timeout_fires_during_pickling_of_large_object():
    """A pathological recording that pickles forever must still be
    bounded by the job budget, not just the execution itself."""
    import pickle

    class _SlowPickle:
        def __reduce__(self):
            time.sleep(10)
            return (dict, ())

    with pytest.raises(JobTimeout):
        with _time_limit(0.05):
            pickle.dumps(_SlowPickle())


# ----------------------------------------------------------------------
# through the engine: a hung job becomes a bounded failure
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_hung_job_times_out_and_hunt_completes(jobs):
    faults.install(FaultPlan(hang={1: 99}, hang_seconds=30.0))
    start = time.monotonic()
    result = hunt_races(racy_counter_program(), _wo, tries=4, jobs=jobs,
                        job_timeout=0.2, max_retries=0)
    assert time.monotonic() - start < 10.0
    assert result.tries == 4
    assert len(result.failures) == 1
    assert "JobTimeout" in result.failures[0].error


def test_hang_then_timeout_is_retried_like_any_error():
    # a hang that clears after the first attempt recovers via retry
    faults.install(FaultPlan(hang={1: 1}, hang_seconds=30.0))
    result = hunt_races(racy_counter_program(), _wo, tries=4, jobs=1,
                        job_timeout=0.2, retry_backoff=0.001)
    assert not result.failures
    assert result.retried_runs == 1
