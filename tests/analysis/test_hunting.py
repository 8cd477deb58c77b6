"""Race-hunt tests."""

import pytest

from repro.analysis.hunting import (
    HuntResult,
    default_policies,
    policies_by_name,
)
from repro.analysis.parallel import hunt_races, plan_jobs
from repro.machine.models import make_model
from repro.machine.replay import replay_execution
from repro.programs.figure1 import figure1a_program
from repro.programs.kernels import locked_counter_program
from repro.programs.workqueue import buggy_workqueue_program


def _wo():
    return make_model("WO")


def test_finds_races_in_racy_program():
    result = hunt_races(figure1a_program(), _wo, tries=6)
    assert result.found
    assert result.racy_runs > 0
    assert result.first_report is not None
    assert not result.first_report.race_free


def test_clean_program_reports_nothing():
    result = hunt_races(locked_counter_program(2, 2), _wo, tries=6)
    assert not result.found
    assert result.clean_runs == 6
    assert "not a proof" in result.summary()


def test_recording_replays_the_racy_run():
    result = hunt_races(buggy_workqueue_program(), _wo, tries=9)
    assert result.found
    replayed = replay_execution(
        buggy_workqueue_program(), make_model("WO"), result.recording
    )
    from repro.core.detector import PostMortemDetector
    report = PostMortemDetector().analyze_execution(replayed)
    assert report.format() == result.first_report.format()


def test_stop_at_first():
    result = hunt_races(figure1a_program(), _wo, tries=30, stop_at_first=True)
    assert result.found
    assert result.tries < 30


def test_per_policy_accounting():
    result = hunt_races(figure1a_program(), _wo, tries=9)
    assert sum(total for _, total in result.per_policy.values()) == 9
    assert sum(racy for racy, _ in result.per_policy.values()) == \
           result.racy_runs


def test_custom_policies():
    from repro.machine.propagation import EagerPropagation
    result = hunt_races(
        figure1a_program(), _wo, tries=4,
        policies=[("eager", EagerPropagation)],
    )
    assert set(result.per_policy) == {"eager"}


def test_default_policies_shape():
    policies = default_policies(3)
    names = [name for name, _ in policies]
    assert "stubborn" in names and "ring" in names
    for _, factory in policies:
        factory()  # constructible


def test_validation():
    with pytest.raises(ValueError):
        hunt_races(figure1a_program(), _wo, tries=0)
    with pytest.raises(ValueError):
        hunt_races(figure1a_program(), _wo, tries=4, jobs=0)


def test_empty_policies_rejected():
    """Regression: an explicit empty policy list used to slip past the
    ``is not None`` check and die with ZeroDivisionError."""
    with pytest.raises(ValueError, match="policies must not be empty"):
        hunt_races(figure1a_program(), _wo, tries=4, policies=[])


def test_summary_text():
    result = hunt_races(figure1a_program(), _wo, tries=6)
    text = result.summary()
    assert "hunted 6 executions" in text
    assert "seed=" in text


# ----------------------------------------------------------------------
# seed/policy decoupling (regression for the round-robin seed coupling)
# ----------------------------------------------------------------------

def test_every_policy_sweeps_identical_seed_set():
    """Regression: ``seed = attempt`` with policy round-robin gave each
    policy a disjoint seed stride (stubborn only ever saw 0, 3, 6, ...).
    Seed-major enumeration gives every policy the same seed set."""
    plan = plan_jobs(12, ["stubborn", "random-0.2", "ring"])
    seeds_of = {
        name: sorted(j.seed for j in plan if j.policy_name == name)
        for name in ("stubborn", "random-0.2", "ring")
    }
    assert seeds_of["stubborn"] == seeds_of["random-0.2"] \
        == seeds_of["ring"] == [0, 1, 2, 3]


def test_policy_count_change_keeps_seed_sets():
    """Adding a policy must not silently change which seeds the
    existing policies observe (per seeds-per-policy)."""
    two = plan_jobs(8, ["a", "b"])
    three = plan_jobs(12, ["a", "b", "c"])
    seeds = lambda plan, name: sorted(
        j.seed for j in plan if j.policy_name == name
    )
    assert seeds(two, "a") == seeds(three, "a") == [0, 1, 2, 3]
    assert seeds(two, "b") == seeds(three, "b") == [0, 1, 2, 3]


def test_hunt_per_seed_covers_every_policy():
    result = hunt_races(figure1a_program(), _wo, tries=9)
    # 3 policies, 9 tries -> seeds 0..2, each run under all 3 policies
    assert sorted(result.per_seed) == [0, 1, 2]
    assert all(total == 3 for _, total in result.per_seed.values())
    assert all(total == 3 for _, total in result.per_policy.values())


# ----------------------------------------------------------------------
# recording verification (satellite: don't advertise a broken replay)
# ----------------------------------------------------------------------

def test_recording_verified_on_find():
    result = hunt_races(buggy_workqueue_program(), _wo, tries=9)
    assert result.found
    assert result.recording_verified is True
    assert "recording captured for replay" in result.summary()


def test_summary_warns_when_verification_fails():
    result = HuntResult(
        program=figure1a_program(), model_name="WO", tries=1,
        racy_runs=1, clean_runs=0, seed=0, policy="stubborn",
        per_policy={"stubborn": (1, 1)}, recording_verified=False,
    )
    text = result.summary()
    assert "WARNING" in text
    assert "failed replay verification" in text
    assert "recording captured for replay" not in text


def test_policies_by_name():
    pairs = policies_by_name(["eager", "stubborn"], 3)
    assert [name for name, _ in pairs] == ["eager", "stubborn"]
    for _, factory in pairs:
        factory()
    with pytest.raises(ValueError, match="unknown propagation policy"):
        policies_by_name(["nope"], 3)


def test_stats_round_trip_json_serializable():
    import json
    result = hunt_races(figure1a_program(), _wo, tries=6)
    payload = result.to_json()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["tries"] == 6
    assert payload["jobs"] == 1


# ----------------------------------------------------------------------
# detector selection (one hunt = one analysis backend)
# ----------------------------------------------------------------------

def test_hunt_detector_rides_every_surface():
    from repro.obs import metrics
    from repro.programs.kernels import racy_counter_program

    reg = metrics.MetricsRegistry()
    result = hunt_races(
        racy_counter_program(), _wo, tries=6, metrics=reg, detector="shb",
    )
    assert result.detector == "shb"
    assert result.found
    # the first report comes from the selected backend
    assert result.first_report.to_json()["kind"] == "shb"
    # to_json carries detector + certified count; stats() stays
    # byte-compatible with pre-detector hunts (legacy resume relies
    # on it)
    payload = result.to_json()
    assert payload["detector"] == "shb"
    assert payload["certified_races"] == result.certified_races
    assert "detector" not in result.stats()
    assert "certified_races" not in result.stats()
    # every metric sample is labeled with the hunt's detector
    series = reg.get("hunt_tries_total").series()
    assert series
    assert all(e["labels"]["detector"] == "shb" for e in series)


def test_shb_hunt_certifies_more_than_baseline():
    from repro.programs.kernels import racy_counter_program

    base = hunt_races(racy_counter_program(), _wo, tries=8)
    shb = hunt_races(racy_counter_program(), _wo, tries=8, detector="shb")
    # same executions, same racy verdicts — only the certificates grow
    assert shb.racy_runs == base.racy_runs
    assert shb.certified_races > base.certified_races


def test_wcp_hunt_catches_the_shadowed_race():
    from repro.programs.kernels import lock_shadow_program

    base = hunt_races(lock_shadow_program(), _wo, tries=12)
    wcp = hunt_races(lock_shadow_program(), _wo, tries=12, detector="wcp")
    assert wcp.racy_runs >= base.racy_runs
    assert wcp.racy_runs == 12  # WCP flags every schedule of this kernel


def test_hunt_rejects_unknown_and_streaming_detectors():
    from repro.programs.kernels import racy_counter_program

    for bad in ("onthefly", "psychic"):
        with pytest.raises(ValueError, match="unknown hunt detector"):
            hunt_races(racy_counter_program(), _wo, tries=2, detector=bad)


def test_hunt_detector_is_checkpoint_identity(tmp_path):
    from repro.analysis.checkpoint import CheckpointMismatch
    from repro.programs.kernels import racy_counter_program

    path = tmp_path / "hunt.ckpt"
    hunt_races(
        racy_counter_program(), _wo, tries=4, checkpoint=path,
        detector="wcp",
    )
    with pytest.raises(CheckpointMismatch, match="detector"):
        hunt_races(
            racy_counter_program(), _wo, tries=4, checkpoint=path,
            resume=True, detector="shb",
        )
    resumed = hunt_races(
        racy_counter_program(), _wo, tries=4, checkpoint=path,
        resume=True, detector="wcp",
    )
    assert resumed.resumed_jobs == 4
    assert resumed.detector == "wcp"


@pytest.mark.parametrize("jobs", [1, 2])
def test_detector_hunts_merge_identically_across_workers(jobs):
    from repro.programs.kernels import racy_counter_program

    result = hunt_races(
        racy_counter_program(), _wo, tries=8, jobs=jobs, detector="shb",
    )
    serial = hunt_races(
        racy_counter_program(), _wo, tries=8, jobs=1, detector="shb",
    )
    assert result.stats() == serial.stats()
    assert result.certified_races == serial.certified_races
