"""Exhaustive SC-execution exploration tests (Definition 2.4)."""

import pytest

from repro.analysis.exhaustive import (
    ExhaustiveExplorer,
    ExplorationLimit,
    explore_program,
    is_program_data_race_free,
)
from repro.machine.program import ProgramBuilder
from repro.programs.figure1 import figure1a_program, figure1b_program
from repro.programs.kernels import (
    locked_counter_program,
    producer_consumer_program,
    racy_counter_program,
    single_race_program,
)


class TestKnownVerdicts:
    def test_figure1a_not_drf(self):
        assert not is_program_data_race_free(figure1a_program())

    def test_figure1b_drf(self):
        assert is_program_data_race_free(figure1b_program())

    def test_single_race_not_drf(self):
        assert not is_program_data_race_free(single_race_program())

    def test_locked_counter_drf(self):
        assert is_program_data_race_free(locked_counter_program(2, 2))

    def test_racy_counter_not_drf(self):
        assert not is_program_data_race_free(racy_counter_program(2, 1))

    def test_producer_consumer_drf(self):
        assert is_program_data_race_free(producer_consumer_program(2))


class TestWitness:
    def test_witness_schedule_reproduces_race(self):
        """Replaying the returned schedule under SC must hit a race."""
        from repro.core.ophb import find_op_races
        from repro.machine.models import make_model
        from repro.machine.scheduler import ScriptedScheduler
        from repro.machine.simulator import Simulator

        program = figure1a_program()
        result = explore_program(program)
        assert result.racing_schedule is not None
        sim = Simulator(
            program, make_model("SC"),
            scheduler=ScriptedScheduler(result.racing_schedule), seed=0,
        )
        res = sim.run()
        races = [r for r in find_op_races(res.operations) if r.is_data_race]
        assert races

    def test_drf_program_has_no_witness(self):
        result = explore_program(figure1b_program())
        assert result.racing_schedule is None
        assert result.program_is_data_race_free


class TestRaceSensitivity:
    def test_race_only_on_some_schedules_still_found(self):
        """A race reachable only through one branch direction must be
        found by exhaustive search even if the common schedule is
        clean."""
        b = ProgramBuilder()
        flag = b.var("flag")
        x = b.var("x")
        with b.thread() as t:  # writes flag, then x
            t.write(flag, 1)
            t.write(x, 1)
        with b.thread() as t:  # touches x only if it saw flag==1
            f = t.read(flag)
            t.jump_if_zero(f, "end")
            t.write(x, 2)
            t.label("end")
        # Already racy via the flag accesses themselves; check x also
        # shows up in some interleaving by at least confirming not-DRF.
        assert not is_program_data_race_free(b.build())

    def test_sync_data_conflict_counts_as_race(self):
        b = ProgramBuilder()
        s = b.var("s")
        with b.thread() as t:
            t.unset(s)       # sync write
        with b.thread() as t:
            t.read(s)        # data read of the same location
        assert not is_program_data_race_free(b.build())

    def test_sync_sync_conflict_not_a_data_race(self):
        b = ProgramBuilder()
        s = b.var("s")
        with b.thread() as t:
            t.unset(s)
        with b.thread() as t:
            t.unset(s)
        assert is_program_data_race_free(b.build())


class TestSpinBlocking:
    def test_contended_lock_explored_fully(self):
        result = explore_program(locked_counter_program(2, 1))
        assert result.program_is_data_race_free
        assert result.executions_explored >= 2  # both acquisition orders

    def test_deadlock_counted_not_fatal(self):
        b = ProgramBuilder()
        s = b.var("s", initial=1)  # held forever
        with b.thread() as t:
            t.lock(s)
        result = explore_program(b.build())
        assert result.deadlocked_paths >= 1
        assert result.executions_explored == 0
        assert result.program_is_data_race_free  # vacuously


class TestLimits:
    def test_state_limit_raises(self):
        with pytest.raises(ExplorationLimit):
            ExhaustiveExplorer(
                locked_counter_program(3, 3), max_states=10
            ).explore()

    def test_memoization_prunes(self):
        """Two independent single-write threads: 2 interleavings but a
        shared final state; memoization keeps states well below the
        naive product."""
        b = ProgramBuilder()
        x, y = b.var("x"), b.var("y")
        with b.thread() as t:
            t.write(x, 1)
        with b.thread() as t:
            t.write(y, 1)
        result = explore_program(b.build())
        assert result.program_is_data_race_free
        assert result.states_visited <= 12


class TestAgreementWithDynamic:
    def test_dynamic_detection_subset_of_exhaustive(self):
        """If any single dynamic execution shows a data race the
        program cannot be DRF; if exhaustive says DRF, every dynamic
        run must be clean."""
        from repro.core.detector import PostMortemDetector
        from repro.machine.models import make_model
        from repro.machine.simulator import run_program
        from repro.programs.random_programs import random_racy_program

        det = PostMortemDetector()
        for seed in range(8):
            prog = random_racy_program(
                seed, processors=2, ops_per_thread=3, shared_vars=2,
                race_prob=0.5,
            )
            drf = is_program_data_race_free(prog, max_states=500_000)
            if drf:
                for run_seed in range(4):
                    result = run_program(prog, make_model("SC"), seed=run_seed)
                    assert det.analyze_execution(result).race_free, (seed, run_seed)


def test_data_read_after_handoff_sees_the_handed_off_value():
    """P1 overwrites P0's value of ``d`` after a release/acquire
    handoff, then hands control back; P0's data read must return P1's
    value in every SC execution, so the write to ``z`` it guards never
    runs and the program is race-free.  Each explored step must issue
    fresh sequence numbers: a write that reused an older write's seq
    would be dropped by the memory's newer-write-wins guard, P0 would
    read its own stale 1, and the explorer would report a race on z."""
    b = ProgramBuilder()
    d, f1, f2, z = b.var("d"), b.var("f1"), b.var("f2"), b.var("z")
    with b.thread() as t:
        t.write(d, 1)
        t.release_write(f1, 1)
        t.spin_until_ge(f2, 1)
        r = t.read(d)
        same = t.cmp_eq(r, 2)
        t.jump_if_nonzero(same, "done")
        t.write(z, 1)
        t.label("done")
    with b.thread() as t:
        t.spin_until_ge(f1, 1)
        t.write(d, 2)
        t.release_write(f2, 1)
        t.read(z)
    assert is_program_data_race_free(b.build())
