"""MemorySystem unit tests: views, pending writes, staleness, flushes."""

import pytest

from repro.machine.memory import MemorySystem
from repro.machine.models import (
    SequentialConsistency,
    TotalStoreOrder,
    WeakOrdering,
)
from repro.machine.operations import SyncRole


def _weak(size=4, procs=3, initial=None):
    return MemorySystem(size, procs, WeakOrdering(), initial=initial)


def _sc(size=4, procs=3, initial=None):
    return MemorySystem(size, procs, SequentialConsistency(), initial=initial)


class TestInitialState:
    def test_reads_return_initial_values(self):
        m = _weak(initial={1: 42})
        res = m.read_data(0, 1)
        assert res.value == 42
        assert res.observed_write is None
        assert not res.stale

    def test_default_zero(self):
        m = _weak()
        assert m.read_data(2, 3).value == 0

    def test_views_converged_initially(self):
        assert _weak().views_converged()


class TestDataWrites:
    def test_own_view_updates_immediately(self):
        m = _weak()
        m.write_data(0, 2, 99, seq=0, taint=False)
        assert m.read_data(0, 2).value == 99
        assert not m.read_data(0, 2).stale

    def test_other_view_stale_until_propagated(self):
        m = _weak()
        m.write_data(0, 2, 99, seq=0, taint=False)
        res = m.read_data(1, 2)
        assert res.value == 0
        assert res.stale

    def test_sc_propagates_at_issue(self):
        m = _sc()
        m.write_data(0, 2, 99, seq=0, taint=False)
        res = m.read_data(1, 2)
        assert res.value == 99
        assert not res.stale

    def test_flush_delivers_everywhere(self):
        m = _weak()
        m.write_data(0, 1, 7, seq=0, taint=False)
        m.write_data(0, 2, 8, seq=1, taint=False)
        drained = m.flush(0)
        assert drained == 2
        for reader in (1, 2):
            assert m.read_data(reader, 1).value == 7
            assert m.read_data(reader, 2).value == 8
        assert m.views_converged()

    def test_flush_only_own_writes(self):
        m = _weak()
        m.write_data(0, 1, 7, seq=0, taint=False)
        m.write_data(1, 2, 8, seq=1, taint=False)
        assert m.flush(0) == 1
        assert m.read_data(2, 2).stale

    def test_propagate_single_reader(self):
        m = _weak()
        m.write_data(0, 1, 7, seq=0, taint=False)
        pw = m.pending_writes()[0]
        m.propagate(pw, 1)
        assert m.read_data(1, 1).value == 7
        assert m.read_data(2, 1).stale

    def test_view_never_moves_backward(self):
        m = _weak()
        m.write_data(0, 1, 7, seq=0, taint=False)
        m.write_data(0, 1, 9, seq=5, taint=False)
        newer, older = None, None
        for pw in m.pending_writes():
            if pw.seq == 5:
                newer = pw
            else:
                older = pw
        m.propagate(newer, 1)
        assert m.read_data(1, 1).value == 9
        m.propagate(older, 1)
        assert m.read_data(1, 1).value == 9  # old write must not regress

    def test_pending_count(self):
        m = _weak()
        m.write_data(0, 1, 1, seq=0, taint=False)
        m.write_data(0, 2, 2, seq=1, taint=False)
        m.write_data(1, 3, 3, seq=2, taint=False)
        assert m.pending_count() == 3
        assert m.pending_count(0) == 2
        assert m.pending_count(1) == 1


class TestSyncOperations:
    def test_sync_write_propagates_at_issue(self):
        m = _weak()
        m.write_sync(0, 1, 5, seq=0, taint=False, role=SyncRole.RELEASE)
        assert m.read_data(1, 1).value == 5
        assert not m.read_data(1, 1).stale

    def test_release_flushes_buffered_writes(self):
        m = _weak()
        m.write_data(0, 1, 7, seq=0, taint=False)
        flushed = m.write_sync(0, 2, 0, seq=1, taint=False, role=SyncRole.RELEASE)
        assert flushed == 1
        assert m.read_data(1, 1).value == 7

    def test_sync_read_sees_committed(self):
        m = _weak()
        m.write_data(0, 1, 7, seq=0, taint=False)
        res = m.read_sync(1, 1)
        assert res.value == 7
        assert not res.stale
        # and refreshes the reader's data view
        assert m.read_data(1, 1).value == 7

    def test_pre_sync_read_flush_respects_model(self):
        wo = _weak()
        wo.write_data(0, 1, 7, seq=0, taint=False)
        assert wo.pre_sync_read_flush(0, SyncRole.ACQUIRE) == 1

        from repro.machine.models import ReleaseConsistencySC
        rc = MemorySystem(4, 3, ReleaseConsistencySC())
        rc.write_data(0, 1, 7, seq=0, taint=False)
        assert rc.pre_sync_read_flush(0, SyncRole.ACQUIRE) == 0
        assert rc.pending_count(0) == 1


class TestStaleness:
    def test_stale_exactly_when_unpropagated_newer_write(self):
        m = _weak()
        assert not m.read_data(1, 0).stale
        m.write_data(0, 0, 1, seq=0, taint=False)
        assert m.read_data(1, 0).stale
        m.flush(0)
        assert not m.read_data(1, 0).stale

    def test_taint_travels_with_write(self):
        m = _weak()
        m.write_data(0, 0, 1, seq=0, taint=True)
        m.flush(0)
        res = m.read_data(1, 0)
        assert res.taint
        assert not res.stale

    def test_stale_read_is_tainted(self):
        m = _weak()
        m.write_data(0, 0, 1, seq=0, taint=False)
        assert m.read_data(1, 0).taint  # stale implies tainted


class TestBounds:
    def test_address_out_of_range(self):
        m = _weak(size=2)
        with pytest.raises(IndexError):
            m.read_data(0, 2)
        with pytest.raises(IndexError):
            m.write_data(0, -1, 0, seq=0, taint=False)

    def test_processor_out_of_range(self):
        m = _weak(procs=2)
        with pytest.raises(IndexError):
            m.read_data(2, 0)

    def test_committed_memory_snapshot(self):
        m = _weak()
        m.write_data(0, 1, 7, seq=0, taint=False)
        snap = m.committed_memory()
        assert snap[1] == 7
        assert snap[0] == 0


# ----------------------------------------------------------------------
# clone and state keys (what the exhaustive explorers branch on)
# ----------------------------------------------------------------------

def _tso(size=4, procs=3):
    return MemorySystem(size, procs, TotalStoreOrder())


class TestClone:
    def test_tso_clone_with_pending_writes_delivers_in_fifo_order(self):
        m = _tso()
        m.write_data(0, 1, 7, seq=0, taint=False)
        m.write_data(0, 2, 8, seq=1, taint=False)
        c = m.clone()
        older, younger = c.pending_writes()
        assert (older.seq, younger.seq) == (0, 1)
        # the store-order guard survives the clone: the younger write
        # must wait for the older one at each reader
        assert not c.propagate(younger, 1)
        assert c.propagate(older, 1)
        assert c.propagate(younger, 1)
        assert c.read_data(1, 1).value == 7
        assert c.read_data(1, 2).value == 8
        assert not c.read_data(1, 2).stale
        # the original is untouched by deliveries from the clone
        assert m.read_data(1, 1).value == 0
        assert m.pending_count() == 2
        assert all(pw.remaining == {1, 2} for pw in m.pending_writes())

    def test_clone_is_independent_both_ways(self):
        m = _weak()
        m.write_data(0, 1, 7, seq=0, taint=True)
        c = m.clone()
        m.flush(0)
        assert m.read_data(2, 1).value == 7
        assert c.read_data(2, 1).value == 0
        assert c.pending_count() == 1
        c.write_data(1, 3, 5, seq=1, taint=False)
        assert m.committed_value(3) == 0
        assert c.flush_count == 0 and m.flush_count == 1

    def test_clone_of_sc_memory_keeps_committing_everywhere(self):
        m = _sc()
        m.write_data(0, 1, 7, seq=0, taint=False)
        c = m.clone()
        c.write_data(1, 1, 9, seq=1, taint=False)
        assert [c.view_value(p, 1) for p in range(3)] == [9, 9, 9]
        assert [m.view_value(p, 1) for p in range(3)] == [7, 7, 7]

    def test_state_key_tracks_behaviour_relevant_state(self):
        m = _weak()
        c = m.clone()
        assert m.state_key() == c.state_key()
        c.write_data(0, 1, 7, seq=0, taint=False)
        assert m.state_key() != c.state_key()
        twin = m.clone()
        twin.write_data(0, 1, 7, seq=5, taint=False)  # seq is not state
        assert twin.state_key() == c.state_key()
        c.propagate(c.pending_writes()[0], 1)
        assert twin.state_key() != c.state_key()

    def test_sc_state_key_is_the_committed_values(self):
        m = _sc(initial={2: 4})
        assert m.state_key() == (0, 0, 4, 0)

