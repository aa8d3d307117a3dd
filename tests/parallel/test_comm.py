"""Tests for the SPMD communicator (the booking world), and the
payload-carrying collectives of the oracle ``exec_reference.ExecWorld``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.comm import CommError, SimWorld
from tests.parallel.exec_reference import ExecWorld


class TestConstruction:
    def test_size(self):
        assert SimWorld(4).size == 4
        assert list(SimWorld(3).ranks()) == [0, 1, 2]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SimWorld(0)


class TestPhases:
    def test_phase_records_usage(self):
        w = SimWorld(2)
        with w.phase("work", kind="kmer"):
            w.charge(0, 10)
            w.charge(1, 4)
            w.charge(1, 2)
        u = w.usage
        assert len(u.phases) == 1
        assert u.phases[0].name == "work"
        assert u.phases[0].kind == "kmer"
        assert u.phases[0].critical_compute == 10
        assert u.phases[0].total_compute == 16

    def test_nested_phase_rejected(self):
        w = SimWorld(2)
        with w.phase("a"):
            with pytest.raises(CommError):
                with w.phase("b"):
                    pass

    def test_charge_outside_phase_rejected(self):
        w = SimWorld(2)
        with pytest.raises(CommError):
            w.charge(0, 1)

    def test_phase_closed_after_exception(self):
        w = SimWorld(2)
        with pytest.raises(RuntimeError):
            with w.phase("a"):
                raise RuntimeError("boom")
        # phase recorded and closed; a new phase can start
        with w.phase("b"):
            w.charge(0, 1)
        assert [p.name for p in w.usage.phases] == ["a", "b"]

    def test_serial_charge(self):
        w = SimWorld(4)
        with w.phase("merge"):
            w.charge_serial(100)
        assert w.usage.phases[0].serial_compute == 100

    def test_bad_rank_rejected(self):
        w = SimWorld(2)
        with w.phase("a"):
            with pytest.raises(CommError):
                w.charge(2, 1)
            with pytest.raises(CommError):
                w.charge(-1, 1)

    def test_memory_tracking(self):
        w = SimWorld(2)
        with w.phase("a"):
            w.record_memory(0, 100)
            w.record_memory(1, 500)
            w.record_memory(0, 300)
        assert w.usage.peak_rank_memory_bytes == 500


class TestCollectives:
    def test_collective_books_count_and_bytes(self):
        w = SimWorld(3)
        with w.phase("x"):
            w.collective(40)
            w.collective(2)
        assert w.usage.phases[0].n_collectives == 2
        assert w.usage.phases[0].comm_bytes == 42

    def test_alltoall_semantics(self):
        w = ExecWorld(3)
        send = [[f"{s}->{d}" for d in range(3)] for s in range(3)]
        with w.phase("x"):
            recv = w.alltoall(send)
        for d in range(3):
            for s in range(3):
                assert recv[d][s] == f"{s}->{d}"

    def test_alltoall_counts_offdiagonal_bytes_only(self):
        w = ExecWorld(2)
        big = np.zeros(100, dtype=np.uint8)
        send = [[big, big], [big, big]]
        with w.phase("x"):
            w.alltoall(send)
        assert w.usage.phases[0].comm_bytes == 200  # two off-diagonal payloads

    def test_alltoall_shape_check(self):
        w = ExecWorld(2)
        with w.phase("x"):
            with pytest.raises(CommError):
                w.alltoall([[1, 2]])

    def test_gather_counts_non_root_payloads(self):
        w = ExecWorld(3)
        with w.phase("x"):
            assert w.gather([1, 2, 3]) == [1, 2, 3]
            w.gather([[np.zeros(5, np.uint8)], [], [np.zeros(7, np.uint8)]], root=1)
        # 8 + 8 for the two non-root ints; then (5 + 16) + (7 + 16)
        assert w.usage.phases[0].comm_bytes == 16 + 21 + 23
        assert w.usage.phases[0].n_collectives == 2

    def test_vector_shape_check(self):
        w = ExecWorld(3)
        with w.phase("x"):
            with pytest.raises(CommError):
                w.gather([1, 2])

    def test_barrier_counts_collective(self):
        w = SimWorld(2)
        with w.phase("x"):
            w.collective()
            w.collective()
        assert w.usage.phases[0].n_collectives == 2
        assert w.usage.phases[0].comm_bytes == 0

    def test_message_counting(self):
        w = SimWorld(2)
        with w.phase("x"):
            w.count_messages(5)
        assert w.usage.phases[0].n_messages == 5

    def test_single_rank_alltoall_no_comm(self):
        w = ExecWorld(1)
        with w.phase("x"):
            recv = w.alltoall([[np.zeros(100, dtype=np.uint8)]])
        assert w.usage.phases[0].comm_bytes == 0
        assert recv[0][0].shape == (100,)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_alltoall_is_transpose(self, n, seed):
        rng = np.random.default_rng(seed)
        w = ExecWorld(n)
        send = [[int(rng.integers(0, 1000)) for _ in range(n)] for _ in range(n)]
        with w.phase("x"):
            recv = w.alltoall(send)
        assert [[recv[d][s] for d in range(n)] for s in range(n)] == send
