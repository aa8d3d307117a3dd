"""Tests for the cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.costmodel import (
    CostModel,
    MachineConfig,
    fits_in_memory,
)
from repro.parallel.usage import PhaseUsage, ResourceUsage


def usage_with(n_ranks=8, **phase_kw):
    u = ResourceUsage(n_ranks=n_ranks)
    defaults = dict(name="p", kind="generic")
    defaults.update(phase_kw)
    u.add_phase(PhaseUsage(**defaults))
    return u


class TestMachineConfig:
    def test_total_cores(self):
        assert MachineConfig(n_nodes=4, cores_per_node=8).total_cores == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(n_nodes=0)
        with pytest.raises(ValueError):
            MachineConfig(n_nodes=1, compute_factor=0)


class TestTaskSeconds:
    def test_compute_only(self):
        cm = CostModel(rates={"generic": 100.0})
        m = MachineConfig(n_nodes=1, cores_per_node=8)
        u = usage_with(n_ranks=8, critical_compute=1000.0)
        assert cm.task_seconds(u, m) == pytest.approx(10.0)

    def test_compute_factor_speeds_up(self):
        cm = CostModel(rates={"generic": 100.0})
        slow = MachineConfig(n_nodes=1, compute_factor=1.0)
        fast = MachineConfig(n_nodes=1, compute_factor=2.0)
        u = usage_with(critical_compute=1000.0)
        assert cm.task_seconds(u, fast) == pytest.approx(
            cm.task_seconds(u, slow) / 2
        )

    def test_oversubscription_slows_down(self):
        cm = CostModel(rates={"generic": 100.0})
        m = MachineConfig(n_nodes=1, cores_per_node=4)
        u = usage_with(n_ranks=8, critical_compute=100.0)  # 8 ranks on 4 cores
        assert cm.task_seconds(u, m) == pytest.approx(2.0)

    def test_serial_not_parallelized(self):
        cm = CostModel(rates={"generic": 100.0})
        m1 = MachineConfig(n_nodes=1)
        m8 = MachineConfig(n_nodes=8)
        u = usage_with(serial_compute=1000.0, critical_compute=0.0)
        assert cm.task_seconds(u, m1) == pytest.approx(cm.task_seconds(u, m8))

    def test_single_node_comm_is_free(self):
        cm = CostModel()
        m = MachineConfig(n_nodes=1)
        u = usage_with(comm_bytes=10**9)
        assert cm.task_seconds(u, m) == 0.0

    def test_multi_node_comm_priced(self):
        cm = CostModel()
        m = MachineConfig(n_nodes=2, network_bandwidth=1e6)
        u = usage_with(comm_bytes=10**6)
        # half the traffic crosses the network, over 2 node-links
        assert cm.task_seconds(u, m) == pytest.approx(0.25)

    def test_collective_latency_grows_with_ranks(self):
        cm = CostModel()
        m = MachineConfig(n_nodes=2)
        small = usage_with(n_ranks=2, n_collectives=10)
        big = usage_with(n_ranks=64, n_collectives=10)
        assert cm.task_seconds(big, m) > cm.task_seconds(small, m)

    def test_mr_job_overhead(self):
        cm = CostModel(mr_job_overhead=65.0)
        m = MachineConfig(n_nodes=2)
        u = usage_with(n_jobs=10)
        assert cm.task_seconds(u, m) == pytest.approx(650.0)

    def test_unknown_kind_falls_back_to_generic(self):
        cm = CostModel(rates={"generic": 10.0})
        m = MachineConfig(n_nodes=1)
        u = usage_with(kind="exotic", critical_compute=100.0)
        assert cm.task_seconds(u, m) == pytest.approx(10.0)

    def test_with_rates_override(self):
        cm = CostModel().with_rates(kmer=123.0)
        assert cm.rate("kmer") == 123.0
        assert cm.rate("graph") == CostModel().rate("graph")

    def test_message_latency(self):
        cm = CostModel(message_latency=0.01)
        m = MachineConfig(n_nodes=2)
        u = usage_with(n_messages=100)
        assert cm.task_seconds(u, m) == pytest.approx(1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        nodes=st.integers(min_value=1, max_value=32),
        compute=st.floats(min_value=0, max_value=1e9),
    )
    def test_nonnegative_and_finite(self, nodes, compute):
        cm = CostModel()
        m = MachineConfig(n_nodes=nodes)
        u = usage_with(n_ranks=nodes * 8, critical_compute=compute,
                       comm_bytes=10**6, n_collectives=5)
        t = cm.task_seconds(u, m)
        assert t >= 0
        assert t < float("inf")


class TestHelpers:
    def test_io_seconds(self):
        cm = CostModel()
        m = MachineConfig(n_nodes=2, io_bandwidth=1e6)
        assert cm.io_seconds(4 * 10**6, m) == pytest.approx(2.0)

    def test_fits_in_memory(self):
        u = ResourceUsage(n_ranks=8)
        u.peak_rank_memory_bytes = 2 * 1024**3  # 2 GB per rank
        # 8 ranks/node x 2 GB = 16 GB: just fits a 16 GB node
        assert fits_in_memory(u, 16 * 1024**3, cores_per_node=8)
        assert not fits_in_memory(u, 15 * 1024**3, cores_per_node=8)

    def test_fits_fewer_ranks_than_cores(self):
        u = ResourceUsage(n_ranks=2)
        u.peak_rank_memory_bytes = 7 * 1024**3
        # only 2 ranks exist, so a 16 GB node holds both
        assert fits_in_memory(u, 16 * 1024**3, cores_per_node=8)
