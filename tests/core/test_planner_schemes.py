"""Tests for k-mer selection, assembly planning, schemes, workflow, memory."""

import pytest

from repro.cloud.instances import GiB
from repro.core.memory import task_memory_bytes
from repro.core.planner import plan_assembly, select_kmer_list
from repro.core.schemes import MatchingScheme
from repro.core.workflow import STAGES, WorkflowPattern
from repro.seq.datasets import B_GLUMAE, P_CRISPA
from tests.paper_tables import PAPER_TABLE4, reproduce_table4


class TestKmerSelection:
    def test_bglumae_list(self):
        # 50 bp single-end reads -> the paper's 7-value list (Table II).
        assert select_kmer_list(50) == (35, 37, 39, 41, 43, 45, 47)

    def test_pcrispa_list(self):
        # 100 bp paired reads -> the paper's 4-value list.
        assert select_kmer_list(100) == (51, 55, 59, 63)

    def test_trimmed_reads_shrink_list(self):
        ks = select_kmer_list(42)
        assert ks[0] == 35
        assert ks[-1] <= 41
        assert len(ks) < 7

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            select_kmer_list(30)

    def test_all_odd(self):
        for L in (40, 50, 60, 76, 100, 150):
            assert all(k % 2 == 1 for k in select_kmer_list(L))


class TestMemoryModel:
    def test_preprocess_anchors(self):
        """Table II anchors: B. glumae <= 15 GB, P. crispa ~= 40 GB."""
        bg = task_memory_bytes(B_GLUMAE, "preprocess")
        pc = task_memory_bytes(P_CRISPA, "preprocess")
        assert bg <= 15 * GiB
        assert pc == pytest.approx(40 * GiB, rel=0.05)

    def test_assembly_divides_over_nodes(self):
        one = task_memory_bytes(P_CRISPA, "assembly", n_nodes=1)
        four = task_memory_bytes(P_CRISPA, "assembly", n_nodes=4)
        assert four == pytest.approx(one / 4, rel=0.01)

    def test_table4_cells(self):
        """Table IV's ten O/X cells, every one as the paper prints it."""
        assert reproduce_table4() == PAPER_TABLE4

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            task_memory_bytes(B_GLUMAE, "alignment")


class TestPlanner:
    def test_sample_run_shape(self):
        """§IV.C: 3 assemblers x 2 k-mers -> 4 MPI nodes + 2x16 Contrail
        nodes = 36."""
        plan = plan_assembly(
            B_GLUMAE, (41, 47), ("ray", "abyss", "contrail"), "c3.2xlarge"
        )
        assert plan.n_jobs == 6
        assert plan.n_nodes == 36
        assert plan.mpi_nodes_per_job == 1

    def test_mpi_jobs_widen_for_memory(self):
        # P. crispa on c3.2xlarge: 31.4 GB table cannot fit one 16 GB node.
        plan = plan_assembly(P_CRISPA, (51,), ("ray",), "c3.2xlarge")
        assert plan.mpi_nodes_per_job >= 2

    def test_mpi_jobs_fit_r3_single_node(self):
        plan = plan_assembly(P_CRISPA, (51,), ("ray",), "r3.2xlarge")
        assert plan.mpi_nodes_per_job == 1

    def test_max_nodes_cap(self):
        plan = plan_assembly(
            B_GLUMAE, (35, 37, 39, 41, 43, 45, 47),
            ("ray", "abyss", "contrail"), "c3.2xlarge", max_nodes=20,
        )
        assert plan.n_nodes == 20
        assert all(nodes <= 20 for _, _, nodes in plan.jobs())

    def test_jobs_enumeration(self):
        plan = plan_assembly(B_GLUMAE, (35, 41), ("ray", "contrail"),
                             "c3.2xlarge")
        jobs = plan.jobs()
        assert len(jobs) == 4
        assert ("ray", 35, 1) in jobs
        assert ("contrail", 41, 16) in jobs

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_assembly(B_GLUMAE, (), ("ray",), "c3.2xlarge")
        with pytest.raises(ValueError):
            plan_assembly(B_GLUMAE, (35,), (), "c3.2xlarge")


class TestSchemesWorkflow:
    def test_scheme_properties(self):
        assert not MatchingScheme.S1.reuses_vms
        assert MatchingScheme.S2.reuses_vms
        assert MatchingScheme.S3.reuses_vms
        assert MatchingScheme.S3.elastic
        assert not MatchingScheme.S1.elastic
        assert not MatchingScheme.S2.elastic

    def test_scheme_parse(self):
        assert MatchingScheme.parse("s1") is MatchingScheme.S1
        assert MatchingScheme.parse(MatchingScheme.S2) is MatchingScheme.S2
        assert MatchingScheme.parse("s3") is MatchingScheme.S3
        with pytest.raises(ValueError):
            MatchingScheme.parse("s4")

    def test_pattern_properties(self):
        assert not WorkflowPattern.CONVENTIONAL.decides_at_runtime
        assert WorkflowPattern.DISTRIBUTED_DYNAMIC.decides_at_runtime
        assert not WorkflowPattern.DISTRIBUTED_STATIC.decides_at_runtime

    def test_pattern_parse(self):
        assert WorkflowPattern.parse("dynamic") is WorkflowPattern.DISTRIBUTED_DYNAMIC
        assert WorkflowPattern.parse("conventional") is WorkflowPattern.CONVENTIONAL
        with pytest.raises(ValueError):
            WorkflowPattern.parse("chaotic")

    def test_stage_sequence(self):
        names = [s for s, _ in STAGES]
        assert names == [
            "pre-processing", "transcript-assembly", "post-processing",
            "quantification",
        ]
