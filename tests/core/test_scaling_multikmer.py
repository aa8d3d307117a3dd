"""Tests for paper-scale extrapolation and the multi-k unit fan-out."""

import pytest

from repro.core import multikmer
from repro.core.planner import plan_assembly
from repro.core.scaling import paper_usage, phase_is_graph_bound
from repro.parallel.usage import PhaseUsage, ResourceUsage
from repro.pilot.states import UnitState
from repro.seq.datasets import B_GLUMAE, tiny_dataset
from repro.seq.readstore import ReadStore


class TestPhaseClassification:
    def test_read_bound_kinds(self):
        for kind in ("kmer", "preprocess", "quantify", "generic"):
            assert not phase_is_graph_bound(PhaseUsage("x", kind))

    def test_graph_bound_kinds(self):
        for kind in ("graph", "walk", "merge"):
            assert phase_is_graph_bound(PhaseUsage("x", kind))

    def test_mr_split_by_job_name(self):
        assert not phase_is_graph_bound(PhaseUsage("kmer_count", "mr_job"))
        assert phase_is_graph_bound(PhaseUsage("pair_3", "mr_job"))
        assert phase_is_graph_bound(PhaseUsage("merge_3", "mr_job"))


class TestPaperUsage:
    def make_dataset(self):
        return tiny_dataset(seed=2)

    def test_read_bound_scales_by_read_scale(self):
        ds = self.make_dataset()
        u = ResourceUsage(n_ranks=4)
        u.add_phase(PhaseUsage("count", "kmer", critical_compute=100.0))
        scaled = paper_usage(u, ds)
        assert scaled.phases[0].critical_compute == pytest.approx(
            100.0 / ds.read_scale
        )

    def test_graph_bound_scales_by_genome_scale(self):
        ds = self.make_dataset()
        u = ResourceUsage(n_ranks=4)
        u.add_phase(PhaseUsage("walk", "walk", critical_compute=100.0))
        scaled = paper_usage(u, ds)
        assert scaled.phases[0].critical_compute == pytest.approx(
            100.0 / ds.scale
        )

    def test_graph_factor_smaller_than_read_factor_when_boosted(self):
        boosted = tiny_dataset(seed=2, coverage_boost=0.5)
        assert 1 / boosted.scale < 1 / boosted.read_scale

    def test_memory_uses_graph_factor_when_graph_phase_exists(self):
        ds = self.make_dataset()
        u = ResourceUsage(n_ranks=4)
        u.add_phase(PhaseUsage("count", "kmer", critical_compute=1.0))
        u.add_phase(PhaseUsage("walk", "walk", critical_compute=1.0))
        u.peak_rank_memory_bytes = 1000
        scaled = paper_usage(u, ds)
        assert scaled.peak_rank_memory_bytes == pytest.approx(
            1000 / ds.scale, rel=0.01
        )

    def test_scaled_by_validation(self):
        u = ResourceUsage()
        u.add_phase(PhaseUsage("x", "kmer", critical_compute=1.0))
        with pytest.raises(ValueError):
            u.scaled_by([0.0], memory_factor=1.0)


class TestMultikmer:
    def test_unit_descriptions_cover_plan(self):
        ds = tiny_dataset(seed=1)
        plan = plan_assembly(
            B_GLUMAE, (35, 41), ("ray", "contrail"), "c3.2xlarge",
            contrail_nodes_per_job=2,
        )
        descs = multikmer.assembly_unit_descriptions(
            plan, B_GLUMAE, ReadStore.from_reads(ds.run.all_reads()[:500]), ds
        )
        assert len(descs) == 4
        names = {d.name for d in descs}
        assert names == {"ray_k35", "ray_k41", "contrail_k35", "contrail_k41"}
        for d in descs:
            assert d.stage == "transcript-assembly"
            assert d.scale == 1.0
            assert d.memory_bytes > 0
            assert d.cores >= 8

    def test_workload_executes_and_extrapolates(self):
        ds = tiny_dataset(seed=1)
        from repro.assembly.base import AssemblyParams

        work = multikmer.make_assembly_workload(
            "velvet",
            ReadStore.from_reads(ds.run.all_reads()),
            AssemblyParams(k=31),
            8,
            dataset=ds,
        )
        result, usage = work()
        assert result.assembler == "velvet"
        # extrapolated usage is much larger than the sim-scale measurement
        assert usage.critical_compute > result.usage.critical_compute

    def test_collect_results(self):
        class FakeUnit:
            def __init__(self, name, asm, k, result):
                from repro.pilot.description import UnitDescription

                self.result = result
                self.description = UnitDescription(
                    name=name, work=lambda: None, tags={"assembler": asm, "k": k}
                )

        out = multikmer.collect_assembly_results(
            [FakeUnit("a", "ray", 35, "R1"), FakeUnit("b", "ray", 41, None)]
        )
        assert out == {("ray", 35): "R1"}
