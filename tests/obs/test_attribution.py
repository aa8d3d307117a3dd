"""Tests for dollar/node-second attribution and the planner gate."""

import json

import pytest

from repro.obs.__main__ import main
from repro.obs.attribution import (
    IDLE,
    PROVISION,
    SETUP,
    attribute_costs,
    format_attribution,
    planner_violations,
)


def span(name, cat, v0, v1, sid, thread="main", **attrs):
    return {
        "type": "span", "name": name, "cat": cat, "process": "p0",
        "thread": thread, "v0": v0, "v1": v1, "r0": 0.0, "r1": 0.0,
        "id": sid, "parent": None, "attrs": attrs,
    }


def event(name, cat, v, **attrs):
    return {
        "type": "event", "name": name, "cat": cat, "process": "p0",
        "thread": "main", "v": v, "r": 0.0, "attrs": attrs,
    }


def make_run_trace(planner_ttc=95.0, planner_cost=0.80):
    """A hand-built single-run trace with two billed VMs.

    vm-1 lives the whole run (provision 0..10, setup 10..20, then the
    stages); vm-2 only exists for the assembly stage.  All boundaries
    are chosen so every bucket duration is a round number.
    """
    return [
        span(
            "pipeline", "pipeline", 0.0, 100.0, 1,
            dataset="toy", config_fingerprint="cafe0123",
            store_digest="feed4567", scheme="S2", workflow="multi-k",
            assemblers=["ray"], total_cost_usd=0.84,
            planner_ttc_s=planner_ttc, planner_cost_usd=planner_cost,
        ),
        span("vm.provision", "cloud", 0.0, 10.0, 2, vm_ids=["vm-1"]),
        span("cluster.setup:shared", "cloud", 10.0, 20.0, 3),
        span(
            "vm.lifetime", "cloud", 0.0, 100.0, 4, thread="vm-1",
            vm_id="vm-1", pilot="head", instance_type="c3.2xlarge",
            cost_usd=0.5,
        ),
        span(
            "vm.lifetime", "cloud", 20.0, 90.0, 5, thread="vm-2",
            vm_id="vm-2", pilot="workers", instance_type="c3.2xlarge",
            cost_usd=0.34,
        ),
        span(
            "stage:pre", "stage", 0.0, 20.0, 6, stage="pre-processing"
        ),
        span(
            "stage:assembly", "stage", 20.0, 90.0, 7,
            stage="transcript-assembly",
        ),
        span(
            "stage:quant", "stage", 90.0, 100.0, 8, stage="quantification"
        ),
        span(
            "exec:ray_k25", "unit", 20.0, 60.0, 9, thread="u0",
            stage="transcript-assembly", unit="ray_k25",
            assembler="ray", k=25, nodes=2,
        ),
        span(
            "exec:ray_k31", "unit", 20.0, 50.0, 10, thread="u1",
            stage="transcript-assembly", unit="ray_k31",
            assembler="ray", k=31, nodes=1,
        ),
        event(
            "assembly_cache.lookup", "cache", 20.0,
            assembler="ray", k=25, outcome="miss",
        ),
        event(
            "assembly_cache.lookup", "cache", 20.0,
            assembler="ray", k=31, outcome="hit",
        ),
    ]


class TestPartition:
    def test_buckets_tile_each_vm_uptime(self):
        attr = attribute_costs(make_run_trace())
        for vm in attr.vms:
            assert sum(vm.seconds.values()) == pytest.approx(vm.uptime_s)

    def test_vm1_bucket_seconds(self):
        attr = attribute_costs(make_run_trace())
        vm1 = next(v for v in attr.vms if v.vm_id == "vm-1")
        assert vm1.seconds == {
            PROVISION: pytest.approx(10.0),
            SETUP: pytest.approx(10.0),
            "transcript-assembly": pytest.approx(70.0),
            "quantification": pytest.approx(10.0),
        }

    def test_provision_window_only_applies_to_its_own_vm(self):
        attr = attribute_costs(make_run_trace())
        vm2 = next(v for v in attr.vms if v.vm_id == "vm-2")
        assert PROVISION not in vm2.seconds
        assert vm2.seconds == {"transcript-assembly": pytest.approx(70.0)}

    def test_uncovered_time_is_idle(self):
        records = [
            span("pipeline", "pipeline", 0.0, 100.0, 1, total_cost_usd=0.1),
            span(
                "vm.lifetime", "cloud", 0.0, 100.0, 2, thread="vm-1",
                vm_id="vm-1", pilot="head", instance_type="c3.2xlarge",
                cost_usd=0.1,
            ),
            span("stage:pre", "stage", 0.0, 30.0, 3, stage="pre-processing"),
        ]
        attr = attribute_costs(records)
        assert attr.vms[0].seconds[IDLE] == pytest.approx(70.0)


class TestDollars:
    def test_per_vm_dollars_sum_back_to_cost(self):
        attr = attribute_costs(make_run_trace())
        for vm in attr.vms:
            assert sum(vm.dollars().values()) == pytest.approx(
                vm.cost_usd, abs=1e-12
            )

    def test_bucket_total_equals_billing_total(self):
        attr = attribute_costs(make_run_trace())
        assert attr.total_usd == pytest.approx(0.84)
        assert sum(attr.by_bucket.values()) == pytest.approx(
            attr.total_usd, abs=1e-12
        )
        assert attr.billed_usd == pytest.approx(0.84)

    def test_by_pilot(self):
        attr = attribute_costs(make_run_trace())
        assert attr.by_pilot == {
            "head": pytest.approx(0.5), "workers": pytest.approx(0.34)
        }

    def test_no_billing_spans_raises(self):
        with pytest.raises(ValueError):
            attribute_costs(
                [span("pipeline", "pipeline", 0.0, 1.0, 1)]
            )


class TestAssemblySubdivision:
    def test_jobs_split_by_node_seconds(self):
        attr = attribute_costs(make_run_trace())
        jobs = {(j.assembler, j.k): j for j in attr.assembly_jobs}
        k25, k31 = jobs[("ray", 25)], jobs[("ray", 31)]
        assert k25.node_seconds == pytest.approx(80.0)  # 40 s x 2 nodes
        assert k31.node_seconds == pytest.approx(30.0)
        assembly_usd = attr.by_bucket["transcript-assembly"]
        assert k25.cost_usd == pytest.approx(assembly_usd * 80 / 110)
        assert k25.cost_usd + k31.cost_usd == pytest.approx(assembly_usd)

    def test_cache_provenance(self):
        attr = attribute_costs(make_run_trace())
        jobs = {(j.assembler, j.k): j.cache for j in attr.assembly_jobs}
        assert jobs == {("ray", 25): "miss", ("ray", 31): "hit"}

    def test_format_renders_all_sections(self):
        text = format_attribution(attribute_costs(make_run_trace()).as_dict())
        assert "cost attribution" in text
        assert "transcript-assembly" in text
        assert "ray_k25" in text and "miss" in text
        assert "vm-2   workers" in text


class TestPlannerGate:
    def test_accurate_prediction_passes(self):
        structural, gates = planner_violations(make_run_trace())
        assert structural == []
        assert all(g.ok for g in gates)
        ttc = next(g for g in gates if g.name == "ttc_s")
        # critical path total is the exact 100 s run; predicted 95.
        assert ttc.actual == pytest.approx(100.0)
        assert ttc.rel_err == pytest.approx(100.0 / 95.0 - 1.0)

    def test_blown_tolerance_flagged(self):
        structural, gates = planner_violations(
            make_run_trace(planner_ttc=50.0), ttc_rel=0.10
        )
        assert structural == []
        ttc = next(g for g in gates if g.name == "ttc_s")
        assert not ttc.ok

    def test_missing_prediction_is_structural(self):
        records = make_run_trace()
        del records[0]["attrs"]["planner_ttc_s"]
        structural, gates = planner_violations(records)
        assert structural and gates == []


def write_trace(tmp_path, records):
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


class TestCli:
    def test_ok_run_exits_zero(self, tmp_path, capsys):
        trace = write_trace(tmp_path, make_run_trace())
        assert main(["attribution", trace, "--planner-gate"]) == 0
        out = capsys.readouterr().out
        assert "planner prediction gate" in out

    def test_no_billing_spans_exits_two(self, tmp_path, capsys):
        trace = write_trace(
            tmp_path, [span("pipeline", "pipeline", 0.0, 1.0, 1)]
        )
        assert main(["attribution", trace]) == 2
        assert "vm.lifetime" in capsys.readouterr().err

    def test_blown_gate_exits_one(self, tmp_path):
        trace = write_trace(tmp_path, make_run_trace(planner_ttc=50.0))
        assert main(["attribution", trace, "--planner-gate"]) == 1
        # loosening the tolerance clears it
        assert main(
            ["attribution", trace, "--planner-gate", "--ttc-rel", "2.0"]
        ) == 0

    def test_json_payload(self, tmp_path, capsys):
        trace = write_trace(tmp_path, make_run_trace())
        assert main(["attribution", trace, "--json", "--planner-gate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_usd"] == pytest.approx(0.84)
        assert {v["vm_id"] for v in payload["vms"]} == {"vm-1", "vm-2"}
        assert all(g["ok"] for g in payload["planner_gate"]["gates"])

    def test_module_is_runnable(self):
        # ``python -m repro.obs attribution`` is the one way in: the module
        # itself has no entry point to run and check nothing.
        import repro.obs.attribution as mod

        assert callable(main) and not hasattr(mod, "main")
