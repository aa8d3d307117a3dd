"""Dollar and node-second attribution from billing spans + intervals.

Joins the per-VM billing spans (``vm.lifetime``, stamped with ``vm_id``,
``pilot`` and ``cost_usd`` by :mod:`repro.cloud.ec2`) against the trace's
interval structure to answer the paper's economic question per run:
*where did the money go?*  Each VM's uptime is partitioned into buckets
— its own provisioning window, cluster setup, each pipeline stage, and
explicit idle remainder — and its dollars are split pro rata by time, so
bucket dollars sum back to the billing total.  The assembly stage is
further subdivided per ``(assembler, k)`` by exec-span node-seconds,
with cache hit/miss provenance from the ``assembly_cache.lookup``
events.

The same module hosts the planner gate: the pipeline span carries the
:func:`repro.core.planner.predict_run` prediction made *before* the
fan-out ran (``planner_ttc_s`` / ``planner_cost_usd``), and
:func:`planner_violations` checks it against the trace's actuals with
relative tolerances, in the style of :mod:`repro.obs.diff` — exit 2 for
structural problems (no prediction on the trace), exit 1 for a blown
tolerance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable

from .critpath import compute_critical_path
from .export import table
from .spans import RunState, fold, stage_name, v_duration

#: Bucket labels for non-stage VM time.
PROVISION = "provision"
SETUP = "cluster-setup"
IDLE = "idle"


@dataclass
class VMAttribution:
    """One VM's billed dollars split over time buckets."""

    vm_id: str
    pilot: str | None
    instance_type: str
    v_start: float
    v_end: float
    cost_usd: float
    preempted: bool = False
    #: bucket label -> seconds of this VM's uptime (partition: sums to
    #: ``uptime_s`` up to float error).
    seconds: dict[str, float] = field(default_factory=dict)

    @property
    def uptime_s(self) -> float:
        return self.v_end - self.v_start

    def dollars(self) -> dict[str, float]:
        """bucket -> USD, pro rata by time; sums back to ``cost_usd``
        within float round-off (the largest bucket absorbs the
        pro-rata residual)."""
        if not self.seconds or self.uptime_s <= 0:
            return {IDLE: self.cost_usd}
        out = {
            label: self.cost_usd * secs / self.uptime_s
            for label, secs in self.seconds.items()
        }
        largest = max(out, key=lambda k: out[k])
        out[largest] = self.cost_usd - sum(
            v for k, v in out.items() if k != largest
        )
        return out


@dataclass
class AssemblyJobCost:
    """One fan-out job's share of the assembly-stage spend."""

    assembler: str
    k: int | None
    nodes: int
    node_seconds: float
    cost_usd: float
    cache: str | None = None  # "hit" | "miss" | None (cache disabled)


@dataclass
class CostAttribution:
    """The full per-run cost table."""

    total_usd: float
    billed_usd: float  # from the pipeline span, for cross-checking
    vms: list[VMAttribution]
    by_bucket: dict[str, float]  # bucket -> USD across all VMs
    node_seconds_by_bucket: dict[str, float]
    assembly_jobs: list[AssemblyJobCost]
    by_pilot: dict[str, float]

    def rollup(self, ndigits: int | None = None) -> dict:
        """Total and per-bucket dollars and the VM count — the report's
        and the run ledger's ``cost`` block (the ledger rounds them)."""

        def r(v: float) -> float:
            return v if ndigits is None else round(v, ndigits)

        return {
            "total_usd": r(self.total_usd),
            "by_bucket_usd": {k: r(v) for k, v in self.by_bucket.items()},
            "n_vms": len(self.vms),
        }

    def as_dict(self) -> dict:
        return {
            "total_usd": self.total_usd,
            "billed_usd": self.billed_usd,
            "by_bucket_usd": {
                k: round(v, 6) for k, v in self.by_bucket.items()
            },
            "node_seconds_by_bucket": {
                k: round(v, 3)
                for k, v in self.node_seconds_by_bucket.items()
            },
            "by_pilot_usd": {
                k: round(v, 6) for k, v in self.by_pilot.items()
            },
            "vms": [
                {
                    "vm_id": vm.vm_id,
                    "pilot": vm.pilot,
                    "instance_type": vm.instance_type,
                    "uptime_s": round(vm.uptime_s, 3),
                    "cost_usd": vm.cost_usd,
                    "preempted": vm.preempted,
                    "buckets_usd": {
                        k: round(v, 6) for k, v in vm.dollars().items()
                    },
                }
                for vm in self.vms
            ],
            "assembly_jobs": [
                {**asdict(j), "node_seconds": round(j.node_seconds, 3),
                 "cost_usd": round(j.cost_usd, 6)}
                for j in self.assembly_jobs
            ],
        }


def _partition_vm(
    vm: VMAttribution,
    provision_ivals: list[tuple[float, float]],
    setup_ivals: list[tuple[float, float]],
    stage_ivals: list[tuple[float, float, str]],
) -> dict[str, float]:
    """Partition one VM's uptime into labelled buckets.

    Classification priority per instant: the VM's own provisioning
    window, then cluster setup, then whichever pipeline stage was
    running, else idle.  Implemented as a boundary sweep so the bucket
    seconds exactly tile the uptime interval.
    """
    cuts = {vm.v_start, vm.v_end}
    for iv in provision_ivals + setup_ivals:
        cuts.update(iv)
    for s0, s1, _ in stage_ivals:
        cuts.update((s0, s1))
    points = sorted(c for c in cuts if vm.v_start <= c <= vm.v_end)
    if points[0] != vm.v_start:
        points.insert(0, vm.v_start)
    if points[-1] != vm.v_end:
        points.append(vm.v_end)

    out: dict[str, float] = {}
    for p0, p1 in zip(points, points[1:]):
        if p1 <= p0:
            continue
        mid = (p0 + p1) / 2
        if any(i0 <= mid < i1 for i0, i1 in provision_ivals):
            label = PROVISION
        elif any(i0 <= mid < i1 for i0, i1 in setup_ivals):
            label = SETUP
        else:
            label = next(
                (nm for s0, s1, nm in stage_ivals if s0 <= mid < s1), IDLE
            )
        out[label] = out.get(label, 0.0) + (p1 - p0)
    return out


def attribute_costs(records: Iterable[dict] | RunState) -> CostAttribution:
    """Build the per-run cost table from a trace (its last run)."""
    state = fold(records)
    if not state.billing:
        raise ValueError("trace has no vm.lifetime billing spans")

    provisions = {}  # vm_id -> list of (v0, v1)
    for s in state.spans:
        if s["name"] == "vm.provision":
            for vid in s["attrs"].get("vm_ids", []):
                provisions.setdefault(vid, []).append((s["v0"], s["v1"]))
    setup_ivals = [
        (s["v0"], s["v1"])
        for s in state.spans
        if s["name"].startswith("cluster.setup")
    ]
    stage_ivals = [
        (s["v0"], s["v1"], stage_name(s)) for s in state.stages.values()
    ]

    vms: list[VMAttribution] = []
    for s in state.billing:
        a = s["attrs"]
        vm = VMAttribution(
            vm_id=a.get("vm_id", s["thread"]),
            pilot=a.get("pilot"),
            instance_type=a.get("instance_type", "?"),
            v_start=s["v0"],
            v_end=s["v1"],
            cost_usd=float(a.get("cost_usd", 0.0)),
            preempted=bool(a.get("preempted", False)),
        )
        vm.seconds = _partition_vm(
            vm, provisions.get(vm.vm_id, []), setup_ivals, stage_ivals
        )
        vms.append(vm)

    by_bucket: dict[str, float] = {}
    node_seconds: dict[str, float] = {}
    by_pilot: dict[str, float] = {}
    for vm in vms:
        for label, usd in vm.dollars().items():
            by_bucket[label] = by_bucket.get(label, 0.0) + usd
        for label, secs in vm.seconds.items():
            node_seconds[label] = node_seconds.get(label, 0.0) + secs
        key = vm.pilot or "?"
        by_pilot[key] = by_pilot.get(key, 0.0) + vm.cost_usd
    by_bucket = dict(sorted(by_bucket.items(), key=lambda kv: -kv[1]))

    # -- subdivide the assembly stage per (assembler, k) job ----------------
    cache_outcomes: dict[tuple, str] = {}
    for e in state.events:
        if e["name"] == "assembly_cache.lookup":
            a = e["attrs"]
            cache_outcomes[(a.get("assembler"), a.get("k"))] = a.get(
                "outcome"
            )
    assembly_usd = by_bucket.get("transcript-assembly", 0.0)
    jobs: list[AssemblyJobCost] = []
    total_ns = 0.0
    for s in state.execs.get("transcript-assembly", []):
        a = s["attrs"]
        ns = v_duration(s) * max(int(a.get("nodes", 1)), 1)
        total_ns += ns
        jobs.append(
            AssemblyJobCost(
                assembler=a.get("assembler", a.get("unit", s["name"])),
                k=a.get("k"),
                nodes=int(a.get("nodes", 1)),
                node_seconds=ns,
                cost_usd=0.0,
                cache=cache_outcomes.get((a.get("assembler"), a.get("k"))),
            )
        )
    for j in jobs:
        if total_ns > 0:
            j.cost_usd = assembly_usd * j.node_seconds / total_ns
    jobs.sort(key=lambda j: -j.node_seconds)

    root = state.pipeline
    billed = (
        float(root["attrs"].get("total_cost_usd", 0.0))
        if root is not None
        else 0.0
    )
    return CostAttribution(
        total_usd=state.billed_usd,
        billed_usd=billed,
        vms=vms,
        by_bucket=by_bucket,
        node_seconds_by_bucket=node_seconds,
        assembly_jobs=jobs,
        by_pilot=dict(sorted(by_pilot.items())),
    )


def format_attribution(data: dict) -> str:
    """The text of :meth:`CostAttribution.as_dict`, and of the planner
    gate when ``data`` carries one (``planner_gate``, a
    :func:`gate_payload`)."""
    total, seconds = data["total_usd"], data["node_seconds_by_bucket"]
    buckets = [
        {"bucket": label, "node-s": seconds.get(label, 0.0), "USD": usd,
         "share": usd / total if total else 0.0}
        for label, usd in data["by_bucket_usd"].items()
    ]
    jobs = [
        {**j, "job": j["assembler"] + ("" if j["k"] is None else f"_k{j['k']}")}
        for j in data["assembly_jobs"]
    ]
    sections = [
        "== cost attribution ==\n"
        f"billed total ${total:.2f} across {len(data['vms'])} VM(s)",
        table("", {"bucket": "", "node-s": ".1f", "USD": ".3f",
                   "share": ".1%"}, buckets),
        table("== per VM ==", {"vm_id": "", "pilot": "", "instance_type": "",
                               "uptime_s": ".1f", "cost_usd": ".2f",
                               "preempted": ""}, data["vms"]),
        table("== assembly fan-out ==", {"job": "", "nodes": "d",
                                         "node_seconds": ".1f",
                                         "cost_usd": ".4f", "cache": ""}, jobs),
    ]
    gate = data.get("planner_gate")
    if gate is not None:
        gates = [{**g, "verdict": "ok" if g["ok"] else "VIOLATION"}
                 for g in gate["gates"]]
        sections.append("\n".join(filter(None, [
            "== planner prediction gate ==",
            *(f"  STRUCTURAL: {s}" for s in gate["structural"]),
            table("", {"name": "", "predicted": ".3f", "actual": ".3f",
                       "rel_err": ".2%", "tolerance": ".0%", "verdict": ""},
                  gates),
        ])))
    return "\n\n".join(s for s in sections if s)


# ---------------------------------------------------------------------------
# Planner prediction gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateResult:
    """Predicted-vs-actual comparison for one quantity."""

    name: str
    predicted: float
    actual: float
    rel_err: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.rel_err <= self.tolerance


def planner_violations(
    records: Iterable[dict] | RunState,
    ttc_rel: float = 0.10,
    cost_rel: float = 0.25,
) -> tuple[list[str], list[GateResult]]:
    """Check the planner's pre-run prediction against trace actuals.

    Returns ``(structural, gates)``: structural problems mean the trace
    cannot be gated at all (no pipeline span, no prediction attrs); each
    :class:`GateResult` compares one quantity against its tolerance.
    The actual TTC comes from the critical path (which tiles the run
    exactly), the actual cost from the billing spans.
    """
    state = fold(records)
    if state.pipeline is None:
        return ["trace has no pipeline span"], []
    attrs = state.pipeline["attrs"]
    pred_ttc = attrs.get("planner_ttc_s")
    pred_cost = attrs.get("planner_cost_usd")
    if pred_ttc is None or pred_cost is None:
        return [
            "pipeline span carries no planner prediction "
            "(planner_ttc_s/planner_cost_usd)"
        ], []

    actual_ttc = compute_critical_path(state).total
    actual_cost = state.billed_usd

    gates = [
        GateResult(
            name="ttc_s",
            predicted=float(pred_ttc),
            actual=actual_ttc,
            rel_err=(
                abs(actual_ttc - pred_ttc) / pred_ttc if pred_ttc else 1.0
            ),
            tolerance=ttc_rel,
        ),
        GateResult(
            name="cost_usd",
            predicted=float(pred_cost),
            actual=actual_cost,
            rel_err=(
                abs(actual_cost - pred_cost) / pred_cost
                if pred_cost
                else (0.0 if not actual_cost else 1.0)
            ),
            tolerance=cost_rel,
        ),
    ]
    return [], gates


def gate_payload(structural: list[str], gates: list[GateResult]) -> dict:
    """The planner gate as data: ``attribution --planner-gate``'s JSON
    block, which its text also prints."""
    return {
        "structural": structural,
        "gates": [{**asdict(g), "ok": g.ok} for g in gates],
    }
