"""The paper's tables as data, stated once: the tier-1 invariants assert
them and the benchmarks under ``benchmarks/`` render them."""

from repro.cloud.instances import get_instance_type
from repro.core.memory import fits_instance
from repro.core.rnnotator import PipelineConfig, RnnotatorPipeline
from repro.core.workflow import WorkflowPattern
from repro.seq.datasets import B_GLUMAE, P_CRISPA

#: Table IV's ground truth: (task, dataset) -> (c3.2xlarge, r3.2xlarge),
#: O = supported, X = not.  P. crispa fails everything but
#: post-processing on the 16 GB c3; everything fits the 61 GB r3.
PAPER_TABLE4 = {
    ("Pre-Processing", "B_glumae"): ("O", "O"),
    ("Pre-Processing", "P_crispa"): ("X", "O"),
    ("Assembly (Ray)", "B_glumae"): ("O", "O"),
    ("Assembly (Ray)", "P_crispa"): ("X", "O"),
    ("Assembly (ABySS)", "B_glumae"): ("O", "O"),
    ("Assembly (ABySS)", "P_crispa"): ("X", "O"),
    ("Assembly (Contrail)", "B_glumae"): ("O", "O"),
    ("Assembly (Contrail)", "P_crispa"): ("X", "O"),
    ("Post-Processing", "B_glumae"): ("O", "O"),
    ("Post-Processing", "P_crispa"): ("O", "O"),
}

_TASK_KEY = {
    "Pre-Processing": "preprocess",
    "Assembly (Ray)": "assembly",
    "Assembly (ABySS)": "assembly",
    "Assembly (Contrail)": "assembly",
    "Post-Processing": "postprocess",
}


def reproduce_table4() -> dict[tuple[str, str], tuple[str, str]]:
    """Table IV's cells as the memory model decides them."""
    c3 = get_instance_type("c3.2xlarge").memory_bytes
    r3 = get_instance_type("r3.2xlarge").memory_bytes
    out = {}
    for task, ds_name in PAPER_TABLE4:
        spec = {"B_glumae": B_GLUMAE, "P_crispa": P_CRISPA}[ds_name]
        key = _TASK_KEY[task]
        out[(task, ds_name)] = (
            "O" if fits_instance(spec, key, c3) else "X",
            "O" if fits_instance(spec, key, r3) else "X",
        )
    return out


#: Fig. 2's three workflow patterns, as the knobs that tell them apart:
#: the conventional pattern holds every pilot on one fixed node, the
#: distributed static one fixes the instance type, and the distributed
#: dynamic one decides both at run time.
FIG2_PATTERNS = {
    "conventional": dict(
        workflow=WorkflowPattern.CONVENTIONAL,
        instance_type="c3.2xlarge",
        max_nodes=1,
    ),
    "static": dict(
        workflow=WorkflowPattern.DISTRIBUTED_STATIC, instance_type="c3.2xlarge"
    ),
    "dynamic": dict(workflow=WorkflowPattern.DISTRIBUTED_DYNAMIC),
}

#: Fig. 2's ground truth: each distributed pattern's total TTC and cost
#: against the conventional pattern's.  Spreading the k-mer jobs over
#: more nodes finishes sooner and bills more instance-hours; the
#: transcripts are the same under every pattern.
PAPER_FIG2 = {
    "static": ("TTC <=", "cost >="),
    "dynamic": ("TTC <=", "cost >="),
}


def run_fig2(dataset, cost_model=None, **knobs) -> dict:
    """One pipeline run per pattern, in ``FIG2_PATTERNS`` order; ``knobs``
    are the config every pattern shares."""
    return {
        name: RnnotatorPipeline(cost_model).run(
            dataset, PipelineConfig(**knobs, **pattern)
        )
        for name, pattern in FIG2_PATTERNS.items()
    }


def reproduce_fig2(runs: dict) -> dict[str, tuple[str, str]]:
    """``PAPER_FIG2``'s cells as the runs decide them."""
    conv = runs["conventional"]
    return {
        name: (
            "TTC <=" if r.total_ttc <= conv.total_ttc else "TTC >",
            "cost >=" if r.total_cost >= conv.total_cost else "cost <",
        )
        for name, r in runs.items()
        if name != "conventional"
    }
