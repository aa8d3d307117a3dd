"""The paper's tables as data, stated once: the tier-1 invariants assert
them and the benchmarks under ``benchmarks/`` render them."""

from repro.cloud.instances import get_instance_type
from repro.core.memory import fits_instance
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
