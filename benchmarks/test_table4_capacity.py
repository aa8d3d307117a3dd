"""Table IV — instance-type capacity matrix.

Paper: O/X support matrix over {pre-processing, transcript assembly with
Ray/ABySS/Contrail, post-processing} x {B. glumae, P. crispa} x
{c3.2xlarge, r3.2xlarge}.  P. crispa fails everything except
post-processing on the 16 GB c3.2xlarge; everything fits the 61 GB
r3.2xlarge; B. glumae fits both.
"""

from repro.bench.harness import format_table
from repro.seq.datasets import P_CRISPA
from tests.paper_tables import PAPER_TABLE4, reproduce_table4


def test_table4_capacity_matrix(benchmark, report_sink):
    ours = benchmark.pedantic(reproduce_table4, rounds=1, iterations=1)
    rows = [
        [task, ds, *cells, "/".join(PAPER_TABLE4[(task, ds)])]
        for (task, ds), cells in sorted(ours.items())
    ]
    table = format_table(
        "Table IV: instance capacity (O = supported, X = not supported)",
        ["Task", "Dataset", "c3.2xlarge", "r3.2xlarge", "paper c3/r3"],
        rows,
    )
    report_sink.append(table)
    print("\n" + table)

    # Every cell matches the paper.
    assert ours == PAPER_TABLE4


def test_table4_failure_is_oom_at_runtime(benchmark, ds_single):
    """The X cells are not just a static table: running the pipeline's
    pre-processing with a P. crispa-sized footprint on c3.2xlarge fails
    with an OOM through the pilot machinery (covered in depth by
    tests/core/test_pipeline.py::TestDynamicVsStatic)."""
    from repro.cloud.instances import get_instance_type
    from repro.core.memory import task_memory_bytes

    need = benchmark.pedantic(
        lambda: task_memory_bytes(P_CRISPA, "preprocess"),
        rounds=1, iterations=1,
    )
    assert need > get_instance_type("c3.2xlarge").memory_bytes
    assert need <= get_instance_type("r3.2xlarge").memory_bytes
