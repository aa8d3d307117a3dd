"""Table I — de novo assemblers integrated for the RNA-seq pipeline.

Paper row set: Ray (DBG, MPI, 2.3.1), ABySS (DBG, MPI, 1.9.0),
Contrail (DBG, Hadoop MapReduce, 0.8.2).
"""

from repro.assembly.base import AssemblyParams
from repro.assembly.registry import ASSEMBLERS, TABLE1_ASSEMBLERS, get_assembler
from repro.bench.harness import format_table
from repro.seq.readstore import ReadStore


def render_table1() -> str:
    rows = [
        [
            info.name,
            info.graph_type,
            info.distributed_impl,
            info.analog_of_version,
        ]
        for name, info in ASSEMBLERS.items()
        if name in TABLE1_ASSEMBLERS
    ]
    return format_table(
        "Table I: integrated de novo assemblers",
        ["Name", "Type", "Distributed Impl.", "Analog of"],
        rows,
    )


def test_table1_assembler_inventory(benchmark, report_sink, reads_single):
    """The three Table I assemblers exist, are scalable, and assemble."""
    table = render_table1()
    report_sink.append(table)
    print("\n" + table)

    for name in TABLE1_ASSEMBLERS:
        info = ASSEMBLERS[name]
        assert info.graph_type == "DBG"
        assert info.scalable
    assert ASSEMBLERS["ray"].distributed_impl == "MPI"
    assert ASSEMBLERS["abyss"].distributed_impl == "MPI"
    assert ASSEMBLERS["contrail"].distributed_impl == "Hadoop MapReduce"

    # Time the cheapest integrated assembler on the shared fixture reads.
    params = AssemblyParams(k=31, min_contig_length=100)
    store = ReadStore.from_reads(reads_single)
    result = benchmark.pedantic(
        lambda: get_assembler("ray").assemble(store, params, n_ranks=8),
        rounds=1,
        iterations=1,
    )
    assert len(result.contigs) > 0
