"""Mutation gate: every committed mutant of ``src/`` must fail its tests.

A row is a deliberate bug: a file under ``src/``, an exact text that
occurs in it once, the text that replaces it, and the tests that must
catch it.  For each row the tool copies ``src/`` to a temporary
directory, applies the row to the copy (never to the working tree) and
runs only the row's tests, with ``-x``, against the copy.  A row whose
tests still pass is a *survivor*.  Rows run concurrently, one per CPU,
each in its own copy; what they print and the survivors stay in row order.

    python tools/mutants.py                        # every row
    python tools/mutants.py -k merge               # rows whose name contains "merge"
    python tools/mutants.py --group contrail       # contrail.py rows held to the reference
    python tools/mutants.py --group contrail-jobs  # contrail.py rows held to the argsort jobs
    python tools/mutants.py --group assembly       # other rows on src/repro/assembly/
    python tools/mutants.py --group core           # rows on src/repro/core/
    python tools/mutants.py --group other          # every other row

CI runs the five groups as five steps, each inside its own time budget.

First the union of the selected rows' tests runs once on an unmodified
copy: a row counts as killed only by tests that pass without it.
Hypothesis runs with a fixed seed, so a kill is reproducible.  Exit
status 1 names every survivor, every row whose old text is missing or
not unique, and every row whose tests did not run; 0 means every
selected row was killed.

The rule (ROADMAP item 11): a change that claims a mutation check adds
its row here; a change that deletes a test a row names re-points the row
or deletes it, saying why the behaviour is gone.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Row:
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids relative to the repository root


_MERGE = "repro/core/merge.py"
_QUANT = "repro/core/quantify.py"
_DBG = "repro/assembly/dbg.py"
_PACKED = "repro/assembly/packed.py"
_COUNT = "tests/assembly/test_packed.py::TestUniqueInverseCounts"
_CONTAINMENT = "tests/core/test_merge_containment.py"
_QUANT_ORACLE = "tests/core/test_quantify_parity.py::TestOracleParity"
_PINS = "tests/core/test_quantify_parity.py::test_stage_outputs_pinned_on_ds_single"
_WALK = "tests/assembly/test_unitig_walk.py"
_PARITY = "tests/assembly/test_parity.py::TestAssemblerParity"
_READS = "repro/seq/reads.py"
_READS_ORACLE = "tests/seq/test_reads_kernel.py"
_SHARING = "tests/assembly/test_graph_sharing.py"
_SWEEP = "repro/assembly/sweep.py"
_CONTRAIL = "repro/assembly/contrail.py"
_ARGSORT_JOBS = "tests/assembly/test_contrail.py::TestAgainstArgsortJobs"
_KMERS = "repro/assembly/kmers.py"
_ONE_WORD = "tests/assembly/test_sweep.py::TestOneWordExtraction"
_REGISTRY = "repro/assembly/registry.py"
_BASE = "repro/assembly/base.py"
_BRANCHES = "tests/assembly/test_branch_contracts.py"
_FIG4_UPPER = "tests/bench/test_fig4_upper.py::test_each_core_is_one_rank"
_ROUNDS = (
    "tests/assembly/test_contrail.py::TestAgainstReference"
    "::test_every_job_every_round_and_the_assembly[21-4]"
)
_PLANTED = (
    "tests/assembly/test_contrail.py::TestAgainstReference"
    "::test_generated_genomes_reach_every_branch"
)
_READSTORE = "repro/seq/readstore.py"
_CONTRACT = "tests/seq/test_readstore.py::TestFromReadsContract"
_CONFIG = "repro/core/rnnotator.py"
_FAILED_RUNS = "tests/core/test_failed_runs.py"
_EXHAUSTED = f"{_FAILED_RUNS}::TestExhaustedPreemptionBudget"
_FINGERPRINT = "tests/core/test_pipeline.py::TestConfigFingerprint"
_STAGE_CACHE = "tests/core/test_stage_cache.py"
_AGENT = "repro/pilot/agent.py"
_CALLERS = (
    "tests/core/test_spectrum_demand.py"
    "::test_the_configured_executor_sees_no_run_cache_hit"
)
_AGENT_CACHE = "tests/core/test_assembly_cache.py::TestWorkloadIntegration"
_EXPORT = "repro/obs/export.py"
_USAGE = "repro/parallel/usage.py"
_SCALED_REFERENCE = (
    "tests/parallel/test_usage.py::TestScaledAgainstReplace"
    "::test_fields_equal_the_replace_reference"
)
_OBS_PINS = "tests/obs/test_cli.py::test_output_matches_golden"
#: The agent asks the checkpoint store about a unit's key, then the run cache.
_CHECKPOINT_ASK = """        if self.checkpoint is not None and key is not None:
            stored = self.checkpoint.get_unit(key)
            replayed = stored is not None
            tracer.count("checkpoint_hits" if replayed else "checkpoint_misses")
            if replayed:
                work = _stored(work, stored)
"""
_CACHE_ASK = """        if self.cache is not None and key is not None and not replayed:
            cached = self.cache.get(key, **_extra_tags(unit))
            if cached is not None:
                work = _stored(work, WorkloadOutcome(cached, cached.usage))
                executor = SerialExecutor()
"""
_UNIT_ADVANCE = """        check_unit_transition(self.state, new)
        old = self.state
        self.state = new
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "unit.state",
                category="state",
                process=self.pilot_id or "unassigned",
                thread=self.unit_id,
                old=old.value,
                new=new.value,
                unit=self.description.name,
                stage=self.description.stage,
            )
"""

ROWS: tuple[Row, ...] = (
    # merge: the bitmask seed index (DESIGN §7)
    Row(
        "merge: a seed's mask overwritten instead of OR-ed",
        _MERGE,
        "seed_index[seed] = seed_index.get(seed, 0) | bit",
        "seed_index[seed] = bit",
        (f"{_CONTAINMENT}::test_seed_held_by_two_kept_contigs",),
    ),
    Row(
        "merge: candidate count taken as the number of kept contigs",
        _MERGE,
        "work += candidates.bit_count() + len(c)",
        "work += len(kept) + len(c)",
        (f"{_CONTAINMENT}::test_container_beyond_the_first_machine_word", _PINS),
    ),
    Row(
        "merge: a contig shorter than SEED_K takes no candidates",
        _MERGE,
        "candidates = (1 << len(kept)) - 1",
        "candidates = 0",
        (f"{_CONTAINMENT}::TestShortContigs",),
    ),
    # quantify: the index searched into the sorted read windows (DESIGN §7)
    Row(
        "quantify: right-hand search done with side='left'",
        _QUANT,
        'np.searchsorted(query, keys, side="right") - lo',
        'np.searchsorted(query, keys, side="left") - lo',
        (_PINS, _QUANT_ORACLE),
    ),
    Row(
        "quantify: N-window mask off by one base",
        _QUANT,
        ">= starts + k",
        ">= starts + k - 1",
        (_QUANT_ORACLE,),
    ),
    Row(
        "quantify: hit indices not mapped back through the query sort",
        _QUANT,
        "qrid[q_order[hit]]",
        "qrid[hit]",
        (_PINS, _QUANT_ORACLE),
    ),
    # unitig extraction as one array kernel (DESIGN §14)
    Row(
        "unitigs: hairpin cut dropped",
        _DBG,
        "linked = np.flatnonzero((ending == 1) & (starting == 1) & ~pal)",
        "linked = np.flatnonzero((ending == 1) & (starting == 1))",
        (f"{_WALK}::TestHostileTopologies::test_odd_k_hairpin",),
    ),
    Row(
        "unitigs: palindrome pass-through cut dropped",
        _DBG,
        "        key[:n][key[:n] == key[n:]] = 2 * size\n",
        "",
        (f"{_WALK}::TestHostileTopologies::test_every_kmer_palindromic",),
    ),
    Row(
        "unitigs: a junction's orientation flag inverted",
        _DBG,
        "key = 2 * junction + is_rc",
        "key = 2 * junction + ~is_rc",
        (f"{_WALK}::test_links_match_kmer_by_kmer_adjacency",),
    ),
    Row(
        "unitigs: a junction with two start k-mers allowed to link",
        _DBG,
        "(starting == 1)",
        "(starting >= 1)",
        (f"{_WALK}::test_links_match_kmer_by_kmer_adjacency",),
    ),
    Row(
        "unitigs: cycle rotation dropped",
        _DBG,
        "turn = np.where(ch.cyclic[c], ch.rank[seeds], 0)",
        "turn = np.zeros_like(c)",
        (f"{_WALK}::TestHostileTopologies::test_tandem_repeat_cycle_from_every_row",),
    ),
    Row(
        "unitigs: cached chains survive a row change",
        _DBG,
        "self._chains: UnitigChains | None = None",
        'self._chains = getattr(self, "_chains", None)',
        (f"{_WALK}::TestLinkCacheInvalidation::test_drop_below_rebuilds_links",),
    ),
    # per-k graph kernels on integer words (DESIGN §9, §14)
    Row(
        "kmers: the two byte tables swapped in the owner hash's pair table",
        "repro/assembly/kmers.py",
        "folded[2 * j][:, None] + folded[2 * j + 1][None, :]",
        "folded[2 * j + 1][:, None] + folded[2 * j][None, :]",
        ("tests/assembly/test_packed.py::TestPipelineParity::test_owner_parity_at_every_k",),
    ),
    Row(
        "packed: the presorted order check lets equal rows through",
        _PACKED,
        "ahead = a[:, -1] < b[:, -1]",
        "ahead = a[:, -1] <= b[:, -1]",
        ("tests/assembly/test_sweep.py::TestPresortedFastPath",),
    ),
    Row(
        "packed: the radix passes keep one index bit too few",
        _PACKED,
        "b = max(1, (n - 1).bit_length())",
        "b = max(1, (n - 1).bit_length() - 1)",
        (_COUNT,),
    ),
    Row(
        "packed: a radix digit boundary one bit off",
        _PACKED,
        "digit |= w0 << _U(64 - s)",
        "digit |= w0 << _U(65 - s)",
        (_COUNT,),
    ),
    Row(
        "packed: a radix digit one bit wider than its field",
        _PACKED,
        "for s in range(0, 128, 64 - b):",
        "for s in range(0, 128, 65 - b):",
        (_COUNT,),
    ),
    Row(
        "packed: a later radix pass does not compose the permutation",
        _PACKED,
        "order = step if order is None else order[step]",
        "order = step",
        (_COUNT,),
    ),
    # Ray and ABySS book their exchanges in closed form (DESIGN §5)
    Row(
        "ray: the alltoall charges the diagonal (on-rank) occurrences",
        "repro/assembly/ray.py",
        "int(matrix.sum() - matrix.trace()) * k",
        "int(matrix.sum()) * k",
        (f"{_PARITY}::test_ray",),
    ),
    Row(
        "abyss: the gather charges the root's own unitigs",
        "repro/assembly/abyss.py",
        "for shipped, _ in part.walks[1:]",
        "for shipped, _ in part.walks",
        (f"{_PARITY}::test_abyss",),
    ),
    Row(
        "abyss: the gather drops each rank's list header",
        "repro/assembly/abyss.py",
        "sum(u.codes.nbytes for u in shipped) + 16",
        "sum(u.codes.nbytes for u in shipped)",
        (f"{_PARITY}::test_abyss",),
    ),
    Row(
        "ray: the shared walk booking counts every probe as remote",
        "repro/assembly/ray.py",
        "int(steps * probes_per_step * (p - 1) / p)",
        "int(steps * probes_per_step)",
        (f"{_PARITY}::test_ray",),
    ),
    # one owner per assembler fact: the registry's call convention and
    # the shared finishing path (DESIGN §3)
    Row(
        "registry: n_ranks handed to every assembler",
        _REGISTRY,
        "    if info.scalable:\n",
        "    if True:\n",
        (_BRANCHES,),
    ),
    Row(
        "registry: n_ranks handed to no assembler",
        _REGISTRY,
        "    if info.scalable:\n",
        "    if False:\n",
        (_FIG4_UPPER,),
    ),
    Row(
        "registry: reads with N reach an assembler that rejects_n",
        _REGISTRY,
        "    if info.rejects_n and store.contains_n():\n",
        "    if False:\n",
        (
            "tests/assembly/test_assemblers.py::TestContrail"
            "::test_run_assembler_fails_on_n",
        ),
    ),
    Row(
        "finish: tips_removed dropped from the stats",
        _BASE,
        '            "tips_removed": cleanup.tips_removed,\n',
        "",
        (_BRANCHES,),
    ),
    Row(
        "one node: k-mer counting charged to one thread",
        _BASE,
        "critical_compute=n_kmer_stream / N_THREADS,",
        "critical_compute=float(n_kmer_stream),",
        (f"{_PARITY}::test_velvet",),
    ),
    # Contrail's rounds on junction ids and seed lists (DESIGN §15)
    Row(
        "contrail: the palindrome term dropped from the a + b join test",
        _CONTRAIL,
        "(tl == hr) & ((trcl == hrcr) | pal[tl])",
        "(tl == hr) & (trcl == hrcr)",
        (_PLANTED,),
    ),
    Row(
        "contrail: the far end's rc bit not inverted for joins 2 and 4",
        _CONTRAIL,
        "far_rc = (np.where(far_right, trcr, trcl) ^ flip)[joined]",
        "far_rc = np.where(far_right, trcr, trcl)[joined]",
        (_ROUNDS,),
    ),
    Row(
        "contrail: the merge job's case priority swapped (join 1 <-> join 3)",
        _CONTRAIL,
        "            after = ab | a_rcb\n"
        "            flip = np.where(after, ~ab, ~ba)\n",
        "            after = ~ba & (ab | a_rcb)\n"
        "            flip = np.where(after, a_rcb, ~ba)\n",
        (_PLANTED,),
    ),
    Row(
        "contrail: a flipped piece's seed flips not toggled",
        _CONTRAIL,
        "table.flips[source] ^ np.repeat(flip, piece_len)",
        "table.flips[source]",
        (_ROUNDS,),
    ),
    Row(
        "contrail: pair's dense rank replaced by the raw junction id",
        _CONTRAIL,
        "key=(np.cumsum(present) - 1)[ends],",
        "key=ends,",
        (_ROUNDS,),
    ),
    Row(
        "contrail: converged again means only that no merge fired",
        _CONTRAIL,
        "left = _compressible(table)[0].shape[0]",
        "left = 0 if not head.size else _compressible(table)[0].shape[0]",
        (
            "tests/assembly/test_contrail.py::TestConvergenceFlag"
            "::test_junctions_left_on_small_input_are_reported",
        ),
    ),
    Row(
        "contrail: the placement hash without its 2**64 = 8 fold",
        _CONTRAIL,
        "_mod_p61(h << np.uint64(3))",
        "h",
        ("tests/assembly/test_contrail.py::TestPlacementHash",),
    ),
    # Sort-less round kernels and the packed seed ends (DESIGN §15)
    Row(
        "contrail: an incidence paired with itself",
        _CONTRAIL,
        "a, b = two % n_seg, kept[ends[two]] % n_seg",
        "a, b = two % n_seg, two % n_seg",
        (_ARGSORT_JOBS,),
    ),
    Row(
        "contrail: one merge per tail keeps the largest head",
        _CONTRAIL,
        "        keep[:1] = True\n"
        "        np.not_equal(t[1:], t[:-1], out=keep[1:])\n",
        "        keep[-1:] = True\n"
        "        np.not_equal(t[:-1], t[1:], out=keep[:-1])\n",
        (_ARGSORT_JOBS,),
    ),
    Row(
        "contrail: the output order's key without is_key",
        _CONTRAIL,
        "* 2 + is_key[out]",
        "* 2",
        (_ARGSORT_JOBS,),
    ),
    Row(
        "contrail: a left piece's slot off by one, onto its head's bucket",
        _CONTRAIL,
        "slot[t] = np.where(after, depth, -depth)",
        "slot[t] = np.where(after, depth, 1 - depth)",
        (_ARGSORT_JOBS,),
    ),
    Row(
        "contrail: a seed's left-end mask one base off",
        _PACKED,
        "62 - 2 * ((k - 1) % 32)",
        "62 - 2 * ((k - 2) % 32)",
        ("tests/assembly/test_contrail.py::test_seed_ends_are_the_packed_words",),
    ),
    Row(
        "kmers: a one-word forward row left unmasked",
        _KMERS,
        "            fw &= np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(64 - 2 * k)\n"
        "            np.minimum(fw, packedmod.revcomp(fw, k)[:, 0], out=fw)\n",
        "            np.minimum(fw, packedmod.revcomp(fw, k)[:, 0], out=fw)\n",
        (_ONE_WORD,),
    ),
    Row(
        "kmers: word 1 of a two-word k read one base late",
        _KMERS,
        "np.take(fwd[k - 32 :], pos, out=fw, mode=\"clip\")",
        "np.take(fwd[k - 31 :], pos, out=fw, mode=\"clip\")",
        ("tests/assembly/test_sweep.py::TestFusedExtractionEdges",),
    ),
    Row(
        "kmers: an N run's last window start dropped",
        _KMERS,
        "n = run_end - run_start - (k - 1)",
        "n = run_end - run_start - k",
        (_ONE_WORD,),
    ),
    Row(
        "mapreduce: record_shuffle's first-group mask left false",
        "repro/parallel/mapreduce.py",
        "        first[:1] = True\n",
        "        first[:1] = False\n",
        ("tests/parallel/test_record_shuffle.py",),
    ),
    # reads encoded once, bases translated in C (DESIGN §7)
    Row(
        "encode: the translate table stops mapping lowercase bases",
        "repro/seq/alphabet.py",
        "_ENCODE_TABLE = _ENCODE_LUT.tobytes()",
        '_ENCODE_TABLE = _ENCODE_LUT.tobytes()[:97].ljust(256, b"\\x04")',
        (
            f"{_CONTRACT}::test_lowercase_is_a_base_and_other_ascii_is_n",
            "tests/seq/test_alphabet.py::TestEncodeDecode"
            "::test_every_byte_maps_as_the_lut",
        ),
    ),
    Row(
        "readstore: the length-mismatch check dropped",
        _READSTORE,
        "if quals.shape[0] != codes.shape[0] or quals[offsets[1:] - 1].any():",
        "if False:",
        (f"{_CONTRACT}::test_length_mismatch_names_the_read",),
    ),
    Row(
        "readstore: a non-ASCII id sized by its characters",
        _READSTORE,
        "if not id_text.isascii():",
        "if False:",
        (f"{_CONTRACT}::test_utf8_ids_round_trip",),
    ),
    # the stream-exact read simulator (DESIGN §7, draw-order contract)
    Row(
        "reads: reverse rows not read backwards",
        _READS,
        "codes[~forward] = alphabet.complement(codes[~forward, ::-1])",
        "codes[~forward] = alphabet.complement(codes[~forward])",
        (_READS_ORACLE,),
    ),
    Row(
        "reads: a short reverse fragment not reverse-complemented",
        _READS,
        "            if not forward[r]:\n",
        "            if False:\n",
        (f"{_READS_ORACLE}::test_read_through_into_adapter_and_junk",),
    ),
    Row(
        "reads: substitution shift off by one",
        _READS,
        "(called + shift) % 4",
        "(called + shift + 1) % 4",
        (_READS_ORACLE,),
    ),
    Row(
        "reads: N calls take the wrong quality",
        _READS,
        "qual[n_mask] = 2 + PHRED_OFFSET",
        "qual[n_mask] = 3 + PHRED_OFFSET",
        (_READS_ORACLE,),
    ),
    # the trace as the one lifecycle record
    Row(
        "pilot: unit.state emitted before the transition check",
        "repro/pilot/unit.py",
        _UNIT_ADVANCE,
        _UNIT_ADVANCE.replace("        check_unit_transition(self.state, new)\n", "")
        + "        check_unit_transition(old, new)\n",
        ("tests/pilot/test_transition_hooks.py::TestExhaustiveUnitPairs",),
    ),
    # graph once per k (DESIGN §9)
    Row(
        "graphs: a kept product is never read back",
        _SWEEP,
        "got = self._graphs.get(key)",
        "got = None",
        (
            f"{_SHARING}::TestReaderRule::test_a_forked_worker_reads_the_parents_products",
            f"{_SHARING}::TestReaderRule::test_a_process_pipeline_derives_once_per_k",
        ),
    ),
    Row(
        "graphs: the pre-fan-out derivation skipped",
        "repro/core/multikmer.py",
        "if len(readers) > 1:",
        "if False:",
        (
            f"{_SHARING}::TestReaderRule::test_products_are_gone_after_the_pipeline_fan_out",
            f"{_SHARING}::TestReaderRule::test_a_process_pipeline_derives_once_per_k",
        ),
    ),
    Row(
        "graphs: every reader derives the table, whatever its shared_product",
        "repro/core/multikmer.py",
        "product = ASSEMBLERS[job.assembler].shared_product",
        'product = "table"',
        (f"{_SHARING}::TestComputingReaders::test_a_cached_job_is_not_a_reader",),
    ),
    Row(
        "graphs: a fixed-k assembler handed the sweep k's spectrum",
        "repro/core/multikmer.py",
        "        return int(self.k) if fixed is None else fixed\n",
        "        return int(self.k)\n",
        (
            "tests/core/test_fused_pipeline.py::TestWorkloadSpectrumWiring"
            "::test_unit_descriptions_select_matching_spectrum",
        ),
    ),
    Row(
        "planner: a MapReduce job sized like an MPI job",
        "repro/core/planner.py",
        "    return mapreduce_nodes if mapreduce else mpi_nodes\n",
        "    return mpi_nodes\n",
        ("tests/core/test_planner_schemes.py::TestPlanner::test_sample_run_shape",),
    ),
    Row(
        "graphs: every planned job counted as a reader",
        "repro/core/multikmer.py",
        " and j.key in computing]",
        "]",
        (f"{_SHARING}::TestComputingReaders::test_one_computing_job_derives_nothing_ahead",),
    ),
    Row(
        "graphs: a product derived outside keeping() is kept",
        _SWEEP,
        "            if self._keeping:\n",
        "            if True:\n",
        (f"{_SHARING}::TestReaderRule::test_one_reader_keeps_nothing",),
    ),
    Row(
        "graphs: the partition's arrays left writeable",
        _SWEEP,
        "                arr.flags.writeable = False\n",
        "                pass\n",
        (f"{_SHARING}::TestReadOnly::test_mutating_a_shared_product_raises",),
    ),
    Row(
        "graphs: a frozen table does not say it is frozen",
        _DBG,
        "        self.frozen = True\n",
        "",
        (f"{_SHARING}::TestReadOnly::test_mutating_a_shared_product_raises",),
    ),
    Row(
        "graphs: close() keeps the products",
        _SWEEP,
        "        self._graphs.clear()\n",
        "",
        (f"{_SHARING}::TestReaderRule::test_close_releases_the_products",),
    ),
    # a run imports only what it executes (DESIGN §13)
    Row(
        "import: shared memory loaded with the module, not with a pool",
        "repro/seq/sharedarrays.py",
        "import weakref\n",
        "import weakref\nfrom multiprocessing import shared_memory\n",
        ("tests/test_public_api.py::test_a_serial_run_imports_only_what_it_executes",),
    ),
    Row(
        "import: workers forked before the parent loads the assemblers",
        "repro/core/multikmer.py",
        "            get_assembler(job.assembler)\n",
        "            pass\n",
        (
            "tests/test_public_api.py"
            "::test_a_process_run_loads_the_pool_and_the_assemblers_in_the_parent",
        ),
    ),
    # PipelineConfig refuses a run that would fail after QC, when built
    Row(
        "config: the k list kept as the caller spelled it",
        _CONFIG,
        '            object.__setattr__(self, "kmer_list", ks)\n',
        "",
        (f"{_FINGERPRINT}::test_one_run_has_one_fingerprint_however_it_is_spelled",),
    ),
    Row(
        "config: duplicate ks accepted",
        _CONFIG,
        "if len(set(ks)) < len(ks):",
        "if False:",
        (f"{_FINGERPRINT}::test_a_run_that_would_fail_after_qc_is_refused_when_built",),
    ),
    # a run and its stages are spans, closed with their outcomes
    Row(
        "run: fleet not released on failure",
        _CONFIG,
        "                    run.region.terminate_all()\n",
        '                    if "error" not in ended:\n'
        "                        run.region.terminate_all()\n",
        (f"{_EXHAUSTED}::test_fleet_released_and_billed",),
    ),
    Row(
        "run: the finally cancels no pilot",
        _CONFIG,
        "                            run.pm.cancel(pilot)\n",
        "                            pass\n",
        (f"{_EXHAUSTED}::test_no_pilot_left_active",),
    ),
    Row(
        "manager: the scheduling-failure branch skips the permanent-failure record",
        "repro/pilot/manager.py",
        "                _fail_permanently(pending if exc.unit is None else [exc.unit])\n",
        "",
        (f"{_FAILED_RUNS}::TestStaticWorkflowOOM::test_unit_recorded_as_failed_for_good",),
    ),
    Row(
        "manager: the other pending units fail instead of being canceled",
        "repro/pilot/manager.py",
        "if exc.unit is None or unit is exc.unit:",
        "if True:",
        (
            "tests/pilot/test_managers.py::TestUnitExecution"
            "::test_a_unit_that_fits_no_pilot_cancels_the_others",
        ),
    ),
    Row(
        "run: root closes without its outcome",
        _CONFIG,
        "root.set(**_root_attrs(run, tracer), **ended)",
        "root.set(**_root_attrs(run, tracer))",
        (f"{_EXHAUSTED}::test_root_closes_failed_with_the_error",),
    ),
    Row(
        "stage: a raising stage closes done",
        _CONFIG,
        'outcome="failed", error=str(exc)',
        'outcome="done"',
        (
            f"{_FAILED_RUNS}::TestStaticWorkflowOOM"
            "::test_trace_names_stage_unit_and_cause",
        ),
    ),
    Row(
        "stage: what a stage records moves to its pilot's track",
        _CONFIG,
        "        span.process = MAIN_TRACK",
        "        pass",
        (f"{_FAILED_RUNS}::test_every_span_opened_in_a_stage_hangs_under_it",),
    ),
    Row(
        "lifecycle: P_A finished only under S1",
        _CONFIG,
        "    run.pm.finish(run.pa)  # its data is handed over; under S1 its VM dies\n",
        "    if not config.scheme.reuses_vms:\n        run.pm.finish(run.pa)\n",
        ("tests/core/test_lifecycle_trace.py::test_every_pilot_ends_done",),
    ),
    # the run cache answers the single-unit stages by their content keys
    Row(
        "stage cache: the QC key without the QC parameters",
        _CONFIG,
        '"stage:preprocess", run.raw_store.digest, config.preprocess_params',
        '"stage:preprocess", run.raw_store.digest',
        (f"{_STAGE_CACHE}::TestKeySensitivity::test_other_qc_parameters_miss_every_stage",),
    ),
    Row(
        "stage cache: the quantify key without the reads it joins",
        _CONFIG,
        '("stage:quantify", store.digest, run.fanout_keys)',
        '("stage:quantify", run.fanout_keys)',
        (f"{_STAGE_CACHE}::test_the_keys_are_the_checkpoint_keys",),
    ),
    Row(
        "cache: a lookup returns the cached entry, not a copy",
        "repro/core/assembly_cache.py",
        "        return None if entry is None else _copy(entry)\n",
        "        return entry\n",
        (f"{_STAGE_CACHE}::test_mutating_a_result_leaves_the_next_rerun_unchanged",),
    ),
    Row(
        "checkpoint: a replayed assembly charged at the old run's scale",
        _AGENT,
        "return replace(outcome, usage=priced(outcome.result))",
        "return outcome",
        (
            "tests/core/test_checkpoint.py::TestKillAndResume"
            "::test_a_resume_at_another_scale_prices_like_a_fresh_run",
        ),
    ),
    # pricing a usage record: the constructor build and the 1.0 identity
    Row(
        "usage: the 1.0 identity taken at any factor",
        _USAGE,
        "        if factor == 1.0:\n",
        "        if factor > 0:\n",
        (_SCALED_REFERENCE,),
    ),
    Row(
        "usage: n_messages left unscaled",
        _USAGE,
        "            int(self.n_messages * factor),\n",
        "            self.n_messages,\n",
        (_SCALED_REFERENCE,),
    ),
    # one site answers a unit's content key: the pilot agent
    Row(
        "agent: the run cache asked before the checkpoint store",
        _AGENT,
        _CHECKPOINT_ASK + _CACHE_ASK,
        _CACHE_ASK.replace(" and not replayed", "")
        + _CHECKPOINT_ASK.replace(
            "key is not None:", "key is not None and executor is self.executor:"
        ),
        (_CALLERS,),
    ),
    Row(
        "agent: a run-cache hit priced with result.usage",
        _AGENT,
        "work = _stored(work, WorkloadOutcome(cached, cached.usage))",
        "work = WorkloadOutcome(cached, cached.usage)",
        (f"{_AGENT_CACHE}::test_second_call_hits_and_is_bit_identical",),
    ),
    Row(
        "agent: a stored outcome loses its worker trace",
        _AGENT,
        "self.checkpoint.put_unit(key, outcome)",
        "self.checkpoint.put_unit(key, replace(outcome, worker_trace=None))",
        (
            "tests/core/test_checkpoint.py::TestKillAndResume"
            "::test_a_resume_merges_the_stored_worker_traces",
        ),
    ),
    Row(
        "agent: a dead worker's failure read as the unit's own",
        _AGENT,
        "transient=isinstance(outcome.error, BrokenExecutor),",
        "transient=False,",
        (
            "tests/parallel/test_executor.py::TestProcessSpecifics"
            "::test_a_dead_worker_fails_its_unit_transiently_and_the_restart_runs",
        ),
    ),
    Row(
        "agent: collect puts nothing into the run cache",
        _AGENT,
        "            self.cache.put(key, outcome.result, **_extra_tags(unit))\n",
        "            pass\n",
        (f"{_AGENT_CACHE}::test_collect_populates_parent_cache",),
    ),
    Row(
        "agent: a run-cache hit sent to the configured executor",
        _AGENT,
        "                executor = SerialExecutor()\n",
        "                pass\n",
        (_CALLERS,),
    ),
    # one owner per decision in the simulated cloud and pilot layer
    Row(
        "sge: a busy node reads as idle",
        "repro/cloud/sge.py",
        "        return self.slots_free.get(node) == self.slots_total.get(node)\n",
        "        return True\n",
        (
            "tests/cloud/test_sge_cluster.py::TestCluster::test_shrink_busy_rejected",
            "tests/pilot/test_failure_exhaustion.py::TestElasticPool"
            "::test_shrink_idle_keeps_busy_workers",
        ),
    ),
    Row(
        "agent: the shared exec span drops preempted=True",
        _AGENT,
        "self._exec_span(unit, job, preempted=True)",
        "self._exec_span(unit, job)",
        (
            "tests/pilot/test_failure_exhaustion.py::TestTransientRestart"
            "::test_each_attempt_leaves_one_exec_span",
        ),
    ),
    Row(
        "ec2: the shared VM-end path skips the charge on a preemption",
        "repro/cloud/ec2.py",
        "        line = self.ledger.charge_vm(vm, self.clock.now)\n",
        "        line = self.ledger.charge_vm(vm, self.clock.now)\n"
        "        if preempted:\n"
        "            self.ledger.lines.pop()\n",
        (
            "tests/cloud/test_spot.py::TestRegionPreempt"
            "::test_preempt_bills_exactly_once",
        ),
    ),
    # obs: one text printer and one trace-line decoder
    Row(
        "obs table: a numeric column left-aligned",
        _EXPORT,
        "cell.rjust(width) if spec else cell.ljust(width)",
        "cell.ljust(width)",
        (_OBS_PINS,),
    ),
    Row(
        "obs table: the last row dropped",
        _EXPORT,
        "        for r in rows\n",
        "        for r in rows[:-1]\n",
        (_OBS_PINS,),
    ),
    # a failed run reads as failed, and its top-level spans are the same
    Row(
        "obs: a failed root read as done",
        "repro/obs/spans.py",
        'root["attrs"].get("outcome", "done")',
        '"done"',
        (f"{_EXHAUSTED}::test_root_closes_failed_with_the_error",),
    ),
    Row(
        "monitor: follow waits out a failed root",
        "repro/obs/monitor.py",
        "                if state.complete:\n",
        '                if state.outcome == "done":\n',
        (f"{_EXHAUSTED}::test_report_and_monitor_exit_1_and_follow_returns",),
    ),
    Row(
        "report: spans under the run or a stage left out of the categories",
        "repro/obs/report.py",
        'if s.get("parent") is None or s["parent"] in run:',
        'if s.get("parent") is None:',
        ("tests/obs/test_cli.py::test_output_matches_golden",),
    ),
    Row(
        "obs decoder: a line that is not a record accepted",
        _EXPORT,
        '    if not isinstance(record, dict) or "type" not in record:\n',
        "    if False:\n",
        ("tests/obs/test_export.py::TestJsonl",),
    ),
)


GROUPS = ("contrail", "contrail-jobs", "assembly", "core", "other")


def _group(row: Row) -> str:
    if row.file == _CONTRAIL:
        return "contrail-jobs" if _ARGSORT_JOBS in row.tests else "contrail"
    package = row.file.split("/")[1]
    return package if package in GROUPS else "other"


def _copy_src(dest: Path) -> Path:
    shutil.copytree(
        ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__")
    )
    return dest / "src"


def _env(src: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(src))


def _pytest(src: Path, tests) -> subprocess.CompletedProcess:
    """The tests, stopping at the first failure, against ``src``.  The
    working directory is the copy's, so Hypothesis keeps its example
    database there and the tree's stays as it was."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    cmd += ["--hypothesis-seed=0", *(str(ROOT / t) for t in tests)]
    return subprocess.run(
        cmd, cwd=src.parent, env=_env(src), capture_output=True, text=True
    )


def _tail(proc: subprocess.CompletedProcess, lines: int = 15) -> str:
    return "\n".join((proc.stdout + proc.stderr).splitlines()[-lines:])


def _run_row(row: Row, dest: Path) -> tuple[str, str | None]:
    """Apply ``row`` to a fresh copy of ``src/`` under ``dest`` and run
    its tests: the line to print and the failure to report, if any."""
    src = _copy_src(dest)
    path = src / row.file
    text = path.read_text()
    if text.count(row.old) != 1:
        return (
            f"MISSING   {row.name}",
            f"old text found {text.count(row.old)} times, not once: {row.name}",
        )
    path.write_text(text.replace(row.old, row.new))
    t0 = time.perf_counter()
    proc = _pytest(src, row.tests)
    took = time.perf_counter() - t0
    if proc.returncode == 1:  # tests ran and one failed
        return f"killed    {row.name}  ({took:.1f} s)", None
    if proc.returncode == 0:
        return f"SURVIVED  {row.name}  ({took:.1f} s)", f"survived: {row.name}"
    return (
        f"ERROR     {row.name}\n{_tail(proc)}",
        f"tests did not run (pytest exit {proc.returncode}): {row.name}",
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-k", default="", help="only rows whose name contains this")
    ap.add_argument(
        "--group",
        choices=GROUPS,
        help="only the rows on src/repro/assembly/contrail.py (those held to "
        "TestAgainstArgsortJobs are contrail-jobs), on the rest of "
        "src/repro/assembly/, on src/repro/core/, or only the others",
    )
    args = ap.parse_args(argv)
    rows = [r for r in ROWS if args.k in r.name and args.group in (None, _group(r))]
    if not rows:
        print(f"no row matches {args.k!r}", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        src = _copy_src(Path(tmp) / "clean")
        where = subprocess.run(
            [sys.executable, "-c", "import repro; print(repro.__file__)"],
            cwd=src.parent, env=_env(src), capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(str(src)):
            print(f"tests would import repro from {where!r}, not the copy", file=sys.stderr)
            return 1
        union = list(dict.fromkeys(t for r in rows for t in r.tests))
        clean = _pytest(src, union)
        if clean.returncode != 0:
            print("the rows' tests fail without any mutation:", file=sys.stderr)
            print(_tail(clean), file=sys.stderr)
            return 1

        failures: list[str] = []
        workers = min(os.cpu_count() or 1, len(rows))
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            dests = [Path(tmp) / f"row{i}" for i in range(len(rows))]
            for line, failure in pool.map(_run_row, rows, dests):
                print(line, flush=True)
                if failure:
                    failures.append(failure)
    if failures:
        print("\n" + "\n".join(failures), file=sys.stderr)
        return 1
    print(f"all {len(rows)} rows killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
