"""Quantification parity: the batched packed-k-mer join vs dict voting.

``repro.core.quantify`` is one vectorised join with no reference path
left in ``src/``; the reference lives here.  ``oracle`` is the
dict-and-``Counter`` voter the stage used to be, written against the
documented contract (``ACGTN``-normalised on both strands, a window with
an ``N`` never votes), and every property below requires equal counts,
TPM, assignment totals and charged work.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly.contigs import Contig
from repro.core.assembly_cache import use_assembly_cache
from repro.core.quantify import quantify
from repro.core.rnnotator import PipelineConfig, RnnotatorPipeline
from repro.seq.alphabet import decode, encode, reverse_complement
from repro.seq.fastq import FastqRecord
from repro.seq.readstore import ReadStore


def oracle(reads, transcripts, k):
    """(counts, assigned, unassigned, work) by per-read dict voting."""
    norm = lambda s: decode(encode(s))  # noqa: E731 - ACGTN, upper case
    index = {}
    for tid, t in enumerate(transcripts):
        seq = norm(t.seq)
        for i in range(len(seq) - k + 1):
            index.setdefault(seq[i : i + k], []).append(tid)
    counts, assigned, work = [0] * len(transcripts), 0, 0
    for rec in reads:
        votes = Counter()
        for seq in (norm(rec.seq), reverse_complement(norm(rec.seq))):
            for i in range(0, len(seq) - k + 1, 4):
                work += 1
                if "N" not in seq[i : i + k]:
                    votes.update(index.get(seq[i : i + k], ()))
        if votes:
            top = max(votes.values())
            counts[min(t for t, n in votes.items() if n == top)] += 1
            assigned += 1
    return counts, assigned, len(reads) - assigned, work


def contigs(seqs):
    return [Contig(f"t{i}", s, 10.0, 31, "test") for i, s in enumerate(seqs)]


def records(seqs):
    return [FastqRecord(f"r{i}", s, "I" * len(s)) for i, s in enumerate(seqs)]


def assert_parity(read_seqs, transcript_seqs, k):
    reads, transcripts = records(read_seqs), contigs(transcript_seqs)
    counts, assigned, unassigned, work = oracle(reads, transcripts, k)
    res = quantify(reads, transcripts, k=k)
    assert res.counts.tolist() == counts
    assert res.counts.dtype == np.int64
    assert (res.assigned_reads, res.unassigned_reads) == (assigned, unassigned)
    (phase,) = res.usage.phases
    assert phase.total_compute == float(work)
    assert phase.critical_compute == work / 8
    rate = np.array(counts) / np.maximum(
        np.array([len(s) for s in transcript_seqs]) - k + 1, 1.0
    )
    want = rate / rate.sum() * 1e6 if rate.sum() > 0 else np.zeros_like(rate)
    assert res.tpm.tolist() == want.tolist()
    return res


@st.composite
def cases(draw):
    """Transcripts sharing sequence (tandem repeats, exact duplicates,
    one shorter than k) and reads cut from them: either strand, lengths
    from below k up, some lower-cased, some with an N."""
    k = draw(st.sampled_from([5, 9, 25, 33]))
    dna = st.text(alphabet="ACGT", min_size=k + 3, max_size=3 * k + 10)
    transcripts = draw(st.lists(dna, min_size=1, max_size=3))
    for kind in draw(
        st.lists(st.sampled_from(["tandem", "duplicate", "short"]), max_size=3)
    ):
        src = draw(st.sampled_from(transcripts))
        transcripts.append(
            {"tandem": src[: k + 2] * 2, "duplicate": src, "short": src[: k - 1]}[kind]
        )
    transcripts = list(draw(st.permutations(transcripts)))
    reads = []
    for _ in range(draw(st.integers(0, 10))):
        src = draw(st.sampled_from(transcripts + [draw(dna)]))
        n = draw(st.integers(k - 3, 2 * k + 7))
        a = draw(st.integers(0, max(len(src) - n, 0)))
        read = src[a : a + n]
        if draw(st.booleans()):
            read = reverse_complement(read)
        if draw(st.integers(0, 5)) == 0:
            i = draw(st.integers(0, len(read) - 1))
            read = read[:i] + "N" + read[i + 1 :]
        if draw(st.integers(0, 3)) == 0:
            read = read.lower()
        reads.append(read)
    return reads, transcripts, k


class TestOracleParity:
    @given(cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_voting(self, case):
        assert_parity(*case)

    def test_empty_read_list(self):
        res = assert_parity([], ["ACGTTGCAAGGCT"], 5)
        assert res.assignment_rate == 0.0

    def test_reads_and_transcripts_shorter_than_k(self):
        res = assert_parity(["ACG", "ACGTTGCAAGGCT"], ["ACGT", "GG"], 5)
        assert res.assigned_reads == 0 and res.unassigned_reads == 2

    def test_duplicate_transcripts_tie_goes_to_lowest_tid(self):
        t = "ACGTTGCAAGGCTTAACCGGATC"
        res = assert_parity([t[2:20]], ["GGGGGGGGGG", t, t], 7)
        assert res.counts.tolist() == [0, 1, 0]

    def test_kmer_repeated_in_one_transcript_votes_twice(self):
        # The read's one window occurs once in t0 and twice in t1 (a
        # tandem repeat): both index rows must vote, or the 1:1 tie
        # would go to t0.
        res = assert_parity(["AACCG"], ["TTAACCGTT", "AACCGAACCG"], 5)
        assert res.counts.tolist() == [0, 1]

    def test_read_with_n_votes_with_its_clean_windows_only(self):
        t = "ACGTTGCAAGGCTTAACCGGATC"
        res = assert_parity([t[:9] + "N" + t[10:]], [t], 5)
        assert res.assigned_reads == 1
        # ... and an N on the transcript side never matches a read's N
        res = assert_parity(["ACNGT"], ["ACNGT"], 5)
        assert res.assigned_reads == 0


class TestContract:
    T1 = "ACGTTGCAAGGCTTAACCGGATCTTGACCATGGTAACGTCAGTCCATGAAC"

    @pytest.mark.parametrize("strand", ["plus", "minus"])
    @pytest.mark.parametrize("case", ["upper", "lower"])
    def test_case_handling_is_strand_symmetric(self, strand, case):
        """A lower-case plus-strand read used to stay unassigned while
        its minus-strand twin was assigned."""
        read = self.T1[5:45]
        if strand == "minus":
            read = reverse_complement(read)
        if case == "lower":
            read = read.lower()
        res = quantify(records([read]), contigs([self.T1]))
        assert res.assigned_reads == 1

    def test_store_and_record_list_agree(self):
        reads = records([self.T1[:40], reverse_complement(self.T1[8:50]), "ACGT"])
        store = ReadStore.from_reads(reads)
        a = quantify(store, contigs([self.T1]))
        b = quantify(reads, contigs([self.T1]))
        assert a.counts.tolist() == b.counts.tolist() == [2]
        assert a.usage == b.usage
        store.share()
        store.close()
        with pytest.raises(ValueError, match="closed"):
            quantify(store, contigs([self.T1]))

    @pytest.mark.parametrize("k", [2, 64])
    def test_k_outside_packed_range_rejected(self, k):
        with pytest.raises(ValueError, match="packed k-mers"):
            quantify([], contigs([self.T1]), k=k)


def _quant_digest(result):
    q = result.quantification
    h = hashlib.sha256()
    h.update("\n".join(q.transcript_ids).encode())
    h.update(q.counts.tobytes())
    h.update(q.tpm.tobytes())
    return h.hexdigest(), q.assigned_reads, q.unassigned_reads, q.usage


def test_pipeline_counts_identical_on_serial_and_process_backends(ds_single):
    """The process backend quantifies out of the shared-memory segment;
    nothing else pins its counts (the benchmark fingerprint stops at the
    transcripts)."""
    digests = []
    for executor in ("serial", "process"):
        config = PipelineConfig(
            assemblers=("ray", "velvet"), kmer_list=(25, 31), executor=executor
        )
        with use_assembly_cache(None):
            result = RnnotatorPipeline().run(ds_single, config)
        assert result.quantification.assigned_reads > 0
        digests.append(_quant_digest(result))
    assert digests[0] == digests[1]
