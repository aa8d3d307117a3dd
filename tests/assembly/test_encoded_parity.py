"""Parity of the numpy detonate k-mer path against the historical
set-based computation."""

import numpy as np

from repro.assembly import packed as packedmod
from repro.assembly.base import AssemblyParams
from repro.assembly.contigs import Contig
from repro.assembly.kmers import canonical_kmers_varlen_packed
from repro.assembly.registry import get_assembler
from repro.evaluation.detonate import KMER_METRIC_K, evaluate
from repro.seq.alphabet import decode, encode, random_dna
from repro.seq.readstore import ReadStore
from repro.seq.transcriptome import Transcript, Transcriptome


def test_some_assembler_produces_contigs(reads_single):
    """The smallest end-to-end assembly in the suite: 800 reads at k=21
    still yield contigs."""
    store = ReadStore.from_reads(reads_single[:800])
    assert get_assembler("velvet").assemble(store, AssemblyParams(k=21)).contigs


class TestDetonateKmerParity:
    def _refs(self, n=4, length=300, seed=7):
        rng = np.random.default_rng(seed)
        return [decode(random_dna(length, rng)) for _ in range(n)]

    def test_unique_keys_and_membership_match_sets(self):
        refs = self._refs()
        k = KMER_METRIC_K
        rows_a = canonical_kmers_varlen_packed(refs[:2], k)
        rows_b = canonical_kmers_varlen_packed(refs[1:], k)
        set_a = set(packedmod.key_list(rows_a, k))
        uniq_a = packedmod.unique_keys(rows_a, k)
        assert sorted(set_a) == packedmod.keys(uniq_a, k).tolist()
        probe = packedmod.unique_keys(rows_b, k)
        got = packedmod.keys_in(probe, uniq_a)
        want = np.array(
            [key in set_a for key in packedmod.key_list(probe, k)]
        )
        np.testing.assert_array_equal(got, want)
        assert got.any() and not got.all()  # overlap is partial

    def test_keys_in_empty_haystack(self):
        k = KMER_METRIC_K
        probe = packedmod.unique_keys(
            canonical_kmers_varlen_packed(self._refs(1), k), k
        )
        empty = np.empty(0, dtype=probe.dtype)
        assert not packedmod.keys_in(probe, empty).any()

    def test_scores_match_set_based_reference(self):
        """Pin evaluate()'s WKR/kc against an independent set-based
        recomputation (the pre-numpy algorithm)."""
        refs = self._refs()
        weights = [0.4, 0.3, 0.2, 0.1]
        reference = Transcriptome(
            "ref",
            [
                Transcript(f"t{i}", encode(s), w)
                for i, (s, w) in enumerate(zip(refs, weights))
            ],
        )
        contigs = [
            Contig("c0", refs[0], 10.0, 31, "test"),
            Contig("c1", refs[2][:150], 10.0, 31, "test"),
        ]
        scores = evaluate(contigs, reference, total_read_kmers=100_000)

        k = KMER_METRIC_K
        asm = set(
            packedmod.key_list(
                canonical_kmers_varlen_packed([c.seq for c in contigs], k), k
            )
        )
        num = den = 0.0
        for t, w in zip(reference.transcripts, weights):
            tk = set(
                packedmod.key_list(
                    canonical_kmers_varlen_packed([t.seq], k), k
                )
            )
            if not tk:
                continue
            num += w * len(tk & asm) / len(tk)
            den += w
        wkr = num / den
        kc = wkr - len(asm) / (2.0 * 100_000)
        assert scores.weighted_kmer_recall == round(wkr, 4)
        assert scores.kc_score == round(kc, 4)
