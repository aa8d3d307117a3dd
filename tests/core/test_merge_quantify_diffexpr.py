"""Tests for contig merging, quantification and differential expression."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats  # test oracle only; src/ never imports scipy

from repro.assembly.contigs import Contig
from repro.core.diffexpr import binomial_two_sided, differential_expression
from repro.core.merge import merge_contigs
from repro.core.quantify import quantify
from repro.seq.alphabet import decode, random_dna, reverse_complement
from repro.seq.fastq import FastqRecord


def contig(seq, cid="c", cov=10.0):
    return Contig(cid, seq, cov, 31, "test")


def random_seq(length, seed):
    return decode(random_dna(length, np.random.default_rng(seed)))


class TestMerge:
    def test_containment_removed(self):
        long = random_seq(400, 1)
        short = long[100:250]
        res = merge_contigs([[contig(long, "a"), contig(short, "b")]])
        assert res.output_contigs == 1
        assert res.contained_removed == 1
        assert res.transcripts[0].seq == long

    def test_revcomp_containment_removed(self):
        long = random_seq(400, 2)
        short = reverse_complement(long[100:250])
        res = merge_contigs([[contig(long, "a"), contig(short, "b")]])
        assert res.output_contigs == 1

    def test_overlap_joined(self):
        full = random_seq(500, 3)
        a, b = full[:300], full[260:]  # 40 bp exact overlap
        res = merge_contigs([[contig(a, "a"), contig(b, "b")]])
        assert res.joins == 1
        assert res.output_contigs == 1
        assert res.transcripts[0].seq == full

    def test_disjoint_contigs_kept(self):
        res = merge_contigs(
            [[contig(random_seq(300, 4), "a"), contig(random_seq(300, 5), "b")]]
        )
        assert res.output_contigs == 2
        assert res.joins == 0

    def test_multi_set_merge(self):
        full = random_seq(500, 6)
        set1 = [contig(full[:300], "k35")]
        set2 = [contig(full[260:], "k41"), contig(full[50:200], "k41b")]
        res = merge_contigs([set1, set2])
        assert res.input_contigs == 3
        assert res.output_contigs == 1
        assert res.transcripts[0].seq == full

    def test_empty(self):
        res = merge_contigs([])
        assert res.output_contigs == 0
        res2 = merge_contigs([[], []])
        assert res2.output_contigs == 0

    def test_min_overlap_validation(self):
        with pytest.raises(ValueError):
            merge_contigs([[]], min_overlap=10)

    def test_usage_is_serial(self):
        res = merge_contigs([[contig(random_seq(300, 7))]])
        assert res.usage.serial_compute > 0

    def test_output_sorted_longest_first(self):
        res = merge_contigs(
            [[contig(random_seq(200, 8), "s"), contig(random_seq(400, 9), "l")]]
        )
        lengths = [len(t) for t in res.transcripts]
        assert lengths == sorted(lengths, reverse=True)

    def test_merge_idempotent(self):
        """Merging the merge output changes nothing further."""
        full = random_seq(500, 10)
        first = merge_contigs(
            [[contig(full[:300], "a"), contig(full[260:], "b")]]
        )
        second = merge_contigs([first.transcripts])
        assert [t.seq for t in second.transcripts] == [
            t.seq for t in first.transcripts
        ]


class TestQuantify:
    def make_reads(self, seq, n, rid_prefix, L=50):
        rng = np.random.default_rng(42)
        out = []
        for i in range(n):
            start = int(rng.integers(0, len(seq) - L + 1))
            out.append(
                FastqRecord(f"{rid_prefix}{i}", seq[start : start + L], "I" * L)
            )
        return out

    def test_counts_proportional_to_reads(self):
        t1, t2 = random_seq(500, 11), random_seq(500, 12)
        reads = self.make_reads(t1, 90, "a") + self.make_reads(t2, 10, "b")
        res = quantify(reads, [contig(t1, "t1"), contig(t2, "t2")])
        assert res.assignment_rate > 0.95
        assert res.counts[0] > 5 * res.counts[1]

    def test_tpm_normalized(self):
        t1, t2 = random_seq(500, 13), random_seq(500, 14)
        reads = self.make_reads(t1, 50, "a") + self.make_reads(t2, 50, "b")
        res = quantify(reads, [contig(t1, "t1"), contig(t2, "t2")])
        assert res.tpm.sum() == pytest.approx(1e6)

    def test_reverse_strand_reads_assigned(self):
        t1 = random_seq(500, 15)
        reads = [
            FastqRecord("r", reverse_complement(t1[100:150]), "I" * 50)
        ]
        res = quantify(reads, [contig(t1, "t1")])
        assert res.assigned_reads == 1

    def test_unrelated_reads_unassigned(self):
        t1 = random_seq(500, 16)
        junk = self.make_reads(random_seq(500, 17), 10, "j")
        res = quantify(junk, [contig(t1, "t1")])
        assert res.unassigned_reads == 10

    def test_no_transcripts_rejected(self):
        with pytest.raises(ValueError):
            quantify([], [])

    def test_table(self):
        t1 = random_seq(300, 18)
        res = quantify(self.make_reads(t1, 5, "a"), [contig(t1, "t1")])
        table = res.as_table()
        assert table[0][0] == "t1"
        assert table[0][1] == 5


def _poisson_pair(seed, mean, n, first=None):
    rng = np.random.default_rng(seed)
    a, b = rng.poisson(mean, n), rng.poisson(mean, n)
    if first is not None:
        a[0], b[0] = first
    return a, b


#: The count vectors TestDiffExpr runs on; TestBinomialOracle replays
#: every one of them through SciPy.
DE_CASES = {
    "obvious_de": _poisson_pair(0, 100, 50, first=(1000, 50)),
    "null": _poisson_pair(1, 50, 100),
    "library_size": (np.full(60, 200), np.full(60, 100)),
    "zero_counts": (np.array([0]), np.array([0])),
    "one_up": (np.array([1000] + [100] * 20), np.array([10] + [100] * 20)),
}


def run_de(case, **kwargs):
    a, b = DE_CASES[case]
    return differential_expression([f"t{i}" for i in range(len(a))], a, b, **kwargs)


class TestDiffExpr:
    def test_obvious_de_detected(self):
        row = run_de("obvious_de").rows[0]  # the strongly DE transcript
        assert row.significant
        assert row.log2_fold_change > 2

    def test_null_mostly_insignificant(self):
        assert run_de("null").n_significant <= 5  # BH at alpha=0.05 under the null

    def test_library_size_correction(self):
        """2x library depth alone must not look like DE."""
        res = run_de("library_size")
        assert res.n_significant == 0
        assert all(abs(r.log2_fold_change) < 0.1 for r in res.rows)

    def test_zero_counts_handled(self):
        res = run_de("zero_counts")
        assert res.rows[0].p_value == 1.0
        assert not res.rows[0].significant

    def test_validation(self):
        with pytest.raises(ValueError):
            differential_expression(["a"], np.array([1, 2]), np.array([1]))
        with pytest.raises(ValueError):
            differential_expression(["a"], np.array([-1]), np.array([1]))
        with pytest.raises(ValueError):
            differential_expression(["a"], np.array([1]), np.array([1]), alpha=2)

    def test_significant_rows_accessor(self):
        # Many flat transcripts keep library sizes comparable so the DE
        # transcript stands out after normalization.
        sig = run_de("one_up").significant_rows()
        assert sig and sig[0].transcript_id == "t0"


def scipy_de(a, b, alpha):
    """The scipy-based p-values and BH flags diffexpr computed before it
    carried its own binomial test."""
    p0 = max(int(a.sum()), 1) / (max(int(a.sum()), 1) + max(int(b.sum()), 1))
    pvals = np.array([
        stats.binomtest(int(x), int(x + y), p0).pvalue if x + y else 1.0
        for x, y in zip(a, b)
    ])
    order = np.argsort(pvals)
    adjusted = np.minimum.accumulate((pvals[order] * len(a) / np.arange(1, len(a) + 1))[::-1])[::-1]
    flags = np.empty(len(a), dtype=bool)
    flags[order] = np.minimum(adjusted, 1.0) <= alpha
    return pvals, flags


class TestBinomialOracle:
    """``binomial_two_sided`` is an in-house replacement for
    ``scipy.stats.binomtest(...).pvalue``; scipy stays as the oracle."""

    #: Below this scipy's own tail sum degrades (it reads 1.30e-286 where
    #: exact rational arithmetic and this module read 2.21e-286 for
    #: 1056/1056 at p0 = 0.5361...), so agreement is not required there.
    ORACLE_FLOOR = 1e-250

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 5000),
        where=st.sampled_from(["zero", "all", "any", "mean"]),
        frac=st.floats(0, 1),
        p0=st.one_of(st.just(0.5), st.floats(0.01, 0.99)),
    )
    def test_matches_scipy(self, n, where, frac, p0):
        a = {"zero": 0, "all": n, "any": round(frac * n), "mean": round(p0 * n)}[where]
        want = stats.binomtest(a, n, p0).pvalue if n else 1.0
        got = binomial_two_sided([a], [n], p0)[0]
        if want > self.ORACLE_FLOOR:
            assert got == pytest.approx(want, rel=1e-9, abs=0)
        else:
            assert got < 10 * self.ORACLE_FLOOR

    @pytest.mark.parametrize(
        "a, n, p0", [(1056, 1056, 0.5361352976537075), (300, 400, 0.3),
                     (0, 700, 0.5), (7, 20, 0.5), (13, 20, 0.5), (3, 9, 0.25)],
    )
    def test_matches_exact_rational_arithmetic(self, a, n, p0):
        p = Fraction(p0)
        pmf = [comb(n, x) * p**x * (1 - p) ** (n - x) for x in range(n + 1)]
        exact = float(sum(v for v in pmf if v <= pmf[a] * (1 + Fraction(1, 10**7))))
        assert binomial_two_sided([a], [n], p0)[0] == pytest.approx(exact, rel=1e-10)

    def test_symmetric_ties_are_both_counted(self):
        # 7/20 and 13/20 are equally likely at p0 = 0.5: same p-value.
        p = binomial_two_sided([7, 13, 10], [20, 20, 20], 0.5)
        assert p[0] == p[1] < 1.0 and p[2] == pytest.approx(1.0, rel=1e-12)

    def test_rejects_impossible_input(self):
        with pytest.raises(ValueError):
            binomial_two_sided([1], [2], 0.0)
        with pytest.raises(ValueError):
            binomial_two_sided([3], [2], 0.5)
        with pytest.raises(ValueError):
            binomial_two_sided([-1], [2], 0.5)

    @pytest.mark.parametrize("case", sorted(DE_CASES))
    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_de_cases_keep_their_pvalues_and_flags(self, case, alpha):
        a, b = DE_CASES[case]
        pvals, flags = scipy_de(a, b, alpha)
        rows = run_de(case, alpha=alpha).rows
        assert [r.significant for r in rows] == flags.tolist()
        assert [r.p_value for r in rows] == pytest.approx(pvals.tolist(), rel=1e-9, abs=0)
