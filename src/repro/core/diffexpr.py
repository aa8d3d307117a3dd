"""Differential gene expression (Rnnotator's optional last step).

Given per-transcript counts for two conditions, computes log2 fold
changes and an exact-test p-value per transcript.  The test is the
classic two-Poisson conditional binomial exact test (as in early
edgeR/DESeq practice): conditional on the total count of a transcript,
the condition-1 share is Binomial(n, p0) under the null, where p0
accounts for library-size differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: An outcome is "no likelier" than the observed one up to this relative
#: slack, so rounding cannot split the exact ties of a symmetric null
#: (1e-7 is the slack R's ``binom.test`` uses).
_TIE_TOLERANCE = 1 + 1e-7


def binomial_two_sided(successes, trials, p0: float) -> np.ndarray:
    """Exact two-sided binomial test, one p-value per ``(successes,
    trials)`` pair: the total probability, under Binomial(trials, p0), of
    every outcome no likelier than the observed one."""
    successes = np.asarray(successes, dtype=np.int64)
    trials = np.asarray(trials, dtype=np.int64)
    if not 0 < p0 < 1:
        raise ValueError("p0 must be in (0, 1)")
    if ((successes < 0) | (successes > trials)).any():
        raise ValueError("need 0 <= successes <= trials")
    top = int(trials.max(initial=0))
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, top + 1)))))
    log_p, log_q = np.log(p0), np.log1p(-p0)
    pvalues = np.empty(trials.shape[0])
    for i, (a, n) in enumerate(zip(successes.tolist(), trials.tolist())):
        x = np.arange(n + 1)
        pmf = np.exp(
            log_fact[n] - log_fact[: n + 1] - log_fact[n::-1]
            + x * log_p + (n - x) * log_q
        )
        pvalues[i] = min(1.0, pmf[pmf <= pmf[a] * _TIE_TOLERANCE].sum())
    return pvalues


@dataclass(frozen=True)
class DiffExprRow:
    transcript_id: str
    count_a: int
    count_b: int
    log2_fold_change: float
    p_value: float
    significant: bool


@dataclass
class DiffExprResult:
    rows: list[DiffExprRow]
    alpha: float

    @property
    def n_significant(self) -> int:
        return sum(r.significant for r in self.rows)

    def significant_rows(self) -> list[DiffExprRow]:
        return [r for r in self.rows if r.significant]


def differential_expression(
    transcript_ids: list[str],
    counts_a: np.ndarray,
    counts_b: np.ndarray,
    alpha: float = 0.05,
) -> DiffExprResult:
    """Exact-test DE between two conditions with BH correction."""
    counts_a = np.asarray(counts_a, dtype=np.int64)
    counts_b = np.asarray(counts_b, dtype=np.int64)
    if not (len(transcript_ids) == len(counts_a) == len(counts_b)):
        raise ValueError("ids and count vectors must align")
    if (counts_a < 0).any() or (counts_b < 0).any():
        raise ValueError("counts must be non-negative")
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")

    lib_a = max(int(counts_a.sum()), 1)
    lib_b = max(int(counts_b.sum()), 1)
    p0 = lib_a / (lib_a + lib_b)

    # pseudocount-normalized fold change
    lfc = np.log2(((counts_a + 0.5) / lib_a) / ((counts_b + 0.5) / lib_b))
    pvals = binomial_two_sided(counts_a, counts_a + counts_b, p0)

    # Benjamini-Hochberg.
    m = len(pvals)
    order = np.argsort(pvals)
    adjusted = np.empty(m)
    prev = 1.0
    for rank_idx in range(m - 1, -1, -1):
        i = order[rank_idx]
        val = min(prev, pvals[i] * m / (rank_idx + 1))
        adjusted[i] = val
        prev = val

    rows = [
        DiffExprRow(
            transcript_id=tid,
            count_a=int(a),
            count_b=int(b),
            log2_fold_change=float(l),
            p_value=float(p),
            significant=bool(q <= alpha),
        )
        for tid, a, b, l, p, q in zip(
            transcript_ids, counts_a, counts_b, lfc, pvals, adjusted
        )
    ]
    return DiffExprResult(rows=rows, alpha=alpha)
