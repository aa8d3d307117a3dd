"""Graph cleanup: tip clipping and bubble popping on the unitig set.

Error k-mers that survive the coverage threshold show up as short,
low-coverage *tips* (dead-end unitigs hanging off a real path) or as
*bubbles* (two parallel unitigs between the same junctions, one per
allele of a sequencing error).  Both are removed on the condensed unitig
graph — junction (k-1)-mers are nodes, unitigs are edges — as Velvet and
ABySS do.

The graph is never built as objects.  It is a *junction table*: every
unitig's two ends are packed and canonicalised once per call
(:mod:`repro.assembly.packed`) and numbered by one integer unique, so a
unitig is a row ``(left id, right id, length, coverage)`` and degrees,
tip candidates and bubble groups are array expressions over those rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.assembly import packed
from repro.assembly.dbg import Unitig


@dataclass
class CleanupStats:
    tips_removed: int = 0
    bubbles_popped: int = 0
    work: int = 0  # graph operations performed (for usage accounting)


def _junction_ends(
    unitigs: list[Unitig], lengths: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(ends, degree)``: the ``(n, 2)`` junction ids, dense from 0, of
    each unitig's left and right end, and per junction id the number of
    unitig ends on it (a self-loop counts 2, as a multigraph degree does).

    Unitig codes never contain N (N windows are dropped before the graph
    is built), so the ACGT codec applies; a junction is a (k-1)-mer,
    which the codec's field layout holds down to the 2 bases of k = 3.
    """
    j = k - 1
    starts = np.empty((len(unitigs), 2), dtype=np.int64)
    starts[:, 0] = np.cumsum(lengths) - lengths
    starts[:, 1] = starts[:, 0] + lengths - j
    codes = np.concatenate([u.codes for u in unitigs])
    windows = codes[starts.reshape(-1, 1) + np.arange(j)]
    rows = packed.canonicalize(packed.pack(windows), j)
    _, ids, degree = packed.unique_inverse_counts(rows, j)
    return ids.reshape(-1, 2), degree


def _tips(
    ends: np.ndarray,
    per_junction: np.ndarray,
    lengths: np.ndarray,
    coverage: np.ndarray,
    max_tip_length: int,
    coverage_ratio: float,
) -> list[int]:
    """Indices of the short dead-end unitigs whose coverage is below
    ``coverage_ratio`` times the median coverage of their neighbours."""
    degree = per_junction[ends]
    hangs = degree[:, 1] > 1  # which end is the junction, for candidates
    cand = np.flatnonzero(
        (lengths < max_tip_length) & ((degree[:, 0] > 1) != hangs)
    )
    junction = ends[cand, hangs[cand].astype(np.int64)]
    # junction id -> the unitigs touching it (a self-loop appears twice).
    members = (np.argsort(ends.ravel()) // 2).tolist()
    bounds = np.concatenate(([0], np.cumsum(per_junction))).tolist()

    # A tip already doomed leaves its neighbours' median, so verdicts
    # depend on the visiting order among candidates that share a
    # junction.  Unitig index order is that order: it is the edge order
    # of a graph built unitig by unitig (by the earlier-created end node,
    # then by index) restricted to any one junction, because a
    # candidate's other end belongs to it alone.
    cov = coverage.tolist()
    doomed: set[int] = set()
    for i, at in zip(cand.tolist(), junction.tolist()):
        near = set(members[bounds[at]:bounds[at + 1]]) - doomed - {i}
        ref = sorted(cov[m] for m in near)
        if ref and cov[i] < coverage_ratio * ref[len(ref) // 2]:
            doomed.add(i)
    return list(doomed)


def _bubbles(
    ends: np.ndarray,
    lengths: np.ndarray,
    coverage: np.ndarray,
    length_tolerance: float,
) -> np.ndarray:
    """Rows that join the same two distinct junctions as a better row
    (higher coverage, then shorter, then earlier) of similar length."""
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    pair = lo * (int(hi.max()) + 1) + hi
    order = np.lexsort((lengths, -coverage, pair))  # stable: ties by index
    head = np.ones(order.size, dtype=bool)
    head[1:] = pair[order[1:]] != pair[order[:-1]]
    keeper_len = lengths[order[np.flatnonzero(head)[np.cumsum(head) - 1]]]
    similar = np.abs(lengths[order] - keeper_len) <= length_tolerance * keeper_len
    return order[~head & similar & (lo != hi)[order]]


def clean_unitigs(
    unitigs: list[Unitig], k: int
) -> tuple[list[Unitig], CleanupStats]:
    """Standard cleanup, every assembler's: tips shorter than 2k whose
    coverage is below half their neighbours' median, then bubbles within
    10% of their keeper's length among the survivors, on one junction
    table; ``work`` is charged as the graph version did: edges + distinct
    junctions for the tip pass, edges for the bubble pass."""
    n = len(unitigs)
    if n == 0:
        return [], CleanupStats()
    lengths = np.fromiter((len(u) for u in unitigs), np.int64, n)
    ends, per_junction = _junction_ends(unitigs, lengths, k)
    coverage = np.fromiter((u.coverage for u in unitigs), np.float64, n)
    keep = np.ones(n, dtype=bool)
    tips = _tips(ends, per_junction, lengths, coverage, 2 * k, 0.5)
    keep[tips] = False
    alive = np.flatnonzero(keep)
    popped = alive[_bubbles(ends[alive], lengths[alive], coverage[alive], 0.1)]
    keep[popped] = False
    stats = CleanupStats(len(tips), popped.size, n + per_junction.size + alive.size)
    return [u for u, kept in zip(unitigs, keep.tolist()) if kept], stats
