"""Reference cleanup on a networkx ``MultiGraph`` — the test oracle.

This is the implementation ``repro.assembly.cleanup`` shipped before it
became a packed junction-table kernel, kept verbatim (junction (k-1)-mers
as ``bytes`` nodes, unitigs as keyed edges, ``g.edges(keys=True)`` as the
visiting order).  ``test_cleanup_kernel.py`` requires the kernel to
return the same kept unitigs, counters and ``work``.  networkx is a test
dependency only.
"""

from __future__ import annotations

import networkx as nx

from repro.assembly.cleanup import CleanupStats
from repro.assembly.dbg import Unitig
from tests.assembly.kmer_reference import canonical


def _endpoints(u: Unitig, k: int) -> tuple[bytes, bytes]:
    """(k-1)-mer junctions at the two ends, canonicalized for matching."""
    codes = bytes(u.codes.tolist())
    left = codes[: k - 1]
    right = codes[-(k - 1):]
    return _canon_junction(left), _canon_junction(right)


def _canon_junction(j: bytes) -> bytes:
    # Unitig codes never contain N (N windows are dropped before the
    # graph is built), so the shared ACGT canonical helper applies.
    return canonical(j)


def build_unitig_graph(unitigs: list[Unitig], k: int) -> nx.MultiGraph:
    """Condensed graph: junction (k-1)-mers are nodes, unitigs are edges."""
    g = nx.MultiGraph()
    for i, u in enumerate(unitigs):
        left, right = _endpoints(u, k)
        g.add_edge(left, right, key=i, unitig=i)
    return g


def clip_tips(
    unitigs: list[Unitig],
    k: int,
    max_tip_length: int | None = None,
    coverage_ratio: float = 0.5,
) -> tuple[list[Unitig], CleanupStats]:
    """Remove short low-coverage dead-end unitigs.

    A unitig is a tip when one of its junction nodes has degree 1 (in the
    condensed graph), it is shorter than ``max_tip_length`` (default 2k)
    and its coverage is below ``coverage_ratio`` times the median coverage
    of its neighbours.
    """
    if max_tip_length is None:
        max_tip_length = 2 * k
    stats = CleanupStats()
    if not unitigs:
        return [], stats

    g = build_unitig_graph(unitigs, k)
    stats.work = g.number_of_edges() + g.number_of_nodes()
    doomed: set[int] = set()
    for left, right, idx in g.edges(keys=True):
        u = unitigs[idx]
        if len(u) >= max_tip_length:
            continue
        deg_l, deg_r = g.degree(left), g.degree(right)
        if deg_l > 1 and deg_r > 1:
            continue  # interior unitig, not a tip
        if deg_l == 1 and deg_r == 1:
            continue  # isolated contig, keep
        junction = left if deg_l > 1 else right
        neighbour_covs = [
            unitigs[j].coverage
            for _, _, j in g.edges(junction, keys=True)
            if j != idx and j not in doomed
        ]
        if not neighbour_covs:
            continue
        ref = sorted(neighbour_covs)[len(neighbour_covs) // 2]
        if u.coverage < coverage_ratio * ref:
            doomed.add(idx)
            stats.tips_removed += 1

    kept = [u for i, u in enumerate(unitigs) if i not in doomed]
    return kept, stats


def pop_bubbles(
    unitigs: list[Unitig],
    k: int,
    length_tolerance: float = 0.1,
) -> tuple[list[Unitig], CleanupStats]:
    """Collapse parallel unitigs joining the same pair of junctions.

    When two unitigs connect the same junctions with similar lengths
    (within ``length_tolerance``), the lower-coverage branch — the error
    allele — is dropped.
    """
    stats = CleanupStats()
    if not unitigs:
        return [], stats
    g = build_unitig_graph(unitigs, k)
    stats.work = g.number_of_edges()
    doomed: set[int] = set()

    seen_pairs: dict[tuple[bytes, bytes], list[int]] = {}
    for left, right, idx in g.edges(keys=True):
        pair = (left, right) if left <= right else (right, left)
        seen_pairs.setdefault(pair, []).append(idx)

    for pair, members in seen_pairs.items():
        if len(members) < 2 or pair[0] == pair[1]:
            continue
        members = sorted(
            members, key=lambda i: (-unitigs[i].coverage, len(unitigs[i]))
        )
        keeper = unitigs[members[0]]
        for i in members[1:]:
            cand = unitigs[i]
            if abs(len(cand) - len(keeper)) <= length_tolerance * len(keeper):
                doomed.add(i)
                stats.bubbles_popped += 1

    kept = [u for i, u in enumerate(unitigs) if i not in doomed]
    return kept, stats


def clean_unitigs(
    unitigs: list[Unitig],
    k: int,
    clip: bool = True,
    pop: bool = True,
) -> tuple[list[Unitig], CleanupStats]:
    """Standard cleanup: tips first, then bubbles."""
    total = CleanupStats()
    out = unitigs
    if clip:
        out, s = clip_tips(out, k)
        total.tips_removed += s.tips_removed
        total.work += s.work
    if pop:
        out, s = pop_bubbles(out, k)
        total.bubbles_popped += s.bubbles_popped
        total.work += s.work
    return out, total
