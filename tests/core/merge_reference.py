"""Frozen reference for the merge stage's containment pass.

``repro.core.merge._remove_contained`` keeps its seed index as one
bitmask of kept contigs per 21-mer.  This is the set-based loop it
replaced — a list of kept indices per seed, one ``set.update`` per
query seed — with one fix applied: a contig shorter than ``SEED_K``
(whose only seed is its whole sequence, which never equals a 21-base
key) takes every kept contig as its candidate set and is charged for
them.  It owns its seed extraction and reverse complement, so a change
to either in ``src/`` cannot hide from the parity tests.

``join_longest_overlaps`` is the join the merge does not do yet
(ROADMAP 9(a)): the longest exact suffix-prefix overlap first, on
either strand, by brute force over every pair.
"""

SEED_K = 21
SEED_STRIDE = 8

_COMPLEMENT = str.maketrans("ACGTNacgtn", "TGCANtgcan")


def _revcomp(seq):
    return seq.translate(_COMPLEMENT)[::-1]


def _seeds(seq, stride=SEED_STRIDE):
    return [
        seq[i : i + SEED_K]
        for i in range(0, max(len(seq) - SEED_K + 1, 1), stride)
    ]


def remove_contained(contigs):
    """``(kept, contained_removed, work)`` of the containment pass."""
    ordered = sorted(contigs, key=lambda c: (-len(c), c.seq))
    kept = []
    seed_index = {}
    removed = work = 0
    for c in ordered:
        rc = _revcomp(c.seq)
        if len(c) < SEED_K:
            candidates = set(range(len(kept)))
        else:
            candidates = set()
            for seed in _seeds(c.seq) + _seeds(rc):
                candidates.update(seed_index.get(seed, ()))
        work += len(candidates) + len(c)
        if any(c.seq in kept[i].seq or rc in kept[i].seq for i in candidates):
            removed += 1
            continue
        idx = len(kept)
        kept.append(c)
        for seed in _seeds(c.seq, stride=1):
            seed_index.setdefault(seed, []).append(idx)
    return kept, removed, work


def _longest_overlap(a, b, min_overlap):
    """The longest ``o >= min_overlap`` with ``a[-o:] == b[:o]`` and
    ``o < min(len(a), len(b))``, or 0."""
    start = max(len(a) - len(b) + 1, 1)
    while (p := a.find(b[:min_overlap], start)) != -1:
        if b.startswith(a[p:]):
            return len(a) - p
        start = p + 1
    return 0


def join_longest_overlaps(seqs, min_overlap):
    """Greedy longest exact suffix-prefix joining, O(n^2) pairs a join.

    Sequences are ranked by ``(-length, sequence)``.  Strand rule: of a
    pair, the lower-ranked ``a`` keeps its strand and ``b`` joins on
    either, on either side: ``a + b``, ``a + rc(b)``, ``b + a``,
    ``rc(b) + a``.  Every join takes the longest overlap ``>=
    min_overlap`` of any pair; equal overlaps go to the lower-ranked
    ``a``, then ``b``, then the order above.  It repeats until no
    overlap is left.  Returns the sequences, ranked."""
    seqs = sorted(seqs, key=lambda s: (-len(s), s))
    while True:
        best = None
        for i, a in enumerate(seqs):
            for j in range(i + 1, len(seqs)):
                b, rc = seqs[j], _revcomp(seqs[j])
                joins = ((a, b), (a, rc), (b, a), (rc, a))
                for case, (left, right) in enumerate(joins):
                    o = _longest_overlap(left, right, min_overlap)
                    key = (-o, i, j, case)
                    if o and (best is None or key < best[0]):
                        best = key, left + right[o:]
        if best is None:
            return seqs
        (_o, i, j, _case), joined = best
        seqs = [s for n, s in enumerate(seqs) if n not in (i, j)] + [joined]
        seqs.sort(key=lambda s: (-len(s), s))
