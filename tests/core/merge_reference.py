"""Frozen reference for the merge stage's containment pass.

``repro.core.merge._remove_contained`` keeps its seed index as one
bitmask of kept contigs per 21-mer.  This is the set-based loop it
replaced — a list of kept indices per seed, one ``set.update`` per
query seed — with one fix applied: a contig shorter than ``SEED_K``
(whose only seed is its whole sequence, which never equals a 21-base
key) takes every kept contig as its candidate set and is charged for
them.  It owns its seed extraction and reverse complement, so a change
to either in ``src/`` cannot hide from the parity tests.
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
