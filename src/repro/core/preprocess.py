"""Pre-processing: Rnnotator's read QC stage.

Steps (matching Rnnotator's defaults): quality trimming from the 3' end,
adapter clipping, rejection of reads containing uncalled bases, exact
deduplication (per record, for paired data too: a mate is dropped on its
own sequence, whatever happens to its partner), and a minimum post-trim
length filter.  The stage also computes the **k-mer list** for the
assembly stage — the data-dependent quantity that makes the workflow
dynamic ("the number of k-mer calculations required is not known until
the end of the pre-processing step", §III.E).

The stage is array work on a raw :class:`~repro.seq.readstore.ReadStore`
(``codes`` / ``quals`` / ``offsets``) and returns a *filtered* store; no
``FastqRecord`` is built unless a caller asks for ``.reads``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.assembly import packed
from repro.parallel.usage import PhaseUsage, ResourceUsage
from repro.seq import alphabet
from repro.seq.fastq import PHRED_OFFSET, FastqRecord
from repro.seq.reads import ADAPTER
from repro.seq.readstore import ReadStore, expand_ranges

#: Mask keeping the first ``v`` of a packed word's 32 bases.
_HEAD_BASES = np.array(
    [(1 << 64) - (1 << 64 - 2 * v) for v in range(33)], dtype=np.uint64
)


@dataclass(frozen=True)
class PreprocessParams:
    quality_threshold: int = 13
    min_length: int = 35
    drop_n: bool = True
    dedup: bool = True
    clip_adapters: bool = True
    n_threads: int = 8


@dataclass
class PreprocessResult:
    """The cleaned reads as a store, plus stage statistics and usage.
    The store is process memory and pickles *by value*: a checkpoint
    outlives the process, and the result the run, that produced it."""

    store: ReadStore
    usage: ResourceUsage
    input_reads: int = 0
    output_reads: int = 0
    modal_read_length: int = 0
    trimmed: int = 0
    dropped_n: int = 0
    dropped_short: int = 0
    dropped_duplicate: int = 0
    adapters_clipped: int = 0
    input_bases: int = 0
    output_bases: int = 0

    @cached_property
    def reads(self) -> list[FastqRecord]:
        """The cleaned reads as records, for callers that want objects:
        one ``FastqRecord`` per read on first access, then cached."""
        return self.store.records()

    def __getstate__(self) -> dict:
        state = {k: v for k, v in self.__dict__.items() if k != "reads"}
        state["store"] = (self.store.fields(), self.store.digest)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, store=ReadStore.from_fields(*state["store"]))


def _first_adapter_hits(
    codes: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(read, position)`` of each read's first adapter occurrence, by
    one ``bytes.find`` scan over the whole code buffer: the adapter has
    no ``N``, so a hit never spans a separator and lies inside one read."""
    adapter = alphabet.encode(ADAPTER).tobytes()
    buf = codes.tobytes()
    hits = []
    at = buf.find(adapter)
    while at >= 0:
        hits.append(at)
        at = buf.find(adapter, at + 1)
    hits = np.array(hits, dtype=np.int64)
    reads = np.searchsorted(offsets, hits, side="right") - 1
    reads, first = np.unique(reads, return_index=True)
    return reads, hits[first]


def _first_occurrences(
    codes: np.ndarray, starts: np.ndarray, lengths: np.ndarray, exact_n: bool
) -> np.ndarray:
    """Mask over the given reads: True for the first (in input order) of
    every group with identical sequence.

    The key is ``(length, 2-bit-packed words)``: four bases per byte
    (:func:`repro.assembly.packed.flat_windows`) gathered at every fourth
    base of a read, the last word masked to its length.  Two bits cannot
    tell ``N`` from ``A``: ``exact_n`` appends the ``N`` plane's words.
    """
    n_words = -(-int(lengths.max(initial=0)) // 32)
    index = starts[:, None] + 4 * np.arange(8 * n_words)
    # The bases of each word its read owns, as a left-aligned mask.
    head = _HEAD_BASES[
        np.clip(lengths[:, None] - 32 * np.arange(n_words), 0, 32)
    ]

    def words(plane: np.ndarray) -> np.ndarray:
        # Padded so every base starts a quad; what a gather picks up past
        # its read (clipped at the end of the buffer) is masked to zero.
        quads = packed.flat_windows(np.append(plane, np.zeros(3, np.uint8)), 4)
        return quads.take(index, mode="clip").view(">u8") & head

    key = words(codes)
    if exact_n:
        key = np.concatenate([key, words(codes >> np.uint8(2))], axis=1)
    # lexsort is stable, so a group's first row is its earliest read.
    order = np.lexsort((*key.T, lengths))
    key, lengths = key[order], lengths[order]
    new_group = np.ones(order.shape[0], dtype=bool)
    new_group[1:] = (lengths[1:] != lengths[:-1]) | (
        key[1:] != key[:-1]
    ).any(axis=1)
    first = np.zeros_like(new_group)
    first[order[new_group]] = True
    return first


def preprocess(
    reads: ReadStore | list[FastqRecord],
    params: PreprocessParams | None = None,
) -> PreprocessResult:
    """Run the QC stage over ``reads`` (mates included, interleaved).

    ``reads`` is a raw :class:`~repro.seq.readstore.ReadStore` or a
    record list (encoded once into one: ``ValueError`` naming the read
    for a non-ASCII string or a sequence/quality length mismatch).  QC
    works on codes, so its alphabet rule is the store's: a sequence byte
    outside ``ACGTacgt`` is an uncalled base — the read is an N-read
    (``drop_n``), it never matches the adapter — and ``acgt`` is ``ACGT``.
    """
    params = params or PreprocessParams()
    raw = reads if isinstance(reads, ReadStore) else ReadStore.from_reads(reads)
    codes, quals, offsets = raw.codes, raw.quals, raw.offsets
    n = raw.n_reads
    starts, ends = offsets[:-1], offsets[1:] - 1  # ends: the separators

    # Adapter: a read stops at its first hit.
    clipped = clip_at = np.zeros(0, dtype=np.int64)
    if params.clip_adapters:
        clipped, clip_at = _first_adapter_hits(codes, offsets)

    # 3' quality trim: the read ends after its last base at or above
    # the threshold that lies before the clip point.  The pad byte (0)
    # under every separator is below any threshold.
    index_dtype = np.int32 if codes.shape[0] < 2**31 else np.int64
    good = quals >= max(PHRED_OFFSET + params.quality_threshold, 1)
    good[expand_ranges(clip_at, ends[clipped] - clip_at)[1]] = False
    last_good = np.arange(1, codes.shape[0] + 1, dtype=index_dtype)
    last_good *= good
    new_ends = np.maximum(np.maximum.reduceat(last_good, starts), starts)
    lengths = new_ends - starts

    # N-drop from the sparse N positions (separators excluded).
    is_n = codes == alphabet.N
    is_n[ends] = False
    n_at = np.flatnonzero(is_n)
    n_read = np.searchsorted(offsets, n_at, side="right") - 1
    has_n = np.zeros(n, dtype=bool)
    has_n[n_read[n_at < new_ends[n_read]]] = True

    drop_n = has_n if params.drop_n else np.zeros(n, dtype=bool)
    short = ~drop_n & (lengths < params.min_length)
    keep = ~drop_n & ~short
    if params.dedup:
        candidates = np.flatnonzero(keep)
        first = _first_occurrences(
            codes,
            starts[candidates],
            lengths[candidates],
            exact_n=bool(has_n[candidates].any()),
        )
        keep[candidates[~first]] = False

    store = raw.subset(keep, lengths)
    kept_lengths = lengths[keep]
    input_bases = raw.n_bases
    output_bases = int(kept_lengths.sum())
    usage = ResourceUsage(n_ranks=1)
    usage.add_phase(
        PhaseUsage(
            name="preprocess",
            kind="preprocess",
            critical_compute=input_bases / max(params.n_threads, 1),
            total_compute=float(input_bases),
        )
    )
    # Peak footprint: the dedup hash holds every unique read sequence.
    usage.peak_rank_memory_bytes = int(output_bases * 1.6) + 64 * store.n_reads
    return PreprocessResult(
        store=store,
        usage=usage,
        input_reads=n,
        output_reads=store.n_reads,
        modal_read_length=(
            int(np.bincount(kept_lengths).argmax()) if store.n_reads else 0
        ),
        trimmed=int((new_ends < ends).sum()),
        dropped_n=int(drop_n.sum()),
        dropped_short=int(short.sum()),
        dropped_duplicate=int((~(drop_n | short | keep)).sum()),
        adapters_clipped=int(clipped.shape[0]),
        input_bases=input_bases,
        output_bases=output_bases,
    )
