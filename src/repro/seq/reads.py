"""RNA-seq read simulation.

Produces Illumina-like reads from a :class:`~repro.seq.transcriptome.Transcriptome`:

* single-end or paired-end, fixed read length (50 bp GAII-style or 100 bp
  HiSeq-style in the paper's two data sets),
* substitution errors with a 3'-increasing error ramp and matching Phred
  qualities,
* uncalled bases (``N``) — these are what force Contrail to receive
  *pre-processed* input in the paper's Fig. 3 experiment,
* adapter read-through for fragments shorter than the read length,
* PCR duplicates.

Every read records its provenance (transcript, offset, strand) so tests can
assert assembler correctness against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.seq import alphabet
from repro.seq.alphabet import decode, encode
from repro.seq.fastq import PHRED_OFFSET, FastqRecord
from repro.seq.transcriptome import Transcriptome

#: Canonical Illumina TruSeq-style adapter prefix used for read-through.
ADAPTER = "AGATCGGAAGAGC"


@dataclass(frozen=True)
class ReadSimSpec:
    """Parameters of a simulated sequencing run."""

    read_length: int = 100
    n_reads: int = 10_000
    paired: bool = False
    fragment_mean: int = 250
    fragment_sd: int = 30
    error_rate_start: float = 0.001
    error_rate_end: float = 0.02
    n_rate: float = 0.002
    duplicate_fraction: float = 0.02
    adapter_fraction: float = 0.01
    platform: str = "Illumina HiSeq"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.read_length < 10:
            raise ValueError("read_length must be >= 10")
        if self.n_reads < 0:
            raise ValueError("n_reads must be >= 0")
        if self.paired and self.fragment_mean < self.read_length:
            raise ValueError("paired runs need fragment_mean >= read_length")


@dataclass(frozen=True, slots=True)
class ReadOrigin:
    """Ground-truth provenance of one fragment.

    The fragment is ``transcript[offset : offset + length]``, reverse
    complemented when ``strand == -1``; read 1 sequences its 5' end.
    """

    transcript_index: int
    offset: int
    length: int
    strand: int


@dataclass
class SequencingRun:
    """The output of a simulated run: reads plus ground truth."""

    spec: ReadSimSpec
    reads: list[FastqRecord]
    mates: list[FastqRecord] = field(default_factory=list)
    origins: list[ReadOrigin] = field(default_factory=list)

    def all_reads(self) -> list[FastqRecord]:
        """Reads and mates interleaved (mates after their read)."""
        if not self.mates:
            return list(self.reads)
        if len(self.mates) != len(self.reads):
            raise ValueError(
                f"{len(self.reads)} reads but {len(self.mates)} mates"
            )
        out: list[FastqRecord] = [None] * (2 * len(self.reads))
        out[::2] = self.reads
        out[1::2] = self.mates
        return out


class ReadSimulator:
    """Samples fragments from a transcriptome and sequences them with errors."""

    def __init__(self, transcriptome: Transcriptome, spec: ReadSimSpec) -> None:
        if len(transcriptome) == 0:
            raise ValueError("cannot sequence an empty transcriptome")
        self.transcriptome = transcriptome
        self.spec = spec
        self._rng = np.random.default_rng(spec.seed)
        self._weights = transcriptome.read_sampling_weights()
        self._adapter_codes = encode(ADAPTER)
        # Per-cycle error probability ramp (3' end is worse, like Illumina),
        # with a sharp dip over the last ~6% of cycles (end-of-run chemistry
        # decay) — the part quality trimming is meant to cut.
        self._cycle_error = np.linspace(
            spec.error_rate_start, spec.error_rate_end, spec.read_length
        )
        tail = max(1, int(round(0.06 * spec.read_length)))
        self._cycle_error[-tail:] *= 5.0
        self._cycle_phred = np.clip(
            (-10.0 * np.log10(np.maximum(self._cycle_error, 1e-6))).astype(np.int16),
            2,
            41,
        )

    def run(self) -> SequencingRun:
        """Simulate the full run described by the spec.

        Two phases.  The draw loop makes every Generator call, fragment by
        fragment and read by read, in the order and with the sizes DESIGN
        §7 fixes as the stream contract, and keeps only scalars and masks;
        :meth:`_sequence` then builds every read from them as array work.
        """
        spec = self.spec
        rng = self._rng
        L = spec.read_length
        per_frag = 2 if spec.paired else 1
        n_unique = max(0, spec.n_reads - int(spec.n_reads * spec.duplicate_fraction))
        tlens = [len(t) for t in self.transcriptome.transcripts]
        n_adapter = self._adapter_codes.shape[0]

        origins: list[ReadOrigin] = []
        err = np.empty((n_unique * per_frag, L), dtype=bool)
        n_mask = np.empty_like(err)
        buf = np.empty(L)
        shifts: list[np.ndarray] = []
        junk: list[np.ndarray] = []
        row = 0
        t_idx = rng.choice(len(tlens), size=n_unique, p=self._weights)
        for t in t_idx.tolist():
            tlen = tlens[t]
            # == min(int(np.clip(x, 30, max(30, tlen))), tlen)
            x = rng.normal(spec.fragment_mean, spec.fragment_sd)
            frag_len = min(tlen, int(max(x, 30)))
            offset = int(rng.integers(0, tlen - frag_len + 1))
            strand = 1 if rng.random() < 0.5 else -1
            origins.append(ReadOrigin(t, offset, frag_len, strand))
            need = L - frag_len - n_adapter
            for _ in range(per_frag):
                if need > 0:  # read-through junk after the adapter
                    junk.append(alphabet.random_dna(need, rng))
                rng.random(out=buf)
                k = np.count_nonzero(np.less(buf, self._cycle_error, out=err[row]))
                if k:
                    shifts.append(rng.integers(1, 4, size=k))
                rng.random(out=buf)
                np.less(buf, spec.n_rate, out=n_mask[row])
                row += 1

        records = self._sequence(origins, err, n_mask, shifts, junk)
        reads = records[::per_frag]
        mates = records[1::2] if spec.paired else []

        # PCR duplicates: re-emit existing records with new ids.
        n_dup = spec.n_reads - n_unique
        if n_unique > 0:
            dup_of = rng.integers(0, n_unique, size=n_dup)
            for j, src in enumerate(dup_of.tolist(), n_unique):
                reads.append(self._redup(reads[src], j, "/1" if spec.paired else ""))
                origins.append(origins[src])
                if spec.paired:
                    mates.append(self._redup(mates[src], j, "/2"))

        return SequencingRun(spec=spec, reads=reads, mates=mates, origins=origins)

    # -- internals ---------------------------------------------------------

    def _redup(self, rec: FastqRecord, index: int, suffix: str) -> FastqRecord:
        return FastqRecord(id=f"read{index:08d}{suffix}", seq=rec.seq, qual=rec.qual)

    def _sequence(
        self,
        origins: list[ReadOrigin],
        err: np.ndarray,
        n_mask: np.ndarray,
        shifts: list[np.ndarray],
        junk: list[np.ndarray],
    ) -> list[FastqRecord]:
        """The first ``read_length`` cycles of every read, all rows at once.

        Row ``2i`` is fragment ``i``'s read 1 and row ``2i + 1`` its mate
        (row ``i`` single-end).  Read 1 runs along the fragment's strand and
        the mate against it; a reverse row is the complemented window that
        ends at the fragment's last base, read backwards.
        """
        L = self.spec.read_length
        per_frag = 2 if self.spec.paired else 1
        txs = self.transcriptome.transcripts
        # Padded so that every start, short fragments' included, has a window.
        concat = np.concatenate([t.codes for t in txs] + [np.zeros(L, np.uint8)])
        t_start = np.cumsum([0] + [len(t) for t in txs])
        o = np.array(
            [(x.transcript_index, x.offset, x.length, x.strand) for x in origins],
            dtype=np.int64,
        ).reshape(-1, 4)
        start = np.repeat(t_start[o[:, 0]] + o[:, 1], per_frag)
        length = np.repeat(o[:, 2], per_frag)
        forward = o[:, 3] == 1
        if self.spec.paired:
            forward = np.stack([forward, ~forward], axis=1).ravel()
        win = np.where(forward, start, np.maximum(start + length - L, 0))
        codes = sliding_window_view(concat, L)[win]
        codes[~forward] = alphabet.complement(codes[~forward, ::-1])

        # Fragments shorter than the read: fragment, adapter, random junk.
        junk_rows = iter(junk)
        for r in np.flatnonzero(length < L).tolist():
            frag = concat[start[r] : start[r] + length[r]]
            if not forward[r]:
                frag = alphabet.reverse_complement(frag)
            pieces = [frag, self._adapter_codes]
            if L - length[r] - self._adapter_codes.shape[0] > 0:
                pieces.append(next(junk_rows))
            codes[r] = np.concatenate(pieces)[:L]

        # Substitutions take the shifts in draw order, which is the mask's
        # row-major order.
        if shifts:
            called = codes[err]
            shift = np.concatenate(shifts).astype(np.uint8)
            codes[err] = np.where(called < 4, (called + shift) % 4, called)
        codes[n_mask] = alphabet.N
        qual = np.broadcast_to(
            (self._cycle_phred + PHRED_OFFSET).astype(np.uint8), codes.shape
        ).copy()
        np.minimum(qual, 15 + PHRED_OFFSET, out=qual, where=err)
        qual[n_mask] = 2 + PHRED_OFFSET

        seqs = decode(codes)
        quals = qual.tobytes().decode("ascii")
        suffixes = ("/1", "/2") if self.spec.paired else ("",)
        ids = [f"read{i:08d}{s}" for i in range(len(origins)) for s in suffixes]
        return [
            FastqRecord(id=rid, seq=seqs[a : a + L], qual=quals[a : a + L])
            for rid, a in zip(ids, range(0, len(seqs), L))
        ]
