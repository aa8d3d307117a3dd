"""Reference read simulator, one fragment at a time — the test oracle.

This is the loop ``repro.seq.reads.ReadSimulator.run`` shipped before its
non-random work became array kernels, kept verbatim: per fragment a
scalar ``np.clip`` of the drawn length, a reverse-complemented slice, and
per read an adapter/junk concatenation, substitution and N masks, and
``decode`` / ``phred_to_ascii`` into one ``FastqRecord``.  It subclasses
the shipped simulator only for its constructor (error ramp, Phred ramp,
adapter codes, seeded Generator), so ``test_reads_kernel.py`` can require
the same records, origins and Generator end state from both.
"""

from __future__ import annotations

import numpy as np

from repro.seq import alphabet
from repro.seq.alphabet import decode
from repro.seq.fastq import FastqRecord, phred_to_ascii
from repro.seq.reads import ReadOrigin, ReadSimulator, SequencingRun


class ReferenceReadSimulator(ReadSimulator):
    def run(self) -> SequencingRun:
        spec = self.spec
        rng = self._rng
        n_unique = max(0, spec.n_reads - int(spec.n_reads * spec.duplicate_fraction))

        reads: list[FastqRecord] = []
        mates: list[FastqRecord] = []
        origins: list[ReadOrigin] = []

        t_idx = rng.choice(len(self.transcriptome.transcripts), size=n_unique, p=self._weights)
        for i in range(n_unique):
            origin, r1, r2 = self._sequence_fragment(int(t_idx[i]), i)
            reads.append(r1)
            origins.append(origin)
            if spec.paired:
                assert r2 is not None
                mates.append(r2)

        # PCR duplicates: re-emit existing records with new ids.
        n_dup = spec.n_reads - n_unique
        if n_unique > 0:
            dup_of = rng.integers(0, n_unique, size=n_dup)
            for j, src in enumerate(dup_of):
                src = int(src)
                reads.append(self._redup(reads[src], n_unique + j, "/1" if spec.paired else ""))
                origins.append(origins[src])
                if spec.paired:
                    mates.append(self._redup(mates[src], n_unique + j, "/2"))

        return SequencingRun(spec=spec, reads=reads, mates=mates, origins=origins)

    def _redup(self, rec: FastqRecord, index: int, suffix: str) -> FastqRecord:
        return FastqRecord(id=f"read{index:08d}{suffix}", seq=rec.seq, qual=rec.qual)

    def _sequence_fragment(
        self, t_index: int, index: int
    ) -> tuple[ReadOrigin, FastqRecord, FastqRecord | None]:
        spec = self.spec
        rng = self._rng
        tx = self.transcriptome.transcripts[t_index]
        tlen = len(tx)

        frag_len = int(
            np.clip(rng.normal(spec.fragment_mean, spec.fragment_sd), 30, max(30, tlen))
        )
        frag_len = min(frag_len, tlen)
        offset = int(rng.integers(0, tlen - frag_len + 1))
        strand = 1 if rng.random() < 0.5 else -1

        fragment = tx.codes[offset : offset + frag_len]
        if strand == -1:
            fragment = alphabet.reverse_complement(fragment)

        origin = ReadOrigin(
            transcript_index=t_index, offset=offset, length=frag_len, strand=strand
        )
        r1 = self._read_from(fragment, f"read{index:08d}" + ("/1" if spec.paired else ""))
        r2 = None
        if spec.paired:
            mate_frag = alphabet.reverse_complement(fragment)
            r2 = self._read_from(mate_frag, f"read{index:08d}/2")
        return origin, r1, r2

    def _read_from(self, fragment: np.ndarray, read_id: str) -> FastqRecord:
        """Sequence the first ``read_length`` cycles of a fragment."""
        spec = self.spec
        rng = self._rng
        L = spec.read_length

        if fragment.shape[0] >= L:
            codes = fragment[:L].copy()
        else:
            # Read-through: fragment then adapter then random junk.
            pieces = [fragment, self._adapter_codes]
            need = L - fragment.shape[0] - self._adapter_codes.shape[0]
            if need > 0:
                pieces.append(alphabet.random_dna(need, rng))
            codes = np.concatenate(pieces)[:L].copy()

        # Substitution errors following the per-cycle ramp.
        err_mask = rng.random(L) < self._cycle_error
        if err_mask.any():
            shift = rng.integers(1, 4, size=int(err_mask.sum())).astype(np.uint8)
            originals = codes[err_mask]
            substituted = np.where(originals < 4, (originals + shift) % 4, originals)
            codes[err_mask] = substituted

        # Uncalled bases.
        n_mask = rng.random(L) < spec.n_rate
        codes[n_mask] = alphabet.N

        phred = self._cycle_phred.copy()
        phred[n_mask] = 2
        phred[err_mask] = np.minimum(phred[err_mask], 15)

        return FastqRecord(id=read_id, seq=decode(codes), qual=phred_to_ascii(phred))
