"""Count-once fused extraction: bit-exactness, sharing and caching.

The fused layer must be *invisible* except for wall time: every spectrum
quantity reconstructs the per-k extraction path bit-for-bit, the shared
segments follow the ReadStore lifecycle discipline, and the table cache
only ever hands back content-identical spectra.
"""

import os
import pickle
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.assembly import packed as packedmod
from repro.assembly.dbg import KmerTable, build_kmer_table_packed
from repro.assembly.kmers import (
    canonical_kmers_packed,
    canonical_kmers_store_packed,
    fused_canonical_positions_packed,
    fused_canonical_positions_store_packed,
)
from repro.assembly.sweep import (
    KmerSpectrum,
    KmerTableCache,
    build_spectra,
    get_kmer_table_cache,
    set_kmer_table_cache,
    use_kmer_table_cache,
)
from repro.obs import Tracer, use_tracer
from repro.seq import alphabet
from repro.seq.datasets import tiny_dataset
from repro.seq.fastq import FastqRecord
from repro.seq.reads import ReadSimulator
from repro.seq.readstore import ReadStore


def _random_reads(rng, n_reads, max_len=400, n_rate=0.02):
    """Random reads with Ns sprinkled in and wildly varying lengths."""
    reads = []
    for i in range(n_reads):
        length = rng.randrange(0, max_len)
        seq = "".join(
            "N" if rng.random() < n_rate else rng.choice("ACGT")
            for _ in range(length)
        )
        reads.append(FastqRecord(id=f"r{i}", seq=seq, qual="I" * length))
    return reads


def _store(rng, n_reads=60, **kw):
    return ReadStore.from_reads(_random_reads(rng, n_reads, **kw))


# ---------------------------------------------------------------------------
# Satellite: fused/derived extraction is bit-identical to the per-k path.
# ---------------------------------------------------------------------------


class TestFusedExtractionProperty:
    # k sets deliberately span the 1-word (k<=32) / 2-word (k>32) packing
    # boundary, including deriving a 1-word k from a 2-word kmax.
    K_SETS = [
        (3, 5, 7),
        (21, 25, 31),
        (25, 32),
        (31, 33),
        (25, 33, 63),
        (32, 33),
        (63,),
        (3, 63),
    ]

    @pytest.mark.parametrize("trial", range(10))
    def test_fused_matches_per_k_extraction(self, trial):
        rng = random.Random(1000 + trial)
        store = _store(rng)
        ks = self.K_SETS[trial % len(self.K_SETS)]
        fused = fused_canonical_positions_packed(store.codes, list(ks))
        for k in ks:
            rows, positions = fused[k]
            want = canonical_kmers_store_packed(store, k)
            np.testing.assert_array_equal(rows, want)
            # Positions must point at exactly the N-free windows, in order.
            assert positions.shape[0] == rows.shape[0]
            assert bool(np.all(np.diff(positions) > 0))

    @pytest.mark.parametrize("k", [3, 4, 31, 32, 33, 62, 63])
    def test_boundary_k_on_adversarial_codes(self, k):
        # All-N reads, empty reads, reads exactly k long, homopolymers.
        reads = [
            FastqRecord(id="a", seq="N" * 80, qual="I" * 80),
            FastqRecord(id="b", seq="", qual=""),
            FastqRecord(id="c", seq="A" * k, qual="I" * k),
            FastqRecord(id="d", seq="ACGT" * 20, qual="I" * 80),
            FastqRecord(id="e", seq="G" * (k - 1), qual="I" * (k - 1)),
        ]
        store = ReadStore.from_reads(reads)
        fused = fused_canonical_positions_packed(store.codes, [k])
        rows, _ = fused[k]
        np.testing.assert_array_equal(
            rows, canonical_kmers_store_packed(store, k)
        )
        store.close()

    def test_single_read_tail_windows(self):
        # Small-k windows past the kmax main section come from the tail
        # path: a read shorter than kmax but >= k exercises it directly.
        rng = random.Random(7)
        for _ in range(20):
            store = _store(rng, n_reads=8, max_len=40)
            fused = fused_canonical_positions_packed(store.codes, [5, 33])
            for k in (5, 33):
                np.testing.assert_array_equal(
                    fused[k][0], canonical_kmers_store_packed(store, k)
                )
            store.close()


def _codes(*reads, trailing_sep=True):
    """Flat store-layout codes of ``reads`` (strings over ACGTN), built
    without a ReadStore so a case can leave the last separator off."""
    joined = "N".join(reads) + ("N" if trailing_sep and reads else "")
    return alphabet.encode(joined)


def _revcomp(seq):
    return seq[::-1].translate(str.maketrans("ACGT", "TGCA"))


_R = random.Random(22)
_SEQ = "".join(_R.choice("ACGT") for _ in range(400))

#: name -> (codes, ks).  The two-strand pack reads the reverse strand at
#: ``T - k - pos``: every case moves T, k or an N against that mirror.
FUSED_EDGE_CASES = {
    "empty": (_codes(), (21, 33, 63)),
    "shorter_than_kmin": (_codes(_SEQ[:20]), (21, 33, 63)),
    "exactly_kmin": (_codes(_SEQ[:21], trailing_sep=False), (21, 33, 63)),
    "exactly_kmax": (_codes(_SEQ[:63], trailing_sep=False), (21, 33, 63)),
    "reads_shorter_and_exactly_k": (
        _codes(_SEQ[:32], _SEQ[40:73], _SEQ[80:100], _SEQ[100:163], _SEQ[200:262]),
        (21, 33, 63),
    ),
    "n_first_base": (_codes("N" + _SEQ[:150]), (21, 33, 63)),
    "n_last_base": (_codes(_SEQ[:150] + "N", trailing_sep=False), (21, 33, 63)),
    "n_every_kth_base": (
        _codes("N".join(_SEQ[i : i + 32] for i in range(0, 330, 33))),
        (21, 32, 33),
    ),
    "no_trailing_separator": (_codes(_SEQ[:200], trailing_sep=False), (21, 33, 63)),
    "even_k_palindromes": (
        _codes(
            "ACGT" * 3,
            _SEQ[:17] + _revcomp(_SEQ[:17]) + _SEQ[17:40],
            _SEQ[50:53] + _revcomp(_SEQ[50:53]),
        ),
        (4, 6, 34),
    ),
    "one_and_two_word_ks": (_codes(_SEQ[:120], _SEQ[130:400]), (21, 33, 63)),
}


class TestFusedExtractionEdges:
    """``fused[k] == (canonical_kmers_packed(codes, k), N-free starts)``
    where the single-k path windows, packs and reverse-complements each
    k on its own."""

    @pytest.mark.parametrize("name", sorted(FUSED_EDGE_CASES))
    def test_edge_case(self, name):
        codes, ks = FUSED_EDGE_CASES[name]
        before = codes.copy()
        codes.flags.writeable = False  # as a shared store's codes are
        fused = fused_canonical_positions_packed(codes, ks)
        assert sorted(fused) == sorted(ks)
        for k in ks:
            rows, positions = fused[k]
            starts = [
                i
                for i in range(codes.shape[0] - k + 1)
                if (codes[i : i + k] < alphabet.N).all()
            ]
            assert positions.tolist() == starts
            want = canonical_kmers_packed(codes, k)
            assert rows.dtype == want.dtype and rows.shape == want.shape
            np.testing.assert_array_equal(rows, want)
        np.testing.assert_array_equal(codes, before)

    @pytest.mark.parametrize("cuts", [(0,), (0, 1), (0, 7, 7, 23), (0, 59, 60)])
    def test_read_range_shards_concatenate_to_full_store(self, cuts):
        store = _store(random.Random(9), n_reads=60, max_len=150)
        ks = (21, 33, 63)
        full = fused_canonical_positions_packed(store.codes, ks)
        bounds = list(cuts) + [store.n_reads]
        shards = [
            fused_canonical_positions_store_packed(store, ks, lo, hi)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        for k in ks:
            rows = np.concatenate([sh[k][0] for sh in shards])
            positions = np.concatenate([sh[k][1] for sh in shards])
            np.testing.assert_array_equal(rows, full[k][0])
            np.testing.assert_array_equal(positions, full[k][1])
        store.close()


# ---------------------------------------------------------------------------
# KmerSpectrum: reconstruction invariants.
# ---------------------------------------------------------------------------


class TestKmerSpectrum:
    @pytest.fixture()
    def store(self):
        store = _store(random.Random(42), n_reads=80)
        yield store
        store.close()

    def test_spectrum_reconstructs_extraction(self, store):
        for sp in build_spectra(store, [21, 25, 33]):
            stream = canonical_kmers_packed(store.codes, sp.k)
            # Occurrence stream == the flat extraction, bit-for-bit.
            np.testing.assert_array_equal(sp.distinct[sp.inverse], stream)
            # Distinct/counts == unique_counts of the stream.
            rows, counts = packedmod.unique_counts(stream, sp.k)
            np.testing.assert_array_equal(sp.distinct, rows)
            np.testing.assert_array_equal(sp.counts, counts)
            # Per-read slices == per-read extraction.
            for i in range(store.n_reads):
                s, e = int(sp.read_offsets[i]), int(sp.read_offsets[i + 1])
                per_read = canonical_kmers_packed(store.read_codes(i), sp.k)
                np.testing.assert_array_equal(
                    sp.distinct[sp.inverse[s:e]], per_read
                )
                if e > s:
                    rel = sp.rel_positions[s:e]
                    assert int(rel.min()) >= 0
                    read_len = int(store.offsets[i + 1] - store.offsets[i])
                    assert int(rel.max()) <= read_len - sp.k

    def test_table_and_owners_match_per_k_path(self, store):
        (sp,) = build_spectra(store, [25])
        stream = canonical_kmers_packed(store.codes, 25)
        want = build_kmer_table_packed(
            25, *packedmod.unique_counts(stream, 25)
        )
        got = sp.table()
        np.testing.assert_array_equal(got.packed, want.packed)
        np.testing.assert_array_equal(got.count_array, want.count_array)
        from repro.assembly.kmers import kmer_owner_packed

        for p in (1, 3, 8):
            np.testing.assert_array_equal(
                sp.owners(p), kmer_owner_packed(sp.distinct, 25, p)
            )
        # owners() memoizes per rank count.
        assert sp.owners(3) is sp.owners(3)

    def test_share_pickle_attach_roundtrip(self, store):
        (sp,) = build_spectra(store, [25])
        payload = pickle.dumps(sp, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(payload) < 1024  # O(1) handle, not the arrays
        assert sp.shared and sp.owns_shm
        # In-process unpickle dedups to the same live object.
        assert pickle.loads(payload) is sp
        handle = sp.handle()
        assert handle.shm_name == sp.share().shm_name  # share() idempotent
        sp.close()
        assert sp.closed
        sp.close()  # double close is safe
        with pytest.raises(ValueError):
            _ = sp.distinct
        with pytest.raises(ValueError):
            sp.share()

    def test_shared_views_stay_bit_identical(self, store):
        (local,) = build_spectra(store, [21])
        distinct = local.distinct.copy()
        counts = local.counts.copy()
        inverse = local.inverse.copy()
        local.share()
        np.testing.assert_array_equal(local.distinct, distinct)
        np.testing.assert_array_equal(local.counts, counts)
        np.testing.assert_array_equal(local.inverse, inverse)
        assert not local.distinct.flags.writeable
        local.close()

    def test_build_spectra_empty_and_dedup_ks(self, store):
        assert build_spectra(store, []) == ()
        spectra = build_spectra(store, [25, 25, 21])
        assert [sp.k for sp in spectra] == [21, 25]
        for sp in spectra:
            assert sp.store_digest == store.digest


# ---------------------------------------------------------------------------
# Satellite: presorted fast paths + debug sortedness assertion.
# ---------------------------------------------------------------------------


class TestPresortedFastPath:
    def _stream(self, k=25):
        store = _store(random.Random(5), n_reads=40)
        stream = canonical_kmers_packed(store.codes, k)
        store.close()
        return stream

    def test_unique_counts_presorted_matches(self):
        stream = self._stream()
        rows, counts = packedmod.unique_counts(stream, 25)
        rows2, counts2 = packedmod.unique_counts(rows, 25, presorted=True)
        np.testing.assert_array_equal(rows, rows2)
        np.testing.assert_array_equal(counts2, np.ones_like(counts2))
        # A presorted stream with duplicates still counts correctly.
        order = np.argsort(packedmod.keys(stream, 25), kind="stable")
        srows, scounts = packedmod.unique_counts(
            stream[order], 25, presorted=True
        )
        np.testing.assert_array_equal(srows, rows)
        np.testing.assert_array_equal(scounts, counts)

    def test_from_packed_presorted_matches(self):
        stream = self._stream()
        rows, counts = packedmod.unique_counts(stream, 25)
        base = KmerTable.from_packed(25, rows, counts)
        fast = KmerTable.from_packed(25, rows, counts, presorted=True)
        np.testing.assert_array_equal(base.packed, fast.packed)
        np.testing.assert_array_equal(base.count_array, fast.count_array)

    def test_debug_flag_catches_unsorted_input(self, monkeypatch):
        stream = self._stream()
        rows, counts = packedmod.unique_counts(stream, 25)
        bad_rows, bad_counts = rows[::-1].copy(), counts[::-1].copy()
        monkeypatch.delenv(packedmod.DEBUG_SORTED_ENV, raising=False)
        assert not packedmod.debug_assert_sorted_enabled()
        # Without the flag the lie goes through (fast path trusts caller).
        KmerTable.from_packed(25, bad_rows, bad_counts, presorted=True)
        monkeypatch.setenv(packedmod.DEBUG_SORTED_ENV, "1")
        assert packedmod.debug_assert_sorted_enabled()
        with pytest.raises(AssertionError):
            KmerTable.from_packed(25, bad_rows, bad_counts, presorted=True)
        with pytest.raises(AssertionError):
            packedmod.unique_counts(bad_rows, 25, presorted=True)
        # Sorted input passes under the flag.
        KmerTable.from_packed(25, rows, counts, presorted=True)


# ---------------------------------------------------------------------------
# KmerTableCache: sharing + counters.
# ---------------------------------------------------------------------------


class TestKmerTableCache:
    def test_resolve_shares_and_counts(self):
        store = _store(random.Random(11), n_reads=30)
        (sp1,) = build_spectra(store, [25])
        (sp2,) = build_spectra(store, [25])
        tracer = Tracer()
        cache = KmerTableCache()
        with use_tracer(tracer):
            assert cache.get(store.digest, 25) is None  # miss: nothing yet
            cache.put(sp1)
            assert cache.get(store.digest, 25) is sp1  # hit: same (digest, k)
        assert (cache.hits, cache.misses) == (1, 1)
        snap = tracer.metrics.snapshot()["counters"]
        assert snap["kmer_table.hit"] == 1
        assert snap["kmer_table.miss"] == 1
        assert snap["kmer_table.bytes"] == sp1.nbytes
        # Ownership: the cache owns local arrays — close() on a
        # never-shared spectrum releases nothing and it keeps serving.
        sp1.close()
        assert not sp1.closed
        assert cache.get(store.digest, 25) is sp1
        # A shared entry belongs to the run that shared it: once that run
        # closes the segment the entry is dead and the next get drops it.
        sp1.share()
        sp1.close()
        assert sp1.closed
        assert cache.get(store.digest, 25) is None
        assert len(cache) == 0
        cache.put(sp2)
        assert cache.get(store.digest, 25) is sp2
        assert len(cache) == 1
        cache.clear()
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)
        sp2.close()
        store.close()

    def test_scoped_install(self):
        before = get_kmer_table_cache()
        mine = KmerTableCache(max_entries=2)
        with use_kmer_table_cache(mine):
            assert get_kmer_table_cache() is mine
            with use_kmer_table_cache(None):
                assert get_kmer_table_cache() is None
        assert get_kmer_table_cache() is before
        prev = set_kmer_table_cache(mine)
        assert set_kmer_table_cache(prev) is mine

    def test_lru_eviction(self):
        store = _store(random.Random(13), n_reads=20)
        spectra = build_spectra(store, [21, 25, 31])
        cache = KmerTableCache(max_entries=2)
        for sp in spectra:
            cache.put(sp)
        assert len(cache) == 2  # k=21 evicted
        assert cache.get(store.digest, 21) is None
        assert cache.get(store.digest, 31) is spectra[2]
        store.close()


def test_no_shm_leak_after_spectra_lifecycle():
    before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else None
    store = _store(random.Random(3), n_reads=20)
    spectra = build_spectra(store, [21, 33])
    for sp in spectra:
        sp.share()
        pickle.loads(pickle.dumps(sp))
    for sp in spectra:
        sp.close()
    store.close()
    if before is not None:
        leaked = set(os.listdir("/dev/shm")) - before
        assert not {n for n in leaked if n.startswith("psm_")}


def test_serial_build_peak_memory_is_bounded():
    """The Table II list on 2 000 read pairs: the traced peak of the
    build stays within 2.4x the spectra it returns (it reads 1.9x).
    Both packed strands die with the extraction and each k's rows die as
    its spectrum is born; ISSUE 22 sized a per-k generator that holds
    the strands across the sorts at 2.8x."""
    base = tiny_dataset(paired=True, seed=1, coverage_boost=0)
    spec = replace(base.run.spec, n_reads=2_000, seed=22)
    store = ReadStore.from_reads(
        ReadSimulator(base.transcriptome, spec).run().all_reads()
    )
    assert store.n_reads == 4_000
    tracemalloc.start()
    try:
        spectra = build_spectra(store, (51, 55, 59, 63))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(sp.nbytes for sp in spectra)
    assert held > 10e6  # a build large enough to measure
    assert peak <= 2.4 * held, (peak, held, peak / held)
