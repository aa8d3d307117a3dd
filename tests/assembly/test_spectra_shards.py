"""Sharded spectrum build: shard/bucket parity, overlap spans, fallback.

The sharded build must be *invisible* except for wall time: for every
``(n_shards, n_buckets)`` combination the merged :class:`KmerSpectrum`
arrays — ``distinct``, ``counts``, ``inverse``, ``read_offsets`` and
``rel_positions`` — are bit-for-bit equal to the serial fused build, the
radix-bucket merge preserves global sort order across the 1-word/2-word
packing boundary, worker failure degrades to the serial path, and the
:class:`KmerTableCache` sees the exact same hit/miss sequence either way.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.assembly import packed as packedmod
from repro.assembly.sweep import (
    KmerTableCache,
    PendingSpectraBuild,
    SpectrumShardWorkload,
    _merge_shard_spectra,
    _shard_ranges,
    build_spectra,
    submit_spectra_build,
)
from repro.core.rnnotator import PipelineConfig
from repro.obs import Tracer, use_tracer
from repro.parallel.executor import ProcessExecutor
from repro.seq.fastq import FastqRecord
from repro.seq.readstore import ReadStore

#: k values straddling the packing word boundary: minimum k, a mid-size
#: 1-word k, the largest 1-word k, the smallest 2-word k, and MAX_K.
BOUNDARY_KS = (3, 25, 32, 33, 63)


def _random_reads(rng, n_reads, max_len=89, n_rate=0.03):
    """Random reads with Ns sprinkled in and ragged lengths (some too
    short for any k, some empty)."""
    reads = []
    for i in range(n_reads):
        length = rng.randrange(3, max_len)
        seq = "".join(
            "N" if rng.random() < n_rate else rng.choice("ACGT")
            for _ in range(length)
        )
        reads.append(FastqRecord(id=f"r{i}", seq=seq, qual="I" * length))
    return reads


def _sharded_inline(store, ks, n_shards, n_buckets):
    """Run the shard workloads in-process and merge — the exact code the
    pool executes, minus the pool."""
    parts_by_shard = []
    for lo, hi in _shard_ranges(store.n_reads, n_shards):
        (parts, _r0, _r1), _usage = SpectrumShardWorkload(
            store=store, ks=tuple(ks), reads_lo=lo, reads_hi=hi,
            n_buckets=n_buckets,
        )()
        parts_by_shard.append(parts)
    return tuple(
        _merge_shard_spectra(
            store, k, [p[k] for p in parts_by_shard], n_buckets
        )
        for k in ks
    )


def assert_spectra_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.k == w.k
        assert g.store_digest == w.store_digest
        np.testing.assert_array_equal(g.distinct, w.distinct)
        np.testing.assert_array_equal(g.counts, w.counts)
        np.testing.assert_array_equal(g.inverse, w.inverse)
        np.testing.assert_array_equal(g.read_offsets, w.read_offsets)
        np.testing.assert_array_equal(g.rel_positions, w.rel_positions)


# ---------------------------------------------------------------------------
# Tentpole property: shard/bucket decomposition is bit-identical.
# ---------------------------------------------------------------------------


class TestShardBucketParity:
    @pytest.fixture(scope="class")
    def store(self):
        store = ReadStore.from_reads(
            _random_reads(random.Random(20260809), 137)
        )
        yield store
        store.close()

    @pytest.fixture(scope="class")
    def serial(self, store):
        spectra = build_spectra(store, BOUNDARY_KS)
        yield spectra
        for sp in spectra:
            sp.close()

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
    @pytest.mark.parametrize("n_buckets", [1, 4, 16])
    def test_parity(self, store, serial, n_shards, n_buckets):
        got = _sharded_inline(store, BOUNDARY_KS, n_shards, n_buckets)
        try:
            assert_spectra_equal(got, serial)
        finally:
            for sp in got:
                sp.close()

    def test_shards_exceeding_reads(self, store, serial):
        # More shards than reads clamps to one shard per read.
        got = _sharded_inline(store, BOUNDARY_KS, 10_000, 4)
        try:
            assert_spectra_equal(got, serial)
        finally:
            for sp in got:
                sp.close()


class TestShardRanges:
    def test_partition(self):
        for n_reads in (0, 1, 5, 137):
            for n_shards in (1, 2, 3, 7, 200):
                ranges = _shard_ranges(n_reads, n_shards)
                assert ranges[0][0] == 0
                assert ranges[-1][1] == n_reads
                for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
                    assert a1 == b0
                sizes = [hi - lo for lo, hi in ranges]
                assert max(sizes) - min(sizes) <= 1

    def test_clamped_to_reads(self):
        assert len(_shard_ranges(3, 8)) == 3
        assert _shard_ranges(0, 4) == [(0, 0)]


class TestBucketIds:
    def test_rejects_non_power_of_two(self):
        for bad in (0, 3, 6, 12):
            with pytest.raises(ValueError, match="power of two"):
                packedmod.bucket_ids(np.zeros(1, dtype=np.uint64), 25, bad)

    def test_single_bucket(self):
        keys = np.arange(10, dtype=np.uint64)
        assert packedmod.bucket_ids(keys, 25, 1).tolist() == [0] * 10

    @pytest.mark.parametrize("k", BOUNDARY_KS)
    def test_monotone_over_sorted_keys(self, k):
        # The merge invariant: bucket ids are a prefix of the sort key,
        # so they must be non-decreasing over any sorted key array.
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 4, size=(500, k), dtype=np.uint8)
        keys = np.unique(packedmod.keys(rows, k))
        for n_buckets in (1, 4, 16, 64):
            bids = packedmod.bucket_ids(keys, k, n_buckets)
            assert (np.diff(bids) >= 0).all()
            assert bids.min() >= 0 and bids.max() < n_buckets


# ---------------------------------------------------------------------------
# The real pool path, the failure fallback, and the cache regression.
# ---------------------------------------------------------------------------


class TestPoolBuild:
    def test_process_executor_parity_and_spans(self):
        store = ReadStore.from_reads(
            _random_reads(random.Random(11), 64, max_len=61)
        )
        ks = (25, 33)
        try:
            serial = build_spectra(store, ks)
            tr = Tracer()
            with use_tracer(tr), ProcessExecutor(max_workers=2) as ex:
                assert ex.supports_overlap
                got = build_spectra(store, ks, executor=ex)
            try:
                assert_spectra_equal(got, serial)
            finally:
                for sp in got:
                    sp.close()
            for sp in serial:
                sp.close()
        finally:
            store.close()
        spans = [r for r in tr.records() if r["type"] == "span"]
        builds = [s for s in spans if s["name"] == "spectrum.build"]
        assert len(builds) == 1
        assert builds[0]["attrs"]["mode"] == "sharded"
        assert builds[0]["attrs"]["n_shards"] == 2
        shard_spans = [s for s in spans if s["name"] == "spectrum.shard"]
        assert len(shard_spans) == 2
        # Shard spans advance no virtual time (critpath-invisible).
        assert all(s["v0"] == s["v1"] for s in shard_spans)
        assert len([s for s in spans if s["name"] == "spectrum.merge"]) == 2

    def test_worker_failure_falls_back_to_serial(self):
        store = ReadStore.from_reads(
            _random_reads(random.Random(13), 40, max_len=50)
        )
        ks = (25,)
        try:
            serial = build_spectra(store, ks)
            failed = SimpleNamespace(
                outcome=lambda: SimpleNamespace(
                    result=None, error=RuntimeError("shard died")
                )
            )
            fake_executor = SimpleNamespace(
                supports_overlap=True,
                max_workers=2,
                submit=lambda work, context=None: failed,
            )
            tr = Tracer()
            with use_tracer(tr):
                pending = submit_spectra_build(store, ks, fake_executor)
                assert isinstance(pending, PendingSpectraBuild)
                got = pending.collect()
            try:
                assert_spectra_equal(got, serial)
            finally:
                for sp in got:
                    sp.close()
            for sp in serial:
                sp.close()
        finally:
            store.close()
        events = [r for r in tr.records() if r["type"] == "event"]
        assert any(e["name"] == "spectrum.build_fallback" for e in events)
        builds = [
            r
            for r in tr.records()
            if r["type"] == "span" and r["name"] == "spectrum.build"
        ]
        assert len(builds) == 1 and builds[0]["attrs"]["mode"] == "serial"

    def test_submit_requires_ks_and_power_of_two_buckets(self):
        store = ReadStore.from_reads(
            _random_reads(random.Random(17), 5, max_len=30)
        )
        fake = SimpleNamespace(
            supports_overlap=True, max_workers=2, submit=lambda w, c=None: None
        )
        try:
            with pytest.raises(ValueError, match="at least one k"):
                submit_spectra_build(store, (), fake)
            with pytest.raises(ValueError, match="power of two"):
                submit_spectra_build(store, (25,), fake, n_buckets=6)
        finally:
            store.close()


class TestCacheRegression:
    def test_hit_miss_counters_unchanged_by_parallel_build(self):
        """The sharded build never consults the table cache: caching
        its spectra produces the identical hit/miss sequence as the
        serial build's."""
        store = ReadStore.from_reads(
            _random_reads(random.Random(19), 50, max_len=60)
        )
        ks = (25, 31)
        try:
            serial_cache = KmerTableCache()
            serial = build_spectra(store, ks)
            assert (serial_cache.hits, serial_cache.misses) == (0, 0)
            for sp in serial:
                assert serial_cache.get(sp.store_digest, sp.k) is None
                serial_cache.put(sp)
                assert serial_cache.get(sp.store_digest, sp.k) is sp
            sharded_cache = KmerTableCache()
            sharded = _sharded_inline(store, ks, 3, 4)
            # The build itself must not have touched any cache.
            assert (sharded_cache.hits, sharded_cache.misses) == (0, 0)
            for sp in sharded:
                assert sharded_cache.get(sp.store_digest, sp.k) is None
                sharded_cache.put(sp)
                assert sharded_cache.get(sp.store_digest, sp.k) is sp
            assert serial_cache.hits == sharded_cache.hits == len(ks)
            assert serial_cache.misses == sharded_cache.misses == len(ks)
            for sp in serial:
                sp.close()
            for sp in sharded:
                sp.close()
        finally:
            store.close()


class TestConfigValidation:
    def test_spectrum_shards_validation(self):
        PipelineConfig(spectrum_shards=None)
        PipelineConfig(spectrum_shards=4)
        with pytest.raises(ValueError, match="spectrum_shards"):
            PipelineConfig(spectrum_shards=0)

    def test_spectrum_buckets_validation(self):
        PipelineConfig(spectrum_buckets=1)
        PipelineConfig(spectrum_buckets=64)
        for bad in (0, 3, 12):
            with pytest.raises(ValueError, match="spectrum_buckets"):
                PipelineConfig(spectrum_buckets=bad)
