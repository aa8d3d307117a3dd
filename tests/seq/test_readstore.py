"""ReadStore: encode-once layout, extraction parity, and the one
shared-memory lifecycle (create/attach/close/unlink, double-close,
leak-freedom) that ReadStore and KmerSpectrum both hold."""

import gc
import pickle
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context, shared_memory

import numpy as np
import pytest

from repro.assembly.base import AssemblyParams
from repro.assembly.kmers import (
    canonical_kmers_store_packed,
    canonical_kmers_varlen_packed,
)
from repro.assembly.sweep import FIELDS as SPECTRUM_FIELDS
from repro.assembly.sweep import KmerSpectrum, KmerSpectrumHandle, build_spectra
from repro.core.multikmer import make_assembly_workload
from repro.parallel.executor import ProcessExecutor
from repro.seq import alphabet, sharedarrays
from repro.seq.fastq import FastqRecord
from repro.seq.readstore import ReadStore, ReadStoreHandle


def _mk(seqs, ids=None, quals=None):
    return [
        FastqRecord(
            id=(ids[i] if ids else f"r{i}"),
            seq=s,
            qual=(quals[i] if quals else "I" * len(s)),
        )
        for i, s in enumerate(seqs)
    ]


READS = _mk(
    ["ACGTACGTACGT", "TTTTGGGGCCCC", "ACGNNNTGCA", "AC", "GGGCCCAAATTT"],
    quals=["IIIIIIIIIIII", "!!!!IIII####", "ABCDEFGHIJ", "##", "IIIIIIIII###"],
)


class TestLayout:
    def test_roundtrip_records(self):
        store = ReadStore.from_reads(READS)
        assert store.records() == READS

    def test_shapes_and_lengths(self):
        store = ReadStore.from_reads(READS)
        assert store.n_reads == len(READS) == len(store)
        assert store.n_bases == sum(len(r) for r in READS)
        assert store.lengths.tolist() == [len(r) for r in READS]
        # one separator per read, including the trailing one
        assert store.codes.size == store.n_bases + store.n_reads
        assert store.quals.size == store.codes.size

    def test_per_read_accessors(self):
        store = ReadStore.from_reads(READS)
        for i, r in enumerate(READS):
            assert store.seq(i) == r.seq
            assert store.read_id(i) == r.id
            np.testing.assert_array_equal(
                store.read_codes(i), alphabet.encode(r.seq)
            )
            np.testing.assert_array_equal(store.phred(i), r.phred())

    def test_separators_are_n(self):
        store = ReadStore.from_reads(READS)
        seps = store.codes[store.offsets[1:] - 1]
        assert (seps == alphabet.N).all()

    def test_contains_n_excludes_separators(self):
        assert not ReadStore.from_reads(_mk(["ACGT", "GGCC"])).contains_n()
        assert ReadStore.from_reads(_mk(["ACGT", "GGNC"])).contains_n()

    def test_empty_store(self):
        store = ReadStore.from_reads([])
        assert store.n_reads == 0 and store.n_bases == 0
        assert store.records() == []
        assert canonical_kmers_store_packed(store, 5).shape[0] == 0

    def test_arrays_read_only(self):
        store = ReadStore.from_reads(READS)
        with pytest.raises(ValueError):
            store.codes[0] = 1


class TestExtractionParity:
    @pytest.mark.parametrize("k", [3, 5, 11, 33])
    def test_full_store_matches_varlen(self, reads_single, k):
        reads = reads_single[:300]
        store = ReadStore.from_reads(reads)
        np.testing.assert_array_equal(
            canonical_kmers_store_packed(store, k),
            canonical_kmers_varlen_packed([r.seq for r in reads], k),
        )

    def test_short_and_n_reads_contribute_nothing(self):
        store = ReadStore.from_reads(READS)
        got = canonical_kmers_store_packed(store, 11)
        want = canonical_kmers_varlen_packed([r.seq for r in READS], 11)
        np.testing.assert_array_equal(got, want)


class TestDigest:
    def test_content_addressed(self):
        a = ReadStore.from_reads(READS)
        b = ReadStore.from_reads(list(READS))
        assert a.digest == b.digest and a == b and hash(a) == hash(b)

    def test_sensitive_to_base_qual_id_and_order(self):
        base = ReadStore.from_reads(_mk(["ACGT", "GGCC"])).digest
        assert ReadStore.from_reads(_mk(["ACGA", "GGCC"])).digest != base
        assert (
            ReadStore.from_reads(
                _mk(["ACGT", "GGCC"], quals=["III!", "IIII"])
            ).digest
            != base
        )
        assert (
            ReadStore.from_reads(_mk(["ACGT", "GGCC"], ids=["x", "y"])).digest
            != base
        )
        assert ReadStore.from_reads(_mk(["GGCC", "ACGT"])).digest != base


def _attach_fresh(cls, handle):
    """Attach through the real shared-memory path (module-level so the
    fork pool can pickle it by reference; the inherited attach registry
    is cleared first, otherwise the fork child would reuse the parent's
    in-process object and test nothing)."""
    sharedarrays._ATTACHED.clear()
    return _content(cls.attach(handle))


def _content(obj):
    """Everything the object's arrays say, in a comparable form."""
    if isinstance(obj, ReadStore):
        return obj.digest, obj.records()
    return obj.k, obj.store_digest, [
        getattr(obj, field).tolist() for field in SPECTRUM_FIELDS
    ]


def _segment_exists(name):
    try:
        shm = sharedarrays._attach_untracked(name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


class _LifecycleSuite:
    """The shared-memory lifecycle, written once.  The two subclasses
    below only say what a fresh object is; a class per input (not a
    parameter) keeps the ReadStore ids the suite has always had."""

    handle_type = None
    pickled_size = None  # what PR 18 pickled to; the handle stays compact
    fields = ()  # array properties that must raise once closed

    def fresh(self, reads=READS):
        raise NotImplementedError

    def fanout(self, reads):
        """(object, assembly workload that carries it)."""
        raise NotImplementedError

    def test_share_is_idempotent_and_zero_copy_semantics_hold(self):
        obj = self.fresh()
        before = _content(obj)
        handle = obj.share()
        assert isinstance(handle, self.handle_type)
        assert obj.share() == handle == obj.handle()  # same segment
        assert obj.shared and obj.owns_shm and not obj.closed
        assert _content(obj) == before  # views rebound onto the segment
        assert not getattr(obj, self.fields[0]).flags.writeable
        obj.close()

    def test_pickle_roundtrip_returns_live_store(self):
        obj = self.fresh()
        clone = pickle.loads(pickle.dumps(obj))
        # in-process unpickle resolves through the attach registry
        assert clone is obj
        obj.close()

    def test_pickled_size_is_o1_in_read_count(self, reads_single):
        objs = [self.fresh(reads_single[:n]) for n in (50, 2000)]
        sizes = [len(pickle.dumps(o)) for o in objs]
        # O(1): a 40x read-count increase moves the pickle by at most a
        # few varint bytes, and the handle stays the compact one.
        assert abs(sizes[1] - sizes[0]) <= 16
        assert abs(sizes[1] - self.pickled_size) <= 16
        for o in objs:
            o.close()

    def test_attach_across_processes(self):
        obj = self.fresh()
        handle = obj.share()
        ctx = get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            seen = pool.submit(_attach_fresh, type(obj), handle).result()
        assert seen == _content(obj)
        obj.close()

    def test_close_unlinks_owner_segment(self):
        obj = self.fresh()
        name = obj.share().shm_name
        obj.close()
        assert obj.closed and not obj.shared
        assert not _segment_exists(name)

    def test_double_close_is_safe(self):
        obj = self.fresh()
        obj.share()
        obj.close()
        obj.close()  # must not raise
        for field in self.fields:
            with pytest.raises(ValueError, match="is closed"):
                getattr(obj, field)
        with pytest.raises(ValueError, match="is closed"):
            _ = obj.nbytes
        with pytest.raises(ValueError, match="closed"):
            obj.share()
        local = self.fresh()
        local.close()  # never shared: a no-op, and it stays usable
        assert not local.closed and _content(local) == _content(self.fresh())
        with pytest.raises(ValueError, match="not shared"):
            local.handle()

    def test_attacher_close_does_not_unlink(self):
        owner = self.fresh()
        handle = owner.share()
        sharedarrays._ATTACHED.clear()  # force a real second attachment
        attacher = type(owner).attach(handle)
        assert attacher is not owner and not attacher.owns_shm
        assert _content(attacher) == _content(owner)
        with pytest.raises(ValueError):  # attached views are read-only
            getattr(attacher, self.fields[0])[...] = 0
        attacher.close()
        # The owner's segment must survive the attacher's close — by
        # name too: the owner's own mapping would outlive an unlink.
        assert _segment_exists(handle.shm_name)
        assert _content(owner) == _content(self.fresh())
        owner.close()

    def test_gc_backstop_unlinks(self):
        obj = self.fresh()
        name = obj.share().shm_name
        del obj  # no explicit close: the finalizer must clean up
        gc.collect()
        assert not _segment_exists(name)

    def test_close_detaches_the_backstop(self):
        """close(unlink=False) hands the segment on; the finalizer of
        the closed object must not destroy it later."""
        obj = self.fresh()
        name = obj.share().shm_name
        obj.close(unlink=False)
        del obj
        gc.collect()
        assert _segment_exists(name)
        shm = shared_memory.SharedMemory(name=name)
        shm.close()
        shm.unlink()

    def test_attach_after_unlink_fails_at_once(self):
        obj = self.fresh()
        handle = obj.share()
        obj.close()
        sharedarrays._ATTACHED.clear()
        with pytest.raises(FileNotFoundError):
            type(obj).attach(handle)
        assert handle.shm_name not in sharedarrays._ATTACHED

    def test_repr_in_every_state(self):
        obj = self.fresh()
        assert ", local, " in repr(obj)
        obj.share()
        assert ", shared, " in repr(obj)
        obj.close()
        assert ", closed, " in repr(obj)  # must not touch the arrays

    def test_no_dangling_segments_after_executor_shutdown(self, reads_single):
        """A fan-out through the process backend leaves /dev/shm clean."""
        obj, work = self.fanout(reads_single[:120])
        ex = ProcessExecutor(max_workers=1)
        outcome = ex.submit(work).outcome()
        ex.shutdown()
        assert outcome.ok
        name = obj.handle().shm_name  # the submit's pickle shared it
        work.store.close()
        obj.close()
        assert not _segment_exists(name)


class TestSharedMemoryLifecycle(_LifecycleSuite):
    """... of a fresh ReadStore."""

    handle_type = ReadStoreHandle
    pickled_size = 231
    fields = ("codes", "quals", "offsets")

    def fresh(self, reads=READS):
        return ReadStore.from_reads(reads)

    def fanout(self, reads):
        store = self.fresh(reads)
        return store, make_assembly_workload(
            "velvet", store, AssemblyParams(k=31), n_ranks=1
        )


class TestSpectrumSharedMemoryLifecycle(_LifecycleSuite):
    """... of a fresh KmerSpectrum, over a store that stays local."""

    handle_type = KmerSpectrumHandle
    pickled_size = 248
    fields = tuple(SPECTRUM_FIELDS)

    def fresh(self, reads=READS):
        (spectrum,) = build_spectra(ReadStore.from_reads(reads), [5])
        return spectrum

    def fanout(self, reads):
        store = ReadStore.from_reads(reads)
        (spectrum,) = build_spectra(store, [31])
        return spectrum, make_assembly_workload(
            "velvet", store, AssemblyParams(k=31), n_ranks=1, spectrum=spectrum
        )

    def test_close_of_a_local_spectrum_keeps_derived_caches(self):
        """The table cache holds local spectra across runs and relies on
        their memoised owner partition surviving the run's close()."""
        spectrum = self.fresh()
        owners = spectrum.owners(3)
        spectrum.close()
        assert spectrum.owners(3) is owners
