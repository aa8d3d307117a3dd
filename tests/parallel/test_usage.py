"""Tests for resource-usage records, and the oracle's payload sizing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import Tracer, use_tracer
from repro.parallel.usage import PhaseUsage, ResourceUsage
from tests.parallel.exec_reference import nbytes


class TestNbytes:
    def test_none(self):
        assert nbytes(None) == 0

    def test_numpy(self):
        assert nbytes(np.zeros(10, dtype=np.uint64)) == 80

    def test_bytes_str(self):
        assert nbytes(b"abcd") == 4
        assert nbytes("abcd") == 4

    def test_str_counts_utf8_bytes_not_code_points(self):
        # regression: len(str) under-charged non-ASCII payloads
        assert nbytes("né") == 3  # e-acute is 2 bytes in UTF-8
        assert nbytes("☃") == 3
        assert nbytes("🧬") == 4

    def test_mixed_payload_regression_pin(self):
        payload = ["ACGT", "séq", b"\x00\x01", ("🧬", 1)]
        # 4 + (2 + 2) + 2 + (4 + 8 + 16) + list overhead 16
        assert nbytes(payload) == 4 + 4 + 2 + 28 + 16

    def test_scalars(self):
        assert nbytes(3) == 8
        assert nbytes(3.5) == 8
        assert nbytes(np.int64(3)) == 8

    def test_bool_is_priced_as_an_int(self):
        # bool subclasses int, so it takes the 8-byte scalar branch.  This
        # pins what every collective and shuffle has always been charged:
        # pricing bool at 1 would move charged bytes (and virtual TTC).
        assert nbytes(True) == 8
        assert nbytes([True, False]) == 2 * 8 + 16

    def test_containers(self):
        assert nbytes([1, 2, 3]) == 3 * 8 + 16
        assert nbytes((1.0, 2.0)) == 2 * 8 + 16
        assert nbytes({1: "ab"}) == 8 + 2 + 16

    def test_nested(self):
        inner = nbytes([np.zeros(4, dtype=np.uint8)])
        assert inner == 4 + 16

    def test_object_fallback(self):
        class Thing:
            def __init__(self):
                self.x = 1

        assert nbytes(Thing()) > 0


class TestPhaseUsage:
    def test_scaled_scales_data_quantities(self):
        p = PhaseUsage(
            name="x", kind="kmer", critical_compute=10, total_compute=40,
            serial_compute=5, comm_bytes=100, n_collectives=3, n_messages=7,
            n_jobs=2,
        )
        s = p.scaled(10)
        assert s.critical_compute == 100
        assert s.total_compute == 400
        assert s.serial_compute == 50
        assert s.comm_bytes == 1000
        assert s.n_messages == 70
        # structural counts unscaled
        assert s.n_collectives == 3
        assert s.n_jobs == 2

    def test_defaults(self):
        p = PhaseUsage(name="x")
        assert p.kind == "generic"
        assert p.critical_compute == 0


class TestResourceUsage:
    def make(self):
        u = ResourceUsage(n_ranks=4)
        u.add_phase(PhaseUsage("a", "kmer", critical_compute=10, total_compute=40,
                               comm_bytes=100, n_collectives=1))
        u.add_phase(PhaseUsage("b", "graph", critical_compute=5, total_compute=20,
                               serial_compute=2, n_messages=3, n_jobs=1))
        u.peak_rank_memory_bytes = 1000
        return u

    def test_aggregates(self):
        u = self.make()
        assert u.critical_compute == 15
        assert u.total_compute == 60
        assert u.serial_compute == 2
        assert u.comm_bytes == 100
        assert u.n_collectives == 1
        assert u.n_messages == 3
        assert u.n_jobs == 1

    def test_by_kind(self):
        u = self.make()
        assert u.by_kind() == {"kmer": 10, "graph": 5}

    def test_merge(self):
        a, b = self.make(), self.make()
        b.peak_rank_memory_bytes = 5000
        m = a.merge(b)
        assert len(m.phases) == 4
        assert m.peak_rank_memory_bytes == 5000
        assert m.critical_compute == 30

    def test_scaled(self):
        u = self.make()
        s = u.scaled(2.0)
        assert s.critical_compute == 30
        assert s.peak_rank_memory_bytes == 2000
        assert s.n_ranks == 4

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            self.make().scaled(0)

    @given(st.floats(min_value=0.01, max_value=1e6))
    def test_scaling_linearity(self, f):
        u = self.make()
        assert u.scaled(f).critical_compute == pytest.approx(
            f * u.critical_compute
        )

    def test_add_phase_emits_trace_event(self):
        tracer = Tracer()
        with use_tracer(tracer):
            ResourceUsage().add_phase(
                PhaseUsage("walk", "graph", critical_compute=7, comm_bytes=9)
            )
        (e,) = tracer.events
        assert e.name == "phase" and e.category == "phase"
        assert e.attrs["phase"] == "walk"
        assert e.attrs["critical_compute"] == 7
        assert e.attrs["comm_bytes"] == 9
