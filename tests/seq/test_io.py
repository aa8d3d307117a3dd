"""Tests for FASTQ parsing and writing."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.seq.fastq import FastqRecord, read_fastq, write_fastq
from tests.seq.reads_reference import phred_to_ascii


def fastq_string(records) -> str:
    """Records rendered by ``write_fastq`` into a string."""
    buf = io.StringIO()
    write_fastq(records, buf)
    return buf.getvalue()


class TestFastq:
    def test_roundtrip(self):
        recs = [FastqRecord("r1", "ACGT", "IIII"), FastqRecord("r2", "GG", "!!")]
        back = read_fastq(io.StringIO(fastq_string(recs)))
        assert back == recs

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FastqRecord("r", "ACGT", "II")

    def test_phred_decode(self):
        rec = FastqRecord("r", "AC", "!I")
        assert rec.phred().tolist() == [0, 40]

    def test_phred_to_ascii_clipping(self):
        s = phred_to_ascii(np.array([-5, 0, 41, 100]))
        assert s[0] == "!"  # clipped up to 0
        assert s[1] == "!"
        assert ord(s[3]) - 33 == 60  # clipped down to 60

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            read_fastq(io.StringIO("r1\nACGT\n+\nIIII\n"))

    def test_bad_separator_rejected(self):
        with pytest.raises(ValueError):
            read_fastq(io.StringIO("@r1\nACGT\nIIII\nIIII\n"))

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            read_fastq(io.StringIO("@r1\nACGT\n+\nII"))

    def test_empty(self):
        assert read_fastq(io.StringIO("")) == []

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "x.fq"
        recs = [FastqRecord("a", "ACGTN", "IIII#")]
        assert write_fastq(recs, path) == 1
        assert read_fastq(path) == recs

    def test_id_stops_at_whitespace(self):
        back = read_fastq(io.StringIO("@r1 extra stuff\nAC\n+\nII\n"))
        assert back[0].id == "r1"

    def test_crlf_parses_as_lf(self):
        lf = "@r1 extra\nACGT\n+\nIIII\n\n@r2\nacgn\n+r2\n!!#I\n"
        back = read_fastq(io.StringIO(lf.replace("\n", "\r\n")))
        assert back == read_fastq(io.StringIO(lf))
        assert back[0] == FastqRecord("r1", "ACGT", "IIII")

    @pytest.mark.parametrize("header", ["@", "@  ", "@\t"])
    def test_header_without_id_rejected(self, header):
        with pytest.raises(ValueError, match="without an id") as err:
            read_fastq(io.StringIO(f"@r1\nAC\n+\nII\n{header}\nAC\n+\nII\n"))
        assert repr(header) in str(err.value)

    @given(st.lists(st.text(alphabet="ACGTN", min_size=1, max_size=80), max_size=20))
    def test_roundtrip_property(self, seqs):
        recs = [
            FastqRecord(f"r{i}", s, phred_to_ascii(np.full(len(s), 30)))
            for i, s in enumerate(seqs)
        ]
        assert read_fastq(io.StringIO(fastq_string(recs))) == recs
