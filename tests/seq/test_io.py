"""Tests for FASTA/FASTQ parsing and writing."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.seq.fasta import (
    FastaRecord,
    fasta_string,
    read_fasta,
    write_fasta,
)
from repro.seq.fastq import (
    FastqRecord,
    fastq_bytes_estimate,
    fastq_string,
    phred_to_ascii,
    read_fastq,
    write_fastq,
)


class TestFasta:
    def test_roundtrip_string(self):
        recs = [
            FastaRecord("a", "ACGT", "first record"),
            FastaRecord("b", "GGGCCC" * 30),
        ]
        text = fasta_string(recs)
        back = read_fasta(io.StringIO(text))
        assert back == recs

    def test_wrapping(self):
        text = fasta_string([FastaRecord("x", "A" * 150)], width=70)
        lines = text.strip().split("\n")
        assert lines[0] == ">x"
        assert [len(l) for l in lines[1:]] == [70, 70, 10]

    def test_no_wrapping(self):
        text = fasta_string([FastaRecord("x", "A" * 150)], width=0)
        assert text == ">x\n" + "A" * 150 + "\n"

    def test_multiline_sequence_joined(self):
        back = read_fasta(io.StringIO(">s desc here\nACG\nTTT\n\nGG\n"))
        assert back == [FastaRecord("s", "ACGTTTGG", "desc here")]

    def test_lowercase_uppercased(self):
        back = read_fasta(io.StringIO(">s\nacgt\n"))
        assert back[0].seq == "ACGT"

    def test_empty_file(self):
        assert read_fasta(io.StringIO("")) == []

    def test_data_before_header_rejected(self):
        with pytest.raises(ValueError):
            read_fasta(io.StringIO("ACGT\n>s\nACGT\n"))

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "x.fa"
        recs = [FastaRecord("r1", "ACGTACGT")]
        assert write_fasta(recs, path) == 1
        assert read_fasta(path) == recs

    def test_header_property(self):
        assert FastaRecord("id1", "A", "desc").header == "id1 desc"
        assert FastaRecord("id1", "A").header == "id1"

    def test_len(self):
        assert len(FastaRecord("x", "ACGT")) == 4

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abc123", min_size=1, max_size=10),
                st.text(alphabet="ACGTN", max_size=200),
            ),
            max_size=20,
        )
    )
    def test_roundtrip_property(self, pairs):
        recs = [FastaRecord(f"r{i}_{rid}", seq) for i, (rid, seq) in enumerate(pairs)]
        assert read_fasta(io.StringIO(fasta_string(recs))) == recs


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

    def test_bytes_estimate_scales(self):
        single = fastq_bytes_estimate(1000, 50, paired=False)
        paired = fastq_bytes_estimate(1000, 50, paired=True)
        assert paired == 2 * single
        assert fastq_bytes_estimate(2000, 50) == 2 * single

    def test_bytes_estimate_magnitude(self):
        # B. glumae: 16.26M 50bp single-end reads ~= 3.8 GB FASTQ (Table II).
        est = fastq_bytes_estimate(16_263_310, 50)
        assert 1.5e9 < est < 5e9

    @given(st.lists(st.text(alphabet="ACGTN", min_size=1, max_size=80), max_size=20))
    def test_roundtrip_property(self, seqs):
        recs = [
            FastqRecord(f"r{i}", s, phred_to_ascii(np.full(len(s), 30)))
            for i, s in enumerate(seqs)
        ]
        assert read_fastq(io.StringIO(fastq_string(recs))) == recs
