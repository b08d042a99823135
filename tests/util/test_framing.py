"""Binary framing utilities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.framing import ByteReader, ByteWriter, FrameError, frame


class TestByteWriterReader:
    def test_scalar_round_trip(self):
        data = (
            ByteWriter().u8(7).u16(300).u32(70000).u64(1 << 40).f64(3.5).getvalue()
        )
        r = ByteReader(data)
        assert r.u8() == 7
        assert r.u16() == 300
        assert r.u32() == 70000
        assert r.u64() == 1 << 40
        assert r.f64() == 3.5
        r.expect_end()

    def test_lp_bytes_and_str(self):
        data = ByteWriter().lp_bytes(b"abc").lp_str("héllo").getvalue()
        r = ByteReader(data)
        assert r.lp_bytes() == b"abc"
        assert r.lp_str() == "héllo"

    def test_a_view_reads_as_bytes(self):
        """A frame read off a live socket can be a view of its chunk: the
        fields come out as ``bytes`` all the same, and strings decode."""
        data = ByteWriter().lp_bytes(b"abc").lp_str("héllo").getvalue()
        r = ByteReader(memoryview(b"\0" + data)[1:])
        assert type(r.lp_bytes()) is bytes and r.lp_str() == "héllo"

    @given(st.integers(min_value=0, max_value=1 << 256))
    def test_mpint_round_trip(self, value):
        data = ByteWriter().mpint(value).getvalue()
        assert ByteReader(data).mpint() == value

    def test_mpint_rejects_negative(self):
        with pytest.raises(FrameError):
            ByteWriter().mpint(-1)

    def test_truncated_read_raises(self):
        r = ByteReader(b"\x00\x01")
        with pytest.raises(FrameError, match="truncated"):
            r.u32()

    def test_trailing_bytes_detected(self):
        r = ByteReader(b"\x00\x01")
        r.u8()
        with pytest.raises(FrameError, match="trailing"):
            r.expect_end()

    def test_frame_helper(self):
        framed = frame(b"xyz")
        assert framed == b"\x00\x00\x00\x03xyz"

    @given(st.lists(st.binary(max_size=50), max_size=8))
    def test_sequence_round_trip(self, chunks):
        w = ByteWriter()
        for chunk in chunks:
            w.lp_bytes(chunk)
        r = ByteReader(w.getvalue())
        assert [r.lp_bytes() for _ in chunks] == chunks
        r.expect_end()
