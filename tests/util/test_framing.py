"""Binary framing utilities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bytesbuf import AggregationBuffer
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


class TestAggregationBuffer:
    def test_overflow_emits_full_blocks(self):
        buf = AggregationBuffer(10)
        emitted = buf.write(b"x" * 25)
        assert [len(b) for b in emitted] == [10, 10]
        assert buf.pending == 5

    def test_flush_emits_partial(self):
        buf = AggregationBuffer(10)
        buf.write(b"abc")
        assert buf.flush() == b"abc"
        assert buf.flush() is None

    def test_callback_invoked(self):
        seen = []
        buf = AggregationBuffer(4, on_block=seen.append)
        buf.write(b"abcdefgh")
        assert seen == [b"abcd", b"efgh"]

    def test_counts(self):
        buf = AggregationBuffer(8)
        buf.write(b"0123456789")
        buf.flush()
        assert buf.bytes_in == 10
        assert buf.blocks_emitted == 2

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            AggregationBuffer(0)

    @given(st.lists(st.binary(min_size=0, max_size=64), max_size=20), st.integers(1, 32))
    def test_content_preserved(self, writes, capacity):
        buf = AggregationBuffer(capacity)
        out = []
        for data in writes:
            out.extend(buf.write(data))
        tail = buf.flush()
        if tail:
            out.append(tail)
        assert b"".join(out) == b"".join(writes)
        assert all(len(block) <= capacity for block in out)
