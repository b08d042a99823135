"""Typed message serialization."""

import array
import pickle
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ipl.serialization import (
    MAX_DEPTH,
    T_ARRAY,
    T_OBJECT,
    T_STRING,
    MessageReader,
    MessageWriter,
    SerializationError,
)

#: every typed reader and the tag it expects
READERS = {
    "bool": 1, "int": 2, "long": 3, "double": 4, "string": T_STRING,
    "bytes": 6, "array": T_ARRAY, "object": T_OBJECT,
}

#: the structured values write_object carries, nested a few levels deep
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text() | st.binary(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=8) | st.integers(), inner, max_size=4),
    max_leaves=20,
)


class TestRoundTrips:
    def test_all_types(self):
        w = MessageWriter()
        w.write_bool(True).write_int(-5).write_long(1 << 40)
        w.write_double(3.25).write_string("grüß dich").write_bytes(b"\x00\xff")
        w.write_array(array.array("i", [1, 2, 3]))
        w.write_object({"nested": [1, "two"]})
        r = MessageReader(w.getvalue())
        assert r.read_bool() is True
        assert r.read_int() == -5
        assert r.read_long() == 1 << 40
        assert r.read_double() == 3.25
        assert r.read_string() == "grüß dich"
        assert r.read_bytes() == b"\x00\xff"
        assert list(r.read_array()) == [1, 2, 3]
        assert r.read_object() == {"nested": [1, "two"]}
        r.finish()

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_int_property(self, value):
        r = MessageReader(MessageWriter().write_int(value).getvalue())
        assert r.read_int() == value

    @given(st.floats(allow_nan=False))
    def test_double_property(self, value):
        r = MessageReader(MessageWriter().write_double(value).getvalue())
        assert r.read_double() == value

    @given(st.text(max_size=200))
    def test_string_property(self, value):
        r = MessageReader(MessageWriter().write_string(value).getvalue())
        assert r.read_string() == value

    @given(st.lists(st.floats(allow_nan=False, width=64), max_size=50))
    def test_double_array_property(self, values):
        arr = array.array("d", values)
        r = MessageReader(MessageWriter().write_array(arr).getvalue())
        assert list(r.read_array()) == values

    @given(st.lists(st.integers(-(2**31), 2**31 - 1), max_size=50))
    def test_int_array_property(self, values):
        arr = array.array("i", values)
        r = MessageReader(MessageWriter().write_array(arr).getvalue())
        assert list(r.read_array()) == values


class TestTypeSafety:
    def test_type_mismatch_detected(self):
        payload = MessageWriter().write_int(1).getvalue()
        r = MessageReader(payload)
        with pytest.raises(SerializationError, match="type mismatch"):
            r.read_string()

    def test_truncated_detected(self):
        payload = MessageWriter().write_long(5).getvalue()[:-2]
        r = MessageReader(payload)
        with pytest.raises(SerializationError, match="truncated"):
            r.read_long()

    def test_unread_items_detected(self):
        payload = MessageWriter().write_int(1).write_int(2).getvalue()
        r = MessageReader(payload)
        r.read_int()
        with pytest.raises(SerializationError, match="unread"):
            r.finish()

    def test_write_array_rejects_lists(self):
        with pytest.raises(SerializationError):
            MessageWriter().write_array([1, 2, 3])

    def test_size_tracks_payload(self):
        w = MessageWriter()
        w.write_bytes(b"x" * 100)
        assert w.size == len(w.getvalue()) == 1 + 4 + 100


class TestStructuredValues:
    @given(VALUES)
    def test_round_trip(self, value):
        r = MessageReader(MessageWriter().write_object(value).getvalue())
        assert r.read_object() == value
        r.finish()

    def test_tuples_and_big_ints_keep_their_type(self):
        value = {"k": (1, 2), (3, "x"): [-(2**100), 2**64, b"\x00"], None: True}
        r = MessageReader(MessageWriter().write_object(value).getvalue())
        got = r.read_object()
        assert got == value and type(got["k"]) is tuple

    def test_unsupported_type_refused_on_write(self):
        with pytest.raises(SerializationError, match="cannot encode set"):
            MessageWriter().write_object({1, 2})

    def test_nesting_bounded_on_write(self):
        deep = []
        for _ in range(MAX_DEPTH + 1):
            deep = [deep]
        with pytest.raises(SerializationError, match="nested deeper"):
            MessageWriter().write_object(deep)

    def test_nesting_bounded_on_read(self):
        body = bytes([7, 0, 0, 0, 1]) * (MAX_DEPTH + 1) + bytes([0])
        frame = bytes([T_OBJECT]) + struct.pack("!I", len(body)) + body
        with pytest.raises(SerializationError, match="nested deeper"):
            MessageReader(frame).read_object()

    def test_count_bounded_by_bytes_left(self):
        body = bytes([7]) + struct.pack("!I", 2**32 - 1) + bytes([0])
        frame = bytes([T_OBJECT]) + struct.pack("!I", len(body)) + body
        with pytest.raises(SerializationError, match="truncated"):
            MessageReader(frame).read_object()

    def test_unhashable_key_refused(self):
        body = bytes([9, 0, 0, 0, 1, 7, 0, 0, 0, 0, 0])  # {[]: None}
        frame = bytes([T_OBJECT]) + struct.pack("!I", len(body)) + body
        with pytest.raises(SerializationError, match="unhashable"):
            MessageReader(frame).read_object()


_CALLS = []


def _side_effect():
    _CALLS.append("ran")


class _Reducer:
    def __reduce__(self):
        return (_side_effect, ())


class TestMalformedInput:
    def test_pickle_in_an_object_frame_is_refused(self):
        data = pickle.dumps(_Reducer())
        frame = bytes([T_OBJECT]) + struct.pack("!I", len(data)) + data
        with pytest.raises(SerializationError):
            MessageReader(frame).read_object()
        assert _CALLS == []

    def test_bool_byte_other_than_0_or_1(self):
        with pytest.raises(SerializationError, match="neither 0 nor 1"):
            MessageReader(bytes([1, 2])).read_bool()

    def test_invalid_utf8_string(self):
        frame = bytes([T_STRING]) + struct.pack("!I", 2) + b"\xff\xfe"
        with pytest.raises(SerializationError, match="UTF-8"):
            MessageReader(frame).read_string()

    def test_bad_array_typecode(self):
        frame = bytes([T_ARRAY]) + b"Z<" + struct.pack("!I", 0)
        with pytest.raises(SerializationError, match="typecode"):
            MessageReader(frame).read_array()

    def test_array_length_not_a_multiple_of_the_item_size(self):
        frame = bytes([T_ARRAY]) + b"i<" + struct.pack("!I", 3) + b"abc"
        with pytest.raises(SerializationError, match="whole number"):
            MessageReader(frame).read_array()

    @given(st.binary(max_size=64), st.sampled_from(sorted(READERS)))
    def test_every_reader_raises_only_serialization_error(self, data, kind):
        # bare bytes, then the reader's own tag first, then the tag and a
        # length that fits: the checks past each see arbitrary bytes too
        tag = bytes([READERS[kind]])
        for payload in (data, tag + data, tag + struct.pack("!I", len(data)) + data):
            try:
                getattr(MessageReader(payload), f"read_{kind}")()
            except SerializationError:
                pass
