"""Property-based round-trips for the IPL typed serialization.

Randomized (but seeded, hence reproducible) sequences of typed items are
written, re-read and compared — including the machine-typed array fast
path — and every truncation of an encoding must fail loudly rather than
misread (the tag-prefixed format's core promise).
"""

import array
import math
import random
import struct

import pytest

from repro.ipl.serialization import MessageReader, MessageWriter, SerializationError

ARRAY_TYPECODES = "bBhHiIlLqQfd"


def _random_double(rng):
    value = struct.unpack("!d", rng.randbytes(8))[0]
    return 0.0 if math.isnan(value) else value


def _random_array(rng):
    code = rng.choice(ARRAY_TYPECODES)
    out = array.array(code)
    out.frombytes(rng.randbytes(out.itemsize * rng.randrange(0, 64)))
    if code in "fd":  # NaN payloads never compare equal
        for i, v in enumerate(out):
            if math.isnan(v):
                out[i] = 0.0
    return out


ITEM_KINDS = [
    ("bool", lambda rng: rng.random() < 0.5),
    ("int", lambda rng: rng.randrange(-(1 << 31), 1 << 31)),
    ("long", lambda rng: rng.randrange(-(1 << 63), 1 << 63)),
    ("double", _random_double),
    (
        "string",
        lambda rng: "".join(
            chr(rng.choice([rng.randrange(32, 127), rng.randrange(0x370, 0x3FF)]))
            for _ in range(rng.randrange(0, 60))
        ),
    ),
    ("bytes", lambda rng: rng.randbytes(rng.randrange(0, 300))),
    ("array", _random_array),
    ("object", lambda rng: {"k": rng.randrange(100), "v": [rng.random(), None]}),
]


def random_items(rng, n):
    items = []
    for _ in range(n):
        kind, gen = rng.choice(ITEM_KINDS)
        items.append((kind, gen(rng)))
    return items


@pytest.mark.parametrize("seed", range(25))
def test_typed_round_trip_random_sequences(seed):
    rng = random.Random(f"serial:{seed}")
    items = random_items(rng, rng.randrange(1, 25))
    writer = MessageWriter()
    for kind, value in items:
        getattr(writer, f"write_{kind}")(value)
    payload = writer.getvalue()
    assert writer.size == len(payload)

    reader = MessageReader(payload)
    for kind, value in items:
        got = getattr(reader, f"read_{kind}")()
        assert got == value, (kind, value)
    reader.finish()


@pytest.mark.parametrize("seed", range(10))
def test_reading_wrong_type_fails_loudly(seed):
    rng = random.Random(f"mismatch:{seed}")
    kind, gen = rng.choice(ITEM_KINDS)
    writer = MessageWriter()
    getattr(writer, f"write_{kind}")(gen(rng))
    wrong = rng.choice([k for k, _ in ITEM_KINDS if k != kind])
    reader = MessageReader(writer.getvalue())
    with pytest.raises(SerializationError, match="type mismatch|truncated"):
        getattr(reader, f"read_{wrong}")()


@pytest.mark.parametrize("seed", range(10))
def test_truncation_never_misreads(seed):
    rng = random.Random(f"serial-trunc:{seed}")
    items = random_items(rng, rng.randrange(1, 10))
    writer = MessageWriter()
    for kind, value in items:
        getattr(writer, f"write_{kind}")(value)
    payload = writer.getvalue()
    cut = rng.randrange(0, len(payload))
    reader = MessageReader(payload[:cut])
    with pytest.raises(SerializationError):
        for kind, _value in items:
            getattr(reader, f"read_{kind}")()
        reader.finish()


def test_finish_rejects_unread_items():
    payload = MessageWriter().write_int(1).write_int(2).getvalue()
    reader = MessageReader(payload)
    assert reader.read_int() == 1
    with pytest.raises(SerializationError, match="unread"):
        reader.finish()
