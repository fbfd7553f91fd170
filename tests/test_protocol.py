import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tofscan.protocol import (MAGIC, BadMagicError, BadVersionError, Message, MessageKind,
                              ProtocolError, TruncatedError, UnknownKindError,
                              decode_message, encode_message, frame_crc32,
                              pack_frame_payload, read_message, unpack_frame_payload)

KINDS = list(MessageKind)


def test_hello_wire_layout():
    buf = encode_message(Message(MessageKind.HELLO))
    assert buf == bytes([0x48, 0x53, 0x43, 0x4E, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00])


def test_one_mib_frame_round_trip(rng):
    payload = rng.integers(0, 256, 1 << 20, dtype=np.uint8).tobytes()
    m = Message(MessageKind.FRAME, payload)
    out = decode_message(encode_message(m))
    assert out == m


def test_bad_magic():
    buf = b"XXXX" + encode_message(Message(MessageKind.HELLO))[4:]
    with pytest.raises(BadMagicError):
        decode_message(buf)


def test_bad_version():
    buf = bytearray(encode_message(Message(MessageKind.HELLO)))
    buf[4] = 9
    with pytest.raises(BadVersionError):
        decode_message(bytes(buf))


def test_unknown_kind():
    buf = bytearray(encode_message(Message(MessageKind.HELLO)))
    buf[5] = 200
    with pytest.raises(UnknownKindError):
        decode_message(bytes(buf))


def test_truncated_header_and_payload():
    with pytest.raises(TruncatedError):
        decode_message(b"HSCN\x01\x01\x00")
    full = encode_message(Message(MessageKind.STATUS_ACK, b"abcdef"))
    with pytest.raises(TruncatedError):
        decode_message(full[:-2])


def test_length_field_is_big_endian():
    m = Message(MessageKind.FRAME, b"x" * 0x0102)
    buf = encode_message(m)
    assert buf[6:10] == bytes([0x00, 0x00, 0x01, 0x02])


def test_round_trip_randomized_bulk(rng):
    """decode(encode(m)) == m over 10^4 randomized messages incl. length extremes."""
    for i in range(10_000):
        kind = KINDS[int(rng.integers(0, len(KINDS)))]
        if i == 0:
            payload = b""
        elif i == 1:
            payload = bytes(rng.integers(0, 256, 1 << 20, dtype=np.uint8))
        else:
            payload = bytes(rng.integers(0, 256, int(rng.integers(0, 2048)), dtype=np.uint8))
        m = Message(kind, payload)
        assert decode_message(encode_message(m)) == m


@settings(max_examples=300)
@given(kind=st.sampled_from(KINDS), payload=st.binary(max_size=4096))
def test_round_trip_property(kind, payload):
    m = Message(kind, payload)
    assert decode_message(encode_message(m)) == m


def _memory_reader(b: bytes):
    """recv_exact over an in-memory buffer; running short is a truncation."""
    pos = 0

    def recv_exact(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(b):
            raise TruncatedError(f"stream ended: wanted {n}, {len(b) - pos} left")
        pos += n
        return b[pos - n:pos]
    return recv_exact


def _outcome(parse):
    try:
        return parse()
    except ProtocolError as e:
        return type(e)


# header-shaped streams reach the version, kind, length and payload checks
_HEADER_SHAPED = st.builds(
    lambda magic, version, kind, length, payload:
        magic + bytes([version, kind]) + length.to_bytes(4, "big") + payload,
    st.sampled_from([MAGIC, b"HSCX"]), st.sampled_from([1, 2]), st.integers(0, 255),
    st.one_of(st.integers(0, 64), st.integers(0, 2 ** 32 - 1)), st.binary(max_size=80))


@settings(max_examples=400)
@given(b=st.one_of(st.binary(max_size=64), _HEADER_SHAPED))
def test_decode_and_read_agree(b):
    """Both readers return the same Message or raise the same ProtocolError subclass."""
    assert _outcome(lambda: decode_message(b)) == _outcome(lambda: read_message(_memory_reader(b)))


def test_frame_payload_pack_unpack(rng):
    depth = bytes(rng.integers(0, 256, 500, dtype=np.uint8))
    color = bytes(rng.integers(0, 256, 750, dtype=np.uint8))
    d, c = unpack_frame_payload(pack_frame_payload(depth, color))
    assert d == depth and c == color


def test_frame_payload_truncation():
    with pytest.raises(TruncatedError):
        unpack_frame_payload(b"\x00\x00")
    with pytest.raises(TruncatedError):
        unpack_frame_payload(b"\x00\x00\x00\x10abc")


def test_crc32_detects_flip():
    a = frame_crc32(b"hello", b"world")
    assert a == frame_crc32(b"hello", b"world")
    assert a != frame_crc32(b"hellp", b"world")
    # CRC-32 (IEEE) reference value
    import zlib
    assert frame_crc32(b"123456789", b"") == zlib.crc32(b"123456789")
