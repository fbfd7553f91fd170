"""Length-prefixed binary message framing for the acquisition client/server link.

Wire layout (all multi-byte integers big-endian):

    offset 0  magic   4 bytes  "HSCN"
    offset 4  version 1 byte   0x01
    offset 5  kind    1 byte   see MessageKind
    offset 6  length  4 bytes  unsigned payload byte count
    offset 10 payload length bytes, kind-specific

JSON payloads are UTF-8 encoded; FRAME payloads are binary (a 4-byte
big-endian depth-blob length, the depth PGM bytes, then the color PPM bytes).
"""

from __future__ import annotations

import enum
import json
import struct
import zlib
from dataclasses import dataclass

__all__ = [
    "MAGIC", "VERSION", "MessageKind", "Message",
    "ProtocolError", "BadMagicError", "BadVersionError", "TruncatedError", "UnknownKindError",
    "encode_message", "decode_message", "read_message",
    "json_message", "payload_json", "pack_frame_payload", "unpack_frame_payload",
    "frame_crc32", "ErrorCode",
]

MAGIC = b"HSCN"
VERSION = 1
_HEADER = struct.Struct(">4sBBI")
MAX_PAYLOAD = 64 * 1024 * 1024  # sanity cap: one frame is a few MB at most


class MessageKind(enum.IntEnum):
    HELLO = 1
    HELLO_ACK = 2
    CONFIGURE = 3
    CONFIGURE_ACK = 4
    TRIGGER = 5
    TRIGGER_ACK = 6
    FETCH = 7
    FRAME = 8
    STATUS = 9
    STATUS_ACK = 10
    ERROR = 15


class ErrorCode(enum.IntEnum):
    BAD_REQUEST = 1
    BAD_STATE = 2
    UNKNOWN_FRAME = 3
    INTERNAL = 4


class ProtocolError(Exception):
    """Base class for wire-format violations."""


class BadMagicError(ProtocolError):
    pass


class BadVersionError(ProtocolError):
    pass


class TruncatedError(ProtocolError):
    pass


class UnknownKindError(ProtocolError):
    pass


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    payload: bytes = b""

    def __post_init__(self):
        object.__setattr__(self, "kind", MessageKind(self.kind))
        if len(self.payload) > MAX_PAYLOAD:
            raise ProtocolError(f"payload too large: {len(self.payload)} bytes")


def encode_message(m: Message) -> bytes:
    return _HEADER.pack(MAGIC, VERSION, int(m.kind), len(m.payload)) + m.payload


def _parse_header(b: bytes) -> tuple[MessageKind, int]:
    """Check one message header; return its kind and declared payload length."""
    if len(b) < _HEADER.size:
        raise TruncatedError(f"need at least {_HEADER.size} header bytes, got {len(b)}")
    magic, version, kind, length = _HEADER.unpack_from(b)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    try:
        mkind = MessageKind(kind)
    except ValueError:
        raise UnknownKindError(f"unknown message kind {kind}") from None
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"declared payload too large: {length}")
    return mkind, length


def decode_message(b: bytes) -> Message:
    """Decode one complete message; raises a distinct error per defect."""
    kind, length = _parse_header(b)
    payload = b[_HEADER.size:_HEADER.size + length]
    if len(payload) != length:
        raise TruncatedError(f"payload truncated: declared {length}, got {len(payload)}")
    return Message(kind, bytes(payload))


def read_message(recv_exact) -> Message:
    """Read one message from a callable recv_exact(n) -> n bytes."""
    kind, length = _parse_header(recv_exact(_HEADER.size))
    return Message(kind, recv_exact(length) if length else b"")


def json_message(kind: MessageKind, obj) -> Message:
    return Message(kind, json.dumps(obj, separators=(",", ":")).encode())


def payload_json(m: Message):
    try:
        return json.loads(m.payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ProtocolError(f"malformed JSON payload in {m.kind.name}: {e}") from None


def pack_frame_payload(depth_pgm: bytes, color_ppm: bytes) -> bytes:
    return struct.pack(">I", len(depth_pgm)) + depth_pgm + color_ppm


def unpack_frame_payload(payload: bytes) -> tuple[bytes, bytes]:
    if len(payload) < 4:
        raise TruncatedError("FRAME payload shorter than its length prefix")
    (dlen,) = struct.unpack_from(">I", payload)
    if len(payload) < 4 + dlen:
        raise TruncatedError("FRAME depth blob truncated")
    return payload[4:4 + dlen], payload[4 + dlen:]


def frame_crc32(depth_pgm: bytes, color_ppm: bytes) -> int:
    """CRC-32 (IEEE) over the concatenated frame blobs."""
    return zlib.crc32(color_ppm, zlib.crc32(depth_pgm)) & 0xFFFFFFFF
