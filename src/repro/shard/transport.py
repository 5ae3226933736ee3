"""Zero-copy shard RPC: the framed pickle-5 codec.

Everything crossing a shard worker pipe used to be one
``conn.send(obj)`` — pickle protocol default, numeric columns
round-tripped through ``list(...)`` so every point became a boxed
Python object on both sides.  :func:`encode` / :func:`decode` replace
that: the command or reply envelope pickles with protocol 5 and a
``buffer_callback``, so every contiguous NumPy column leaves the
envelope as an *out-of-band* raw buffer.  The frame is one
length-prefixed multi-buffer blob shipped via
``Connection.send_bytes``; the receiver reconstructs each column as a
read-only NumPy view over the received frame — zero list
materialisation, zero per-point decoding.

Layout (little-endian, every buffer 8-byte aligned)::

    RSF1 | n_oob:u32 | env_len:u64 | n_oob × len:u64 | envelope | buffers

Frames live only between the two ends of one pool, so the layout
carries no version beyond the magic.  The codec is deterministic, and
a frame whose lengths do not add up to exactly its size — a short
read, a corrupt length, trailing bytes — raises :class:`FrameError`,
never yields a truncated column.
"""

from __future__ import annotations

import pickle
import struct
from typing import List, NamedTuple, Tuple

__all__ = ["MAGIC", "FrameError", "FrameInfo", "encode", "decode"]

MAGIC = b"RSF1"

_HEAD = struct.Struct("<4sIQ")  # magic, n_oob, env_len
_LEN = struct.Struct("<Q")      # one out-of-band buffer's length

_ALIGN = 8


class FrameError(ValueError):
    """A frame that cannot possibly decode to a complete message."""


class FrameInfo(NamedTuple):
    """What one frame carried — the transport accounting record."""

    frame_bytes: int
    oob_bytes: int


def _pad(offset: int) -> int:
    return (-offset) % _ALIGN


def encode(obj: object) -> Tuple[bytes, FrameInfo]:
    """One message → one frame.

    Contiguous buffers (NumPy columns, in practice) leave the pickle
    stream out-of-band and are appended raw to the frame; the envelope
    itself stays tiny — tags, shapes, dtypes and scalars only.
    """
    oob: List[memoryview] = []

    def sink(pb: pickle.PickleBuffer):
        try:
            oob.append(pb.raw())
        except BufferError:      # non-contiguous: let pickle copy it
            return True          # in-band
        return None              # out-of-band, raw bytes in the frame

    env = pickle.dumps(obj, protocol=5, buffer_callback=sink)

    buf = bytearray(_HEAD.pack(MAGIC, len(oob), len(env)))
    for raw in oob:
        buf += _LEN.pack(raw.nbytes)
    buf += env
    for raw in oob:
        buf += b"\x00" * _pad(len(buf))
        buf += raw.cast("B")
    return bytes(buf), FrameInfo(len(buf), sum(r.nbytes for r in oob))


def decode(frame: bytes) -> Tuple[object, FrameInfo]:
    """One frame → the message object (columns as zero-copy views).

    Every out-of-band buffer becomes a view over ``frame`` (read-only,
    as the ``bytes`` a pipe delivers is).  Any structurally impossible
    frame raises :class:`FrameError` — a short read can never surface
    as a silently truncated column.
    """
    mv = memoryview(frame)
    size = len(mv)
    if size < _HEAD.size:
        raise FrameError(f"frame shorter than header: {size} bytes")
    magic, n_oob, env_len = _HEAD.unpack_from(mv, 0)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    pos = _HEAD.size
    if pos + n_oob * _LEN.size > size:
        raise FrameError("frame truncated inside entry table")
    lengths = struct.unpack_from(f"<{n_oob}Q", mv, pos)
    pos += n_oob * _LEN.size
    if pos + env_len > size:
        raise FrameError("frame truncated inside envelope")
    env = mv[pos:pos + env_len]
    pos += env_len

    buffers: List[memoryview] = []
    for n in lengths:
        pos += _pad(pos)
        if pos + n > size:
            raise FrameError("frame truncated inside out-of-band buffer")
        buffers.append(mv[pos:pos + n])
        pos += n
    if pos != size:
        raise FrameError(f"frame has {size - pos} trailing bytes")
    obj = pickle.loads(env, buffers=buffers)
    return obj, FrameInfo(size, sum(lengths))
