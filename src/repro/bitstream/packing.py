"""Chunking a ternary scan stream into LZW characters.

The LZW engine consumes the scan-in stream ``C_C`` bits at a time.  The
final chunk is padded with X bits — the decompressor output is truncated
back to the original length, so the pad assignment is immaterial and the
encoder may exploit it like any other don't-care.

:func:`split_fields` and :func:`join_fields` are the integer-level pair
the codec uses on its hot paths: the encoder splits each mask of a chunk
into per-character fields, and the decoder joins decoded characters back
into one stream integer.  Both run in about ``log2(n)`` whole-integer
mask/shift steps that move every field at once, so the per-character
work happens in C (``bytes``/``int.from_bytes``), not in a Python loop.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

from .ternary import TernaryVector

__all__ = [
    "from_characters",
    "join_fields",
    "pad_length",
    "split_fields",
    "to_characters",
]


def pad_length(stream_bits: int, char_bits: int) -> int:
    """Number of X pad bits appended so the stream is a whole number of chars."""
    if char_bits <= 0:
        raise ValueError("char_bits must be positive")
    remainder = stream_bits % char_bits
    return 0 if remainder == 0 else char_bits - remainder


def to_characters(stream: TernaryVector, char_bits: int) -> List[TernaryVector]:
    """Split ``stream`` into ``char_bits``-wide ternary characters.

    The last character is padded with X bits when the stream length is
    not a multiple of ``char_bits``.
    """
    pad = pad_length(len(stream), char_bits)
    if pad:
        stream = stream + TernaryVector.xs(pad)
    return stream.chunks(char_bits)


def from_characters(chars: Sequence[TernaryVector]) -> TernaryVector:
    """Concatenate characters back into a single stream (pad included)."""
    return TernaryVector.concat_all(list(chars))


def _slot_bits(width: int) -> int:
    """Bits each field occupies once spread: one byte, or two above 8."""
    if not 1 <= width <= 16:
        raise ValueError(f"field width {width} is not in 1..16")
    return 8 if width <= 8 else 16


def _repeat(pattern: int, period_bits: int, total_bits: int) -> int:
    """``pattern`` (one ``period_bits``-bit period, a whole number of
    bytes) repeated over at least ``total_bits`` bits."""
    period = period_bits // 8
    reps = -(-total_bits // period_bits)
    return int.from_bytes(pattern.to_bytes(period, "little") * reps, "little")


def split_fields(mask: int, count: int, width: int) -> List[int]:
    """The first ``count`` little-endian ``width``-bit fields of ``mask``.

    Field ``j`` is bits ``j*width .. (j+1)*width - 1`` (LSB = first
    stream bit); bits above ``count*width`` are ignored.  The fields are
    spread to one byte each (two for ``width`` > 8) by halving steps:
    the upper half of every group of ``2b`` fields moves up by ``b``
    times the slack between the field and its slot, for ``b`` from the
    largest power of two below ``count`` down to 1.
    """
    slot = _slot_bits(width)
    if count <= 0:
        return []
    x = mask & ((1 << count * width) - 1)
    gap = slot - width
    total = count * slot
    if gap:
        half = 1 << (count - 1).bit_length() >> 1
        while half:
            upper = (1 << half * width) - 1 << half * width
            moving = x & _repeat(upper, 2 * half * slot, total)
            x = (x ^ moving) | (moving << half * gap)
            half >>= 1
    data = x.to_bytes(total // 8, "little")
    if slot == 8:
        return list(data)
    return list(struct.unpack(f"<{count}H", data))


def join_fields(fields: Sequence[int], width: int) -> int:
    """Concatenate ``width``-bit fields into one integer, field 0 lowest.

    The inverse of :func:`split_fields`: the fields are laid out one
    byte (or 16-bit word) each, then every group of ``2b`` slots closes
    the slack between its two halves, for ``b`` = 1, 2, 4, ...
    Each field must be below ``2**width``.
    """
    slot = _slot_bits(width)
    count = len(fields)
    if slot == 8:
        data = bytes(fields)
    else:
        data = struct.pack(f"<{count}H", *fields)
    x = int.from_bytes(data, "little")
    gap = slot - width
    if gap:
        total = count * slot
        half = 1
        while half < count:
            upper = (1 << half * slot) - 1 << half * slot
            moving = x & _repeat(upper, 2 * half * slot, total)
            x = (x ^ moving) | (moving >> half * gap)
            half <<= 1
    return x
