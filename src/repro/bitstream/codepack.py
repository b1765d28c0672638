"""Fixed-width code packing, eight codes per whole-byte block.

An LZW payload is a flat MSB-first run of ``width``-bit codes, the
last byte zero-padded -- exactly what a :class:`~.bitio.BitWriter`
loop produces.  Eight ``width``-bit codes fill exactly ``width`` bytes,
so this module moves one block at a time through a small-int
``to_bytes``/``from_bytes`` and eight shifts instead of one bit at a
time.  Cost is linear in the payload: no whole-payload integer is ever
built.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..reliability.errors import StreamError

__all__ = ["pack_codes", "unpack_codes"]


def pack_codes(codes: Sequence[int], width: int) -> bytes:
    """Pack ``codes`` MSB-first at ``width`` bits each, zero-padded.

    Byte-identical to writing each code with ``BitWriter.write(code,
    width)`` and calling ``to_bytes()``; a negative code, or one that
    does not fit ``width``, raises the same :class:`ValueError`.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if codes and (min(codes) < 0 or max(codes) >> width):
        for code in codes:
            if code < 0:
                raise ValueError("value must be non-negative")
            if code >> width:
                raise ValueError(f"value {code} does not fit in {width} bits")
    w = width
    full = len(codes) - len(codes) % 8
    blocks = [
        (
            (((((((a << w | b) << w | c) << w | d) << w | e) << w | f) << w | g)
             << w | h)
        ).to_bytes(w, "big")
        for a, b, c, d, e, f, g, h in zip(*[iter(codes)] * 8)
    ]
    tail = codes[full:]
    if tail:
        acc = 0
        for code in tail:
            acc = acc << w | code
        bits = len(tail) * w
        size = (bits + 7) // 8
        blocks.append((acc << (8 * size - bits)).to_bytes(size, "big"))
    return b"".join(blocks)


def unpack_codes(data: bytes, count: int, width: int) -> Tuple[int, ...]:
    """The first ``count`` ``width``-bit codes of ``data``, MSB-first.

    Bits after the last code (the zero pad of :func:`pack_codes`, or
    anything else) are ignored.  Raises
    :class:`~repro.reliability.errors.StreamError` when ``data`` holds
    fewer than ``count * width`` bits.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    if count * width > 8 * len(data):
        raise StreamError(
            "bit stream exhausted",
            bit_offset=0,
            requested_bits=count * width,
            available_bits=8 * len(data),
        )
    w = width
    mask = (1 << w) - 1
    s1, s2, s3, s4, s5, s6, s7 = (w * k for k in range(1, 8))
    full = (count // 8) * w
    from_bytes = int.from_bytes
    codes = []
    extend = codes.extend
    for start in range(0, full, w):
        acc = from_bytes(data[start:start + w], "big")
        extend((
            acc >> s7, acc >> s6 & mask, acc >> s5 & mask, acc >> s4 & mask,
            acc >> s3 & mask, acc >> s2 & mask, acc >> s1 & mask, acc & mask,
        ))
    rest = count % 8
    if rest:
        bits = rest * w
        size = (bits + 7) // 8
        acc = from_bytes(data[full:full + size], "big") >> (8 * size - bits)
        extend(acc >> (w * k) & mask for k in range(rest - 1, -1, -1))
    return tuple(codes)
