"""Software reference LZW decoder.

This mirrors the hardware decompressor of the paper's Figure 5 exactly
but at the algorithmic level: given the code stream and the shared
:class:`~repro.core.config.LZWConfig`, it rebuilds the dictionary —
honouring the same capacity (``N``) and entry-width (``C_MDATA``) bounds
the encoder obeyed — and reproduces the fully specified scan stream.
The special "code references the entry being created" case (the paper's
Figure 4f, classic LZW's KwKwK case) is handled explicitly.

The decode loop itself is
:meth:`repro.core.stream.StreamDecoder.decode_into`, which decodes a
whole code sequence over the decoder's own code table; this module
exposes it.  :func:`decode_codes` is the strict all-or-nothing wrapper
and :func:`derive_final_snapshot` takes the table's end state, each in
one call of the loop.  :func:`iter_decode` yields expansion by
expansion, one code per call, for consumers that act between codes.
The salvage decoder (:mod:`repro.reliability.salvage`) recovers the
longest decodable prefix of a corrupted stream from the characters the
loop produced before its first error.  Failures raise
:class:`~repro.reliability.errors.DecodeError` carrying the code index,
the bit offset of the code in the packed payload and the dictionary
state at the failure point.

The cycle-accurate model lives in :mod:`repro.hardware.decompressor`;
both must agree bit-for-bit, which the test suite checks.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from ..bitstream.ternary import TernaryVector
from ..observability.recorder import Recorder
from ..reliability.errors import DecodeError
from .config import LZWConfig
from .dictionary import DictionarySnapshot
from .encoder import CompressedStream
from .stream import StreamDecoder, chars_to_vector

__all__ = [
    "DecodeError",
    "decode",
    "decode_codes",
    "derive_final_snapshot",
    "iter_decode",
]


def decode(
    compressed: CompressedStream,
    recorder: Optional[Recorder] = None,
    seed: Optional[DictionarySnapshot] = None,
    link: Optional[int] = None,
) -> TernaryVector:
    """Decode a :class:`CompressedStream` back to a fully specified stream.

    The result is truncated to ``compressed.original_bits`` (the encoder
    pads the final character with don't-cares).  An empty code stream
    with ``original_bits == 0`` decodes to the empty vector.

    ``seed``/``link`` decode a *warm-seeded* segment: the stream was
    produced by an encoder whose dictionary started from ``seed`` (and,
    for pipelined-wave shards, whose previous phrase ended at code
    ``link``) — see :func:`iter_decode`.

    A cold ``compressed`` returned by a verifying container load
    already carries the decode its digest was checked on; that stream
    is returned as is, and ``recorder`` sees no decode.
    """
    if seed is None and link is None and compressed._decoded is not None:
        return compressed._decoded
    chars = decode_codes(
        compressed.codes, compressed.config, recorder, seed=seed, link=link
    )
    return _chars_to_stream(chars, compressed.config, compressed.original_bits)


def decode_codes(
    codes: Sequence[int],
    config: LZWConfig,
    recorder: Optional[Recorder] = None,
    seed: Optional[DictionarySnapshot] = None,
    link: Optional[int] = None,
) -> List[int]:
    """Decode a code sequence to its character sequence.

    Pure-function core shared by :func:`decode` and the tests that
    cross-check the hardware model; one call of the bulk decode loop.
    """
    out: List[int] = []
    if codes:
        StreamDecoder(config, recorder, seed=seed, link=link).decode_into(codes, out)
    return out


def iter_decode(
    codes: Sequence[int],
    config: LZWConfig,
    recorder: Optional[Recorder] = None,
    seed: Optional[DictionarySnapshot] = None,
    link: Optional[int] = None,
) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """Decode incrementally, yielding ``(code_index, characters)`` pairs.

    Each yielded tuple is the expansion of ``codes[code_index]`` as
    :meth:`StreamDecoder.push <repro.core.stream.StreamDecoder.push>`
    produces it — the code table is updated between yields exactly as
    the hardware would.  Raising happens *before* the offending code
    contributes any output, so a consumer that stops at the first
    :class:`DecodeError` holds precisely the longest decodable prefix.

    ``seed`` pre-fills the dictionary from a
    :class:`~repro.core.dictionary.DictionarySnapshot` (the stream's
    first code may then be any live code, not just a base code).
    ``link`` replays the cross-shard phrase boundary of a pipelined
    wave: the encoder's previous phrase ended at code ``link`` in the
    *previous* segment, so the boundary allocation
    ``string(link) + first_char(codes[0])`` happens before anything is
    emitted — exactly what an uninterrupted serial decode would have
    done at that position.
    """
    if not codes:
        return
    push = StreamDecoder(config, recorder, seed=seed, link=link).push
    for index, code in enumerate(codes):
        yield index, push(code)


def derive_final_snapshot(
    codes: Sequence[int],
    config: LZWConfig,
    seed: Optional[DictionarySnapshot] = None,
    link: Optional[int] = None,
) -> DictionarySnapshot:
    """Dictionary state after encoding the stream behind ``codes``.

    Decodes every code through one :class:`~repro.core.stream.
    StreamDecoder` call and returns its snapshot: the state an encoder held
    **after emitting the last code but before the next cross-boundary
    allocation** — the exact seed a pipelined-wave successor shard
    needs (paired with ``link=codes[-1]``).  This is how chain seeds
    are *derived* rather than stored: a container walk that does not
    decode and the batch engine's lost-seed fallback recompute them
    from bytes they already have (a decoding walk takes the end state
    of the decoder that decoded the predecessor instead).

    Raises :class:`~repro.reliability.errors.DecodeError` when the
    codes are not decodable under the (seeded) dictionary — a tampered
    stream can never silently produce a wrong seed.
    """
    decoder = StreamDecoder(config, seed=seed, link=link)
    decoder.decode_into(codes, [])
    return decoder.snapshot()


def _chars_to_stream(
    chars: Sequence[int],
    config: LZWConfig,
    original_bits: Optional[int],
) -> TernaryVector:
    stream = chars_to_vector(chars, config.char_bits)
    if original_bits is not None:
        if original_bits > len(stream):
            raise DecodeError(
                f"decoded {len(stream)} bits but {original_bits} expected",
                decoded_bits=len(stream),
                expected_bits=original_bits,
            )
        stream = stream[:original_bits]
    return stream
