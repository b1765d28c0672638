"""The don't-care-aware LZW encoder (the paper's compression tool).

The encoder consumes a ternary scan stream, chunks it into ``C_C``-bit
ternary characters and runs LZW where the dictionary match at each step
is allowed to *choose* the assignment of any X bits (see
:class:`repro.core.dontcare.ChildSelector`).  Emitted output is a
sequence of ``C_E``-bit codes; the X assignments are implied by the
codes themselves, so no side information is transmitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import List, Optional, Tuple

from ..bitstream.bitio import BitReader, BitWriter
from ..bitstream.ternary import TernaryVector
from ..observability.recorder import Recorder
from .config import LZWConfig
from .dictionary import DictionarySnapshot
from .metrics import compression_percent, compression_ratio
from .stream import EncodeStats, StreamEncoder, chars_to_vector

__all__ = ["CompressedStream", "EncodeStats", "LZWEncoder"]


@dataclass(frozen=True)
class CompressedStream:
    """An encoded test set: the code sequence plus what is needed to decode it.

    ``expansion_chars[i]`` records how many characters code ``codes[i]``
    expands to — redundant for decoding but required by the hardware
    download-time model (:mod:`repro.hardware.timing`).

    ``_decoded`` is not a constructor argument and takes no part in
    equality: a strict container load sets it to the decode whose
    digest it checked on a cold segment, and
    :func:`~repro.core.decoder.decode` of the same object (no seed, no
    link) returns it instead of decoding again.  A stream built any
    other way, ``dataclasses.replace`` included, starts without it.
    """

    codes: Tuple[int, ...]
    config: LZWConfig
    original_bits: int
    expansion_chars: Tuple[int, ...] = field(repr=False, default=())
    _decoded: Optional[TernaryVector] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        # Range-validate the whole tuple with C-speed min/max; the
        # Python loop runs only on the failure path to name the bad
        # code.  Construction is hot on reassembly/decode paths, so the
        # valid case must not pay a per-code interpreter loop.
        codes = self.codes
        if codes and not (0 <= min(codes) and max(codes) < self.config.dict_size):
            limit = self.config.dict_size
            for code in codes:
                if not 0 <= code < limit:
                    raise ValueError(f"code {code} out of range for N={limit}")
        if self.expansion_chars and len(self.expansion_chars) != len(self.codes):
            raise ValueError("expansion_chars must align with codes")

    @property
    def num_codes(self) -> int:
        """Number of emitted codes."""
        return len(self.codes)

    @property
    def compressed_bits(self) -> int:
        """Size of the compressed stream in bits (``num_codes * C_E``)."""
        return self.num_codes * self.config.code_bits

    @property
    def ratio(self) -> float:
        """Compression ratio ``1 - compressed/original`` (may be negative).

        Delegates to :func:`repro.core.metrics.compression_ratio` — the
        single definition of the paper's ratio — so stats objects and
        the metrics module can never disagree.
        """
        return compression_ratio(self.original_bits, self.compressed_bits)

    @property
    def ratio_percent(self) -> float:
        """Ratio as the percentage the paper's tables report."""
        return compression_percent(self.original_bits, self.compressed_bits)

    def to_bits(self) -> List[int]:
        """Serialise to the bit sequence the ATE would stream."""
        writer = BitWriter()
        width = self.config.code_bits
        for code in self.codes:
            writer.write(code, width)
        return writer.getbits()

    @classmethod
    def from_bits(
        cls,
        bits: List[int],
        config: LZWConfig,
        original_bits: int,
    ) -> "CompressedStream":
        """Deserialise a bit sequence produced by :meth:`to_bits`."""
        if len(bits) % config.code_bits:
            raise ValueError("bit stream length is not a multiple of C_E")
        reader = BitReader(bits)
        codes = []
        while not reader.exhausted:
            codes.append(reader.read(config.code_bits))
        return cls(tuple(codes), config, original_bits)


class LZWEncoder:
    """Single-use encoder: construct, call :meth:`encode` once.

    A one-shot front end to the one encode loop: :meth:`encode` feeds
    the whole stream to a :class:`~repro.core.stream.StreamEncoder` and
    finalizes it.  The dictionary persists on the instance afterwards
    so experiments can inspect it (entry lengths, occupancy, Table 6's
    longest string).

    ``seed`` starts the dictionary from a
    :class:`~repro.core.dictionary.DictionarySnapshot` instead of cold
    base codes; ``link`` additionally replays the cross-shard phrase
    boundary of a pipelined wave (the previous shard's last emitted
    code), so encoding a stream suffix from the matching seed is
    byte-identical to the uninterrupted serial encode — the contract
    ``tests/core/test_seeded_differential.py`` locks for the packed
    matcher and the oracle alike.
    """

    def __init__(
        self,
        config: Optional[LZWConfig] = None,
        recorder: Optional[Recorder] = None,
        cancel: Optional[object] = None,
        seed: Optional[DictionarySnapshot] = None,
        link: Optional[int] = None,
    ) -> None:
        self._driver = StreamEncoder(config, recorder, cancel, seed, link)
        self.config = self._driver.config
        self.dictionary = self._driver.dictionary
        self.recorder = self._driver.recorder
        self.cancel = cancel
        self.seed = seed
        self.link = link
        self._used = False
        self._strings: List[Tuple[int, ...]] = []

    def encode(self, stream: TernaryVector) -> CompressedStream:
        """Compress a ternary scan stream into a :class:`CompressedStream`."""
        if self._used:
            raise RuntimeError("LZWEncoder instances are single-use; make a new one")
        self._used = True
        driver = self._driver
        driver.expansions = self._strings
        codes = driver.feed(stream)
        codes += driver.finalize()
        return CompressedStream(
            tuple(codes),
            self.config,
            len(stream),
            tuple(map(len, self._strings)),
        )

    def assigned_stream(self) -> TernaryVector:
        """The fully specified stream the decoder will reproduce.

        It is the input with every X resolved: the concatenated
        dictionary strings of the emitted codes, truncated to the input
        length (the last character's X padding dropped).  The decoder
        rebuilds the same dictionary, so this is what decoding the codes
        yields, taken without a decode (call after :meth:`encode`).
        """
        if not self._used:
            raise RuntimeError("encode() has not been called yet")
        chars = list(chain.from_iterable(self._strings))
        vector = chars_to_vector(chars, self.config.char_bits)
        return vector[: self._driver.original_bits]

    def stats(self) -> EncodeStats:
        """Statistics of the completed run (call after :meth:`encode`)."""
        if not self._used:
            raise RuntimeError("encode() has not been called yet")
        return self._driver.stats()
