"""Don't-care-aware LZ77/LZSS baseline.

Reimplementation of the scheme the paper compares against in Table 1
(Wolff & Papachristou, "Multiscan-based Test Compression and Hardware
Decompression Using LZ77", ITC 2002): a bit-level LZSS coder over the
scan stream where an X bit in the lookahead matches *either* value in
the window — matching simultaneously assigns the don't-cares.

Token format (MSB-first):

* literal: ``0`` flag + 1 data bit;
* match:   ``1`` flag + ``offset_bits`` distance (1-based, biased by -1)
  + ``length_bits`` match length (biased by -1).

Matches may self-overlap, exactly like classic LZ77 (the decoder copies
bit-by-bit).  A match is emitted only when it is strictly cheaper than
literals, i.e. its length exceeds the token cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from ..bitstream import BitReader, BitWriter, TernaryVector
from .base import BaselineResult, Compressor, make_result

__all__ = ["LZ77Config", "LZ77Compressor", "decode_lz77"]

Token = Union[Tuple[str, int], Tuple[str, int, int]]


@dataclass(frozen=True)
class LZ77Config:
    """LZSS parameters.

    ``offset_bits`` fixes the window at ``2**offset_bits`` bits;
    ``length_bits`` caps a match at ``2**length_bits`` bits (length is
    stored biased by -1).  ``search_budget`` caps bit comparisons per
    token so encoding stays near-linear; ``min_match`` defaults to one
    more than the match-token cost so matches always win over literals.
    """

    offset_bits: int = 10
    length_bits: int = 6
    search_budget: int = 3000
    min_match: int = 0  # 0 -> auto: token cost + 1

    def __post_init__(self) -> None:
        if self.offset_bits < 1 or self.length_bits < 1:
            raise ValueError("offset_bits and length_bits must be >= 1")
        if self.search_budget < 1:
            raise ValueError("search_budget must be >= 1")
        if self.min_match < 0:
            raise ValueError("min_match must be >= 0")

    @property
    def window(self) -> int:
        """Sliding-window size in bits."""
        return 1 << self.offset_bits

    @property
    def max_length(self) -> int:
        """Longest encodable match in bits."""
        return 1 << self.length_bits

    @property
    def match_token_bits(self) -> int:
        """Cost of one match token (flag + offset + length)."""
        return 1 + self.offset_bits + self.length_bits

    @property
    def effective_min_match(self) -> int:
        """Shortest match worth emitting."""
        return self.min_match if self.min_match else self.match_token_bits + 1


class LZ77Compressor(Compressor):
    """X-aware LZSS over the raw scan bit stream."""

    name = "LZ77"

    def __init__(self, config: LZ77Config = LZ77Config()) -> None:
        self.config = config

    def compress(self, stream: TernaryVector) -> BaselineResult:
        tokens, assigned_bits = self._tokenize(stream)
        bits = encode_tokens(tokens, self.config)
        assigned = TernaryVector(assigned_bits)
        return make_result(
            self,
            stream,
            len(bits),
            assigned,
            extra={
                "tokens": len(tokens),
                "matches": sum(1 for t in tokens if t[0] == "match"),
                "token_list": tokens,
                "config": self.config,
            },
        )

    # ------------------------------------------------------------------
    def _tokenize(
        self, stream: TernaryVector
    ) -> Tuple[List[Token], List[int]]:
        cfg = self.config
        n = len(stream)
        # Local 0/1/None array for O(1) per-bit access in the hot loop.
        look = list(stream)
        assigned: List[int] = []
        tokens: List[Token] = []
        min_match = cfg.effective_min_match
        i = 0
        while i < n:
            best_len = 0
            best_dist = 0
            best_bits: List[int] = []
            budget = cfg.search_budget
            hist_len = len(assigned)
            max_dist = min(hist_len, cfg.window)
            limit = min(cfg.max_length, n - i)
            for dist in range(1, max_dist + 1):
                start = hist_len - dist
                mbits: List[int] = []
                k = 0
                while k < limit:
                    pos = start + k
                    b = assigned[pos] if pos < hist_len else mbits[pos - hist_len]
                    want = look[i + k]
                    budget -= 1
                    if want is not None and want != b:
                        break
                    mbits.append(b)
                    k += 1
                if k > best_len:
                    best_len = k
                    best_dist = dist
                    best_bits = mbits
                    if best_len >= limit:
                        break
                if budget <= 0:
                    break
            if best_len >= min_match:
                tokens.append(("match", best_dist, best_len))
                assigned.extend(best_bits)
                i += best_len
            else:
                bit = look[i] if look[i] is not None else 0
                tokens.append(("lit", bit))
                assigned.append(bit)
                i += 1
        return tokens, assigned


def encode_tokens(tokens: List[Token], config: LZ77Config) -> List[int]:
    """Serialise tokens to the bit stream the ATE would download."""
    writer = BitWriter()
    for token in tokens:
        if token[0] == "lit":
            writer.write_bit(0)
            writer.write_bit(token[1])
        else:
            _tag, dist, length = token
            if not 1 <= dist <= config.window:
                raise ValueError(f"distance {dist} out of window")
            if not 1 <= length <= config.max_length:
                raise ValueError(f"length {length} out of range")
            writer.write_bit(1)
            writer.write(dist - 1, config.offset_bits)
            writer.write(length - 1, config.length_bits)
    return writer.getbits()


def decode_lz77(
    bits: List[int],
    config: LZ77Config,
    original_bits: int,
) -> TernaryVector:
    """Decode an LZSS bit stream back to the fully specified scan stream."""
    reader = BitReader(bits)
    out: List[int] = []
    while len(out) < original_bits:
        if reader.read_bit() == 0:
            out.append(reader.read_bit())
        else:
            dist = reader.read(config.offset_bits) + 1
            length = reader.read(config.length_bits) + 1
            if dist > len(out):
                raise ValueError("match distance reaches before stream start")
            start = len(out) - dist
            for k in range(length):
                out.append(out[start + k])
    if len(out) != original_bits:
        raise ValueError("decoded length does not match original_bits")
    return TernaryVector(out)
