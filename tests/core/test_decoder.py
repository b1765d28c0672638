"""Unit tests for the software LZW decoder."""

import pytest

from repro.bitstream import TernaryVector
from repro.core import (
    DecodeError,
    LZWConfig,
    LZWEncoder,
    decode,
    decode_codes,
)

CONFIG = LZWConfig(char_bits=1, dict_size=8, entry_bits=4)


class TestDecodeCodes:
    def test_empty(self):
        assert decode_codes([], CONFIG) == []

    def test_single_base_code(self):
        assert decode_codes([1], CONFIG) == [1]

    def test_classic_sequence(self):
        # 0,1 -> adds 2=(0,1); then 2 expands to 0,1.
        assert decode_codes([0, 1, 2], CONFIG) == [0, 1, 0, 1]

    def test_first_code_must_be_base(self):
        with pytest.raises(DecodeError, match="base code"):
            decode_codes([2, 0], CONFIG)

    def test_future_code_rejected(self):
        # After [0, 1] the next free code is 3; 4 is undecodable.
        with pytest.raises(DecodeError, match="not yet in dictionary"):
            decode_codes([0, 1, 4], CONFIG)

    def test_kwkwk_accepted(self):
        # 0, 2 where 2 is being created: expands to (0,0).
        assert decode_codes([0, 2], CONFIG) == [0, 0, 0]

    def test_kwkwk_rejected_when_add_impossible(self):
        # entry_bits=1 allows only 1-char entries: nothing is ever added,
        # so a KwKwK reference cannot exist.
        tight = LZWConfig(char_bits=1, dict_size=8, entry_bits=1)
        with pytest.raises(DecodeError):
            decode_codes([0, 2], tight)

    def test_capacity_mirrors_encoder(self):
        # dict_size=2 means no allocations at all (2 base codes).
        tiny = LZWConfig(char_bits=1, dict_size=2, entry_bits=4)
        assert decode_codes([0, 1, 1, 0], tiny) == [0, 1, 1, 0]
        with pytest.raises(DecodeError):
            decode_codes([0, 2], tiny)

    def test_entry_width_mirrors_encoder(self):
        """Decoder must stop allocating exactly when the encoder does."""
        config = LZWConfig(char_bits=1, dict_size=32, entry_bits=2)
        encoder = LZWEncoder(config)
        stream = TernaryVector("0000000000000000")
        compressed = encoder.encode(stream)
        assert decode(compressed) == stream


class TestDecode:
    def test_truncation_to_original_bits(self):
        config = LZWConfig(char_bits=4, dict_size=32, entry_bits=8)
        stream = TernaryVector("0110 110".replace(" ", ""))
        compressed = LZWEncoder(config).encode(stream)
        out = decode(compressed)
        assert len(out) == 7
        assert out.covers(stream)

    def test_declared_length_too_long(self):
        config = LZWConfig(char_bits=2, dict_size=8, entry_bits=4)
        compressed = LZWEncoder(config).encode(TernaryVector("01"))
        # Tamper with original_bits to exceed what the codes produce.
        from repro.core import CompressedStream

        bad = CompressedStream(
            compressed.codes, config, 100, compressed.expansion_chars
        )
        with pytest.raises(DecodeError, match="expected"):
            decode(bad)

    def test_output_is_fully_specified(self):
        config = LZWConfig(char_bits=3, dict_size=16, entry_bits=9)
        stream = TernaryVector("X1X0XX1X0X1XX")
        compressed = LZWEncoder(config).encode(stream)
        out = decode(compressed)
        assert out.is_fully_specified
        assert out.covers(stream)
