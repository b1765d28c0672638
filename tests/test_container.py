"""Unit tests for the .lzwt container format."""

import pytest

from repro.bitstream import TernaryVector
from repro.container import (
    ContainerError,
    dump_bytes,
    dump_file,
    load_bytes,
)
from repro.core import LZWConfig, LZWEncoder, decode


@pytest.fixture
def compressed():
    config = LZWConfig(char_bits=3, dict_size=32, entry_bits=12)
    return LZWEncoder(config).encode(TernaryVector("01X10XX01101X0010X"))


class TestRoundTrip:
    def test_bytes(self, compressed):
        back = load_bytes(dump_bytes(compressed))
        assert back.codes == compressed.codes
        assert back.config == compressed.config
        assert back.original_bits == compressed.original_bits
        assert decode(back) == decode(compressed)

    def test_file(self, compressed, tmp_path):
        path = tmp_path / "t.lzwt"
        dump_file(compressed, path)
        assert load_bytes(path.read_bytes()).codes == compressed.codes

    def test_empty_stream(self):
        config = LZWConfig(char_bits=2, dict_size=8, entry_bits=4)
        compressed = LZWEncoder(config).encode(TernaryVector())
        back = load_bytes(dump_bytes(compressed))
        assert back.codes == ()

    def test_expansions_not_required(self, compressed):
        # The container drops expansion_chars (decode-only metadata).
        back = load_bytes(dump_bytes(compressed))
        assert back.expansion_chars == ()


class TestCorruption:
    def test_truncated_header(self):
        with pytest.raises(ContainerError, match="truncated"):
            load_bytes(b"LZW")

    def test_bad_magic(self, compressed):
        data = bytearray(dump_bytes(compressed))
        data[0] = ord("X")
        with pytest.raises(ContainerError, match="magic"):
            load_bytes(bytes(data))

    def test_bad_version(self, compressed):
        data = bytearray(dump_bytes(compressed))
        data[4] = 99
        with pytest.raises(ContainerError, match="version"):
            load_bytes(bytes(data))

    def test_payload_bitflip_detected(self, compressed):
        data = bytearray(dump_bytes(compressed))
        data[-1] ^= 0x01
        with pytest.raises(ContainerError, match="CRC"):
            load_bytes(bytes(data))

    def test_header_config_validated(self, compressed):
        data = bytearray(dump_bytes(compressed))
        data[5] = 0  # char_bits = 0 is illegal
        with pytest.raises(ContainerError, match="configuration"):
            load_bytes(bytes(data))
