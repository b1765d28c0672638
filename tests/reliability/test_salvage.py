"""Unit tests for the salvage (partial-recovery) decoder."""

import pytest

from repro.container import HEADER_SIZE, dump_bytes
from repro.core import CompressedStream, LZWConfig, LZWEncoder, decode
from repro.bitstream import TernaryVector
from repro.reliability.errors import ContainerError, DecodeError
from repro.reliability.salvage import decode_partial, salvage_container


@pytest.fixture
def good(campaign_config, campaign_original):
    return LZWEncoder(campaign_config).encode(campaign_original)


class TestDecodePartial:
    def test_clean_stream_is_complete(self, good):
        result = decode_partial(good)
        assert result.complete
        assert result.error is None
        assert result.codes_decoded == result.total_codes == good.num_codes
        assert result.stream == decode(good)
        assert "complete" in result.describe()

    def test_bad_code_midstream(self, good):
        # Replace a code past the midpoint with one no decoder state can
        # reach: the dictionary can never have grown past dict_size.
        codes = list(good.codes)
        victim = (len(codes) // 2) + 1
        codes[victim] = good.config.dict_size - 1
        broken = CompressedStream(tuple(codes), good.config, good.original_bits)
        result = decode_partial(broken)
        assert not result.complete
        assert result.codes_decoded == victim
        assert result.recovered_bits > 0
        assert isinstance(result.error, DecodeError)
        assert result.failed_code_index == victim
        assert result.failed_bit_offset == victim * good.config.code_bits
        # The salvaged prefix is exactly what the strict decoder agreed to.
        full = decode(good)
        assert full[: result.recovered_bits].covers(result.stream)

    def test_bad_first_code(self, campaign_config):
        broken = CompressedStream(
            (campaign_config.base_codes,), campaign_config, original_bits=4
        )
        result = decode_partial(broken)
        assert not result.complete
        assert result.codes_decoded == 0
        assert result.recovered_bits == 0
        assert result.failed_code_index == 0

    def test_short_stream_reports_length_error(self, campaign_config):
        # Codes decode fine but produce fewer bits than original_bits.
        broken = CompressedStream((1,), campaign_config, original_bits=10_000)
        result = decode_partial(broken)
        assert not result.complete
        assert result.failed_code_index is None
        assert result.recovered_bits == campaign_config.char_bits

    def test_empty_stream(self, campaign_config):
        result = decode_partial(CompressedStream((), campaign_config, 0))
        assert result.complete
        assert result.total_codes == 0
        assert len(result.stream) == 0


class TestSalvageContainer:
    def test_corruption_past_midpoint_recovers_prefix(self, campaign_container):
        # Acceptance criterion: corrupt past the midpoint, get a nonzero
        # prefix plus the failing code index and bit offset.
        from repro.container import load_bytes
        from repro.core.decoder import iter_decode

        clean = load_bytes(campaign_container)
        corrupted = bytearray(campaign_container)
        corrupt_start = (len(corrupted) - HEADER_SIZE) // 2 + 1
        for offset in range(HEADER_SIZE + corrupt_start, len(corrupted)):
            corrupted[offset] = 0xFF  # all-ones codes: out of range for N=64
        result = salvage_container(bytes(corrupted))
        assert "payload CRC mismatch (tolerated)" in result.notes
        assert not result.complete
        assert result.failed_code_index is not None
        assert result.failed_bit_offset is not None
        assert result.failed_bit_offset == (
            result.failed_code_index * clean.config.code_bits
        )
        # Codes wholly before the corrupted bytes decode exactly as in the
        # clean container; the salvaged prefix must reproduce them.
        idx_clean = corrupt_start * 8 // clean.config.code_bits
        assert result.failed_code_index >= idx_clean > 0
        clean_chars = sum(
            len(expansion)
            for index, expansion in iter_decode(clean.codes, clean.config)
            if index < idx_clean
        )
        clean_bits = clean_chars * clean.config.char_bits
        assert result.recovered_bits >= clean_bits > 0
        assert result.stream[:clean_bits] == decode(clean)[:clean_bits]

    def test_clean_container_is_complete(
        self, campaign_container, campaign_original
    ):
        result = salvage_container(campaign_container)
        assert result.complete
        assert result.notes == ()
        assert result.stream.covers(campaign_original)

    def test_truncated_payload_clamped(self, campaign_container):
        cut = campaign_container[: HEADER_SIZE + 10]
        result = salvage_container(cut)
        assert any("clamped" in note or "partial code" in note
                   for note in result.notes)
        assert result.recovered_bits > 0

    def test_every_truncation_matches_the_per_bit_reader(self, good):
        # A cut payload is the one unpack whose length is not a whole
        # number of eight-code blocks; the clamp must keep exactly the
        # whole codes a per-bit reader would.
        from repro.bitstream import BitReader
        from repro.core import iter_decode

        data = dump_bytes(good)
        payload = data[HEADER_SIZE:]
        width = good.config.code_bits
        assert width % 8 and len(good.codes) % 8
        for cut in range(len(payload) + 1):
            bits = min(len(good.codes) * width, 8 * cut)
            reader = BitReader.from_bytes(payload[:cut], bits - bits % width)
            codes = []
            while not reader.exhausted:
                codes.append(reader.read(width))
            chars = [
                char
                for _, expansion in iter_decode(codes, good.config)
                for char in expansion
            ]
            result = salvage_container(data[: HEADER_SIZE + cut])
            assert result.codes_decoded == len(codes), cut
            assert list(result.chars) == chars, cut
            assert result.complete == (cut == len(payload)), cut

    def test_unusable_header_still_raises(self, campaign_container):
        with pytest.raises(ContainerError, match="magic"):
            salvage_container(b"JUNK" + campaign_container[4:])
        with pytest.raises(ContainerError, match="truncated"):
            salvage_container(campaign_container[:3])

    def test_v1_container_salvageable(self, good):
        # Build a v1 container by hand (no digests) and salvage it.
        import struct
        import zlib

        from repro.bitstream import BitWriter

        writer = BitWriter()
        for code in good.codes:
            writer.write(code, good.config.code_bits)
        payload = writer.to_bytes()
        header = struct.Struct(">4sBBIIQQI").pack(
            b"LZWT", 1, good.config.char_bits, good.config.dict_size,
            good.config.entry_bits, good.original_bits, writer.bit_length,
            zlib.crc32(payload),
        )
        result = salvage_container(header + payload)
        assert result.complete
        assert result.stream == decode(good)
