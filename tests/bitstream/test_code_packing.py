"""The block code packer against the per-bit BitWriter/BitReader oracle."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bitstream import BitReader, BitWriter, pack_codes, unpack_codes
from repro.reliability.errors import StreamError

widths = st.integers(min_value=1, max_value=24)


def _codes(width):
    top = 2**width - 1
    value = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    return st.lists(value, max_size=70)


def _oracle_pack(codes, width):
    writer = BitWriter()
    for code in codes:
        writer.write(code, width)
    return writer.to_bytes()


def _oracle_unpack(data, count, width):
    reader = BitReader.from_bytes(data, count * width)
    return tuple(reader.read(width) for _ in range(count))


@settings(max_examples=300)
@given(data=st.data(), width=widths)
def test_pack_matches_bitwriter_and_unpack_inverts(data, width):
    codes = data.draw(_codes(width))
    packed = pack_codes(codes, width)
    assert packed == _oracle_pack(codes, width)
    assert len(packed) == (len(codes) * width + 7) // 8
    assert unpack_codes(packed, len(codes), width) == tuple(codes)


@given(data=st.data(), width=widths)
def test_unpack_matches_bitreader_on_any_bytes(data, width):
    raw = data.draw(st.binary(max_size=80))
    count = data.draw(st.integers(0, 8 * len(raw) // width))
    assert unpack_codes(raw, count, width) == _oracle_unpack(raw, count, width)


@given(data=st.data(), width=widths)
def test_nonzero_pad_bits_are_ignored(data, width):
    codes = data.draw(_codes(width).filter(lambda c: len(c) * width % 8))
    packed = pack_codes(codes, width)
    pad = 8 - len(codes) * width % 8
    dirty = packed[:-1] + bytes([packed[-1] | (1 << pad) - 1])
    assert unpack_codes(dirty, len(codes), width) == tuple(codes)
    # Extra whole bytes past the payload are ignored too.
    assert unpack_codes(dirty + b"\xff", len(codes), width) == tuple(codes)


@given(data=st.data(), width=widths)
def test_short_buffer_is_a_stream_error(data, width):
    codes = data.draw(_codes(width).filter(bool))
    packed = pack_codes(codes, width)
    cut = data.draw(st.integers(0, (len(codes) * width - 1) // 8))
    with pytest.raises(StreamError) as info:
        unpack_codes(packed[:cut], len(codes), width)
    assert info.value.diagnostics["requested_bits"] == len(codes) * width
    assert info.value.diagnostics["available_bits"] == 8 * cut


@given(data=st.data(), width=widths)
def test_bad_value_raises_what_bitwriter_raises(data, width):
    codes = data.draw(_codes(width))
    bad = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=2**width)))
    where = data.draw(st.integers(0, len(codes)))
    codes = codes[:where] + [bad] + codes[where:]
    with pytest.raises(ValueError) as expected:
        _oracle_pack(codes, width)
    with pytest.raises(ValueError) as actual:
        pack_codes(codes, width)
    assert str(actual.value) == str(expected.value)


def test_first_bad_value_is_reported():
    with pytest.raises(ValueError, match="value 9 does not fit in 3 bits"):
        pack_codes([1, 9, -1], 3)
    with pytest.raises(ValueError, match="non-negative"):
        pack_codes((1, -1, 9), 3)


@pytest.mark.parametrize("width", [0, -1])
def test_width_must_be_positive(width):
    with pytest.raises(ValueError):
        pack_codes([], width)
    with pytest.raises(ValueError):
        unpack_codes(b"", 0, width)


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        unpack_codes(b"\x00", -1, 4)


def test_empty():
    assert pack_codes([], 10) == b""
    assert unpack_codes(b"", 0, 10) == ()


def test_block_of_eight_fills_width_bytes():
    for width in range(1, 25):
        codes = [2**width - 1] * 8
        assert pack_codes(codes, width) == b"\xff" * width
