"""Salvage decoding of multi-segment (v3) containers.

A corrupted segment ``i`` must salvage every segment before it in full
and report the failing table index — matching the ``segment[i]``
diagnostics ``repro verify`` reports with exit code 4.
"""

import random
import struct

import pytest

from repro.bitstream import TernaryVector
from repro.container import (
    SEGMENT_ENTRY_SIZE,
    V3_HEADER_CRC_OFFSET,
    V3_SEGMENT_TABLE_OFFSET,
    load_seeded,
)
from repro.core import LZWConfig, compress_batch, decode
from repro.reliability.salvage import salvage_container
from repro.reliability.verify import verify_container

CONFIG = LZWConfig(char_bits=4, dict_size=128, entry_bits=24)

_ENTRY = struct.Struct(">QQQIII")


@pytest.fixture(scope="module")
def original():
    rng = random.Random(99)
    return TernaryVector.random(2400, x_density=0.75, rng=rng)


@pytest.fixture(scope="module")
def container(original):
    item = compress_batch(CONFIG, [original], workers=1, shard_bits=700)[0]
    assert item.num_shards >= 4  # the tests below index segments 0..2
    return item.container


def _entries(container):
    count = len(load_seeded(container))
    return [
        _ENTRY.unpack_from(
            container, V3_SEGMENT_TABLE_OFFSET + i * SEGMENT_ENTRY_SIZE
        )
        for i in range(count)
    ]


def _segment_bounds(container, index):
    """(start, end) byte range of segment ``index``'s payload in the file."""
    entries = _entries(container)
    table_end = V3_SEGMENT_TABLE_OFFSET + len(entries) * SEGMENT_ENTRY_SIZE
    offset, _orig, payload_bits, _codes, _pcrc, _scrc = entries[index]
    start = table_end + offset
    return start, start + (payload_bits + 7) // 8


def _clobber_segment(container, index):
    """Overwrite segment ``index``'s payload with codes that cannot decode."""
    start, end = _segment_bounds(container, index)
    return container[:start] + b"\xff" * (end - start) + container[end:]


def test_intact_container_salvages_completely(container, original):
    result = salvage_container(container)
    assert result.complete
    assert result.failed_segment is None
    assert result.stream.covers(original)


@pytest.mark.parametrize("bad_segment", [0, 1, 2])
def test_corrupt_segment_recovers_everything_before_it(
    container, original, bad_segment
):
    corrupted = _clobber_segment(container, bad_segment)
    result = salvage_container(corrupted)
    assert not result.complete
    assert result.failed_segment == bad_segment
    # Every earlier segment is recovered in full: the salvaged prefix
    # covers the original stream up to the failing segment's start.
    prefix_bits = sum(e[1] for e in _entries(container)[:bad_segment])
    assert result.recovered_bits >= prefix_bits
    assert result.stream[:prefix_bits].covers(original[:prefix_bits])


def test_corruption_notes_name_the_failing_segment(container):
    result = salvage_container(_clobber_segment(container, 1))
    assert any("segment 1" in note for note in result.notes)
    assert "segment 1" in result.describe()


def test_failing_index_matches_verify_diagnostics(container, original):
    # The salvage report and `repro verify`'s exit-code-4 report must
    # name the same segment, so an operator can cross-reference them.
    corrupted = _clobber_segment(container, 2)
    salvage = salvage_container(corrupted)
    report = verify_container(corrupted, original)
    assert report.exit_code == 4
    failing = [check.name for check in report.checks if not check.ok]
    assert failing
    assert all(name.startswith(f"segment[{salvage.failed_segment}]") for name in failing)


def test_header_crc_mismatch_tolerated_with_note(container, original):
    # Flip a bit inside the stored v3 header CRC itself: the table still
    # parses, so salvage proceeds and only notes the mismatch.
    bad = bytearray(container)
    bad[V3_HEADER_CRC_OFFSET] ^= 0x01
    result = salvage_container(bytes(bad))
    assert result.complete
    assert result.stream.covers(original)
    assert any("header CRC mismatch" in note for note in result.notes)


def test_partial_decode_counts_cover_all_segments(container):
    corrupted = _clobber_segment(container, 1)
    result = salvage_container(corrupted)
    total_codes = sum(e[3] for e in _entries(container))
    assert result.total_codes == total_codes
    assert result.codes_decoded < total_codes


def test_truncated_container_recovers_every_intact_segment(container):
    # Cutting the tail off a v3 file damages only its last segment: the
    # tolerant walk clamps that segment's payload and salvage returns
    # the decodable prefix, as it does for truncated v2 and v4 files.
    entries = _entries(container)
    last = len(entries) - 1
    cut = container[:-20]
    assert _segment_bounds(container, last)[0] < len(cut)
    result = salvage_container(cut)
    assert not result.complete
    assert result.failed_segment == last
    intact_bits = sum(e[1] for e in entries[:last])
    assert result.recovered_bits >= intact_bits
    full = TernaryVector.concat_all(
        [decode(part.compressed) for part in load_seeded(container)]
    )
    assert result.stream == full[: result.recovered_bits]
    assert any("clamped" in note for note in result.notes)
