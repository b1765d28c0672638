"""Fault-injection coverage of the multi-segment (v3) framing.

Extends the reliability campaign to sharded containers: every injector
class — including the two v3-specific ones that corrupt a single
shard's payload or tamper with its segment-table entry under a
re-signed header CRC — must be detected with a typed error, never
silent corruption, and ``repro verify`` must report the failing
segment's index with exit code 4.
"""

import random

import pytest

from repro.bitstream import TernaryVector
from repro.container import (
    SEGMENT_ENTRY_SIZE,
    V3_SEGMENT_TABLE_OFFSET,
    load_seeded,
)
from repro.core import LZWConfig, compress_batch
from repro.reliability.campaign import TrialOutcome, run_campaign
from repro.reliability.errors import ContainerError
from repro.reliability.inject import INJECTORS, MULTI_INJECTORS, inject
from repro.reliability.verify import verify_container

CONFIG = LZWConfig(char_bits=4, dict_size=128, entry_bits=24)


@pytest.fixture(scope="module")
def original():
    return TernaryVector.random(2400, x_density=0.75, rng=random.Random(99))


@pytest.fixture(scope="module")
def container(original):
    item = compress_batch(CONFIG, [original], workers=1, shard_bits=700)[0]
    assert item.num_shards >= 3  # the campaign needs a real multi-segment file
    return item.container


class TestMultiSegmentCampaign:
    def test_no_silent_corruption_across_all_injectors(self, container, original):
        names = tuple(sorted(INJECTORS)) + tuple(sorted(MULTI_INJECTORS))
        result = run_campaign(container, original, injectors=names, seeds=range(50))
        assert result.ok, result.summary()
        counts = result.counts
        assert counts[TrialOutcome.SILENT] == 0
        assert counts[TrialOutcome.ESCAPED] == 0
        assert counts[TrialOutcome.DETECTED] > 0

    @pytest.mark.parametrize("injector", sorted(MULTI_INJECTORS))
    def test_segment_injectors_are_deterministic(self, container, injector):
        assert inject(container, injector, 7) == inject(container, injector, 7)
        assert inject(container, injector, 7) != inject(container, injector, 8)

    @pytest.mark.parametrize("injector", sorted(MULTI_INJECTORS))
    def test_segment_injectors_require_v3(self, injector):
        with pytest.raises(ValueError):
            inject(b"LZWT\x02" + bytes(60), injector, 0)


class TestVerifyReportsSegmentIndex:
    def test_corrupt_segment_payload_names_the_segment(self, container, original):
        # Flip a bit in the *last* segment's payload: the final bytes of
        # the container belong to it.
        corrupted = bytearray(container)
        corrupted[-2] ^= 0x10
        report = verify_container(bytes(corrupted), original)
        assert not report.ok
        assert report.exit_code == 4
        failing = [c for c in report.checks if not c.ok]
        assert failing
        last = report.segments - 1
        assert any(f"segment[{last}]" in check.name for check in failing)

    def test_tampered_entry_is_reported_by_index(self, container, original):
        corrupted = inject(container, "segment_entry_tamper", seed=3)
        report = verify_container(corrupted, original)
        assert not report.ok
        assert report.exit_code == 4
        assert any(
            "segment[" in check.name or "header" in check.name
            for check in report.checks
            if not check.ok
        )

    def test_every_segment_index_appears_in_a_clean_report(self, container):
        report = verify_container(container)
        assert report.ok and report.exit_code == 0
        for index in range(report.segments):
            assert any(
                check.name.startswith(f"segment[{index}]")
                for check in report.checks
            )

    def test_load_seeded_raises_with_segment_diagnostic(self, container):
        corrupted = bytearray(container)
        corrupted[-2] ^= 0x10
        with pytest.raises(ContainerError) as excinfo:
            load_seeded(bytes(corrupted))
        assert excinfo.value.segment == len(load_seeded(container)) - 1

    def test_first_segment_payload_corruption(self, container, original):
        # Corrupt the first payload byte right after the segment table.
        segments = load_seeded(container)
        table_end = V3_SEGMENT_TABLE_OFFSET + len(segments) * SEGMENT_ENTRY_SIZE
        corrupted = bytearray(container)
        corrupted[table_end] ^= 0xFF
        report = verify_container(bytes(corrupted), original)
        assert not report.ok
        assert report.exit_code == 4
        assert any(
            check.name.startswith("segment[0]")
            for check in report.checks
            if not check.ok
        )
