"""Fault-injection campaign + salvage for the v5 streaming journal.

The streaming journal's whole reason to exist is crash tolerance, so
its corruption story is held to the same bar as the one-shot container:
every injected fault is *detected* (typed error) — zero silent
corruption — and salvage recovers exactly the complete-frame prefix,
byte-correct against the uncorrupted decode.
"""

import io
import random

import pytest

from repro.bitstream import TernaryVector
from repro.core import LZWConfig, compress
from repro.reliability.campaign import TrialOutcome, run_campaign
from repro.reliability.inject import STREAM_INJECTORS, inject
from repro.reliability.salvage import salvage_container
from repro.reliability.verify import verify_container
from repro.streamio import decode_stream_bytes, scan_stream, write_stream

SEEDS = range(40)

CFG = LZWConfig(char_bits=4, dict_size=64, entry_bits=20)


@pytest.fixture(scope="module")
def stream_original():
    rng = random.Random(20030308)
    return TernaryVector.random(2400, x_density=0.6, rng=rng)


@pytest.fixture(scope="module")
def stream_container(stream_original):
    sink = io.BytesIO()
    chunks = (
        stream_original[i : i + 300] for i in range(0, len(stream_original), 300)
    )
    write_stream(CFG, chunks, sink, codes_per_frame=24)
    data = sink.getvalue()
    assert len(scan_stream(data).frames) >= 4, "campaign needs several frames"
    return data


class TestStreamCampaign:
    def test_no_silent_corruption_full_grid(
        self, stream_container, stream_original
    ):
        result = run_campaign(
            stream_container,
            stream_original,
            injectors=sorted(STREAM_INJECTORS),
            seeds=SEEDS,
        )
        assert len(result.trials) == len(STREAM_INJECTORS) * len(SEEDS)
        assert result.ok, result.summary()
        assert result.counts[TrialOutcome.SILENT] == 0
        assert result.counts[TrialOutcome.ESCAPED] == 0

    @pytest.mark.parametrize("name", sorted(STREAM_INJECTORS))
    def test_per_injector_detection(
        self, stream_container, stream_original, name
    ):
        result = run_campaign(
            stream_container, stream_original, injectors=[name], seeds=SEEDS
        )
        assert result.ok, result.summary()
        assert result.counts[TrialOutcome.DETECTED] >= len(SEEDS) * 0.8

    def test_generic_injectors_also_detected(
        self, stream_container, stream_original
    ):
        # The byte-level injectors written for v1-v4 know nothing about
        # frames; the v5 reader must catch them all the same.
        result = run_campaign(
            stream_container,
            stream_original,
            injectors=["bit_flip", "truncate", "header_corrupt"],
            seeds=SEEDS,
        )
        assert result.ok, result.summary()
        assert result.counts[TrialOutcome.SILENT] == 0
        assert result.counts[TrialOutcome.ESCAPED] == 0


class TestStreamSalvage:
    def test_salvage_prefix_is_byte_correct(self, stream_container):
        clean = decode_stream_bytes(stream_container)
        for name in sorted(STREAM_INJECTORS):
            for seed in range(12):
                corrupted = inject(stream_container, name, seed)
                result = salvage_container(corrupted)
                prefix = result.stream
                assert len(prefix) <= len(clean), (name, seed)
                assert prefix == clean[: len(prefix)], (name, seed)

    def test_mid_stream_truncate_recovers_all_complete_frames(
        self, stream_container
    ):
        scan = scan_stream(stream_container)
        for seed in range(12):
            corrupted = inject(stream_container, "mid_stream_truncate", seed)
            surviving = scan_stream(corrupted).frames
            result = salvage_container(corrupted)
            # Every frame that survived intact must be in the salvage.
            kept_bits = sum(f.num_codes for f in surviving)
            assert result.codes_decoded >= kept_bits, seed
            assert not result.complete
            assert result.error is not None
            assert result.notes, "salvage must explain what it tolerated"

    def test_salvage_of_clean_stream_is_complete(
        self, stream_container, stream_original
    ):
        result = salvage_container(stream_container)
        assert result.complete
        assert result.error is None
        assert result.stream.covers(stream_original)


class TestStreamVerify:
    def test_clean_container_passes_with_frame_stages(self, stream_container):
        report = verify_container(stream_container)
        assert report.ok
        names = [c.name for c in report.checks]
        assert any(n.startswith("frame[") for n in names)
        assert "terminal" in names

    @pytest.mark.parametrize("name", sorted(STREAM_INJECTORS))
    def test_corrupted_container_fails(self, stream_container, name):
        for seed in range(8):
            corrupted = inject(stream_container, name, seed)
            report = verify_container(corrupted)
            assert not report.ok, (name, seed)

    def test_coverage_stage_runs_on_streams(
        self, stream_container, stream_original
    ):
        report = verify_container(stream_container, original=stream_original)
        assert report.ok
        assert any(c.name == "coverage" for c in report.checks)
