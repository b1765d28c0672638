"""Pinned (outcome, error class) counts of the injection grids.

The campaign suites assert that no trial is silent or escaped; this one
also pins *which* typed error every trial ends in, per injector.  A
change to the container readers that kept every trial detected but
moved a failure from, say, ``ContainerError`` to ``SnapshotError`` —
or let a decoder's ``DecodeError`` escape the container read — would
change what callers have to catch: it fails here.

The containers are the campaign containers of the neighbouring suites:
the v2 one of ``conftest.py``, the v3 one of ``test_multisegment.py``,
the v4 preamble and wave ones of ``test_seeded_campaign.py`` and the v5
journal of ``test_stream_campaign.py``.
"""

import io
import random
from collections import Counter

import pytest

from repro.bitstream import TernaryVector
from repro.core import LZWConfig, StreamEncoder
from repro.parallel import SeedPlan, compress_batch
from repro.reliability.campaign import run_campaign
from repro.reliability.inject import (
    INJECTORS,
    MULTI_INJECTORS,
    SEEDED_INJECTORS,
    STREAM_INJECTORS,
)
from repro.streamio import StreamContainerWriter

SHARDED = LZWConfig(char_bits=4, dict_size=128, entry_bits=24)
STREAMED = LZWConfig(char_bits=4, dict_size=64, entry_bits=20)

C = ("detected", "ContainerError")
S = ("detected", "SnapshotError")
OK = ("correct", None)

GENERIC = {name: {C: 50} for name in INJECTORS}

#: grid -> injector -> {(outcome, error class): trials}
PINNED = {
    "v2": GENERIC,
    "v3": {**GENERIC, "segment_entry_tamper": {C: 50}, "segment_payload": {C: 50}},
    "v4-preamble": {
        **GENERIC,
        "seed_mismatch": {C: 50},
        "snapshot_tamper": {OK: 1, C: 10, S: 39},
    },
    "v4-wave": {**GENERIC, "seed_mismatch": {C: 50}},
    "v5": {name: {C: 40} for name in (*INJECTORS, *STREAM_INJECTORS)},
}


@pytest.fixture(scope="module")
def sharded_original():
    return TernaryVector.random(2400, x_density=0.75, rng=random.Random(99))


def _batch(original, **kwargs):
    return compress_batch(SHARDED, [original], workers=1, shard_bits=700, **kwargs)[0]


def _journal():
    original = TernaryVector.random(2400, x_density=0.6, rng=random.Random(20030308))
    encoder = StreamEncoder(STREAMED)
    sink = io.BytesIO()
    writer = StreamContainerWriter(STREAMED, sink, codes_per_frame=24)
    for start in range(0, len(original), 300):
        writer.write_codes(encoder.feed(original[start : start + 300]))
    writer.finalize(encoder.finalize(), encoder.original_bits)
    return sink.getvalue(), original


def _tally(container, original, injectors, seeds):
    result = run_campaign(container, original, injectors=injectors, seeds=seeds)
    counts = {}
    for trial in result.trials:
        error = type(trial.error).__name__ if trial.error is not None else None
        counts.setdefault(trial.fault, Counter())[(trial.outcome.value, error)] += 1
    return {name: dict(tally) for name, tally in counts.items()}


def test_v2_grid(campaign_container, campaign_original):
    got = _tally(campaign_container, campaign_original, sorted(INJECTORS), range(50))
    assert got == PINNED["v2"]


def test_v3_grid(sharded_original):
    item = _batch(sharded_original)
    names = sorted(INJECTORS) + sorted(MULTI_INJECTORS)
    assert _tally(item.container, sharded_original, names, range(50)) == PINNED["v3"]


def test_v4_preamble_grid(sharded_original):
    item = _batch(sharded_original, seed_plan=SeedPlan(mode="preamble"))
    names = sorted(INJECTORS) + sorted(SEEDED_INJECTORS)
    got = _tally(item.container, sharded_original, names, range(50))
    assert got == PINNED["v4-preamble"]


def test_v4_wave_grid(sharded_original):
    item = _batch(sharded_original, seed_plan=SeedPlan(mode="wave"))
    names = sorted(INJECTORS) + ["seed_mismatch"]
    got = _tally(item.container, sharded_original, names, range(50))
    assert got == PINNED["v4-wave"]


def test_v5_grid():
    container, original = _journal()
    names = sorted(INJECTORS) + sorted(STREAM_INJECTORS)
    assert _tally(container, original, names, range(40)) == PINNED["v5"]
