"""Differential conformance at the paper's configuration.

The Hypothesis differential suites draw ``C_C <= 5`` and ``N <= 256`` on
streams of a few hundred symbols, so the packed matcher's candidate
packs stay narrow there.  The paper's ``C_C = 7``, ``N = 1024``
dictionary gives its base decisions root packs of hundreds of lanes,
its winner selection many candidates per level and its node tables
hundreds of in-place appends.  These cases run test-set cubes and raw
bytes at that configuration through the packed matcher and through the
oracle inside ``reference_engine()`` — cold, and from a chained warm
start whose seeded replay rebuilds the suffix packs — and assert equal
codes, stats and recorder counters.
"""

import random
from contextlib import nullcontext

import pytest

from repro.bitstream import TernaryVector
from repro.core import LZWConfig, LZWEncoder, derive_final_snapshot
from repro.core.dontcare import reference_engine
from repro.observability import CounterRecorder
from repro.streamio import raw_chunks
from repro.workloads import build_testset

CONFIGS = {
    "paper": LZWConfig(),
    # A budget of 8 binds on most multi-candidate decisions, so the
    # packed matcher takes its exact budget-replaying scan.
    "budget-8": LZWConfig(lookahead_budget=8),
}

#: (circuit, scale): three circuits whose cubes allocate most of the
#: 1024-entry dictionary (the last two fill it and finish in the frozen
#: phase) within half a second per engine.
CUBES = (("s9234f", 0.6), ("s38417f", 0.3), ("s35932f", 1.0))


def _cubes(circuit, scale, seed=1):
    return build_testset(circuit, scale=scale, seed=seed).to_stream()


def _raw_bytes():
    """A few KB of word-structured text: X-density 0 through streamio's
    raw mapping, so every character is fully specified."""
    rng = random.Random(24)
    words = [b"scan", b"chain", b"cube", b"fill", b"lzw", b"x", b"01"]
    data = b" ".join(rng.choice(words) for _ in range(900))
    return TernaryVector.concat_all(list(raw_chunks(data, 512)))


def _encode(config, stream, engine, seed=None, link=None):
    rec = CounterRecorder()
    swap = reference_engine() if engine == "reference" else nullcontext()
    with swap:
        encoder = LZWEncoder(config, recorder=rec, seed=seed, link=link)
    compressed = encoder.encode(stream)
    return compressed, encoder.stats(), rec


def assert_engines_identical(config, stream, seed=None, link=None):
    """Both engines agree on codes, expansions, stats and counters."""
    ref, ref_stats, ref_rec = _encode(config, stream, "reference", seed, link)
    fast, fast_stats, fast_rec = _encode(config, stream, "fast", seed, link)
    assert fast.codes == ref.codes
    assert fast.expansion_chars == ref.expansion_chars
    assert fast_stats == ref_stats
    assert fast_rec.counters == ref_rec.counters
    assert fast_rec.histograms == ref_rec.histograms
    return ref, ref_stats


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("circuit,scale", CUBES)
def test_cubes_at_paper_config(circuit, scale, config_name):
    _, stats = assert_engines_identical(
        CONFIGS[config_name], _cubes(circuit, scale)
    )
    assert stats.entries_allocated >= 500  # wide packs, not a toy trie


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_raw_bytes_at_paper_config(config_name):
    config = CONFIGS[config_name]
    stream = _raw_bytes()
    assert stream.x_count == 0
    _, stats = assert_engines_identical(config, stream)
    assert stats.entries_allocated >= 500


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_chained_warm_start_at_paper_config(config_name):
    """Seed plus link from a predecessor's final snapshot: the packed
    matcher rebuilds its suffix packs and candidate lane masks by
    replaying the seeded entries, and must still decide like the
    oracle on the successor."""
    config = CONFIGS[config_name]
    predecessor, _ = assert_engines_identical(config, _cubes("s9234f", 0.2))
    codes = predecessor.codes
    seed = derive_final_snapshot(codes, config)
    assert len(seed.entries) >= 300
    assert_engines_identical(
        config, _cubes("s38417f", 0.1, seed=2), seed=seed, link=codes[-1]
    )
