"""The seed-mode ablation on the paper corpus, pinned bit for bit.

README and DESIGN quote these ratios: the seven ``DEFAULT_CORPUS``
circuits at full scale, the paper configuration (C_C=7, N=1024,
C_MDATA=63), 4096-bit pattern-aligned shards, one process.  Serial
``compress`` reads 69.33 %; sharding with cold dictionaries costs
14.6 points, a shared preamble wins most of that back, and the wave
(each shard seeded with its predecessor's final dictionary) beats
serial.  Every figure is deterministic, so any change is a change to
the encoder, the shard planner or the seed planner, never noise.
"""

import pytest

from repro.core import LZWConfig, compress, compress_batch
from repro.workloads import DEFAULT_CORPUS, build_corpus

CONFIG = LZWConfig(char_bits=7, dict_size=1024, entry_bits=63)
SHARD_BITS = 4096
TOTAL_BITS = 697261
SHARDS = [6, 10, 6, 18, 40, 33, 46]

#: mode -> (compressed bits over the corpus, ratio in percent)
PINNED = {
    "serial": (213880, 69.33),
    "cold": (315660, 54.73),
    "preamble": (248210, 64.40),
    "wave": (197910, 71.62),
}


@pytest.fixture(scope="module")
def corpus():
    sets = [test_set for _, test_set in build_corpus(DEFAULT_CORPUS, scale=1.0)]
    return [s.to_stream() for s in sets], [s.width for s in sets]


def _ratio(bits: int) -> float:
    return round(100.0 * (1.0 - bits / TOTAL_BITS), 2)


def test_serial_ratio(corpus):
    streams, _ = corpus
    assert sum(map(len, streams)) == TOTAL_BITS
    bits = sum(compress(stream, CONFIG).compressed_bits for stream in streams)
    assert (bits, _ratio(bits)) == PINNED["serial"]


@pytest.mark.parametrize("mode", ["cold", "preamble", "wave"])
def test_sharded_ratio(corpus, mode):
    streams, widths = corpus
    items = compress_batch(
        CONFIG,
        streams,
        workers=1,
        shard_bits=SHARD_BITS,
        pattern_bits=widths,
        seed_plan=mode,
    )
    assert [item.num_shards for item in items] == SHARDS
    assert all(item.verify(stream) for item, stream in zip(items, streams))
    bits = sum(item.compressed_bits for item in items)
    assert (bits, _ratio(bits)) == PINNED[mode]
