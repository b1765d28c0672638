"""Each code is decoded exactly once per read of a v1–v4 container.

A counting spy on :meth:`StreamDecoder.push` (the one decode loop)
checks that ``repro decompress``, ``decode_container``,
``verify_container`` and ``salvage_container`` push every code once:
the digest check reuses the decode it returns, and a chain segment's
seed is the end state of the decoder that decoded its predecessor, not
a second decode of the predecessor's codes.
"""

import random

import pytest

from repro.bitstream import TernaryVector
from repro.cli import main
from repro.container import SEED_CHAIN, decode_container, dump_bytes, load_seeded
from repro.core import LZWConfig, compress, compress_batch
from repro.core.stream import StreamDecoder
from repro.parallel import SeedPlan
from repro.reliability.salvage import salvage_container
from repro.reliability.verify import verify_container

CONFIG = LZWConfig(char_bits=4, dict_size=128, entry_bits=24)


@pytest.fixture(scope="module")
def original():
    return TernaryVector.random(2400, x_density=0.75, rng=random.Random(99))


@pytest.fixture(scope="module")
def v2_container(original):
    result = compress(original, CONFIG)
    return dump_bytes(result.compressed, result.assigned_stream)


@pytest.fixture(scope="module")
def wave_container(original):
    item = compress_batch(
        CONFIG, [original], workers=1, shard_bits=700,
        seed_plan=SeedPlan(mode="wave"),
    )[0]
    segments = load_seeded(item.container, verify=False)
    assert len(segments) >= 3
    assert all(seg.seed_mode == SEED_CHAIN for seg in segments[1:])
    return item.container


@pytest.fixture
def pushes(monkeypatch):
    """A list that records one entry per decoded code."""
    calls = []
    push = StreamDecoder.push

    def counting_push(self, code):
        calls.append(code)
        return push(self, code)

    monkeypatch.setattr(StreamDecoder, "push", counting_push)
    return calls


def _num_codes(data):
    return sum(seg.compressed.num_codes for seg in load_seeded(data, verify=False))


@pytest.mark.parametrize("name", ["v2_container", "wave_container"])
def test_cli_decompress_decodes_once(name, request, tmp_path, capsys, pushes):
    data = request.getfixturevalue(name)
    total = _num_codes(data)
    path = tmp_path / "in.lzwt"
    path.write_bytes(data)
    del pushes[:]
    assert main(["decompress", str(path), "-o", str(tmp_path / "out.txt")]) == 0
    assert len(pushes) == total


@pytest.mark.parametrize(
    "read", [decode_container, verify_container, salvage_container],
    ids=["decode_container", "verify_container", "salvage_container"],
)
def test_wave_reads_decode_once(read, wave_container, pushes):
    total = _num_codes(wave_container)
    del pushes[:]
    read(wave_container)
    assert len(pushes) == total


def test_walk_seed_equals_rederived_seed(wave_container):
    # A verifying load takes chain seeds from the walk's decoder; a
    # load without verify does not decode and re-derives them.
    walked = load_seeded(wave_container)
    derived = load_seeded(wave_container, verify=False)
    assert [seg.link for seg in walked] == [seg.link for seg in derived]
    assert [seg.seed and seg.seed.digest for seg in walked] == [
        seg.seed and seg.seed.digest for seg in derived
    ]
    assert walked[1].seed is not None
