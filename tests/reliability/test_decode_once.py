"""Each code is decoded exactly once per read of a v1–v4 container.

A counting spy on :meth:`StreamDecoder.decode_into` (the one decode
loop, which :meth:`StreamDecoder.push` delegates to) checks that
``repro decompress``, ``decode_container``, ``verify_container`` and
``salvage_container`` decode every code once:
the digest check reuses the decode it returns, and a chain segment's
seed is the end state of the decoder that decoded its predecessor, not
a second decode of the predecessor's codes.

The library round trip decodes once too: ``compress`` takes its X
assignment from the encoder and pushes nothing, and ``decode`` of a
cold stream from a verifying load returns the decode the digest was
checked on.  That stored decode is never reused where it could be
stale: a rebuilt stream, an unverified load and a seeded or linked
decode all push every code again.
"""

import dataclasses
import random

import pytest

from repro.bitstream import TernaryVector
from repro.cli import main
from repro.container import (
    SEED_CHAIN,
    decode_container,
    dump_bytes,
    load_bytes,
    load_seeded,
)
from repro.core import LZWConfig, compress, compress_batch, decode
from repro.core.decoder import derive_final_snapshot
from repro.core.stream import StreamDecoder
from repro.parallel import SeedPlan, ShardJournal, batch_fingerprint, plan_shards
from repro.reliability import ContainerError
from repro.reliability.salvage import salvage_container
from repro.reliability.verify import verify_container
from repro.testfile import write_test_file
from repro.workloads import build_testset

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
    decode_into = StreamDecoder.decode_into

    def counting_decode_into(self, codes, out):
        calls.extend(codes)
        return decode_into(self, codes, out)

    monkeypatch.setattr(StreamDecoder, "decode_into", counting_decode_into)
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


# ----------------------------------------------------------------------
# The library round trip
# ----------------------------------------------------------------------


def test_compress_pushes_no_code(original, pushes):
    result = compress(original, CONFIG)
    assert result.compressed.num_codes > 0
    assert pushes == []
    # The encoder's assignment is what a fresh decode reproduces.
    assert decode(result.compressed) == result.assigned_stream
    assert len(pushes) == result.compressed.num_codes


def test_verified_load_then_decode_pushes_once(v2_container, original, pushes):
    loaded = load_bytes(v2_container, verify=True)
    assert len(pushes) == loaded.num_codes
    decoded = decode(loaded)
    assert len(pushes) == loaded.num_codes
    assert decoded.covers(original)


def test_cli_compress_pushes_once(tmp_path, capsys, pushes):
    cubes = tmp_path / "cubes.test"
    write_test_file(build_testset("s9234f", scale=0.1), cubes)
    out = tmp_path / "out.lzwt"
    assert main(["compress", str(cubes), "-o", str(out)]) == 0
    pushed = len(pushes)
    # Its only decode is CompressionResult.verify's.
    assert pushed == load_bytes(out.read_bytes(), verify=False).num_codes


@pytest.mark.parametrize("case", ["replaced", "unverified", "seeded", "linked"])
def test_stored_decode_is_not_reused_where_it_could_be_stale(
    case, v2_container, pushes
):
    loaded = load_bytes(v2_container, verify=case != "unverified")
    # Under the stream's own final dictionary every code is live, so a
    # seeded or linked decode of the cold codes runs to the end.
    final = derive_final_snapshot(loaded.codes, loaded.config)
    options = {}
    if case == "replaced":
        loaded = dataclasses.replace(loaded, codes=loaded.codes)
    elif case == "seeded":
        options["seed"] = final
    elif case == "linked":
        options.update(seed=final, link=loaded.codes[-1])
    del pushes[:]
    decode(loaded, **options)
    assert len(pushes) == loaded.num_codes


@pytest.mark.parametrize("mode", [None, "wave"])
def test_journal_resume_decodes_each_shard_once(mode, original, tmp_path, pushes):
    path = tmp_path / "batch.journal"
    seed_plan = SeedPlan(mode=mode) if mode else None
    plan = plan_shards(len(original), 700, 0)
    item = compress_batch(
        CONFIG, [original], workers=1, plans=[plan], seed_plan=seed_plan,
        checkpoint=path,
    )[0]
    total = _num_codes(item.container)
    fingerprint = batch_fingerprint([CONFIG], [original], [plan], seed_plan)
    del pushes[:]
    with ShardJournal.open(path, fingerprint, resume=True) as journal:
        results = [journal.completed[key] for key in sorted(journal.completed)]
    assert len(results) == item.num_shards
    assert len(pushes) == total
    assert TernaryVector.concat_all(
        [result.assigned_stream for result in results]
    ).covers(original)


# ----------------------------------------------------------------------
# The stream digest checks the encoder against the decoder
# ----------------------------------------------------------------------


def _swap_last_code(compressed):
    """``compressed`` with its last code swapped for another live code
    of the same expansion length: it decodes, to the right length, but
    to other characters."""
    decoder = StreamDecoder(compressed.config)
    decoder.decode_into(compressed.codes[:-1], [])
    last = compressed.codes[-1]
    width = compressed.expansion_chars[-1]
    strings = decoder.table.strings
    other = next(
        code
        for code in range(len(strings))
        if code != last and len(strings[code]) == width
    )
    return dataclasses.replace(compressed, codes=compressed.codes[:-1] + (other,))


def test_digest_catches_a_code_the_encoder_did_not_emit(original):
    # 2400 bits = 600 whole characters: no X padding to hide the swap.
    result = compress(original, CONFIG)
    swapped = _swap_last_code(result.compressed)
    # The digest is taken from the encoder's assignment, the payload
    # from the swapped codes (both CRCs stay valid).
    data = dump_bytes(swapped, result.assigned_stream)
    with pytest.raises(ContainerError, match="stream digest mismatch"):
        load_bytes(data, verify=True)
    failed = [check.name for check in verify_container(data).checks if not check.ok]
    assert failed == ["stream-digest"]
    # Without the digest check the wrong stream loads and decodes.
    assert decode(load_bytes(data, verify=False)) != result.assigned_stream
