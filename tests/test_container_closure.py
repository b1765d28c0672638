"""Every container the system writes reads back, and fails one way.

**Closure.**  Each writer — ``dump_bytes``, ``compress_batch`` in cold,
preamble and wave modes, ``write_stream``, the service ``compress``
(plain and seeded) and ``compress_stream`` replies of an in-process
server, a fleet ``ResultCache`` entry and the ``repro fsck --repair``
rebuild of a torn v5 journal — runs under four regimes: the paper
configuration, a small frozen dictionary, a ``reset_on_full``
dictionary that resets at least fifty times, and ``C_MDATA`` at the
phrase bound.  Every reader must then accept the bytes: the decode
covers the input, ``load_seeded`` (and ``load_bytes`` for one cold
segment) returns the same decode under the written configuration,
``verify_container`` and ``salvage_container`` pass, ``fsck`` finds the
file clean and the hardware ``DecompressorModel`` replays every cold
segment to the same bits.

**One failure class.**  The same undecodable code, planted in a v2, a
v3, a cold ``reset_on_full`` v4 and a v5 container, fails the same way
at every layer: the library raises :class:`ContainerError` whose
``__cause__`` is the decoder's :class:`DecodeError`, ``repro decompress``
and ``repro verify`` exit 4, and the service ``decompress`` reply is a
422 of type ``ContainerError``.
"""

import dataclasses
import io
import random

import pytest

from repro import streamio
from repro.bitstream import TernaryVector
from repro.cli import main
from repro.container import (
    SEED_COLD,
    container_version,
    decode_container,
    dump_bytes,
    dump_segments,
    load_bytes,
    load_seeded,
)
from repro.core import (
    CompressedStream,
    LZWConfig,
    compress,
    compress_batch,
    decode,
    derive_final_snapshot,
)
from repro.fleet.cache import ResultCache
from repro.hardware.decompressor import DecompressorModel
from repro.observability import CounterRecorder
from repro.observability import schema as ev
from repro.reliability.errors import ContainerError, DecodeError
from repro.reliability.fsck import fsck_paths
from repro.reliability.salvage import salvage_container
from repro.reliability.verify import verify_container
from repro.service import CompressionServer, ServiceClient, ServiceConfig
from repro.streamio import scan_stream, write_stream

REGIMES = {
    "paper": LZWConfig(char_bits=7, dict_size=1024, entry_bits=63),
    "small-frozen": LZWConfig(char_bits=4, dict_size=64, entry_bits=20),
    "adaptive": LZWConfig(char_bits=4, dict_size=32, entry_bits=20, reset_on_full=True),
    # C_MDATA = 2 * C_C: every dictionary string stops at two characters.
    "phrase-bound": LZWConfig(char_bits=4, dict_size=128, entry_bits=8),
}

ORIGINAL = TernaryVector.random(12000, x_density=0.6, rng=random.Random(5))
TRAIN = TernaryVector.random(2000, x_density=0.6, rng=random.Random(6))
RAW = random.Random(5).randbytes(1500)
RAW_STREAM = TernaryVector.from_int(int.from_bytes(RAW, "little"), len(RAW) * 8)
CODES_PER_FRAME = 64


def _fields(config):
    return {
        "char_bits": config.char_bits,
        "dict_size": config.dict_size,
        "entry_bits": config.entry_bits,
        "reset_on_full": config.reset_on_full,
    }


def _text(stream):
    """Cube text of 8-bit rows that concatenate back into ``stream``."""
    text = str(stream)
    return "\n".join(text[i : i + 8] for i in range(0, len(text), 8))


@pytest.fixture(scope="module")
def client():
    server = CompressionServer(ServiceConfig(workers=1, queue_depth=4))
    server.start()
    try:
        with ServiceClient(server.address, timeout=60.0) as connection:
            yield connection
    finally:
        server.drain()


# ----------------------------------------------------------------------
# Writers: each returns (container bytes, the stream they must cover)
# ----------------------------------------------------------------------


def _dump(config, client, tmp_path):
    result = compress(ORIGINAL, config)
    return dump_bytes(result.compressed, result.assigned_stream), ORIGINAL


def _batch(mode):
    def write(config, client, tmp_path):
        (item,) = compress_batch(
            config, [ORIGINAL], workers=1, shard_bits=3000, seed_plan=mode
        )
        assert item.num_shards == 4
        return item.container, ORIGINAL

    return write


def _stream(config, client, tmp_path):
    sink = io.BytesIO()
    write_stream(config, [ORIGINAL], sink, codes_per_frame=CODES_PER_FRAME)
    return sink.getvalue(), ORIGINAL


def _service(config, client, tmp_path):
    header, payload = client.compress(_text(ORIGINAL), config=_fields(config))
    assert header["ok"], header
    return payload, ORIGINAL


def _service_seeded(config, client, tmp_path):
    seed = derive_final_snapshot(compress(TRAIN, config).compressed.codes, config)
    header, payload = client.compress(
        _text(ORIGINAL), config=_fields(config), seed=seed.to_bytes()
    )
    assert header["ok"], header
    return payload, ORIGINAL


def _service_stream(config, client, tmp_path):
    header, payload = client.compress_stream(
        RAW, config=_fields(config), chunk_bytes=77, codes_per_frame=CODES_PER_FRAME
    )
    assert header["ok"], header
    return payload, RAW_STREAM


def _cache(config, client, tmp_path):
    header, payload = client.compress(_text(ORIGINAL), config=_fields(config))
    cache = ResultCache(tmp_path / "cache", deep_verify=True)
    fingerprint = "ab" * 32
    cache.put(fingerprint, header, payload)
    hit = cache.get(fingerprint)
    assert hit is not None
    return hit[1], ORIGINAL


def _fsck_rebuild(config, client, tmp_path):
    full, _ = _stream(config, client, tmp_path)
    path = tmp_path / "torn.lzwt"
    path.write_bytes(full[: len(full) * 6 // 10])
    report = fsck_paths([path], repair=True)
    assert report.items[0].status == "repaired"
    data = path.read_bytes()
    kept = scan_stream(data).terminal.total_original_bits
    assert 0 < kept < len(ORIGINAL)
    return data, ORIGINAL[:kept]


WRITERS = {
    "dump_bytes": _dump,
    "batch-cold": _batch("cold"),
    "batch-preamble": _batch("preamble"),
    "batch-wave": _batch("wave"),
    "write_stream": _stream,
    "service-compress": _service,
    "service-compress-seeded": _service_seeded,
    "service-compress_stream": _service_stream,
    "result-cache": _cache,
    "fsck-repair": _fsck_rebuild,
}


def test_adaptive_regime_resets_at_least_fifty_times():
    recorder = CounterRecorder()
    compress(ORIGINAL, REGIMES["adaptive"], recorder=recorder)
    assert recorder.snapshot()["counters"][ev.DICT_RESETS] >= 50


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("writer", WRITERS)
def test_every_reader_reads_what_every_writer_writes(regime, writer, client, tmp_path):
    config = REGIMES[regime]
    data, original = WRITERS[writer](config, client, tmp_path)

    decoded = decode_container(data)
    assert len(decoded) == len(original)
    assert decoded.covers(original)

    if container_version(data) != streamio.VERSION_STREAM:
        segments = load_seeded(data)
        assert all(seg.compressed.config == config for seg in segments)
        assert TernaryVector.concat_all([seg.stream for seg in segments]) == decoded
        cold = [seg for seg in segments if seg.seed_mode == SEED_COLD]
        if len(segments) == 1 and cold:
            assert decode(load_bytes(data)) == decoded
        for seg in cold:
            part = seg.compressed
            run = DecompressorModel(config).run(part.to_bits(), part.original_bits)
            assert run.scan_stream == seg.stream

    assert verify_container(data, original).ok
    assert salvage_container(data).complete
    path = tmp_path / "closure.lzwt"
    path.write_bytes(data)
    assert fsck_paths([path]).ok


# ----------------------------------------------------------------------
# One fault, one class
# ----------------------------------------------------------------------

FAULT_CONFIG = LZWConfig(char_bits=4, dict_size=64, entry_bits=20)
BAD_CODE, BAD_INDEX = 63, 1  # far past the one entry code 1 may name
FAULT_INPUT = ORIGINAL[:2000]


def _planted(config, stream):
    """``stream`` compressed with code ``BAD_INDEX`` replaced by ``BAD_CODE``,
    plus the true decode (so the writer records the intended digest)."""
    result = compress(stream, config)
    codes = list(result.compressed.codes)
    codes[BAD_INDEX] = BAD_CODE
    part = CompressedStream(tuple(codes), config, result.compressed.original_bits)
    return part, result.assigned_stream


def _v2():
    return dump_bytes(*_planted(FAULT_CONFIG, FAULT_INPUT)), 0


def _v3():
    good = compress(FAULT_INPUT, FAULT_CONFIG)
    bad, stream = _planted(FAULT_CONFIG, FAULT_INPUT)
    return dump_segments([good.compressed, bad], [good.assigned_stream, stream]), 1


def _v4_cold_adaptive():
    config = dataclasses.replace(FAULT_CONFIG, reset_on_full=True)
    return dump_bytes(*_planted(config, FAULT_INPUT)), 0


def _v5():
    # Plant the code where the writer packs frame 0's payload, after its
    # shadow decode: every CRC then covers the planted code.
    pack = streamio.pack_frame_payload
    packed = []

    def planting(codes, code_bits):
        if not packed:
            codes = [*codes[:BAD_INDEX], BAD_CODE, *codes[BAD_INDEX + 1 :]]
        packed.append(codes)
        return pack(codes, code_bits)

    sink = io.BytesIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streamio, "pack_frame_payload", planting)
        write_stream(FAULT_CONFIG, [FAULT_INPUT], sink, codes_per_frame=CODES_PER_FRAME)
    return sink.getvalue(), None


FAULTS = {"v2": _v2, "v3": _v3, "v4-cold-adaptive": _v4_cold_adaptive, "v5": _v5}
VERSIONS = {"v2": 2, "v3": 3, "v4-cold-adaptive": 4, "v5": 5}


@pytest.mark.parametrize("layout", FAULTS)
def test_library_raises_container_error_caused_by_the_decode_error(layout):
    data, segment = FAULTS[layout]()
    assert container_version(data) == VERSIONS[layout]
    readers = [decode_container]
    if segment is not None:
        readers.append(load_seeded)
        if layout != "v3":
            readers.append(load_bytes)
    for read in readers:
        with pytest.raises(ContainerError) as info:
            read(data)
        error = info.value
        assert type(error) is ContainerError, read.__name__
        assert isinstance(error.__cause__, DecodeError), read.__name__
        assert error.__cause__.code_index == BAD_INDEX
        if segment is not None:
            assert error.segment == segment
            # A cold segment has no seed to blame.
            assert "seed" not in error.message


@pytest.mark.parametrize("layout", FAULTS)
def test_cli_exits_4(layout, tmp_path, capsys):
    data, _ = FAULTS[layout]()
    path = tmp_path / "fault.lzwt"
    path.write_bytes(data)
    assert main(["decompress", str(path), "-o", str(tmp_path / "out.txt")]) == 4
    assert main(["verify", str(path)]) == 4


@pytest.mark.parametrize("layout", FAULTS)
def test_service_decompress_replies_422_container_error(layout, client):
    data, _ = FAULTS[layout]()
    header, _ = client.decompress(data)
    assert not header["ok"]
    assert header["code"] == 422
    assert header["error"]["type"] == "ContainerError"
