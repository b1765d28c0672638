"""Long raw-byte streams that fill and reset the dictionary many times.

A small dictionary with ``reset_on_full`` cycles through full/reset
every few dozen codes.  The v5 front door (``raw_chunks`` →
``write_stream`` → ``iter_raw_bytes``) must keep every contract across
those cycles, at chunk sizes that do and do not fall on character
boundaries: the codes equal one-shot ``compress``, the container
decodes back to the input bytes, salvage of a torn tail recovers
exactly the whole-frame prefix, and ``stream.chunks_fed`` counts the
chunks on the CLI and service surfaces alike.

The same stream, compressed one-shot, must read back through the v1–v4
container readers too: ``dump_bytes``, a cold ``compress_batch`` and
the service ``compress`` reply all write v4, whose flags byte carries
``reset_on_full`` (a v2 or v3 header would drop it and the reader
would stop resetting where the encoder did).
"""

import io
import json
import random

import pytest

from repro.bitstream import TernaryVector
from repro.cli import main
from repro.container import (
    container_version,
    decode_container,
    dump_bytes,
    load_bytes,
    load_seeded,
)
from repro.core import LZWConfig, compress, compress_batch, decode
from repro.observability import CounterRecorder
from repro.observability import schema as ev
from repro.reliability.salvage import salvage_container
from repro.service import CompressionServer, ServiceClient, ServiceConfig
from repro.streamio import (
    FRAME_DATA_HEADER_SIZE,
    StreamContainerReader,
    decode_stream_bytes,
    iter_raw_bytes,
    raw_chunks,
    scan_stream,
    write_stream,
)

#: 5-bit characters: a chunk of 1 or 77 bytes ends mid-character, one
#: of 5 bytes (40 bits) ends on a character boundary.
CONFIG = LZWConfig(char_bits=5, dict_size=64, reset_on_full=True)
CONFIG_FIELDS = {"char_bits": 5, "dict_size": 64, "reset_on_full": True}
CHUNK_BYTES = (1, 5, 77, 1024)
CODES_PER_FRAME = 64


def _corpus() -> bytes:
    rng = random.Random(20030308)
    words = [bytes(rng.choice(b"acegikmoqsuwy ") for _ in range(rng.randint(2, 9)))
             for _ in range(40)]
    return b" ".join(rng.choice(words) for _ in range(1400))


DATA = _corpus()


def _chunks(chunk_bytes: int) -> int:
    return -(-len(DATA) // chunk_bytes)


def _encode(chunk_bytes: int, config: LZWConfig = CONFIG):
    sink = io.BytesIO()
    recorder = CounterRecorder()
    written = write_stream(
        config,
        raw_chunks(DATA, chunk_bytes),
        sink,
        codes_per_frame=CODES_PER_FRAME,
        recorder=recorder,
    )
    return sink.getvalue(), written, recorder.snapshot()["counters"]


STREAM = TernaryVector.from_int(int.from_bytes(DATA, "little"), len(DATA) * 8)


@pytest.fixture(scope="module")
def reference():
    return compress(STREAM, CONFIG)


@pytest.fixture(scope="module")
def container():
    return _encode(len(DATA))[0]


def test_dictionary_resets_at_least_fifty_times(container):
    counters = _encode(len(DATA))[2]
    assert counters[ev.DICT_RESETS] >= 50
    assert len(scan_stream(container).frames) >= 8


@pytest.mark.parametrize("chunk_bytes", CHUNK_BYTES)
def test_codes_equal_one_shot_at_every_chunking(chunk_bytes, reference, container):
    data, written, counters = _encode(chunk_bytes)
    assert data == container
    codes = [code for frame in scan_stream(data).frames for code in frame.codes]
    assert codes == list(reference.compressed.codes)
    assert written.original_bits == len(DATA) * 8
    assert written.chunks == counters[ev.STREAM_CHUNKS_FED] == _chunks(chunk_bytes)


def test_raw_bytes_out_restores_the_input(container):
    reader = StreamContainerReader(io.BytesIO(container))
    assert b"".join(iter_raw_bytes(reader)) == DATA
    assert reader.terminal.total_original_bits == len(DATA) * 8


def test_raw_bytes_out_pads_only_the_final_partial_byte():
    # 13 bits: two output bytes, the last holding 5 real bits.
    sink = io.BytesIO()
    stream = TernaryVector.from_int(0b1011001110101, 13)
    write_stream(CONFIG, [stream], sink, codes_per_frame=1)
    out = b"".join(iter_raw_bytes(StreamContainerReader(io.BytesIO(sink.getvalue()))))
    assert out == (0b1011001110101).to_bytes(2, "little")


def test_salvage_of_a_torn_tail_recovers_the_whole_frame_prefix(container):
    full = decode_stream_bytes(container)
    frames = scan_stream(container).frames
    for torn in (1, len(frames) // 2, len(frames) - 1):
        cut = frames[torn].header_offset + FRAME_DATA_HEADER_SIZE + 1
        partial = salvage_container(container[:cut])
        kept = frames[:torn]
        assert not partial.complete
        assert partial.codes_decoded == sum(frame.num_codes for frame in kept)
        assert partial.stream == full[: kept[-1].original_bits_cum]


@pytest.mark.parametrize("chunk_bytes", [1, 77])
def test_cli_metrics_count_chunks_fed(chunk_bytes, tmp_path, capsys):
    # The CLI exposes no reset_on_full flag; the same small dictionary
    # then freezes when full instead of resetting.
    source = tmp_path / "corpus.bin"
    source.write_bytes(DATA)
    out, metrics = tmp_path / "out.lzwt", tmp_path / "metrics.json"
    assert main([
        "compress", str(source), "--stream", "--char-bits", "5",
        "--dict-size", "64", "--chunk-bytes", str(chunk_bytes),
        "--codes-per-frame", str(CODES_PER_FRAME),
        "-o", str(out), "--metrics-json", str(metrics),
    ]) == 0
    counters = json.loads(metrics.read_text())["counters"]
    assert counters[ev.STREAM_CHUNKS_FED] == _chunks(chunk_bytes)
    frozen = LZWConfig(char_bits=5, dict_size=64)
    assert out.read_bytes() == _encode(len(DATA), frozen)[0]


def test_service_metrics_count_chunks_fed(container):
    server = CompressionServer(ServiceConfig(workers=1, queue_depth=4))
    server.start()
    try:
        with ServiceClient(server.address) as client:
            header, payload = client.compress_stream(
                DATA, config=CONFIG_FIELDS, chunk_bytes=77,
                codes_per_frame=CODES_PER_FRAME,
            )
            assert header["ok"], header
            assert payload == container
            assert header["chunks"] == _chunks(77)
            counters = client.metrics()["counters"]
    finally:
        server.drain()
    assert counters[ev.STREAM_CHUNKS_FED] == _chunks(77)
    assert counters[ev.DICT_RESETS] >= 50


def test_one_shot_container_round_trips(reference):
    data = dump_bytes(reference.compressed, reference.assigned_stream)
    assert container_version(data) == 4
    loaded = load_bytes(data, verify=True)
    assert loaded.config == CONFIG
    assert loaded.codes == reference.compressed.codes
    assert decode(loaded) == STREAM
    assert decode_container(data) == STREAM


def test_cold_batch_container_round_trips():
    recorder = CounterRecorder()
    (item,) = compress_batch(
        CONFIG, [STREAM], workers=1, shard_bits=len(STREAM) // 3,
        pattern_bits=8, recorder=recorder,
    )
    assert item.num_shards >= 3
    assert recorder.snapshot()["counters"][ev.DICT_RESETS] >= 50
    assert container_version(item.container) == 4
    assert len(load_seeded(item.container)) == item.num_shards
    assert decode_container(item.container) == STREAM


def test_service_compress_reply_round_trips(reference):
    # One byte of the stream per cube row: the rows concatenate back
    # into STREAM.
    text = str(STREAM)
    rows = "\n".join(text[i : i + 8] for i in range(0, len(text), 8))
    server = CompressionServer(ServiceConfig(workers=1, queue_depth=4))
    server.start()
    try:
        with ServiceClient(server.address) as client:
            header, payload = client.compress(rows, config=CONFIG_FIELDS)
    finally:
        server.drain()
    assert header["ok"], header
    assert payload == dump_bytes(reference.compressed, reference.assigned_stream)
    assert decode(load_bytes(payload, verify=True)) == STREAM
