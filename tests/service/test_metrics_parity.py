"""Service metrics equal the library's, request for request.

Each op attempt records into its own recorder, folded into the server's
shared one when the attempt ends.  Two concurrent clients send a fixed
mix — cold and seeded compress, decompress and verify of the replies,
``compress_stream`` and one decompress that fails after decoding part of
its payload — and after drain the metrics JSON must equal a
``CounterRecorder`` fed the same library calls serially.  A request
whose counters were dropped (no merge, or a merge only on success)
shows up as a counter or histogram mismatch.
"""

import io
import json
import sys
import threading

import pytest

from repro.container import (
    SEED_BLOB,
    SegmentSeed,
    decode_container,
    dump_bytes,
    dump_segments,
)
from repro.core import LZWConfig, compress, derive_final_snapshot
from repro.observability import CounterRecorder
from repro.observability import schema as ev
from repro.reliability.errors import ContainerError, DecodeError
from repro.reliability.inject import inject
from repro.reliability.verify import verify_container
from repro.service import CompressionServer, ServiceClient, ServiceConfig
from repro.streamio import DEFAULT_CODES_PER_FRAME, raw_chunks, write_stream
from repro.testfile import format_test_text, parse_test_text
from repro.workloads import build_testset

#: Three windows of the golden corpus (2.8k, 3.2k and 7.1k bits).
WINDOWS = (("s5378f", 0.12), ("s9234f", 0.08), ("s35932f", 0.25))
RAW = b"parity raw payload: repeated structure, repeated structure\n" * 24
RAW_CHUNK = 64
#: The library-side prefixes of the metrics a request records.
LIBRARY_PREFIXES = ("encode.", "dict.", "decode.", "container.", "stream.")


def _library_part(section):
    return {k: v for k, v in section.items() if k.startswith(LIBRARY_PREFIXES)}


@pytest.fixture(scope="module")
def corpus():
    sets = [build_testset(name, scale=scale) for name, scale in WINDOWS]
    config = LZWConfig()
    trained = compress(sets[0].to_stream(), config)
    seed = derive_final_snapshot(trained.compressed.codes, config)
    return sets, seed


def _serial_reference(sets, seed):
    """The library calls the mix makes, run serially into one recorder."""
    rec = CounterRecorder()
    config = LZWConfig()
    containers = []
    for test_set in sets:
        result = compress(test_set.to_stream(), config, recorder=rec)
        containers.append(
            dump_bytes(result.compressed, result.assigned_stream, recorder=rec)
        )
    result = compress(sets[1].to_stream(), config, recorder=rec, seed=seed)
    containers.append(
        dump_segments(
            [result.compressed],
            [result.assigned_stream],
            recorder=rec,
            seeds=[SegmentSeed(SEED_BLOB, seed, None)],
        )
    )
    for container in containers:
        decode_container(container, recorder=rec)
        verify_container(container, None, recorder=rec)
    write_stream(
        config,
        raw_chunks(RAW, RAW_CHUNK),
        io.BytesIO(),
        codes_per_frame=DEFAULT_CODES_PER_FRAME,
        recorder=rec,
    )
    tampered = inject(containers[0], "crc_tamper", 0)
    before = rec.counters.get(ev.DECODE_CODES, 0)
    with pytest.raises(ContainerError) as info:
        decode_container(tampered, recorder=rec)
    assert isinstance(info.value.__cause__, DecodeError)
    # The failing request did decode work before its error.
    assert rec.counters[ev.DECODE_CODES] > before
    return rec.snapshot(), containers, tampered


def _client(address, jobs, replies, errors):
    """Compress each job, then decompress and verify the reply."""
    try:
        with ServiceClient(address, timeout=30.0) as client:
            for kind, arg in jobs:
                if kind == "compress":
                    text, seed = arg
                    kw = {"seed": seed.to_bytes()} if seed is not None else {}
                    header, container = client.compress(text, **kw)
                    replies.append(header)
                    for op in (client.decompress, client.verify):
                        replies.append(op(container)[0])
                elif kind == "compress_stream":
                    replies.append(client.compress_stream(arg, chunk_bytes=RAW_CHUNK)[0])
                else:
                    replies.append(client.decompress(arg)[0])
    except Exception as exc:  # surfaced by the test thread
        errors.append(exc)


def test_drained_metrics_equal_serial_library_calls(tmp_path, corpus):
    sets, seed = corpus
    expected, _, tampered = _serial_reference(sets, seed)
    texts = [format_test_text(s) for s in sets]
    metrics_path = tmp_path / "metrics.json"
    server = CompressionServer(
        ServiceConfig(workers=2, queue_depth=8, metrics_json=str(metrics_path))
    )
    server.start()
    replies, errors = [], []
    mixes = (
        [("compress", (texts[0], None)), ("compress", (texts[2], None)),
         ("compress_stream", RAW)],
        [("compress", (texts[1], None)), ("compress", (texts[1], seed)),
         ("decompress_bad", tampered)],
    )
    threads = [
        threading.Thread(target=_client, args=(server.address, mix, replies, errors))
        for mix in mixes
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        assert server.drain() == 0
    assert not errors
    assert not any(thread.is_alive() for thread in threads)

    ok = [h for h in replies if h.get("ok")]
    failed = [h for h in replies if not h.get("ok")]
    assert len(ok) == 13 and len(failed) == 1
    assert failed[0]["error"]["type"] == "ContainerError"
    assert all(h.get("verify_exit_code", 0) == 0 for h in ok)

    snapshot = json.loads(metrics_path.read_text())
    assert _library_part(snapshot["counters"]) == _library_part(expected["counters"])
    assert _library_part(snapshot["histograms"]) == _library_part(
        expected["histograms"]
    )
    assert snapshot["counters"][ev.SERVICE_COMPLETED] == len(ok)
    assert snapshot["counters"][ev.SERVICE_ERRORS] == len(failed)


def test_concurrent_merges_lose_no_counts():
    """More workers than cores and a short switch interval: every
    request's codes reach the shared totals."""
    text = "01X0\n1XX1\nX01X\n0110\nXXXX\n"
    reference = CounterRecorder()
    compress(parse_test_text(text).to_stream(), LZWConfig(), recorder=reference)
    clients, rounds = 6, 15
    errors = []

    def run(address):
        try:
            with ServiceClient(address, timeout=30.0) as client:
                for _ in range(rounds):
                    if not client.compress(text)[0].get("ok"):
                        raise AssertionError("compress failed")
        except Exception as exc:  # surfaced by the test thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    server = CompressionServer(ServiceConfig(workers=4, queue_depth=16))
    server.start()
    threads = [
        threading.Thread(target=run, args=(server.address,)) for _ in range(clients)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        server.drain()
        sys.setswitchinterval(interval)
    assert not errors
    assert not any(thread.is_alive() for thread in threads)
    counters = server.recorder.snapshot()["counters"]
    requests = clients * rounds
    assert counters[ev.SERVICE_COMPLETED] == requests
    assert counters[ev.ENCODE_CODES] == requests * reference.counters[ev.ENCODE_CODES]
