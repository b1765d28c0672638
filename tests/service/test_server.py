"""In-process server behaviour: admission, deadlines, breaker, replies."""

import socket
import time

import pytest

from repro.container import dump_bytes
from repro.core import LZWConfig, compress
from repro.observability import schema as ev
from repro.service import (
    CompressionServer,
    ServiceClient,
    ServiceConfig,
    encode_message,
)
from repro.service.protocol import MessageStream
from repro.testfile import parse_test_text

TEXT = "01X0\n1XX1\nX01X\n0110\nXXXX\n"


def serial_container(text=TEXT, config=None):
    result = compress(parse_test_text(text).to_stream(), config or LZWConfig())
    return dump_bytes(result.compressed, result.assigned_stream)


@pytest.fixture
def server():
    srv = CompressionServer(
        ServiceConfig(workers=2, queue_depth=8, debug_ops=True)
    )
    srv.start()
    yield srv
    if srv.state != "stopped":
        srv.drain()


@pytest.fixture
def client(server):
    with ServiceClient(server.address) as c:
        yield c


def test_compress_is_byte_identical_to_serial(server, client):
    header, payload = client.compress(TEXT)
    assert header["ok"] and header["code"] == 0
    assert payload == serial_container()
    assert header["original_bits"] == 20
    assert header["num_codes"] * 10 == header["compressed_bits"]


def test_compress_honours_request_config(client):
    config = {"char_bits": 3, "dict_size": 32, "entry_bits": 12}
    header, payload = client.compress(TEXT, config=config)
    assert header["ok"]
    assert payload == serial_container(config=LZWConfig(**config))
    assert payload != serial_container()


def test_round_trip_through_decompress_and_verify(client):
    _, container = client.compress(TEXT)
    header, decoded = client.decompress(container)
    assert header["ok"]
    original = parse_test_text(TEXT).to_stream()
    assert len(decoded.decode("ascii")) == len(original)
    header, _ = client.verify(container)
    assert header["verify_exit_code"] == 0


def test_unknown_op_gets_400(client):
    header, _ = client.request("transmogrify")
    assert header["code"] == 400
    assert header["error"]["type"] == "ProtocolError"


def test_bad_config_key_gets_400(client):
    header, _ = client.compress(TEXT, config={"dict_sizes": 64})
    assert header["code"] == 400
    assert header["error"]["type"] == "ConfigError"


def test_config_naming_engine_gets_400(client):
    header, _ = client.compress(TEXT, config={"engine": "fast"})
    assert header["code"] == 400
    assert header["error"]["type"] == "ConfigError"
    assert "engine" in header["error"]["message"]


def test_bad_config_value_gets_400(client):
    header, _ = client.compress(TEXT, config={"char_bits": -1})
    assert header["code"] == 400
    assert header["error"]["type"] == "ConfigError"


def test_malformed_cube_text_gets_422(client):
    header, _ = client.compress("01X0\n01Q0\n")
    assert header["code"] == 422
    assert header["error"]["type"] == "TestFileError"


def test_corrupt_container_gets_422(client):
    header, _ = client.decompress(b"not a container")
    assert header["code"] == 422
    assert header["error"]["type"] == "ContainerError"


def test_deadline_exceeded_gets_408(server, client):
    header, _ = client.request("sleep", deadline_ms=40, seconds=5.0)
    assert header["code"] == 408
    assert header["error"]["type"] == "DeadlineError"
    counters = server.recorder.snapshot()["counters"]
    assert counters[ev.SERVICE_DEADLINE_EXCEEDED] == 1


def test_worker_failure_gets_500_after_supervised_retries(server, client):
    header, _ = client.request("fail")
    assert header["code"] == 500
    assert header["error"]["type"] == "ShardError"
    # The supervisor burned its full retry budget before giving up.
    assert header["error"]["diagnostics"]["attempts"] == 2


def test_empty_compress_payload_gets_422(client):
    header, _ = client.request("compress", b"")
    assert header["code"] == 422


def test_ping_reports_state(client):
    header = client.ping()
    assert header["ok"]
    assert header["state"] == "running"
    assert header["breaker"] == "closed"


def test_metrics_op_returns_valid_envelope(client):
    client.compress(TEXT)
    snapshot = client.metrics()
    assert snapshot["schema"] == "repro.metrics/1"
    assert snapshot["counters"][ev.SERVICE_COMPLETED] >= 1


def test_rate_limit_sheds_with_429():
    srv = CompressionServer(
        ServiceConfig(rate_limit=0.001, rate_burst=1, debug_ops=True)
    )
    srv.start()
    try:
        with ServiceClient(srv.address) as c:
            first, _ = c.compress(TEXT)
            assert first["ok"]
            second, _ = c.compress(TEXT)
            assert second["code"] == 429
            assert second["error"]["type"] == "OverloadError"
            assert second["error"]["diagnostics"]["reason"] == "rate_limited"
    finally:
        srv.drain()


def test_full_queue_sheds_with_429_queue_full():
    srv = CompressionServer(
        ServiceConfig(workers=1, queue_depth=1, debug_ops=True)
    )
    srv.start()
    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.connect(srv.address[1:])
        # Pipeline: one slow op occupies the single worker, one fills
        # the queue, the rest must shed immediately with queue_full.
        sock.sendall(encode_message({"op": "sleep", "id": 0, "seconds": 0.8}))
        time.sleep(0.3)  # let the worker pick it up off the queue
        for i in range(1, 4):
            sock.sendall(encode_message({"op": "sleep", "id": i, "seconds": 0.0}))
        stream = MessageStream(sock, io_timeout=10.0)
        replies = {}
        while len(replies) < 4:
            header, _ = stream.recv_message()
            replies[header["id"]] = header
        assert replies[0]["ok"]
        shed = [h for h in replies.values() if not h.get("ok")]
        assert shed, "expected at least one queue_full shed"
        for header in shed:
            assert header["code"] == 429
            assert header["error"]["diagnostics"]["reason"] == "queue_full"
        sock.close()
    finally:
        srv.drain()


def test_breaker_opens_after_consecutive_failures_and_recovers():
    srv = CompressionServer(
        ServiceConfig(
            workers=1,
            breaker_threshold=2,
            breaker_cooldown=0.3,
            retry_attempts=1,
            debug_ops=True,
        )
    )
    srv.start()
    try:
        with ServiceClient(srv.address) as c:
            for _ in range(2):
                header, _ = c.request("fail")
                assert header["code"] == 500
            # Breaker is now open: work is rejected without running.
            header, _ = c.compress(TEXT)
            assert header["code"] == 503
            assert header["error"]["diagnostics"]["reason"] == "breaker_open"
            # After the cooldown the half-open probe runs real work and
            # its success closes the breaker again.
            time.sleep(0.35)
            header, payload = c.compress(TEXT)
            assert header["ok"]
            assert payload == serial_container()
            assert srv.breaker.state == "closed"
        counters = srv.recorder.snapshot()["counters"]
        assert counters[ev.SERVICE_BREAKER_OPEN] >= 1
    finally:
        srv.drain()


def test_client_errors_do_not_trip_the_breaker():
    srv = CompressionServer(
        ServiceConfig(breaker_threshold=2, retry_attempts=1, debug_ops=True)
    )
    srv.start()
    try:
        with ServiceClient(srv.address) as c:
            for _ in range(5):
                header, _ = c.compress("bad Q text\n")
                assert header["code"] == 422
            header, _ = c.compress(TEXT)
            assert header["ok"], "bad traffic must not open the breaker"
    finally:
        srv.drain()


def test_mid_request_disconnect_leaves_server_serving(server):
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.connect(server.address[1:])
    sock.sendall(b'{"op": "compress", "payload_len": 1000}\n' + b"x" * 10)
    sock.close()  # vanish mid-payload
    time.sleep(0.2)
    with ServiceClient(server.address) as c:
        header, _ = c.compress(TEXT)
        assert header["ok"]


def test_oversized_payload_gets_typed_reply_and_close(server):
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.connect(server.address[1:])
    sock.sendall(b'{"op": "compress", "id": 1, "payload_len": 999999999}\n')
    stream = MessageStream(sock, io_timeout=5.0)
    header, _ = stream.recv_message()
    assert header["code"] == 413
    assert stream.recv_message() is None  # server closed the connection
    sock.close()


def test_unix_socket_transport(tmp_path):
    path = str(tmp_path / "repro.sock")
    srv = CompressionServer(ServiceConfig(socket_path=path))
    srv.start()
    try:
        assert srv.address_str == f"unix:{path}"
        with ServiceClient(("unix", path)) as c:
            header, payload = c.compress(TEXT)
            assert header["ok"]
            assert payload == serial_container()
    finally:
        srv.drain()
    import os

    assert not os.path.exists(path)  # drain unlinks the socket
