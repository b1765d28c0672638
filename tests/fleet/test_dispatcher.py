"""Dispatcher behaviour over live in-process backends."""

import pytest

from repro.container import container_version, dump_bytes
from repro.core import LZWConfig, compress, derive_final_snapshot
from repro.fleet import FleetConfig, FleetDispatcher
from repro.observability import schema as ev
from repro.reliability.errors import ConfigError
from repro.service import CompressionServer, ServiceClient, ServiceConfig
from repro.testfile import parse_test_text

TEXT = "01X0\n1XX1\nX01X\n0110\nXXXX\n"


def serial_container(text=TEXT, config=None):
    result = compress(parse_test_text(text).to_stream(), config or LZWConfig())
    return dump_bytes(result.compressed, result.assigned_stream)


@pytest.fixture
def backends():
    servers = [
        CompressionServer(ServiceConfig(workers=2, queue_depth=8, debug_ops=True))
        for _ in range(2)
    ]
    for server in servers:
        server.start()
    yield servers
    for server in servers:
        if server.state != "stopped":
            server.drain()


def fleet_config(backends, tmp_path, **overrides):
    settings = dict(
        port=0,
        workers=2,
        queue_depth=16,
        debug_ops=True,
        backends=tuple(server.address_str for server in backends),
        probe_interval=0.5,
        probe_timeout=1.0,
        backend_timeout=5.0,
        backend_connect_timeout=2.0,
        backend_breaker_threshold=2,
        backend_breaker_cooldown=0.3,
        cache_dir=str(tmp_path / "cache"),
    )
    settings.update(overrides)
    return FleetConfig(**settings)


@pytest.fixture
def fleet(backends, tmp_path):
    dispatcher = FleetDispatcher(fleet_config(backends, tmp_path))
    dispatcher.start()
    yield dispatcher
    if dispatcher.state != "stopped":
        dispatcher.drain()


@pytest.fixture
def client(fleet):
    with ServiceClient(fleet.address) as c:
        yield c


def test_compress_through_fleet_is_byte_identical(fleet, client):
    header, payload = client.compress(TEXT)
    assert header["ok"] and header["code"] == 0
    assert payload == serial_container()
    counters = fleet.recorder.snapshot()["counters"]
    assert counters[ev.FLEET_REQUESTS] == 1
    assert counters[ev.FLEET_CACHE_MISSES] == 1


def test_request_config_is_relayed(client):
    config = {"char_bits": 3, "dict_size": 32, "entry_bits": 12}
    header, payload = client.compress(TEXT, config=config)
    assert header["ok"]
    assert payload == serial_container(config=LZWConfig(**config))


def test_roundtrip_decompress_and_verify_through_fleet(client):
    _, container = client.compress(TEXT)
    header, decoded = client.decompress(container)
    assert header["ok"]
    assert len(decoded.decode("ascii")) == len(parse_test_text(TEXT).to_stream())
    header, _ = client.verify(container)
    assert header["verify_exit_code"] == 0


def test_repeat_compress_hits_the_cache(fleet, client):
    first_header, first = client.compress(TEXT)
    assert "cache" not in first_header
    second_header, second = client.compress(TEXT)
    assert second_header["ok"]
    assert second_header["cache"] == "hit"
    assert second == first == serial_container()
    counters = fleet.recorder.snapshot()["counters"]
    assert counters[ev.FLEET_CACHE_HITS] == 1
    assert counters[ev.FLEET_CACHE_MISSES] == 1


def test_repeat_seeded_compress_hits_the_cache(fleet, client):
    """A seeded compress replies with v4; the cache must keep it."""
    trained = compress(parse_test_text(TEXT * 4).to_stream(), LZWConfig())
    seed = derive_final_snapshot(trained.compressed.codes, LZWConfig())
    first_header, first = client.compress(TEXT, seed=seed.to_bytes())
    assert first_header["ok"] and container_version(first) == 4
    second_header, second = client.compress(TEXT, seed=seed.to_bytes())
    assert second_header["cache"] == "hit"
    assert second == first
    counters = fleet.recorder.snapshot()["counters"]
    assert counters[ev.FLEET_CACHE_HITS] == 1
    assert counters.get(ev.FLEET_CACHE_CORRUPT, 0) == 0
    stats = fleet.cache.scrub()
    assert (stats["scanned"], stats["clean"], stats["corrupt"]) == (1, 1, 0)


def test_config_naming_engine_is_relayed_as_400_and_not_cached(
    fleet, client, tmp_path
):
    for _ in range(2):
        header, payload = client.compress(TEXT, config={"engine": "fast"})
        assert header["code"] == 400
        assert header["error"]["type"] == "ConfigError"
        assert "engine" in header["error"]["message"]
        assert "cache" not in header and payload == b""
    assert list((tmp_path / "cache").glob("*/*")) == []
    counters = fleet.recorder.snapshot()["counters"]
    assert ev.FLEET_CACHE_HITS not in counters


def test_client_errors_are_relayed_as_values(fleet, client):
    cases = [
        (client.compress(TEXT, config={"dict_sizes": 64}), 400, "ConfigError"),
        (client.compress("01Q0\n"), 422, "TestFileError"),
        (client.decompress(b"not a container"), 422, "ContainerError"),
    ]
    for (header, _), code, error_type in cases:
        assert header["code"] == code
        assert header["error"]["type"] == error_type
    # Error replies prove the backend is alive: no breaker moved, no
    # failover happened, nothing was cached.
    for backend in fleet.backends.values():
        assert backend.breaker.state == "closed"
    counters = fleet.recorder.snapshot()["counters"]
    assert ev.FLEET_FAILOVERS not in counters
    assert len(fleet.cache) == 0


def test_error_replies_are_never_cached(fleet, client):
    bad = "01Q0\n"
    first, _ = client.compress(bad)
    second, _ = client.compress(bad)
    assert first["code"] == second["code"] == 422
    assert "cache" not in second
    assert ev.FLEET_CACHE_HITS not in fleet.recorder.snapshot()["counters"]


def test_deadline_expiry_is_a_relayed_408(client):
    header, _ = client.request("sleep", deadline_ms=40, seconds=5.0)
    assert header["code"] == 408
    assert header["error"]["type"] == "DeadlineError"


def test_ping_reports_per_backend_breaker_state(fleet, client):
    header = client.ping()
    assert header["ok"]
    assert header["state"] == "running"
    assert header["backends"] == {
        address: "closed" for address in fleet.backends
    }


def test_metrics_op_exposes_fleet_counters(client):
    client.compress(TEXT)
    snapshot = client.metrics()
    assert snapshot["schema"] == "repro.metrics/1"
    assert snapshot["counters"][ev.FLEET_REQUESTS] >= 1


def test_drain_contract_holds_for_the_dispatcher(backends, tmp_path):
    dispatcher = FleetDispatcher(fleet_config(backends, tmp_path))
    dispatcher.start()
    with ServiceClient(dispatcher.address) as c:
        assert c.compress(TEXT)[0]["ok"]
    assert dispatcher.drain() == 0
    assert dispatcher.state == "stopped"
    assert not dispatcher.prober.is_alive()


def test_fleet_config_validation():
    with pytest.raises(ConfigError):
        FleetConfig(port=0, backends=())
    with pytest.raises(ConfigError):
        FleetConfig(port=0, backends=("a:1", "a:1"))
    with pytest.raises(ConfigError):
        FleetConfig(port=0, backends=("a:1",), failover_attempts=-1)
    with pytest.raises(ConfigError):
        FleetConfig(port=0, backends=("a:1",), hedge_after_ms=0)
    with pytest.raises(ConfigError):
        FleetConfig(port=0, backends=("a:1",), probe_interval=0.0)
