"""The verified result cache: hits must be trustworthy or become misses."""

import json
import os
import zlib

from repro.container import dump_bytes
from repro.core import LZWConfig, compress
from repro.fleet.cache import ResultCache, _SUFFIX
from repro.fleet.router import workload_fingerprint
from repro.observability import CounterRecorder
from repro.observability import schema as ev
from repro.testfile import parse_test_text

TEXT = "01X0\n1XX1\nX01X\n0110\nXXXX\n"


def container_for(text=TEXT):
    result = compress(parse_test_text(text).to_stream(), LZWConfig())
    return dump_bytes(result.compressed, result.assigned_stream)


def make_cache(tmp_path, **kw):
    recorder = CounterRecorder()
    return ResultCache(tmp_path / "cache", recorder=recorder, **kw), recorder


def counters(recorder):
    return recorder.snapshot().get("counters", {})


def test_roundtrip_returns_fields_and_container(tmp_path):
    cache, _ = make_cache(tmp_path)
    fp = workload_fingerprint("compress", None, TEXT.encode())
    container = container_for()
    cache.put(fp, {"ratio_percent": 12.5, "num_codes": 7}, container)
    fields, stored = cache.get(fp)
    assert stored == container
    assert fields == {"ratio_percent": 12.5, "num_codes": 7}


def test_framing_keys_are_stripped_on_put(tmp_path):
    cache, _ = make_cache(tmp_path)
    fp = workload_fingerprint("compress", None, TEXT.encode())
    cache.put(
        fp,
        {"id": 9, "ok": True, "code": 0, "payload_len": 4, "ratio_percent": 1.0},
        container_for(),
    )
    fields, _ = cache.get(fp)
    assert fields == {"ratio_percent": 1.0}


def test_missing_entry_is_a_plain_miss(tmp_path):
    cache, recorder = make_cache(tmp_path)
    assert cache.get("0" * 64) is None
    assert ev.FLEET_CACHE_CORRUPT not in counters(recorder)


def test_flipped_byte_is_quarantined_not_served(tmp_path):
    cache, recorder = make_cache(tmp_path)
    fp = workload_fingerprint("compress", None, TEXT.encode())
    cache.put(fp, {"ratio_percent": 1.0}, container_for())
    (entry,) = list((tmp_path / "cache").glob(f"*/*{_SUFFIX}"))
    data = bytearray(entry.read_bytes())
    data[-1] ^= 0x40  # bit rot in the container bytes
    entry.write_bytes(bytes(data))
    assert cache.get(fp) is None
    assert counters(recorder)[ev.FLEET_CACHE_CORRUPT] == 1
    assert not entry.exists()  # quarantined, gone for good
    assert cache.get(fp) is None  # and stays a (clean) miss


def test_truncated_metadata_is_quarantined(tmp_path):
    cache, recorder = make_cache(tmp_path)
    fp = workload_fingerprint("compress", None, TEXT.encode())
    cache.put(fp, {}, container_for())
    (entry,) = list((tmp_path / "cache").glob(f"*/*{_SUFFIX}"))
    entry.write_bytes(entry.read_bytes()[:10])  # torn entry, no newline
    assert cache.get(fp) is None
    assert counters(recorder)[ev.FLEET_CACHE_CORRUPT] == 1


def test_entry_under_the_wrong_fingerprint_is_rejected(tmp_path):
    cache, recorder = make_cache(tmp_path)
    fp = workload_fingerprint("compress", None, TEXT.encode())
    other = workload_fingerprint("compress", None, b"0101\n1010\n")
    cache.put(fp, {}, container_for())
    source = cache._path_for(fp)
    target = cache._path_for(other)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(source.read_bytes())  # misplaced/renamed entry
    assert cache.get(other) is None
    assert counters(recorder)[ev.FLEET_CACHE_CORRUPT] == 1


def test_crc_matching_garbage_still_fails_container_checks(tmp_path):
    # An attacker (or a confused writer) can fix up the entry CRC; the
    # container's own header checks must still refuse to parse it.
    cache, recorder = make_cache(tmp_path)
    fp = workload_fingerprint("compress", None, TEXT.encode())
    junk = b"not a container at all"
    meta = {"fingerprint": fp, "crc": zlib.crc32(junk), "fields": {}}
    path = cache._path_for(fp)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(json.dumps(meta).encode() + b"\n" + junk)
    assert cache.get(fp) is None
    assert counters(recorder)[ev.FLEET_CACHE_CORRUPT] == 1


def test_deep_verify_catches_payload_tampering(tmp_path):
    cache, recorder = make_cache(tmp_path, deep_verify=True)
    fp = workload_fingerprint("compress", None, TEXT.encode())
    cache.put(fp, {}, container_for())
    assert cache.get(fp) is not None  # clean entry passes the decode
    assert ev.FLEET_CACHE_CORRUPT not in counters(recorder)


def test_eviction_keeps_the_entry_bound(tmp_path):
    cache, recorder = make_cache(tmp_path, max_entries=2)
    texts = ["0101\n", "0110\n", "1001\n", "1010\n"]
    for text in texts:
        fp = workload_fingerprint("compress", None, text.encode())
        cache.put(fp, {}, container_for(text))
    assert len(cache) <= 2
    assert counters(recorder)[ev.FLEET_CACHE_EVICTIONS] >= 2


def _put_text(cache, text):
    fp = workload_fingerprint("compress", None, text.encode())
    cache.put(fp, {}, container_for(text))
    return cache._path_for(fp)


class _Clock:
    """Stamps each touched entry with the next whole second, so the
    mtime order is the operation order on any filesystem's timestamp
    resolution."""

    def __init__(self):
        self.now = 1_000_000_000

    def stamp(self, path):
        self.now += 1
        os.utime(path, (self.now, self.now))
        return path


def _by_mtime(paths):
    return sorted(paths, key=lambda path: path.stat().st_mtime)


def test_eviction_follows_the_mtime_order(tmp_path):
    """Writes and hits order the index the way they order the mtimes,
    so eviction drops the entries an mtime sort of the directory names
    oldest — in the process that wrote them and in one that reopens."""
    clock = _Clock()
    cache, recorder = make_cache(tmp_path, max_entries=4)
    paths = [
        clock.stamp(_put_text(cache, text))
        for text in ("0001\n", "0010\n", "0100\n", "1000\n")
    ]
    for path in (paths[0], paths[2]):  # hits refresh the eviction clock
        assert cache.get(path.name[: -len(_SUFFIX)]) is not None
        clock.stamp(path)
    oldest = _by_mtime(paths)
    assert oldest[:2] == [paths[1], paths[3]]
    newer = [
        clock.stamp(_put_text(cache, text)) for text in ("0011\n", "0110\n")
    ]
    assert [path.exists() for path in oldest] == [False, False, True, True]
    assert counters(recorder)[ev.FLEET_CACHE_EVICTIONS] == 2

    # A reopened cache rebuilds the same order from one scan.
    survivors = _by_mtime(oldest[2:] + newer)
    reopened = ResultCache(tmp_path / "cache", max_entries=4)
    _put_text(reopened, "1100\n")
    assert [path.exists() for path in survivors] == [False, True, True, True]


def test_put_below_the_bound_does_not_scan(tmp_path, monkeypatch):
    cache, recorder = make_cache(tmp_path, max_entries=8)

    def no_scan():
        raise AssertionError("put rescanned the cache directory")

    monkeypatch.setattr(cache, "_entries", no_scan)
    for text in ("0101\n", "0110\n", "1001\n"):
        _put_text(cache, text)
    assert ev.FLEET_CACHE_EVICTIONS not in counters(recorder)


def test_entry_removed_elsewhere_does_not_fail_put(tmp_path):
    """An entry that another process, fsck or a scrub deleted is
    dropped from the index without failing the write that evicts it."""
    cache, recorder = make_cache(tmp_path, max_entries=2)
    first = _put_text(cache, "0101\n")
    second = _put_text(cache, "0110\n")
    first.unlink()
    third = _put_text(cache, "1001\n")
    assert second.exists() and third.exists()
    assert ev.FLEET_CACHE_EVICTIONS not in counters(recorder)
    assert len(cache) == 2
