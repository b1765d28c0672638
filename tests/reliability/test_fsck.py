"""The unified deep-scan/repair tool, `repro fsck`.

Covers artefact-kind detection, the clean path (byte-neutrality — fsck
must never churn a healthy artefact), every repair policy (v5 frame
rebuild, journal tail trim, tmp sweep, cache scrub/quarantine), typed
refusals for the unrepairable, and the CLI surface with its exit-code
contract (0 clean/repaired, 3 only-unknowns, 4 faults remain).
"""

import io
import json
import zlib

import pytest

from repro.cli import main
from repro.container import dump_bytes
from repro.core import compress
from repro.fleet.cache import ResultCache
from repro.parallel.engine import ShardResult
from repro.parallel.journal import ShardJournal
from repro.reliability.fsck import FsckReport, detect_kind, fsck_paths
from repro.reliability.verify import verify_container
from repro.streamio import decode_stream_bytes, write_stream

FIXDIR = "tests/fixtures/containers"
FIXTURES = ["v1.lzwt", "v2.lzwt", "v3.lzwt", "v4.lzwt", "v5.lzwt", "dict.lzws"]


def v5_bytes(config, original, codes_per_frame=8):
    sink = io.BytesIO()
    write_stream(config, [original], sink, codes_per_frame=codes_per_frame)
    return sink.getvalue()


class TestDetectKind:
    def test_containers_by_version_byte(self, tmp_path, campaign_container):
        assert detect_kind(tmp_path / "a.lzwt", campaign_container) == "container-v2"

    def test_snapshot_tmp_entry_and_quarantine(self, tmp_path):
        assert detect_kind(tmp_path / "d.lzws", b"LZWSxxxx") == "snapshot"
        assert detect_kind(tmp_path / "a.lzwt.tmp.12.0", b"LZWT") == "tmp"
        assert detect_kind(tmp_path / "ab.entry", b"{}") == "cache-entry"
        assert (
            detect_kind(tmp_path / "x.lzwt.quarantine", b"LZWT") == "quarantine"
        )

    def test_journal_and_report(self, tmp_path):
        header = json.dumps({"kind": "header", "version": 2, "fingerprint": "ab"})
        assert detect_kind(tmp_path / "b.ckpt", header.encode() + b"\n") == "journal"
        assert detect_kind(tmp_path / "m.json", b'{"a": 1}') == "report"

    def test_garbage_is_unknown(self, tmp_path):
        assert detect_kind(tmp_path / "x", b"\x00\x01") == "unknown"
        assert detect_kind(tmp_path / "x", b"") == "unknown"


class TestCleanPath:
    def test_committed_fixtures_classify_clean(self):
        report = fsck_paths([f"{FIXDIR}/{name}" for name in FIXTURES])
        assert report.ok
        assert report.exit_code == 0
        assert all(item.status == "clean" for item in report.items)

    def test_repair_is_byte_neutral_on_clean_artefacts(self, tmp_path):
        import shutil

        for name in FIXTURES:
            shutil.copy(f"{FIXDIR}/{name}", tmp_path / name)
        before = {name: (tmp_path / name).read_bytes() for name in FIXTURES}
        report = fsck_paths([tmp_path], repair=True)
        assert report.ok
        assert all(item.churned == 0 for item in report.items)
        after = {name: (tmp_path / name).read_bytes() for name in FIXTURES}
        assert before == after

    def test_clean_journal(self, tmp_path, campaign_config, campaign_original):
        result = compress(campaign_original, campaign_config)
        journal = ShardJournal.open(tmp_path / "b.ckpt", "fp-1")
        journal.record(
            0,
            0,
            ShardResult(
                index=0,
                compressed=result.compressed,
                assigned_stream=result.assigned_stream,
                stats=result.stats,
            ),
        )
        journal.close()
        report = fsck_paths([tmp_path / "b.ckpt"])
        assert report.ok and report.items[0].status == "clean"


class TestV5Repair:
    def test_torn_tail_is_salvageable_then_repaired(
        self, tmp_path, campaign_config, campaign_original
    ):
        full = v5_bytes(campaign_config, campaign_original)
        torn = full[: int(len(full) * 0.6)]
        target = tmp_path / "stream.lzwt"
        target.write_bytes(torn)

        dry = fsck_paths([target])
        assert dry.exit_code == 4
        assert dry.items[0].status == "salvageable"
        assert target.read_bytes() == torn  # dry run never mutates

        wet = fsck_paths([target], repair=True)
        assert wet.exit_code == 0
        assert wet.items[0].status == "repaired"
        repaired = target.read_bytes()
        assert verify_container(repaired).ok
        prefix = decode_stream_bytes(repaired)
        reference = decode_stream_bytes(full)[: len(prefix)]
        assert prefix.value_mask == reference.value_mask
        assert prefix.care_mask == reference.care_mask
        # The damaged original is kept for forensics.
        assert (tmp_path / "stream.lzwt.quarantine").read_bytes() == torn

    def test_repaired_artefact_rescans_clean(
        self, tmp_path, campaign_config, campaign_original
    ):
        full = v5_bytes(campaign_config, campaign_original)
        target = tmp_path / "stream.lzwt"
        target.write_bytes(full[:-10])
        fsck_paths([target], repair=True)
        again = fsck_paths([target])
        assert again.ok and again.items[0].status == "clean"

    def test_unparseable_stub_quarantined_under_repair(self, tmp_path):
        target = tmp_path / "stub.lzwt"
        target.write_bytes(b"LZWT\x05\x00\x00\x00\x01")  # 9-byte torn header
        dry = fsck_paths([target])
        assert dry.items[0].status in ("corrupt", "refused")
        wet = fsck_paths([target], repair=True)
        assert wet.exit_code == 0
        assert not target.exists()
        assert (tmp_path / "stub.lzwt.quarantine").exists()


class TestRefusals:
    def test_corrupt_v2_is_a_typed_refusal(self, tmp_path, campaign_container):
        # Flip payload bytes: v2 has no redundancy, fsck must refuse
        # to fabricate data (and must not touch the file).
        damaged = bytearray(campaign_container)
        damaged[-4] ^= 0xFF
        target = tmp_path / "bad.lzwt"
        target.write_bytes(bytes(damaged))
        report = fsck_paths([target], repair=True)
        assert report.exit_code == 4
        item = report.items[0]
        assert item.status == "refused"
        assert "salvage" in item.detail
        assert target.read_bytes() == bytes(damaged)


class TestJournalRepair:
    def _journal(self, tmp_path, campaign_config, campaign_original):
        result = compress(campaign_original, campaign_config)
        journal = ShardJournal.open(tmp_path / "b.ckpt", "fp-1")
        for shard in range(2):
            journal.record(
                0,
                shard,
                ShardResult(
                    index=shard,
                    compressed=result.compressed,
                    assigned_stream=result.assigned_stream,
                    stats=result.stats,
                ),
            )
        journal.close()
        return tmp_path / "b.ckpt"

    def test_torn_tail_trimmed(self, tmp_path, campaign_config, campaign_original):
        path = self._journal(tmp_path, campaign_config, campaign_original)
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # tear the last entry mid-line
        report = fsck_paths([path], repair=True)
        assert report.items[0].status == "repaired"
        # The trimmed journal resumes and replays the surviving entry.
        journal = ShardJournal.open(path, "fp-1", resume=True)
        assert len(journal.completed) == 1
        journal.close()


class TestCacheScrub:
    def _cache(self, tmp_path, campaign_config, campaign_original):
        result = compress(campaign_original, campaign_config)
        container = dump_bytes(result.compressed, result.assigned_stream)
        cache = ResultCache(tmp_path / "cache")
        for fp_seed in ("00aa", "11bb", "22cc"):
            fp = fp_seed * 16
            cache.put(fp, {"op": "compress"}, container)
        return cache

    def test_scrub_counts_clean(self, tmp_path, campaign_config, campaign_original):
        cache = self._cache(tmp_path, campaign_config, campaign_original)
        stats = cache.scrub()
        assert stats == {
            "scanned": 3, "clean": 3, "corrupt": 0,
            "quarantined": 0, "stale_tmp": 0,
        }

    def test_scrub_quarantines_corrupt_entry(
        self, tmp_path, campaign_config, campaign_original
    ):
        cache = self._cache(tmp_path, campaign_config, campaign_original)
        victim = sorted((tmp_path / "cache").glob("*/*.entry"))[0]
        victim.write_bytes(victim.read_bytes()[:-5])

        dry = cache.scrub()
        assert dry["corrupt"] == 1 and dry["quarantined"] == 0
        assert victim.exists()  # dry run never mutates

        wet = cache.scrub(repair=True)
        assert wet["quarantined"] == 1
        assert not victim.exists()
        assert victim.with_name(victim.name + ".quarantine").exists()
        # The quarantined entry is invisible to get(): a miss, never
        # corrupt bytes.
        fingerprint = victim.name[: -len(".entry")]
        assert cache.get(fingerprint) is None

    def test_scrub_sweeps_stale_tmp(
        self, tmp_path, campaign_config, campaign_original
    ):
        cache = self._cache(tmp_path, campaign_config, campaign_original)
        stale = tmp_path / "cache" / "00" / "x.entry.tmp.999.0"
        stale.write_bytes(b"half-written")
        stats = cache.scrub(repair=True)
        assert stats["stale_tmp"] == 1
        assert not stale.exists()

    def test_fsck_scrub_flag_routes_to_cache(
        self, tmp_path, campaign_config, campaign_original
    ):
        self._cache(tmp_path, campaign_config, campaign_original)
        report = fsck_paths([tmp_path / "cache"], scrub=True)
        assert report.ok
        stats = next(iter(report.scrub_stats.values()))
        assert stats["scanned"] == 3


def _entry(key, container, **meta):
    """A cache entry file: one JSON metadata line, then the container."""
    meta = {"fingerprint": key, "crc": zlib.crc32(container),
            "fields": {"op": "compress"}, **meta}
    meta = {name: value for name, value in meta.items() if value is not None}
    return json.dumps(meta).encode("utf-8") + b"\n" + container


#: (tamper, fault text ``repro fsck`` reports) per broken framing field.
TAMPERED_ENTRIES = {
    "no-newline": (
        lambda fp, c: _entry(fp, c).split(b"\n", 1)[0],
        "no metadata line",
    ),
    "bad-json": (lambda fp, c: b"{not json\n" + c, "metadata line unreadable"),
    "wrong-fingerprint": (
        lambda fp, c: _entry(fp, c, fingerprint="ff" * 32),
        "fingerprint mismatch (entry does not answer its own key)",
    ),
    "crc-mismatch": (
        lambda fp, c: _entry(fp, c, crc=zlib.crc32(c) ^ 1),
        "container CRC mismatch",
    ),
    "missing-fields": (
        lambda fp, c: _entry(fp, c, fields=None),
        "reply fields missing",
    ),
}


class TestCacheEntryFormat:
    """The cache and fsck share one parser of the entry framing."""

    FINGERPRINT = "3c" * 32

    @pytest.fixture
    def entry_path(self, tmp_path):
        path = tmp_path / "cache" / self.FINGERPRINT[:2] / f"{self.FINGERPRINT}.entry"
        path.parent.mkdir(parents=True)
        return path

    def test_good_entry_hits_and_is_clean(
        self, entry_path, campaign_container, capsys
    ):
        entry_path.write_bytes(_entry(self.FINGERPRINT, campaign_container))
        assert main(["fsck", str(entry_path)]) == 0
        cache = ResultCache(entry_path.parent.parent)
        assert cache.get(self.FINGERPRINT) == (
            {"op": "compress"}, campaign_container,
        )

    @pytest.mark.parametrize("tamper", sorted(TAMPERED_ENTRIES))
    def test_tampered_entry_misses_and_fsck_names_the_fault(
        self, tamper, entry_path, campaign_container, capsys
    ):
        build, fault = TAMPERED_ENTRIES[tamper]
        entry_path.write_bytes(build(self.FINGERPRINT, campaign_container))
        assert main(["fsck", str(entry_path)]) == 4
        assert f"[cache-entry] salvageable: {fault}" in capsys.readouterr().out
        cache = ResultCache(entry_path.parent.parent)
        assert cache.get(self.FINGERPRINT) is None
        assert not entry_path.exists()  # quarantined on the read path


class TestTmpSweep:
    def test_stale_tmp_swept_only_under_repair(self, tmp_path, campaign_container):
        (tmp_path / "art.lzwt").write_bytes(campaign_container)
        stale = tmp_path / "art.lzwt.tmp.4242.7"
        stale.write_bytes(campaign_container[:11])

        dry = fsck_paths([tmp_path])
        assert dry.exit_code == 4
        assert any(item.status == "stale_tmp" for item in dry.items)
        assert stale.exists()

        wet = fsck_paths([tmp_path], repair=True)
        assert wet.exit_code == 0
        assert any(item.status == "swept" for item in wet.items)
        assert not stale.exists()


class TestReportAndCli:
    def test_json_report_shape(self, tmp_path, campaign_container):
        (tmp_path / "art.lzwt").write_bytes(campaign_container)
        report = fsck_paths([tmp_path])
        payload = report.to_json()
        assert payload["schema"] == "repro.fsck/1"
        assert payload["ok"] is True
        assert payload["exit_code"] == 0
        assert payload["items"][0]["kind"] == "container-v2"

    def test_missing_path_is_unreadable(self, tmp_path):
        report = fsck_paths([tmp_path / "nope.lzwt"])
        assert report.items[0].status == "unreadable"
        assert report.exit_code == 3

    def test_cli_exit_codes(self, tmp_path, campaign_container, capsys):
        from repro.cli import main

        clean = tmp_path / "art.lzwt"
        clean.write_bytes(campaign_container)
        assert main(["fsck", str(clean)]) == 0

        stale = tmp_path / "art.lzwt.tmp.1.2"
        stale.write_bytes(b"junk")
        assert main(["fsck", str(tmp_path)]) == 4
        assert main(["fsck", str(tmp_path), "--repair"]) == 0
        assert not stale.exists()
        capsys.readouterr()

    def test_cli_json_report(self, tmp_path, campaign_container, capsys):
        from repro.cli import main

        target = tmp_path / "art.lzwt"
        target.write_bytes(campaign_container)
        out = tmp_path / "FSCK_report.json"
        assert main(["fsck", str(target), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.fsck/1"
        capsys.readouterr()
