"""CLI surface of the observability subsystem: --metrics-json and
``stats --encode``."""

import json

import pytest

from repro.cli import main
from repro.container import load_bytes
from repro.observability import SCHEMA_VERSION, strip_timing
from repro.testfile import write_test_file
from repro.workloads import build_testset


@pytest.fixture
def cube_file(tmp_path):
    ts = build_testset("s9234f", scale=0.1)
    path = tmp_path / "cubes.test"
    write_test_file(ts, path)
    return str(path)


def _read(path):
    return json.loads(path.read_text())


class TestCompressMetrics:
    def test_writes_envelope(self, cube_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        container = tmp_path / "c.lzwt"
        rc = main(
            ["compress", cube_file, "-o", str(container), "--metrics-json", str(out)]
        )
        assert rc == 0
        snap = _read(out)
        assert snap["schema"] == SCHEMA_VERSION
        assert snap["counters"]["encode.codes"] > 0
        # compress takes its X assignment from the encoder: no decode
        # runs, and the container it writes decodes under its digest.
        assert not any(name.startswith("decode.") for name in snap["counters"])
        loaded = load_bytes(container.read_bytes(), verify=True)
        assert loaded.num_codes == snap["counters"]["encode.codes"]
        assert [s["name"] for s in snap["spans"]][:2] == ["encode", "assign"]
        assert f"wrote {out}" in capsys.readouterr().out

    def test_container_write_counted(self, cube_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        container = tmp_path / "c.lzwt"
        rc = main(
            [
                "compress",
                cube_file,
                "-o",
                str(container),
                "--metrics-json",
                str(out),
            ]
        )
        assert rc == 0
        snap = _read(out)
        assert snap["counters"]["container.bytes_written"] == (
            container.stat().st_size
        )

    def test_no_flag_no_file(self, cube_file, tmp_path, capsys):
        assert main(["compress", cube_file]) == 0
        assert not list(tmp_path.glob("*.json"))


class TestBatchMetrics:
    def _run(self, cube_file, tmp_path, workers):
        out = tmp_path / f"m{workers}.json"
        rc = main(
            [
                "batch",
                cube_file,
                "--workers",
                str(workers),
                "--shard-bits",
                "1024",
                "--metrics-json",
                str(out),
            ]
        )
        assert rc == 0
        return _read(out)

    def test_counters_identical_across_worker_counts(
        self, cube_file, tmp_path, capsys
    ):
        snaps = [
            strip_timing(self._run(cube_file, tmp_path, w)) for w in (1, 2, 8)
        ]
        assert snaps[0] == snaps[1] == snaps[2]

    def test_batch_counters_present(self, cube_file, tmp_path, capsys):
        snap = self._run(cube_file, tmp_path, 1)
        assert snap["counters"]["batch.workloads"] == 1
        assert snap["counters"]["batch.shards"] > 1
        assert any(s["name"].startswith("shard[") for s in snap["spans"])


class TestVerifyMetrics:
    def test_verify_emits_decode_counters(self, cube_file, tmp_path, capsys):
        container = tmp_path / "c.lzwt"
        assert main(["compress", cube_file, "-o", str(container)]) == 0
        out = tmp_path / "m.json"
        rc = main(
            [
                "verify",
                str(container),
                "--against",
                cube_file,
                "--metrics-json",
                str(out),
            ]
        )
        assert rc == 0
        snap = _read(out)
        assert snap["counters"]["decode.codes"] > 0
        names = [s["name"] for s in snap["spans"]]
        assert "verify.decode" in names and "verify.coverage" in names

    def test_corrupt_container_still_writes_metrics(
        self, cube_file, tmp_path, capsys
    ):
        container = tmp_path / "c.lzwt"
        assert main(["compress", cube_file, "-o", str(container)]) == 0
        blob = bytearray(container.read_bytes())
        blob[-1] ^= 0xFF
        container.write_bytes(bytes(blob))
        out = tmp_path / "m.json"
        rc = main(["verify", str(container), "--metrics-json", str(out)])
        assert rc == 4
        assert _read(out)["schema"] == SCHEMA_VERSION


class TestStatsEncode:
    def test_encode_prints_counters_and_spans(self, cube_file, capsys):
        rc = main(["stats", cube_file, "--encode"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "encode.codes:" in out
        assert "histogram encode.phrase_len_chars:" in out
        assert "spans:" in out

    def test_metrics_json_implies_encode(self, cube_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        rc = main(["stats", cube_file, "--metrics-json", str(out)])
        assert rc == 0
        assert _read(out)["counters"]["encode.codes"] > 0

    def test_plain_stats_unchanged(self, cube_file, capsys):
        rc = main(["stats", cube_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert "encode.codes" not in out
