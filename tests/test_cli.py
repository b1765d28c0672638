"""Unit tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.testfile import write_test_file
from repro.workloads import build_testset


@pytest.fixture
def cube_file(tmp_path):
    ts = build_testset("s9234f", scale=0.1)
    path = tmp_path / "cubes.test"
    write_test_file(ts, path)
    return str(path)


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "s13207f" in out and "table1" in out and "c17" in out


class TestCompress:
    def test_basic(self, cube_file, capsys):
        assert main(["compress", cube_file]) == 0
        out = capsys.readouterr().out
        assert "compression ratio" in out
        assert "memory requirement: 1024x69" in out

    def test_compare_and_ratios(self, cube_file, capsys):
        rc = main(
            ["compress", cube_file, "--compare", "--clock-ratio", "4", "8"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline LZ77" in out and "baseline RLE" in out
        assert "at 4x clock" in out and "at 8x clock" in out

    def test_custom_config(self, cube_file, capsys):
        rc = main(
            [
                "compress",
                cube_file,
                "--char-bits",
                "4",
                "--dict-size",
                "256",
                "--entry-bits",
                "32",
                "--policy",
                "popular",
            ]
        )
        assert rc == 0
        assert "C_C=4 N=256" in capsys.readouterr().out


class TestAtpg:
    def test_builtin(self, tmp_path, capsys):
        out_file = tmp_path / "vectors.test"
        rc = main(["atpg", "--builtin", "c17", "-o", str(out_file)])
        assert rc == 0
        assert out_file.exists()
        assert "coverage 100.0%" in capsys.readouterr().out

    def test_missing_source(self, capsys):
        assert main(["atpg"]) == 2

    def test_unknown_builtin_is_a_usage_error(self, capsys):
        assert main(["atpg", "--builtin", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown builtin circuit 'nope'" in err and "c17" in err

    def test_bench_file(self, tmp_path, capsys):
        from repro.circuit import load_builtin, write_bench

        path = tmp_path / "c17.bench"
        path.write_text(write_bench(load_builtin("c17")))
        assert main(["atpg", str(path)]) == 0


class TestSynth:
    def test_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "s.test"
        rc = main(["synth", "s5378f", "--scale", "0.1", "-o", str(out_file)])
        assert rc == 0
        assert out_file.exists()
        assert "s5378f" in capsys.readouterr().out


class TestDecompress:
    def test_roundtrip_via_container(self, cube_file, tmp_path, capsys):
        container = tmp_path / "c.lzwt"
        assert main(["compress", cube_file, "-o", str(container)]) == 0
        out_file = tmp_path / "restored.test"
        rc = main(
            ["decompress", str(container), "-o", str(out_file), "--width", "247"]
        )
        assert rc == 0
        from repro.testfile import read_test_file

        original = read_test_file(cube_file)
        restored = read_test_file(out_file)
        assert len(restored) == len(original)
        for a, b in zip(restored, original):
            assert a.covers(b)

    def test_flat_bitstring_output(self, cube_file, tmp_path, capsys):
        container = tmp_path / "c.lzwt"
        main(["compress", cube_file, "-o", str(container)])
        out_file = tmp_path / "bits.txt"
        assert main(["decompress", str(container), "-o", str(out_file)]) == 0
        text = out_file.read_text().strip()
        assert set(text) <= {"0", "1"}

    def test_bad_width(self, cube_file, tmp_path, capsys):
        container = tmp_path / "c.lzwt"
        main(["compress", cube_file, "-o", str(container)])
        rc = main(
            ["decompress", str(container), "-o", str(tmp_path / "x"), "--width", "17"]
        )
        assert rc == 1


class TestStats:
    def test_reports_structure(self, cube_file, capsys):
        assert main(["stats", cube_file]) == 0
        out = capsys.readouterr().out
        assert "care adjacency" in out
        assert "entropy bound" in out
        assert "WTM" in out


class TestRtl:
    def test_generates_rtl(self, tmp_path, capsys):
        rc = main(["rtl", "-o", str(tmp_path / "rtl"), "--dict-size", "256"])
        assert rc == 0
        text = (tmp_path / "rtl" / "lzw_decompressor.v").read_text()
        assert "module lzw_decompressor" in text
        assert "DICT_SIZE = 256" in text

    def test_generates_testbench(self, cube_file, tmp_path, capsys):
        rc = main(
            [
                "rtl",
                "-o",
                str(tmp_path / "rtl"),
                "--testbench",
                cube_file,
                "--clock-ratio",
                "6",
            ]
        )
        assert rc == 0
        tb = (tmp_path / "rtl" / "tb_lzw_decompressor.v").read_text()
        assert "RATIO    = 6" in tb
        assert "PASS" in tb


class TestTable:
    def test_unknown_table(self, capsys):
        assert main(["table", "table99"]) == 2

    def test_small_table(self, capsys):
        rc = main(["table", "table2", "--scale", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Download performance" in out
        assert "s13207f" in out


class TestNoEngineFlag:
    """The encoder has one matcher, so ``--engine`` is an unknown flag."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compress", "f.test"],
            ["batch", "f.test"],
            ["stats", "f.test"],
            ["rtl"],
        ],
        ids=["compress", "batch", "stats", "rtl"],
    )
    def test_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--engine", "fast"])
        assert info.value.code == 2
        assert "unrecognized arguments: --engine fast" in capsys.readouterr().err

    def test_exits_2_without_a_traceback(self, cube_file):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "compress", cube_file,
             "--engine", "fast"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 2
        assert "unrecognized arguments: --engine fast" in done.stderr
        assert "Traceback" not in done.stderr
