"""Unit tests for staged container verification and `repro verify`."""

import pytest

from repro.container import HEADER_CRC_OFFSET, HEADER_SIZE
from repro.reliability.inject import inject
from repro.reliability.verify import verify_container


class TestVerifyContainer:
    def test_good_container_passes(self, campaign_container, campaign_original):
        report = verify_container(campaign_container, campaign_original)
        assert report.ok
        assert report.exit_code == 0
        assert report.recognised
        names = [check.name for check in report.checks]
        assert names == [
            "header",
            "header-crc",
            "payload-crc",
            "decode",
            "stream-digest",
            "coverage",
        ]
        assert "PASS" in report.describe()

    def test_coverage_stage_optional(self, campaign_container):
        report = verify_container(campaign_container)
        assert report.ok
        assert all(check.name != "coverage" for check in report.checks)

    def test_bad_magic_not_recognised(self, campaign_container):
        report = verify_container(b"JUNK" + campaign_container[4:])
        assert not report.ok
        assert not report.recognised
        assert report.exit_code == 3

    def test_truncated_header_not_recognised(self, campaign_container):
        report = verify_container(campaign_container[:3])
        assert report.exit_code == 3

    def test_payload_bitflip_fails_integrity(self, campaign_container):
        corrupted = bytearray(campaign_container)
        corrupted[-1] ^= 0x01
        report = verify_container(bytes(corrupted))
        assert not report.ok
        assert report.exit_code == 4
        failed = {check.name for check in report.checks if not check.ok}
        assert "payload-crc" in failed

    def test_header_bitflip_fails_header_crc(self, campaign_container):
        corrupted = bytearray(campaign_container)
        corrupted[14] ^= 0x40  # original_bits field
        report = verify_container(bytes(corrupted))
        assert report.exit_code == 4
        failed = {check.name for check in report.checks if not check.ok}
        assert "header-crc" in failed

    def test_header_crc_flip_fails_only_header_crc(self, campaign_container):
        # Each stage is judged on its own bytes: a flipped stored header
        # CRC fails header-crc, while the untouched payload still passes
        # its CRC, decodes and matches its digest.
        corrupted = bytearray(campaign_container)
        corrupted[HEADER_CRC_OFFSET + 1] ^= 0x01
        report = verify_container(bytes(corrupted))
        assert report.exit_code == 4
        verdicts = {check.name: check.ok for check in report.checks}
        assert verdicts == {
            "header": True,
            "header-crc": False,
            "payload-crc": True,
            "decode": True,
            "stream-digest": True,
        }

    def test_crc_tamper_fails_stream_digest(
        self, campaign_container, campaign_original
    ):
        for seed in range(10):
            corrupted = inject(campaign_container, "crc_tamper", seed)
            report = verify_container(corrupted, campaign_original)
            assert not report.ok, f"seed {seed} slipped through"
            assert report.exit_code == 4
            failed = {check.name for check in report.checks if not check.ok}
            # Either the decode chokes on the tampered codes or the
            # digest/coverage stages catch the altered content.
            assert failed & {"decode", "stream-digest", "coverage"}

    def test_wrong_reference_fails_coverage(self, campaign_container):
        from repro.bitstream import TernaryVector

        wrong = TernaryVector("1" * 600)
        report = verify_container(campaign_container, wrong)
        failed = {check.name for check in report.checks if not check.ok}
        assert failed == {"coverage"}
        assert report.exit_code == 4

    def test_truncated_payload_fails_integrity(self, campaign_container):
        report = verify_container(campaign_container[: HEADER_SIZE + 5])
        assert report.recognised
        assert report.exit_code == 4


class TestVerifyCli:
    @pytest.fixture
    def container_file(self, tmp_path, campaign_container):
        path = tmp_path / "good.lzwt"
        path.write_bytes(campaign_container)
        return path

    def test_good_container_exit_0(self, container_file, capsys):
        from repro.cli import main

        assert main(["verify", str(container_file)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_missing_file_exit_3(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["verify", str(tmp_path / "nope.lzwt")]) == 3
        assert "repro:" in capsys.readouterr().err

    def test_bad_magic_exit_3(self, tmp_path, campaign_container, capsys):
        from repro.cli import main

        path = tmp_path / "junk.lzwt"
        path.write_bytes(b"JUNK" + campaign_container[4:])
        assert main(["verify", str(path)]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_bitflip_exit_4(self, tmp_path, campaign_container, capsys):
        from repro.cli import main

        corrupted = bytearray(campaign_container)
        corrupted[-1] ^= 0x01
        path = tmp_path / "flip.lzwt"
        path.write_bytes(bytes(corrupted))
        assert main(["verify", str(path)]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_truncated_exit_4(self, tmp_path, campaign_container):
        from repro.cli import main

        path = tmp_path / "cut.lzwt"
        path.write_bytes(campaign_container[: HEADER_SIZE + 5])
        assert main(["verify", str(path)]) == 4

    def test_against_reference(
        self, container_file, tmp_path, campaign_original, capsys
    ):
        from repro.cli import main

        cubes = tmp_path / "cubes.test"
        cubes.write_text(str(campaign_original) + "\n")
        assert main(["verify", str(container_file), "--against", str(cubes)]) == 0
        assert "coverage" in capsys.readouterr().out

    def test_against_wrong_reference_exit_4(
        self, container_file, tmp_path, capsys
    ):
        from repro.cli import main

        cubes = tmp_path / "wrong.test"
        cubes.write_text("1" * 600 + "\n")
        assert main(["verify", str(container_file), "--against", str(cubes)]) == 4
