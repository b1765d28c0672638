"""The crash-point injection harness, tested against itself.

Two kinds of coverage live here: the simulator's own semantics (what a
power cut at each boundary leaves durable under every survival ×
metadata combination), and the campaign runner's classification of
writers against their contracts — including an intentionally broken
writer that the harness must catch, proving the campaign can fail.
"""

import errno
import json
import os

import pytest

from repro.reliability.atomic import (
    DurableAppendFile,
    atomic_write_bytes,
    current_backend,
    use_backend,
)
from repro.reliability.campaign import TrialOutcome
from repro.reliability.crashsim import (
    CrashFS,
    CrashWriterSpec,
    SimulatedCrash,
    run_crash_campaign,
)
from repro.reliability.errors import ContainerError, ReproError


# -- simulator semantics ----------------------------------------------


def write_all(fs, path, data, mode="wb"):
    handle = fs.open(path, mode)
    handle.write(data)
    handle.flush()
    fs.fsync(handle)
    handle.close()


class TestCrashFS:
    def test_completed_write_is_durable_after_dir_sync(self, tmp_path):
        fs = CrashFS()
        target = str(tmp_path / "a.bin")
        write_all(fs, target, b"hello")
        fs.fsync_dir(str(tmp_path))
        state = fs.materialize("none", "lost")
        assert state == {target: b"hello"}

    def test_unsynced_bytes_lost_without_fsync(self, tmp_path):
        fs = CrashFS()
        target = str(tmp_path / "a.bin")
        handle = fs.open(target, "wb")
        handle.write(b"hello")
        handle.flush()  # page cache, not disk
        fs.fsync_dir(str(tmp_path))
        assert fs.materialize("none", "kept")[target] == b""
        assert fs.materialize("half", "kept")[target] == b"he"
        assert fs.materialize("all", "kept")[target] == b"hello"

    def test_file_fsync_does_not_persist_directory_entry(self, tmp_path):
        # Strict POSIX: fsync(file) makes the *bytes* durable, but a
        # freshly-created name needs fsync(dir) or it can vanish.
        fs = CrashFS()
        target = str(tmp_path / "a.bin")
        write_all(fs, target, b"hello")
        assert fs.materialize("none", "lost") == {}
        assert fs.materialize("none", "kept") == {target: b"hello"}

    def test_rename_lost_restores_old_destination(self, tmp_path):
        fs = CrashFS()
        old = str(tmp_path / "art")
        tmp = str(tmp_path / "art.tmp.1")
        fs_state = {old: b"old"}
        fs = CrashFS(initial=fs_state)
        write_all(fs, tmp, b"new")
        fs.replace(tmp, old)
        lost = fs.materialize("none", "lost")
        assert lost[old] == b"old"
        kept = fs.materialize("none", "kept")
        assert kept[old] == b"new"
        assert tmp not in kept

    def test_crash_after_freezes_the_simulation(self, tmp_path):
        fs = CrashFS(crash_after=2)
        target = str(tmp_path / "a.bin")
        handle = fs.open(target, "wb")
        handle.write(b"x")
        with pytest.raises(SimulatedCrash):
            handle.write(b"y")
        # Post-crash the simulated machine is off: every op raises.
        with pytest.raises(SimulatedCrash):
            fs.open(str(tmp_path / "b.bin"), "wb")

    def test_fail_at_raises_errno_once(self, tmp_path):
        fs = CrashFS(fail_at=1, fail_errno=errno.ENOSPC)
        target = str(tmp_path / "a.bin")
        handle = fs.open(target, "wb")
        with pytest.raises(OSError) as excinfo:
            handle.write(b"x")
        assert excinfo.value.errno == errno.ENOSPC
        handle.write(b"x")  # the device recovered; only op 1 fails

    def test_backend_seam_round_trip(self, tmp_path):
        # atomic_write_bytes runs entirely inside the simulator: the
        # real filesystem never sees the file.
        fs = CrashFS()
        target = tmp_path / "real.bin"
        with use_backend(fs):
            atomic_write_bytes(target, b"payload")
        assert not target.exists()
        state = fs.materialize("none", "lost")
        assert state[str(target)] == b"payload"
        assert current_backend() is not fs


# -- campaign classification ------------------------------------------


def atomic_spec(tmp_path, payload=b"new-bytes", old=None):
    def setup(root):
        return {} if old is None else {"art.bin": old}

    def write(root):
        atomic_write_bytes(root / "art.bin", payload)

    def recover(root):
        target = root / "art.bin"
        if not target.exists():
            return "silent:lost" if old is not None else "absent"
        data = target.read_bytes()
        if data == payload:
            return "new"
        if old is not None and data == old:
            return "old"
        return "silent:torn"

    return CrashWriterSpec(
        name="atomic", write=write, recover=recover, setup=setup
    )


class TestRunCrashCampaign:
    def test_atomic_writer_is_old_or_new(self, tmp_path):
        result = run_crash_campaign(
            atomic_spec(tmp_path, old=b"old-bytes"), tmp_path
        )
        assert result.ok, result.summary()
        labels = result.info["labels"]
        assert labels.get("new") and labels.get("old")
        assert "silent" not in labels and "escaped" not in labels
        assert result.counts[TrialOutcome.SILENT] == 0
        assert result.counts[TrialOutcome.ESCAPED] == 0

    def test_torn_writer_is_caught(self, tmp_path):
        # A writer that skips the tmp+rename dance MUST produce torn
        # states the harness flags — this is the campaign's own smoke
        # detector.
        def write(root):
            fs = current_backend()
            handle = fs.open(str(root / "art.bin"), "wb")
            handle.write(b"0" * 64)
            handle.write(b"1" * 64)
            handle.close()
            fs.fsync_dir(str(root))

        def recover(root):
            target = root / "art.bin"
            if not target.exists():
                return "absent"
            data = target.read_bytes()
            if data in (b"", b"0" * 64 + b"1" * 64):
                return "empty-or-new"
            return "silent:torn"

        result = run_crash_campaign(
            CrashWriterSpec(name="torn", write=write, recover=recover),
            tmp_path,
        )
        assert not result.ok
        assert any(
            trial.label.startswith("silent")
            and trial.outcome is TrialOutcome.SILENT
            for trial in result.failures
        )

    def test_untyped_enospc_is_escaped(self, tmp_path):
        # A writer that lets the raw OSError out of the ENOSPC arm is
        # flagged: callers were promised typed errors.
        def write(root):
            fs = current_backend()
            handle = fs.open(str(root / "art.bin"), "wb")
            handle.write(b"payload")  # no try/except: OSError escapes
            handle.close()

        def recover(root):
            return "any"

        result = run_crash_campaign(
            CrashWriterSpec(name="untyped", write=write, recover=recover),
            tmp_path,
        )
        assert any(
            trial.label.startswith("escaped")
            and trial.outcome is TrialOutcome.ESCAPED
            for trial in result.trials
        )
        assert not result.ok

    def test_recovery_exceptions_are_escaped_not_fatal(self, tmp_path):
        def recover(root):
            raise RuntimeError("recovery is broken")

        spec = atomic_spec(tmp_path)
        broken = CrashWriterSpec(
            name="broken-recovery", write=spec.write, recover=recover
        )
        result = run_crash_campaign(broken, tmp_path)
        assert not result.ok
        assert all(
            trial.label == "escaped:recover-raised"
            and trial.outcome is TrialOutcome.ESCAPED
            for trial in result.trials
        )

    def test_typed_recovery_exception_is_still_escaped(self, tmp_path):
        # recover must return a label: raising, even a typed error, is
        # an escape, not a detection.
        def recover(root):
            raise ContainerError("recovery raised instead of labelling")

        spec = atomic_spec(tmp_path)
        broken = CrashWriterSpec(name="typed-recovery", write=spec.write, recover=recover)
        result = run_crash_campaign(broken, tmp_path)
        assert not result.ok
        assert all(
            trial.label == "escaped:typed-from-recover"
            and trial.outcome is TrialOutcome.ESCAPED
            for trial in result.trials
        )

    def test_states_are_deduplicated(self, tmp_path):
        result = run_crash_campaign(atomic_spec(tmp_path), tmp_path)
        # 45 crash points collapse to ~11 distinct durable states;
        # recovery ran once per state, not once per point.
        info = result.info
        assert info["points_enumerated"] == len(result.trials)
        assert info["unique_states"] < info["points_enumerated"] / 2

    def test_report_shape(self, tmp_path):
        result = run_crash_campaign(atomic_spec(tmp_path), tmp_path)
        report = json.loads(json.dumps(result.to_json()))
        assert report["ok"] is True
        assert report["points_enumerated"] == len(report["trials"])
        assert report["writer"] == "atomic"
        assert report["counts"]["silent"] == report["counts"]["escaped"] == 0
        assert {trial["fault"] for trial in report["trials"]} == {"atomic"}
        assert all(trial["label"] for trial in report["trials"])


# -- satellite: DurableAppendFile.close never leaks the handle --------


class TestDurableCloseNoLeak:
    def test_close_failure_still_closes_handle(self, tmp_path):
        # Arrange an ENOSPC exactly at the close-time fsync: close()
        # must re-raise typed AND still release the handle.
        fs = CrashFS()
        target = tmp_path / "journal.bin"
        with use_backend(fs):
            sink = DurableAppendFile(target)
            sink.write(b"frame")
            ops_so_far = len(fs.trace)
        fs.fail_at = ops_so_far + 1  # open succeeded; fail the next fsync
        with use_backend(fs):
            with pytest.raises(ReproError):
                sink.close(sync=True)
        handle_closes = [op for op in fs.trace if op.startswith("close:")]
        assert handle_closes, "close() leaked the file handle"

    def test_typed_error_carries_path(self, tmp_path):
        fs = CrashFS(fail_at=3, fail_errno=errno.ENOSPC)
        target = tmp_path / "art.bin"
        with use_backend(fs):
            with pytest.raises(ContainerError) as excinfo:
                atomic_write_bytes(target, b"payload")
        assert str(target) in str(excinfo.value)
