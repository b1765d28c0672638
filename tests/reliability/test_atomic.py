"""Atomic artefact writes: tmp+fsync+replace, typed env failures."""

import errno
import os

import pytest

from repro.container import dump_file, load_bytes
from repro.core import LZWConfig, compress
from repro.bitstream import TernaryVector
from repro.reliability.atomic import atomic_write_bytes, atomic_write_text
from repro.reliability.errors import ContainerError


def test_writes_bytes_and_replaces_existing(tmp_path):
    target = tmp_path / "artefact.bin"
    atomic_write_bytes(target, b"one")
    assert target.read_bytes() == b"one"
    atomic_write_bytes(target, b"two")
    assert target.read_bytes() == b"two"


def test_text_wrapper_encodes(tmp_path):
    target = tmp_path / "report.json"
    atomic_write_text(target, '{"ratio": 12.5}\n')
    assert target.read_text() == '{"ratio": 12.5}\n'


def test_no_temp_file_survives_a_successful_write(tmp_path):
    atomic_write_bytes(tmp_path / "a.bin", b"data")
    assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]


def test_enospc_maps_to_typed_container_error(tmp_path, monkeypatch):
    def explode(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fsync", explode)
    with pytest.raises(ContainerError) as info:
        atomic_write_bytes(tmp_path / "full.bin", b"x")
    assert info.value.errno == "ENOSPC"
    assert "full.bin" in info.value.path
    # Failure leaves neither the target nor a temp file behind.
    assert list(tmp_path.iterdir()) == []


def test_eacces_maps_to_typed_container_error(tmp_path, monkeypatch):
    def denied(src, dst):
        raise OSError(errno.EACCES, "Permission denied")

    monkeypatch.setattr(os, "replace", denied)
    with pytest.raises(ContainerError) as info:
        atomic_write_bytes(tmp_path / "locked.bin", b"x")
    assert info.value.errno == "EACCES"
    assert list(tmp_path.iterdir()) == []


def test_unrelated_oserror_propagates_untyped(tmp_path, monkeypatch):
    def weird(fd):
        raise OSError(errno.EIO, "I/O error")

    monkeypatch.setattr(os, "fsync", weird)
    with pytest.raises(OSError) as info:
        atomic_write_bytes(tmp_path / "io.bin", b"x")
    assert not isinstance(info.value, ContainerError)


def test_failed_write_leaves_previous_version_intact(tmp_path, monkeypatch):
    target = tmp_path / "stable.bin"
    atomic_write_bytes(target, b"good version")

    def explode(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", explode)
    with pytest.raises(ContainerError):
        atomic_write_bytes(target, b"torn new version")
    monkeypatch.undo()
    # Readers still see the complete previous artefact.
    assert target.read_bytes() == b"good version"


def test_container_dump_file_goes_through_atomic_path(tmp_path, monkeypatch):
    result = compress(TernaryVector("01X0XX10" * 8), LZWConfig())
    target = tmp_path / "out.lzwt"
    dump_file(result.compressed, target, result.assigned_stream)
    loaded = load_bytes(target.read_bytes())
    assert loaded.codes == result.compressed.codes

    def explode(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fsync", explode)
    with pytest.raises(ContainerError):
        dump_file(result.compressed, tmp_path / "fail.lzwt", result.assigned_stream)
    assert not (tmp_path / "fail.lzwt").exists()
