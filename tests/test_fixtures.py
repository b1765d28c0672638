"""The committed container fixtures are what today's writers produce.

``tests/fixtures/containers/`` holds one container per format version
(v1 to v5) plus a dictionary snapshot, written by
``tests/fixtures/gen_containers.py``.  They pin framings the golden
suite does not: a v4 container mixing a cold and a blob-seeded segment,
and a v5 journal with 16-code frames.  These tests rebuild them from
the codec and require every byte to match, then require each one to
load and verify.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.container import container_version, decode_container, load_seeded
from repro.core import DictionarySnapshot
from repro.reliability.verify import verify_container

FIXTURES = Path(__file__).parent / "fixtures"
CONTAINERS = FIXTURES / "containers"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "gen_containers", FIXTURES / "gen_containers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def built():
    return _generator().build()


def test_build_covers_every_committed_file(built):
    assert sorted(built) == sorted(path.name for path in CONTAINERS.iterdir())


@pytest.mark.parametrize("name", sorted(path.name for path in CONTAINERS.iterdir()))
def test_fixture_regenerates_byte_identically(built, name):
    assert built[name] == (CONTAINERS / name).read_bytes()


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_container_fixture_loads_and_verifies(version):
    data = (CONTAINERS / f"v{version}.lzwt").read_bytes()
    assert container_version(data) == version
    stream = decode_container(data)
    assert len(stream) > 0
    if version < 5:
        segments = load_seeded(data)
        assert sum(len(s.compressed.codes) for s in segments) > 0
    report = verify_container(data)
    assert report.ok, report.describe()
    assert report.version == version


def test_snapshot_fixture_parses():
    snapshot = DictionarySnapshot.from_bytes((CONTAINERS / "dict.lzws").read_bytes())
    assert len(snapshot) > 0
