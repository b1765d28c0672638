"""A batch pool worker imports the encode path and nothing else.

Every spawn worker unpickles the callable the supervisor submits, and
that import is what a worker pays before its first shard.  These
checks pin the import budget: the submitted callable and the shard
encoder live in one slim module, and neither that module nor a bare
``import repro`` loads the container writer, the circuit and ATPG
substrate, the chaos injectors, the engine, the supervisor or the
paper tables.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import pytest

from repro.parallel.engine import _encode_shard
from repro.parallel.supervisor import _call_with_timeout

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Modules a shard worker must never load.
ABSENT = (
    "repro.container",
    "repro.circuit",
    "repro.atpg",
    "repro.reliability.chaos",
    "repro.parallel.engine",
    "repro.parallel.supervisor",
    "repro.experiments",
)

_LIST_MODULES = "sorted(m for m in __import__('sys').modules if m.startswith('repro'))"


def _modules_after(statement: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", f"{statement}\nprint(__import__('json').dumps({_LIST_MODULES}))"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _assert_slim(loaded: list) -> None:
    heavy = [
        name for name in loaded
        if any(name == bad or name.startswith(bad + ".") for bad in ABSENT)
    ]
    assert heavy == [], f"worker import path loads {heavy}"


def test_submitted_callable_and_shard_encoder_share_one_module():
    assert _call_with_timeout.__module__ == _encode_shard.__module__


def test_worker_module_imports_only_the_encode_path():
    loaded = _modules_after(f"import {_call_with_timeout.__module__}")
    _assert_slim(loaded)
    assert "repro.core.encoder" in loaded and "repro.core.decoder" in loaded


def test_bare_package_import_loads_no_subsystem():
    _assert_slim(_modules_after("import repro"))


def test_cli_module_is_slim():
    # Spawn re-runs the caller's __main__ in every worker, so each worker
    # of `python -m repro.cli batch` imports repro.cli before its first
    # shard.
    _assert_slim(_modules_after("import repro.cli"))


def test_spawn_worker_holds_only_the_encode_path():
    # A real pool task: the worker unpickles the submitted callable, then
    # reports which repro modules that cost it.
    with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
        loaded = pool.submit(_call_with_timeout, eval, _LIST_MODULES, None).result(timeout=60)
    _assert_slim(loaded)
    assert _call_with_timeout.__module__ in loaded


def test_service_server_loads_only_the_scan_corner_of_circuit():
    # The server parses .test files, which needs TestSet and the netlist
    # view under it, not the simulator, ATPG faults or .bench parser.
    loaded = _modules_after("import repro.service.server")
    circuit = [
        name for name in loaded
        if name == "repro.circuit" or name.startswith("repro.circuit.")
    ]
    assert circuit == ["repro.circuit", "repro.circuit.netlist", "repro.circuit.scan"]


@pytest.mark.parametrize("attribute", ["compress_batch", "ShardResult"])
def test_engine_names_stay_importable(attribute):
    # Journals, fsck and the durability campaign import ShardResult from
    # the engine; the package re-exports both.
    import repro.parallel
    import repro.parallel.engine

    assert getattr(repro.parallel.engine, attribute) is getattr(repro.parallel, attribute)
