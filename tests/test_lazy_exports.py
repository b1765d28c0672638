"""The packages' PEP 562 exports are complete and resolve to their
definitions.

Each check runs in a fresh interpreter, so the first read of every name
goes through the package's ``__getattr__`` rather than finding an
attribute an earlier test's import already bound.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

PACKAGES = (
    "repro",
    "repro.bitstream",
    "repro.circuit",
    "repro.core",
    "repro.observability",
    "repro.parallel",
    "repro.reliability",
)


def _lazy_packages():
    """Every package whose ``__init__`` builds its exports with
    ``lazy_exports``, found by reading the source tree."""
    root = Path(SRC)
    return sorted(
        ".".join(init.parent.relative_to(root).parts)
        for init in root.glob("repro/**/__init__.py")
        if "lazy_exports(" in init.read_text()
    )

_RESOLVE = """
import importlib, json, sys
name = sys.argv[1]
pkg = importlib.import_module(name)
problems = []
for export in pkg.__all__:
    value = getattr(pkg, export)
    target = pkg._EXPORTS.get(export)
    if target is not None:
        defined = getattr(importlib.import_module(target, name), export)
        if defined is not value:
            problems.append(export + " is not the object " + target + " defines")
    if export not in dir(pkg):
        problems.append(export + " missing from dir()")
print(json.dumps(problems))
"""


def _python(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        check=True, timeout=120,
    )
    return done.stdout.splitlines()[-1]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_to_its_definition(package):
    assert json.loads(_python("-c", _RESOLVE, package)) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_module(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module {package!r} has no attribute"):
        getattr(pkg, "no_such_export")


def test_star_import_binds_every_public_name():
    code = (
        "from repro import *\n"
        "import json, repro\n"
        "print(json.dumps([n for n in repro.__all__ if n not in globals()]))"
    )
    assert json.loads(_python("-c", code)) == []


def test_packages_list_every_lazy_package():
    assert sorted(PACKAGES) == _lazy_packages()


@pytest.mark.parametrize("package", PACKAGES)
def test_no_export_shares_a_submodule_name(package):
    # Importing a submodule binds it on the package under its own name,
    # and a PEP 562 __getattr__ never sees a name already bound, so an
    # export named like a submodule would mean the submodule or the
    # export depending on import order.
    pkg = importlib.import_module(package)
    submodules = {info.name for info in pkgutil.iter_modules(pkg.__path__)}
    assert sorted(submodules & set(pkg._EXPORTS)) == []
