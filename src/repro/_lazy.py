"""PEP 562 lazy exports for the package ``__init__`` modules.

A package lists each public name with the module that defines it, and
that module is imported the first time one of its names is read.  So
``import repro`` (or ``import repro.core``) costs almost nothing, and a
process that needs one corner of the package — a batch pool worker, a
``repro serve`` start — loads only that corner.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each public name to the module that defines it,
    relative to ``package`` (``".ternary"``, ``"..core.config"``).
    Reading a name imports its module and binds every export of that
    module in the package, so later reads are plain attribute lookups.
    An unknown name raises :class:`AttributeError` naming the package.
    """

    def __getattr__(name: str) -> Any:
        target = exports.get(name)
        if target is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(target, package)
        namespace = vars(sys.modules[package])
        for other, other_target in exports.items():
            if other_target == target:
                namespace[other] = getattr(module, other)
        return namespace[name]

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
