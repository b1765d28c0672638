"""Bit-level substrate: ternary vectors, chunking, variable-width I/O and
fixed-width code packing.  Names load on first use (PEP 562)."""

from .._lazy import lazy_exports

_EXPORTS = {
    "BitReader": ".bitio",
    "BitWriter": ".bitio",
    "pack_codes": ".codepack",
    "unpack_codes": ".codepack",
    "from_characters": ".packing",
    "pad_length": ".packing",
    "to_characters": ".packing",
    "TernaryVector": ".ternary",
    "X": ".ternary",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
