"""Bit-level substrate: ternary vectors, chunking, variable-width I/O and
fixed-width code packing."""

from .bitio import BitReader, BitWriter
from .codepack import pack_codes, unpack_codes
from .packing import from_characters, pad_length, to_characters
from .ternary import TernaryVector, X

__all__ = [
    "BitReader",
    "BitWriter",
    "TernaryVector",
    "X",
    "from_characters",
    "pack_codes",
    "pad_length",
    "to_characters",
    "unpack_codes",
]
