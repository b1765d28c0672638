"""Ternary (0/1/X) bit vectors.

Scan test cubes are sequences over ``{0, 1, X}`` where ``X`` marks a
don't-care position that the compressor is free to assign.  This module
provides :class:`TernaryVector`, an immutable vector over that alphabet,
used as the common currency between the ATPG substrate, the workload
generators and every compressor in the library.

Representation
--------------
A vector of length ``n`` stores two unsigned integers:

* ``care``  — bit ``i`` is 1 iff position ``i`` is specified (0 or 1),
* ``value`` — bit ``i`` holds the specified value; it is normalised to 0
  wherever ``care`` is 0.

Position ``i`` of the vector maps to integer bit ``i`` (LSB-first): the
*first* bit of the stream is the least significant bit of both masks.
:meth:`TernaryVector.to_int` and :meth:`TernaryVector.from_int` follow
the same convention, so round-trips never reorder bits.

Text and per-position conversions
---------------------------------
Converting between the masks and 0/1/X text is linear and runs at C
level: a mask's binary digits come from ``format(mask, "b")`` and go
back through ``int(digits, 2)`` (power-of-two bases convert in linear
time and are exempt from CPython's int/str digit limit), and
``bytes.translate`` maps between digits and characters.  Rendering adds
the care and value digit strings byte-wise — ``'0' + '0'``, ``'1' +
'0'`` and ``'1' + '1'`` give three distinct bytes for X, 0 and 1 —
as one big-integer addition that never carries.  Iteration and the
fills walk those digit strings rather than shifting ``1 << i`` through
an i-bit mask per position, which would be quadratic in the length.
"""

from __future__ import annotations

import random
import re
from itertools import compress
from typing import Iterable, Iterator, List, NoReturn, Optional, Sequence, Union

__all__ = ["X", "TernaryVector"]

#: Sentinel used for a don't-care position when iterating / indexing.
X = None

#: Text byte -> care digit; ``2`` (not a base-2 digit) marks a bad byte.
_CARE_DIGIT = bytes(
    0x31 if c in b"01" else 0x30 if c in b"xX-" else 0x32 for c in range(256)
)
#: Text byte -> value digit (only meaningful once the care digits parsed).
_VALUE_DIGIT = bytes(0x31 if c == 0x31 else 0x30 for c in range(256))
#: Byte-wise sum of a care and a value digit -> display character.
_SUM_CHAR = bytes.maketrans(b"\x60\x61\x62", b"X01")
#: Byte-wise digit sum -> bit as iteration yields it (0, 1 or X).
_SUM_BIT = tuple({0x61: 0, 0x62: 1}.get(c, X) for c in range(256))
#: Binary digit -> truth byte, for :func:`itertools.compress`.
_DIGIT_FLAG = bytes.maketrans(b"01", b"\x00\x01")
_BAD_CHAR = re.compile(r"[^01xX\-]")


class TernaryVector:
    """An immutable vector over ``{0, 1, X}``.

    Instances behave like sequences: ``len``, indexing (returning ``0``,
    ``1`` or :data:`X`), slicing (returning a new vector) and
    concatenation with ``+`` are all supported.
    """

    __slots__ = ("_value", "_care", "_length")

    def __init__(self, bits: Union[str, Iterable[Optional[int]], None] = None):
        if bits is None:
            text = b""
        elif isinstance(bits, str):
            try:
                text = bits.encode("ascii")
            except UnicodeEncodeError:
                _reject(bits)
        else:
            text = bytearray()
            append = text.append
            for bit in bits:
                if bit is X:
                    append(0x58)  # "X"
                elif bit in (0, 1):
                    append(0x31 if bit else 0x30)
                else:
                    raise ValueError(f"ternary bit must be 0, 1 or X, got {bit!r}")
        try:
            self._care = _from_digits(text.translate(_CARE_DIGIT))
        except ValueError:
            _reject(bits)
        self._value = _from_digits(text.translate(_VALUE_DIGIT))
        self._length = len(text)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_masks(cls, value: int, care: int, length: int) -> "TernaryVector":
        """Build a vector directly from its two masks.

        ``value`` bits outside ``care`` are normalised away; bits of
        either mask beyond ``length`` are truncated.
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        mask = (1 << length) - 1
        tv = cls.__new__(cls)
        tv._care = care & mask
        tv._value = value & tv._care
        tv._length = length
        return tv

    @classmethod
    def from_int(cls, value: int, length: int) -> "TernaryVector":
        """A fully specified vector holding ``length`` bits of ``value``."""
        if value < 0:
            raise ValueError("value must be non-negative")
        if length < value.bit_length():
            raise ValueError(f"value {value} does not fit in {length} bits")
        mask = (1 << length) - 1 if length else 0
        return cls.from_masks(value, mask, length)

    @classmethod
    def zeros(cls, length: int) -> "TernaryVector":
        """A fully specified all-zero vector."""
        return cls.from_int(0, length)

    @classmethod
    def xs(cls, length: int) -> "TernaryVector":
        """A vector of ``length`` don't-care bits."""
        return cls.from_masks(0, 0, length)

    @classmethod
    def random(
        cls,
        length: int,
        x_density: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> "TernaryVector":
        """A random vector where each bit is X with probability ``x_density``."""
        if not 0.0 <= x_density <= 1.0:
            raise ValueError("x_density must be within [0, 1]")
        draw = (rng or random).random
        care = bytearray(b"0" * length)
        value = bytearray(b"0" * length)
        for i in range(length):
            if draw() >= x_density:
                care[i] = 0x31
                if draw() < 0.5:
                    value[i] = 0x31
        return cls.from_masks(_from_digits(value), _from_digits(care), length)

    @classmethod
    def concat_all(cls, parts: Sequence["TernaryVector"]) -> "TernaryVector":
        """Concatenate many vectors (left part comes first).

        Neighbours merge pairwise, level by level, so each bit is shifted
        ``log2(len(parts))`` times; folding every part into one growing
        accumulator would be quadratic in the part count.
        """
        items = [(p._value, p._care, p._length) for p in parts]
        while len(items) > 1:
            merged = [
                (v1 | v2 << n1, c1 | c2 << n1, n1 + n2)
                for (v1, c1, n1), (v2, c2, n2) in zip(items[::2], items[1::2])
            ]
            if len(items) % 2:
                merged.append(items[-1])
            items = merged
        value, care, length = items[0] if items else (0, 0, 0)
        return cls.from_masks(value, care, length)

    # ------------------------------------------------------------------
    # Mask access
    # ------------------------------------------------------------------
    @property
    def value_mask(self) -> int:
        """Integer of specified-one bits (LSB = first position)."""
        return self._value

    @property
    def care_mask(self) -> int:
        """Integer with a 1 at every specified position."""
        return self._care

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Optional[int]]:
        return map(_SUM_BIT.__getitem__, self._digit_sums())

    def _digit_sums(self) -> bytes:
        """Care digit + value digit per position, as one byte each."""
        n = self._length
        if not n:
            return b""
        care = int.from_bytes(format(self._care, f"0{n}b").encode("ascii"), "little")
        value = int.from_bytes(format(self._value, f"0{n}b").encode("ascii"), "little")
        # The digits were read most significant first as little-endian
        # bytes, so the big-endian result lists position 0 first.
        return (care + value).to_bytes(n, "big")

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step == 1:
                width = max(0, stop - start)
                return TernaryVector.from_masks(
                    self._value >> start, self._care >> start, width
                )
            return TernaryVector(self[i] for i in range(start, stop, step))
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("ternary vector index out of range")
        bit = 1 << index
        if self._care & bit:
            return 1 if self._value & bit else 0
        return X

    def __add__(self, other: "TernaryVector") -> "TernaryVector":
        if not isinstance(other, TernaryVector):
            return NotImplemented
        return TernaryVector.from_masks(
            self._value | (other._value << self._length),
            self._care | (other._care << self._length),
            self._length + other._length,
        )

    # ------------------------------------------------------------------
    # Equality / hashing / display
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, TernaryVector):
            return NotImplemented
        return (
            self._length == other._length
            and self._care == other._care
            and self._value == other._value
        )

    def __hash__(self) -> int:
        return hash((self._value, self._care, self._length))

    def __str__(self) -> str:
        return self._digit_sums().translate(_SUM_CHAR).decode("ascii")

    def __repr__(self) -> str:
        shown = str(self) if self._length <= 64 else str(self[:61]) + "..."
        return f"TernaryVector('{shown}')"

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def care_count(self) -> int:
        """Number of specified (0/1) positions."""
        return bin(self._care).count("1")

    @property
    def x_count(self) -> int:
        """Number of don't-care positions."""
        return self._length - self.care_count

    @property
    def x_density(self) -> float:
        """Fraction of positions that are don't-care (0.0 for empty)."""
        return self.x_count / self._length if self._length else 0.0

    @property
    def is_fully_specified(self) -> bool:
        """True when no position is X."""
        return self.care_count == self._length

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def compatible(self, other: "TernaryVector") -> bool:
        """True when the two vectors agree on every mutually specified bit.

        Compatible vectors can be merged (intersection of cubes is
        non-empty); a compressor output is valid iff it is compatible
        with — and at least as specified as — the original cube stream.
        """
        if self._length != other._length:
            return False
        both = self._care & other._care
        return (self._value & both) == (other._value & both)

    def covers(self, other: "TernaryVector") -> bool:
        """True when ``self`` specifies every care bit of ``other`` identically.

        Used to check that a decompressed (fully specified) stream is a
        legal expansion of the original cube stream.
        """
        if self._length != other._length:
            return False
        if (self._care & other._care) != other._care:
            return False
        return (self._value & other._care) == other._value

    def merge(self, other: "TernaryVector") -> "TernaryVector":
        """Intersection of two compatible cubes (union of care bits)."""
        if not self.compatible(other):
            raise ValueError("cannot merge incompatible ternary vectors")
        return TernaryVector.from_masks(
            self._value | other._value,
            self._care | other._care,
            self._length,
        )

    # ------------------------------------------------------------------
    # Assignment / conversion
    # ------------------------------------------------------------------
    def fill(self, bit: int = 0) -> "TernaryVector":
        """Resolve every X to the constant ``bit`` (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError("fill bit must be 0 or 1")
        mask = (1 << self._length) - 1 if self._length else 0
        value = self._value
        if bit:
            value |= mask & ~self._care
        return TernaryVector.from_masks(value, mask, self._length)

    def fill_repeat_last(self, initial: int = 0) -> "TernaryVector":
        """Resolve each X to the most recent specified bit (run-extending)."""
        n = self._length
        mask = (1 << n) - 1
        ones = self._value
        free = mask ^ self._care
        if initial:
            # A specified 1 just before position 0 extends into a leading run.
            ones = (ones << 1) | 1
            free <<= 1
        # Runs of ones-or-X: each fills with 1 from its first one on.  The
        # X prefix of a run that starts with X is what an add carries
        # through, starting from the run's lowest bit.
        runs = ones | free
        starts = runs & ~(runs << 1) & free
        lead = free & ~(free + starts)
        out = runs & ~lead
        if initial:
            out >>= 1
        return TernaryVector.from_masks(out, mask, n)

    def fill_random(self, rng: Optional[random.Random] = None) -> "TernaryVector":
        """Resolve each X to an independent fair coin flip."""
        draw = (rng or random).random
        n = self._length
        mask = (1 << n) - 1
        free = mask ^ self._care
        value = self._value
        if free:
            digits = bytearray(_to_digits(value, n))
            flags = _to_digits(free, n).translate(_DIGIT_FLAG)
            for i in compress(range(n), flags):
                if draw() < 0.5:
                    digits[i] = 0x31
            value = _from_digits(digits)
        return TernaryVector.from_masks(value, mask, n)

    def to_int(self) -> int:
        """Integer value of a fully specified vector (first bit = LSB)."""
        if not self.is_fully_specified:
            raise ValueError("vector contains X bits; fill() it first")
        return self._value

    def chunks(self, width: int) -> List["TernaryVector"]:
        """Split into consecutive ``width``-bit pieces (last may be short)."""
        if width <= 0:
            raise ValueError("chunk width must be positive")
        # Cut 256 chunks' worth off the masks at a time, so no shift
        # touches more than one block: slicing every chunk off the full
        # masks would be quadratic in the length.
        n = self._length
        value, care = self._value, self._care
        span = width * 256
        block_mask = (1 << min(span, n)) - 1
        out = []
        for start in range(0, n, span):
            v, c = value & block_mask, care & block_mask
            value >>= span
            care >>= span
            for pos in range(start, min(start + span, n), width):
                out.append(TernaryVector.from_masks(v, c, min(width, n - pos)))
                v >>= width
                c >>= width
        return out


def _to_digits(mask: int, n: int) -> bytes:
    """The ``n`` binary digits of ``mask`` as ASCII, position 0 first."""
    return format(mask, f"0{n}b").encode("ascii")[::-1] if n else b""


def _from_digits(digits) -> int:
    """Inverse of :func:`_to_digits`; ``ValueError`` on a non-binary digit."""
    return int(digits[::-1], 2) if digits else 0


def _reject(text: str) -> NoReturn:
    """Raise the error naming the first character that is not 0/1/X."""
    bad = _BAD_CHAR.search(text)
    raise ValueError(f"invalid ternary character {bad.group()!r}")
