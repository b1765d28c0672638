"""LZW codec configuration (the paper's "configurator" block).

The paper parameterises the scheme by:

* ``C_C``   — uncompressed character width in bits (``char_bits``),
* ``N``     — dictionary size in codes, *including* the ``2**C_C``
  implicit base codes (``dict_size``); the emitted code width is
  ``C_E = ceil(log2 N)`` (``code_bits``),
* ``C_MDATA`` — embedded-memory word width in data bits, which bounds the
  uncompressed string any single code may represent (``entry_bits``).

The don't-care assignment strategy (Section 5 of the paper: "dynamic
sliding window") is selected by ``policy`` with its window depth
``lookahead`` and a node budget bounding the search.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..reliability.errors import ConfigError

__all__ = ["ConfigError", "LZWConfig", "POLICIES"]

#: Recognised dynamic-assignment policies (see :mod:`repro.core.dontcare`).
POLICIES = ("first", "popular", "lookahead")


@dataclass(frozen=True)
class LZWConfig:
    """Static configuration of the LZW compressor/decompressor pair.

    Attributes
    ----------
    char_bits:
        ``C_C`` — bits consumed from the scan stream per LZW character.
    dict_size:
        ``N`` — total number of codes (base codes plus allocated entries).
    entry_bits:
        ``C_MDATA`` — maximum uncompressed bits a single dictionary code
        may expand to (the embedded-memory word width).
    policy:
        Dynamic don't-care assignment heuristic: ``"first"`` (lowest
        code), ``"popular"`` (heaviest subtree) or ``"lookahead"``
        (bounded sliding-window search, the paper's method).
    lookahead:
        Window depth ``W`` in characters for the ``"lookahead"`` policy.
    lookahead_budget:
        Maximum trie nodes visited per assignment decision; bounds the
        search so encoding stays linear in practice.
    reset_on_full:
        The paper freezes the dictionary once all ``N`` codes exist
        (``False``, the default).  ``True`` selects the adaptive
        variant: at the phrase boundary where the final entry *would*
        be allocated, both sides instead flush back to the base codes —
        no clear code is transmitted because the trigger is a
        deterministic function of the shared allocation counter.
    """

    char_bits: int = 7
    dict_size: int = 1024
    entry_bits: int = 63
    policy: str = "lookahead"
    lookahead: int = 4
    lookahead_budget: int = 128
    reset_on_full: bool = False

    def __post_init__(self) -> None:
        if self.char_bits < 1:
            raise ConfigError(
                "char_bits must be >= 1", field="char_bits", value=self.char_bits
            )
        if self.char_bits > 16:
            raise ConfigError(
                "char_bits above 16 is not supported",
                field="char_bits",
                value=self.char_bits,
            )
        if self.dict_size < self.base_codes:
            raise ConfigError(
                f"dict_size ({self.dict_size}) must cover the "
                f"{self.base_codes} base codes of a {self.char_bits}-bit "
                f"character",
                field="dict_size",
                value=self.dict_size,
            )
        if self.entry_bits < self.char_bits:
            raise ConfigError(
                "entry_bits must hold at least one character",
                field="entry_bits",
                value=self.entry_bits,
            )
        if self.policy not in POLICIES:
            raise ConfigError(
                f"unknown policy {self.policy!r}; pick from {POLICIES}",
                field="policy",
                value=self.policy,
            )
        if self.lookahead < 1:
            raise ConfigError(
                "lookahead must be >= 1", field="lookahead", value=self.lookahead
            )
        if self.lookahead_budget < 1:
            raise ConfigError(
                "lookahead_budget must be >= 1",
                field="lookahead_budget",
                value=self.lookahead_budget,
            )

    @property
    def base_codes(self) -> int:
        """Number of implicit single-character codes (``2**char_bits``)."""
        return 1 << self.char_bits

    @property
    def code_bits(self) -> int:
        """``C_E`` — width of each emitted compressed code."""
        return max(1, (self.dict_size - 1).bit_length())

    @property
    def max_entry_chars(self) -> int:
        """Longest dictionary string, in characters, the memory can hold."""
        return self.entry_bits // self.char_bits

    @property
    def free_codes(self) -> int:
        """Codes available for allocated dictionary entries."""
        return self.dict_size - self.base_codes

    def describe(self) -> str:
        """One-line human-readable summary used by the CLI and benches."""
        return (
            f"C_C={self.char_bits} N={self.dict_size} (C_E={self.code_bits}) "
            f"C_MDATA={self.entry_bits} policy={self.policy}"
            + (f" W={self.lookahead}" if self.policy == "lookahead" else "")
        )
