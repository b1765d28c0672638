"""High-level compress/verify API — the library's front door.

:func:`compress` runs the don't-care-aware LZW encoder on a ternary scan
stream and returns a :class:`CompressionResult` bundling the code
stream, the implied X assignment and the dictionary statistics every
experiment needs.  :meth:`CompressionResult.verify` decodes and
checks the central invariant: the decompressed stream must *cover* the
original cubes (reproduce every specified bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..bitstream.ternary import TernaryVector
from ..observability.recorder import NULL_RECORDER, Recorder
from .config import LZWConfig
from .decoder import decode
from .dictionary import DictionarySnapshot
from .encoder import CompressedStream, EncodeStats, LZWEncoder

__all__ = ["CompressionResult", "compress", "compress_batch", "decompress"]


@dataclass(frozen=True)
class CompressionResult:
    """Everything produced by one compression run.

    Attributes
    ----------
    compressed:
        The code stream and its configuration.
    assigned_stream:
        The fully specified stream the decompressor will reproduce —
        i.e. the original cubes with every X resolved by the encoder.
    stats:
        Dictionary/phrase statistics of the run.
    """

    compressed: CompressedStream
    assigned_stream: TernaryVector
    stats: EncodeStats
    #: Warm-dictionary provenance: the snapshot the encoder started
    #: from and the pipelined-wave link code, when seeded (both None
    #: for a cold run).  A seeded code stream only decodes with them.
    seed: Optional[DictionarySnapshot] = None
    link: Optional[int] = None

    @property
    def ratio(self) -> float:
        """Compression ratio ``1 - compressed/original``."""
        return self.compressed.ratio

    @property
    def ratio_percent(self) -> float:
        """Compression ratio in percent (the tables' unit)."""
        return self.compressed.ratio_percent

    @property
    def original_bits(self) -> int:
        """Size of the uncompressed stream in bits."""
        return self.compressed.original_bits

    @property
    def compressed_bits(self) -> int:
        """Size of the compressed stream in bits."""
        return self.compressed.compressed_bits

    @property
    def longest_entry_bits(self) -> int:
        """Longest allocated dictionary string in bits (Table 6 column)."""
        return self.stats.longest_entry_chars * self.compressed.config.char_bits

    @property
    def longest_phrase_bits(self) -> int:
        """Longest encoder phrase in bits — the ``C_MDATA`` that would be
        needed to capture every phrase in a single dictionary entry."""
        return self.stats.longest_phrase_chars * self.compressed.config.char_bits

    def verify(self, original: TernaryVector) -> bool:
        """True iff decoding reproduces every specified bit of ``original``."""
        decoded = decode(self.compressed, seed=self.seed, link=self.link)
        return decoded.covers(original)


def compress(
    stream: TernaryVector,
    config: Optional[LZWConfig] = None,
    recorder: Optional[Recorder] = None,
    cancel: Optional[object] = None,
    seed: Optional[DictionarySnapshot] = None,
    link: Optional[int] = None,
) -> CompressionResult:
    """Compress a ternary scan stream with don't-care-aware LZW.

    Degenerate inputs round-trip: an empty stream yields an empty code
    sequence with ``original_bits == 0``, and an all-X stream decodes to
    whatever concrete fill the encoder chose (which trivially covers
    it).  Both are locked in by ``tests/reliability/test_degenerate``.

    ``recorder`` (see :mod:`repro.observability`) collects the encode
    counters plus ``encode``/``assign`` wall-time spans; the default
    null recorder costs one flag check.  No decoder runs here: the
    assigned stream is packed from the dictionary strings of the codes
    the encoder emitted, which is what the decoder rebuilds.

    ``cancel`` is a cooperative cancellation token (any object with a
    raising ``check()``; see :class:`repro.service.cancel.
    CancellationToken`): it is checked inside the encoder's symbol loop
    and at each stage boundary, so a deadlined service request stops
    burning CPU within ~:data:`~repro.service.cancel.CHECK_INTERVAL`
    characters of its deadline.
    """
    rec = recorder if recorder is not None else NULL_RECORDER
    encoder = LZWEncoder(config, recorder=rec, cancel=cancel, seed=seed, link=link)
    with rec.span("encode"):
        compressed = encoder.encode(stream)
    if cancel is not None:
        cancel.check()
    with rec.span("assign"):
        assigned = encoder.assigned_stream()
    if cancel is not None:
        cancel.check()
    return CompressionResult(compressed, assigned, encoder.stats(), seed, link)


def compress_batch(configs, streams, workers=None, **kwargs):
    """Compress many streams across a worker pool (the batch front door).

    Thin forwarder to :func:`repro.parallel.compress_batch` — kept here
    so the one-stream and many-stream entry points live side by side.
    See that function for parameters (``shard_bits``, ``pattern_bits``,
    explicit ``plans``) and the determinism contract: the output bytes
    depend only on the inputs and shard plans, never on ``workers``.
    """
    from ..parallel import compress_batch as _compress_batch

    return _compress_batch(configs, streams, workers=workers, **kwargs)


def decompress(compressed: CompressedStream) -> TernaryVector:
    """Decode a :class:`CompressedStream` (alias of :func:`decoder.decode`)."""
    return decode(compressed)
