"""Salvage decoding: recover the longest decodable prefix.

When an ATE dump comes back corrupted the strict decoder rejects it
outright, which is the correct production behaviour but useless for
debugging *where* the stream went bad.  :func:`decode_partial` decodes
code by code and, instead of raising, returns everything decoded up to
the first undecodable code together with a machine-readable diagnosis
(the failing code index, its bit offset in the payload and the
dictionary state).  :func:`salvage_container` does the same starting
from raw container bytes, tolerating payload CRC mismatches and
truncated payloads that :func:`repro.container.load_bytes` rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..bitstream import TernaryVector
from ..core import CompressedStream
from ..core.decoder import _chars_to_stream
from .errors import DecodeError, ReproError

__all__ = ["PartialDecodeResult", "decode_partial", "salvage_container"]


@dataclass(frozen=True)
class PartialDecodeResult:
    """Outcome of a best-effort decode.

    Attributes
    ----------
    stream:
        The decoded prefix as a fully specified ternary stream.  On a
        complete decode it is truncated to ``original_bits`` like the
        strict decoder's output.
    chars:
        The decoded character sequence backing ``stream``.
    codes_decoded:
        How many leading codes decoded successfully.
    total_codes:
        Length of the input code sequence.
    complete:
        True when every code decoded and the stream reached
        ``original_bits``.
    error:
        The typed error that stopped the decode (``None`` when
        ``complete``).
    failed_code_index / failed_bit_offset:
        Position of the first undecodable code in the code sequence and
        in the packed payload bit stream (``None`` when ``complete``).
        For a multi-segment container these are relative to the failing
        *segment*'s code sequence and payload.
    notes:
        Human-readable observations gathered while salvaging (CRC
        mismatches tolerated, payload truncation, ...).
    failed_segment:
        For a multi-segment (v3/v4) container, the table index of the
        first segment that failed to decode; for a v5 journal, the index
        of the first frame not recovered (``None`` when ``complete`` or
        for single-stream v1/v2 containers).  Segments before it are
        recovered in full; segments after it are not attempted (the
        *logical* stream is their ordered concatenation, so a hole would
        misalign every later bit).
    """

    stream: TernaryVector
    chars: Tuple[int, ...]
    codes_decoded: int
    total_codes: int
    complete: bool
    error: Optional[ReproError] = None
    failed_code_index: Optional[int] = None
    failed_bit_offset: Optional[int] = None
    notes: Tuple[str, ...] = field(default=())
    failed_segment: Optional[int] = None

    @property
    def recovered_bits(self) -> int:
        """Number of scan-stream bits recovered."""
        return len(self.stream)

    def describe(self) -> str:
        """One-line summary for logs and the CLI."""
        if self.complete:
            return (
                f"complete: {self.codes_decoded}/{self.total_codes} codes, "
                f"{self.recovered_bits} bits"
            )
        where = (
            f"code {self.failed_code_index} (bit offset {self.failed_bit_offset})"
            if self.failed_code_index is not None
            else "end of stream"
        )
        if self.failed_segment is not None:
            where = f"segment {self.failed_segment}, {where}"
        reason = self.error.message if self.error is not None else "unknown"
        return (
            f"partial: recovered {self.codes_decoded}/{self.total_codes} codes "
            f"({self.recovered_bits} bits) up to {where}: {reason}"
        )


def decode_partial(compressed: CompressedStream) -> PartialDecodeResult:
    """Best-effort decode of a :class:`CompressedStream`.

    Never raises for an undecodable stream: the longest decodable prefix
    is returned with the typed error attached.
    """
    from ..container import _decode_prefix

    config = compressed.config
    chars, decoded, error, _ = _decode_prefix(compressed.codes, config)
    prefix = _chars_to_stream(chars, config, None)
    if error is None:
        try:
            prefix = _chars_to_stream(chars, config, compressed.original_bits)
        except DecodeError as exc:
            error = exc
    return _result(prefix, chars, decoded, len(compressed.codes), error, ())


def _result(
    stream, chars, decoded, total, error, notes, failed_segment=None, located=None
):
    """A result; ``located`` is the error that locates the failing code."""
    located = error if located is None else located
    return PartialDecodeResult(
        stream=stream,
        chars=tuple(chars),
        codes_decoded=decoded,
        total_codes=total,
        complete=error is None,
        error=error,
        failed_code_index=getattr(located, "code_index", None),
        failed_bit_offset=getattr(located, "bit_offset", None),
        notes=tuple(notes),
        failed_segment=failed_segment,
    )


def salvage_container(data: bytes, recorder=None) -> PartialDecodeResult:
    """Best-effort decode starting from raw ``.lzwt`` container bytes.

    The header and tables must still parse (magic, version, a valid
    configuration, complete segment and blob tables); beyond that every
    integrity failure is tolerated and recorded in ``notes``: header and
    payload CRC mismatches, unreadable seed blobs, declared bit counts
    exceeding the data (a truncated file) and trailing partial codes
    are all clamped rather than fatal.  Every version walks the
    container's one segment walk in its tolerant mode: segments decode
    in table order, each under its resolved seed, and the salvage stops
    at the first segment that does not decode in full.  Every segment
    before it is recovered in full; for multi-segment containers its
    table index is reported as ``failed_segment`` (matching the
    ``segment[i]`` diagnostics of ``repro verify``).  A streaming (v5)
    journal salvages frame by frame, recovering every complete
    seal-verified frame before the first fault (see
    :func:`_salvage_stream`).

    Raises :class:`~repro.reliability.errors.ContainerError` only when
    the header or the tables themselves are unusable.
    """
    from ..container import (  # deferred: container imports this package
        _VERSION_STREAM,
        _header_crc_fault,
        _parse,
        _resolve_blobs,
        _walk,
    )

    if data[:4] == b"LZWT" and data[4:5] == bytes([_VERSION_STREAM]):
        return _salvage_stream(data, recorder=recorder)
    model = _parse(data)
    notes = []
    if _header_crc_fault(model) is not None:
        notes.append("header CRC mismatch (tolerated)")
    blobs = _resolve_blobs(model)
    for index, blob in enumerate(blobs):
        if isinstance(blob, ReproError):
            notes.append(f"seed blob {index} unreadable: {blob.message}")
    streams = []
    chars = []
    decoded = 0
    error = failed = None
    for step in _walk(model, blobs, verify=False, tolerant=True):
        notes.extend(step.notes)
        decoded += step.decoded
        chars.extend(step.chars)
        if step.error is not None:
            error = step.error
            streams.append(_chars_to_stream(step.chars, model.config, None))
            break
        streams.append(step.stream)
    count = len(model.segments)
    if error is not None and not model.single:
        failed = step.index
        notes.append(
            f"segment {failed} undecodable; segments {failed + 1}..{count - 1} "
            "not attempted"
            if failed + 1 < count
            else f"segment {failed} undecodable"
        )
    total = sum(entry.num_codes for entry in model.segments)
    stream = TernaryVector.concat_all(streams)
    return _result(stream, chars, decoded, total, error, notes, failed)


def _salvage_stream(data: bytes, recorder=None) -> PartialDecodeResult:
    """Frame-by-frame best-effort decode of a streaming (v5) journal.

    Every structurally valid frame the v5 frame walk verifies before
    the first fault is recovered — the crash-recovery contract of the
    append-only format: a torn tail (the crash signature) or a missing
    terminal costs only the unfinished suffix, and is distinguished in
    the notes from mid-file corruption.  A frame whose seal mismatches
    is dropped along with everything after it (a diverged dictionary
    would expand every later code to the wrong string).

    Raises :class:`~repro.reliability.errors.ContainerError` only when
    the 19-byte stream header itself is unusable.
    """
    from ..observability import NULL_RECORDER
    from ..observability import events as ev
    from ..streamio import _FrameWalk, scan_stream

    rec = recorder if recorder is not None else NULL_RECORDER
    scan = scan_stream(data)  # raises only for an unusable header
    notes = []
    walk = _FrameWalk(scan.config)
    chars = []
    codes_decoded = 0
    kept = 0
    for frame, frame_chars in walk.verified(scan.frames):
        chars.extend(frame_chars)
        codes_decoded += frame.num_codes
        kept += 1
        if rec.enabled:
            rec.incr(ev.STREAM_FRAMES_SALVAGED)

    error = walk.fault or scan.error
    failed_frame = None if error is None else kept
    if walk.fault is not None:
        notes.append(walk.fault.message)
        if kept + 1 < len(scan.frames):
            notes.append(f"frames {kept + 1}..{len(scan.frames) - 1} not attempted")
    elif scan.error is not None:
        reason = getattr(scan.error, "reason", None)
        if reason == "torn_tail":
            notes.append(
                f"torn tail after frame {kept - 1} (crash while "
                "appending); complete frames recovered"
                if kept
                else "torn tail before the first complete frame"
            )
        elif reason == "missing_terminal":
            notes.append(
                "journal unsealed: no terminal frame (crash before "
                f"finalize); {kept} complete frames recovered"
            )
        else:
            notes.append(
                f"frame {kept} unreadable "
                f"({scan.error.message}); later frames not attempted"
            )

    if scan.terminal is not None:
        total_codes = scan.terminal.total_codes
    else:
        total_codes = sum(frame.num_codes for frame in scan.frames)
        notes.append("total code count unknown (journal unsealed)")

    prefix = _chars_to_stream(chars, scan.config, None)
    if error is None:
        try:
            total_bits = scan.terminal.total_original_bits
            prefix = _chars_to_stream(chars, scan.config, total_bits)
        except DecodeError as exc:
            error = exc
    located = error if walk.fault is None else walk.fault.__cause__
    return _result(
        prefix, chars, codes_decoded, total_codes, error, notes, failed_frame, located
    )
