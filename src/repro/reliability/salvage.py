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

import zlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..bitstream import BitReader, TernaryVector
from ..core import CompressedStream, LZWConfig
from ..core.decoder import _chars_to_stream, iter_decode
from .errors import DecodeError, ReproError, SnapshotError, StreamError

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
        For a multi-segment (v3) container, the table index of the first
        segment that failed to decode (``None`` when ``complete`` or for
        single-stream containers).  Segments before it are recovered in
        full; segments after it are not attempted (each decodes with a
        fresh dictionary, but the *logical* stream is their ordered
        concatenation, so a hole would misalign every later bit).
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
    return _decode_partial_codes(
        compressed.codes, compressed.config, compressed.original_bits
    )


def _decode_partial_codes(
    codes: Tuple[int, ...],
    config: LZWConfig,
    original_bits: Optional[int],
    notes: Tuple[str, ...] = (),
    seed=None,
    link: Optional[int] = None,
) -> PartialDecodeResult:
    chars = []
    codes_decoded = 0
    error: Optional[ReproError] = None
    try:
        for index, expansion in iter_decode(
            codes, config, seed=seed, link=link
        ):
            chars.extend(expansion)
            codes_decoded = index + 1
    except (DecodeError, SnapshotError) as exc:
        # A seed that passes its CRC can still fail to replay (duplicate
        # child, entry width): no code of this segment decodes.
        error = exc
    prefix = _chars_to_stream(chars, config, None)
    if error is None and original_bits is not None:
        if original_bits > len(prefix):
            error = DecodeError(
                f"decoded {len(prefix)} bits but {original_bits} expected",
                decoded_bits=len(prefix),
                expected_bits=original_bits,
            )
        else:
            prefix = prefix[:original_bits]
    return PartialDecodeResult(
        stream=prefix,
        chars=tuple(chars),
        codes_decoded=codes_decoded,
        total_codes=len(codes),
        complete=error is None,
        error=error,
        failed_code_index=getattr(error, "code_index", None),
        failed_bit_offset=getattr(error, "bit_offset", None),
        notes=notes,
    )


def salvage_container(data: bytes, recorder=None) -> PartialDecodeResult:
    """Best-effort decode starting from raw ``.lzwt`` container bytes.

    The header must still parse (magic, version, a valid configuration —
    and, for multi-segment v3 containers, a structurally valid segment
    table); beyond that every integrity failure is tolerated and
    recorded in ``notes``: header/payload CRC mismatches, declared bit
    counts exceeding the data, and trailing partial codes are all
    clamped rather than fatal.  A v3 container salvages segment by
    segment: every segment before the first undecodable one is
    recovered in full and the failing table index is reported as
    ``failed_segment`` (matching the ``segment=i`` diagnostics of
    ``repro verify``'s exit-code-4 errors).  A seeded (v4) container
    additionally resolves each segment's dictionary seed first — an
    unreadable seed blob or an underivable chain seed makes that
    segment undecodable (see :func:`_salvage_seeded`).  A streaming
    (v5) journal salvages frame by frame, recovering every complete
    digest-verified frame before the first fault (see
    :func:`_salvage_stream`).

    Raises :class:`~repro.reliability.errors.ContainerError` only when
    the header (or v3 segment table) itself is unusable.
    """
    from ..container import _parse_header, container_version
    from .errors import ContainerError

    try:
        version = container_version(data)
    except ContainerError:
        version = None  # let _parse_header report the header problem
    if version == 3:
        return _salvage_multi(data)
    if version == 4:
        return _salvage_seeded(data)
    if version == 5:
        return _salvage_stream(data, recorder=recorder)
    header = _parse_header(data)
    config = header.config
    notes = []
    payload = header.payload
    payload_bits = header.payload_bits
    if zlib.crc32(payload) != header.payload_crc:
        notes.append("payload CRC mismatch (tolerated)")
    if payload_bits > len(payload) * 8:
        notes.append(
            f"declared payload bits ({payload_bits}) exceed data "
            f"({len(payload) * 8}); clamped"
        )
        payload_bits = len(payload) * 8
    if payload_bits % config.code_bits:
        notes.append("trailing partial code dropped")
        payload_bits -= payload_bits % config.code_bits
    reader = BitReader.from_bytes(payload, payload_bits)
    codes = []
    try:
        while not reader.exhausted:
            codes.append(reader.read(config.code_bits))
    except StreamError:  # pragma: no cover - excluded by the clamping above
        notes.append("payload ended mid-code")
    return _decode_partial_codes(
        tuple(codes), config, header.original_bits, notes=tuple(notes)
    )


def _salvage_stream(data: bytes, recorder=None) -> PartialDecodeResult:
    """Frame-by-frame best-effort decode of a streaming (v5) journal.

    Every structurally valid, digest-verified frame before the first
    fault is recovered — the crash-recovery contract of the append-only
    format: a torn tail (the crash signature) or a missing terminal
    costs only the unfinished suffix, and is distinguished in the notes
    from mid-file corruption.  A frame whose dictionary digest
    mismatches is dropped along with everything after it (a diverged
    dictionary would expand every later code to the wrong string).

    Raises :class:`~repro.reliability.errors.ContainerError` only when
    the 19-byte stream header itself is unusable.
    """
    from ..core.stream import StreamDecoder
    from ..observability import NULL_RECORDER
    from ..observability import schema as ev
    from ..streamio import frame_seal, pack_chars, scan_stream

    rec = recorder if recorder is not None else NULL_RECORDER
    scan = scan_stream(data)  # raises only for an unusable header
    config = scan.config
    notes = []
    decoder = StreamDecoder(config)
    chars = []
    chars_crc = 0
    codes_decoded = 0
    frames_kept = 0
    error: Optional[ReproError] = scan.error
    failed_frame: Optional[int] = None
    failed_code_index: Optional[int] = None
    failed_bit_offset: Optional[int] = None

    for frame in scan.frames:
        frame_chars = []
        try:
            for code in frame.codes:
                frame_chars.extend(decoder.push(code))
        except DecodeError as exc:
            error = exc
            failed_frame = frame.index
            failed_code_index = getattr(exc, "code_index", None)
            failed_bit_offset = getattr(exc, "bit_offset", None)
            notes.append(f"frame {frame.index} undecodable")
            break
        next_crc = zlib.crc32(pack_chars(frame_chars), chars_crc)
        if frame_seal(decoder.snapshot(), next_crc) != frame.dict_digest:
            error = DecodeError(
                f"frame {frame.index} seal mismatch "
                "(decoded content diverges from the writer's)",
                frame=frame.index,
            )
            failed_frame = frame.index
            notes.append(f"frame {frame.index} seal mismatch")
            break
        chars_crc = next_crc
        chars.extend(frame_chars)
        codes_decoded += frame.num_codes
        frames_kept += 1
        if rec.enabled:
            rec.incr(ev.STREAM_FRAMES_SALVAGED)

    if failed_frame is not None and failed_frame + 1 < len(scan.frames):
        notes.append(
            f"frames {failed_frame + 1}..{len(scan.frames) - 1} not attempted"
        )
    if failed_frame is None and scan.error is not None:
        reason = getattr(scan.error, "reason", None)
        if reason == "torn_tail":
            notes.append(
                f"torn tail after frame {frames_kept - 1} (crash while "
                "appending); complete frames recovered"
                if frames_kept
                else "torn tail before the first complete frame"
            )
        elif reason == "missing_terminal":
            notes.append(
                "journal unsealed: no terminal frame (crash before "
                f"finalize); {frames_kept} complete frames recovered"
            )
        else:
            notes.append(
                f"frame {len(scan.frames)} unreadable "
                f"({scan.error.message}); later frames not attempted"
            )
        failed_frame = len(scan.frames)

    if scan.terminal is not None:
        total_codes = scan.terminal.total_codes
    else:
        total_codes = sum(frame.num_codes for frame in scan.frames)
        notes.append("total code count unknown (journal unsealed)")

    prefix = _chars_to_stream(chars, config, None)
    complete = error is None and scan.terminal is not None
    if complete:
        total_bits = scan.terminal.total_original_bits
        if total_bits > len(prefix):
            error = DecodeError(
                f"decoded {len(prefix)} bits but {total_bits} expected",
                decoded_bits=len(prefix),
                expected_bits=total_bits,
            )
            complete = False
        else:
            prefix = prefix[:total_bits]
    return PartialDecodeResult(
        stream=prefix,
        chars=tuple(chars),
        codes_decoded=codes_decoded,
        total_codes=total_codes,
        complete=complete,
        error=error,
        failed_code_index=failed_code_index,
        failed_bit_offset=failed_bit_offset,
        notes=tuple(notes),
        failed_segment=failed_frame,
    )


def _salvage_multi(data: bytes) -> PartialDecodeResult:
    """Segment-by-segment best-effort decode of a v3 container.

    The segment table must be structurally sound (:func:`_parse_multi`
    still raises on a torn table); a mismatching header CRC or segment
    payload CRC is tolerated with a note, and the decode stops at the
    first segment whose payload does not decode.
    """
    from ..container import (  # deferred: container imports core
        V3_HEADER_CRC_OFFSET,
        _parse_multi,
        _segment_payload,
    )

    header = _parse_multi(data)
    config = header.config
    notes = []
    actual_crc = zlib.crc32(data[:V3_HEADER_CRC_OFFSET] + header.table)
    if actual_crc != header.header_crc:
        notes.append("header CRC mismatch (tolerated)")
    streams = []
    chars = []
    codes_decoded = 0
    total_codes = sum(entry.num_codes for entry in header.segments)
    for index, entry in enumerate(header.segments):
        payload = _segment_payload(header, entry)
        if zlib.crc32(payload) != entry.payload_crc:
            notes.append(f"segment {index}: payload CRC mismatch (tolerated)")
        reader = BitReader.from_bytes(payload, entry.payload_bits)
        codes = []
        while not reader.exhausted:
            codes.append(reader.read(config.code_bits))
        partial = _decode_partial_codes(tuple(codes), config, entry.original_bits)
        codes_decoded += partial.codes_decoded
        streams.append(partial.stream)
        chars.extend(partial.chars)
        if not partial.complete:
            notes.append(
                f"segment {index} undecodable; segments {index + 1}.."
                f"{len(header.segments) - 1} not attempted"
                if index + 1 < len(header.segments)
                else f"segment {index} undecodable"
            )
            return PartialDecodeResult(
                stream=TernaryVector.concat_all(streams),
                chars=tuple(chars),
                codes_decoded=codes_decoded,
                total_codes=total_codes,
                complete=False,
                error=partial.error,
                failed_code_index=partial.failed_code_index,
                failed_bit_offset=partial.failed_bit_offset,
                notes=tuple(notes),
                failed_segment=index,
            )
    return PartialDecodeResult(
        stream=TernaryVector.concat_all(streams),
        chars=tuple(chars),
        codes_decoded=codes_decoded,
        total_codes=total_codes,
        complete=True,
        notes=tuple(notes),
    )


def _salvage_seeded(data: bytes) -> PartialDecodeResult:
    """Segment-by-segment best-effort decode of a seeded (v4) container.

    Same stop-at-first-failure structure as :func:`_salvage_multi`,
    with seeding on top: a blob-seeded segment whose seed blob is
    unreadable (CRC, parse or config mismatch) is undecodable — a
    corrupt dictionary would expand every code to the wrong string, so
    no partial output is attempted from it; a chained segment whose
    predecessor did not decode in full has no derivable seed and stops
    the salvage the same way.
    """
    from ..container import (  # deferred: container imports core
        SEED_BLOB,
        SEED_CHAIN,
        V4_HEADER_CRC_OFFSET,
        _load_blob,
        _parse_seeded,
        _seeded_payload,
    )
    from ..core.decoder import derive_final_snapshot

    header = _parse_seeded(data, strict=False)
    config = header.config
    notes = []
    actual_crc = zlib.crc32(data[:V4_HEADER_CRC_OFFSET] + header.tables)
    if actual_crc != header.header_crc:
        notes.append("header CRC mismatch (tolerated)")
    snapshots = {}
    for index in range(len(header.blobs)):
        try:
            snapshots[index] = _load_blob(header, index)
        except (ReproError, SnapshotError) as exc:
            notes.append(f"seed blob {index} unreadable: {exc.message}")
    streams = []
    chars = []
    codes_decoded = 0
    total_codes = sum(entry.num_codes for entry in header.segments)
    prev_state = None  # (codes, seed, link) of the last complete segment

    def stop(index, partial=None, error=None):
        if index + 1 < len(header.segments):
            notes.append(
                f"segment {index} undecodable; segments {index + 1}.."
                f"{len(header.segments) - 1} not attempted"
            )
        else:
            notes.append(f"segment {index} undecodable")
        return PartialDecodeResult(
            stream=TernaryVector.concat_all(streams),
            chars=tuple(chars),
            codes_decoded=codes_decoded,
            total_codes=total_codes,
            complete=False,
            error=partial.error if partial is not None else error,
            failed_code_index=(
                partial.failed_code_index if partial is not None else None
            ),
            failed_bit_offset=(
                partial.failed_bit_offset if partial is not None else None
            ),
            notes=tuple(notes),
            failed_segment=index,
        )

    for index, entry in enumerate(header.segments):
        payload = _seeded_payload(header, entry)
        payload_bits = entry.payload_bits
        if len(payload) < (entry.payload_bits + 7) // 8:
            notes.append(f"segment {index}: payload truncated (tolerated)")
            payload_bits = min(payload_bits, len(payload) * 8)
            payload_bits -= payload_bits % config.code_bits
        elif zlib.crc32(payload) != entry.payload_crc:
            notes.append(f"segment {index}: payload CRC mismatch (tolerated)")
        reader = BitReader.from_bytes(payload, payload_bits)
        codes = []
        while not reader.exhausted:
            codes.append(reader.read(config.code_bits))
        seed = link = None
        if entry.seed_mode == SEED_BLOB:
            seed = snapshots.get(entry.blob_index)
            if seed is None:
                return stop(
                    index,
                    error=SnapshotError(
                        f"segment {index} seeds from unreadable blob "
                        f"{entry.blob_index}",
                        segment=index,
                        blob=entry.blob_index,
                    ),
                )
        elif entry.seed_mode == SEED_CHAIN:
            if prev_state is None:
                return stop(
                    index,
                    error=DecodeError(
                        f"segment {index} chains from an incomplete "
                        "predecessor; its seed cannot be derived",
                        segment=index,
                    ),
                )
            prev_codes, prev_seed, prev_link = prev_state
            try:
                seed = derive_final_snapshot(
                    prev_codes, config, seed=prev_seed, link=prev_link
                )
            except (DecodeError, SnapshotError) as exc:
                return stop(index, error=exc)
            link = prev_codes[-1] if prev_codes else prev_link
        partial = _decode_partial_codes(
            tuple(codes), config, entry.original_bits, seed=seed, link=link
        )
        codes_decoded += partial.codes_decoded
        streams.append(partial.stream)
        chars.extend(partial.chars)
        if not partial.complete:
            return stop(index, partial=partial)
        prev_state = (tuple(codes), seed, link)
    return PartialDecodeResult(
        stream=TernaryVector.concat_all(streams),
        chars=tuple(chars),
        codes_decoded=codes_decoded,
        total_codes=total_codes,
        complete=True,
        notes=tuple(notes),
    )
