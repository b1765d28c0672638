"""On-disk container for compressed test sets.

The ATE-facing artefact of the flow: the compressed code stream plus
everything the decompressor needs to be configured (the paper's
"configurator block" parameters), in a small self-describing binary
format so a test program can be archived and replayed.

Layout of format version 2 (big-endian, all fixed-width)::

    0   4   magic  b"LZWT"
    4   1   format version (2)
    5   1   char_bits (C_C)
    6   4   dict_size (N)
    10  4   entry_bits (C_MDATA)
    14  8   original_bits
    22  8   payload bit count
    30  4   CRC32 of the payload bytes
    34  4   CRC32 digest of the *decoded* stream
    38  4   CRC32 of header bytes 0..38
    42  ..  payload: the code stream, MSB-first, zero-padded to a byte

Version 1 containers (no stream digest, no header CRC — bytes 0..34
followed by the payload) are still read.

Format version 3 is the **multi-segment** framing produced by the batch
engine (:mod:`repro.parallel`): several independently coded shards of
one logical stream, each with its own LZW dictionary, share one file::

    0   4   magic  b"LZWT"
    4   1   format version (3)
    5   1   char_bits (C_C)
    6   4   dict_size (N)
    10  4   entry_bits (C_MDATA)
    14  4   segment count S (>= 1)
    18  4   CRC32 of header bytes 0..18 + the segment table
    22  ..  segment table: S entries of 36 bytes each ::

            0   8   payload byte offset (relative to the payload area)
            8   8   original_bits of this segment
            16  8   payload bit count
            24  4   code count
            28  4   CRC32 of the segment's payload bytes
            32  4   CRC32 digest of the segment's *decoded* stream

        ..  payload area: per-segment code streams, MSB-first, each
            zero-padded to a byte boundary, at the declared offsets

Every segment decodes with a fresh dictionary; the logical stream is
the concatenation of the segment decodes in table order.  A batch of
exactly one segment is written as a plain v2 container, so the serial
and batch paths are bit-identical in the single-shard case.

Format version 4 is the **seeded** multi-segment framing: segments may
start from a warm dictionary (a trained preamble stored once in a blob
table, or the previous segment's final state in a pipelined wave)::

    0   4   magic  b"LZWT"
    4   1   format version (4)
    5   1   char_bits (C_C)
    6   4   dict_size (N)
    10  4   entry_bits (C_MDATA)
    14  4   segment count S (>= 1)
    18  1   flags (bit 0: reset_on_full)
    19  2   blob count B
    21  4   CRC32 of header bytes 0..21 + segment table + blob table
    25  ..  segment table: S entries of 40 bytes each ::

            0   8   payload byte offset (relative to the payload area)
            8   8   original_bits of this segment
            16  8   payload bit count
            24  4   code count
            28  4   CRC32 of the segment's payload bytes
            32  4   CRC32 digest of the segment's *decoded* stream
            36  1   seed mode (0 cold, 1 blob, 2 chain)
            37  2   blob index (0xFFFF when the mode takes no blob)
            39  1   reserved (0)

        ..  blob table: B entries of 16 bytes each ::

            0   8   blob byte offset (relative to the blob area)
            8   4   blob byte length
            12  4   CRC32 of the blob bytes

        ..  blob area: ``LZWS`` dictionary snapshots, deduplicated by
            digest (segments sharing a preamble share one blob)
        ..  payload area: per-segment code streams as in v3

A *cold* segment decodes with a fresh dictionary.  A *blob* segment
decodes with the dictionary restored from its blob-table snapshot.  A
*chain* segment decodes with the previous segment's **final** state —
derived from the previous segment's codes, never stored — with the
cross-segment link code being the previous segment's last code.  A
container whose segments are all cold is written in the v2/v3 formats
bit-for-bit, so cold plans never see the v4 framing — unless the
configuration resets its dictionary when full (``reset_on_full``):
only the v4 header has a flags byte to record that, so such a
container is v4 whatever its segments.

**One model under every layout.**  Whatever the version, a container
holds the same thing: the configuration, a CRC-covered header span and
its stored CRC, ordered segments (offset, original bits, payload bits,
code count, payload CRC, optional stream digest, seed mode, blob index)
and, for v4, the seed blobs.  A per-version layout table (:data:`_LAYOUTS`)
maps bytes onto that model — v1 is one cold segment with no digest and
no header CRC, v2 one cold segment, v3 all-cold segments without
blobs, v4 the full layout — and one parse reads any of them.  Every
consumer (the loaders here, :func:`~repro.reliability.verify.
verify_container`, :func:`~repro.reliability.salvage.salvage_container`)
is then a walk over the parsed segments: resolve the seed, check the
payload, unpack the codes, decode under the seed, check the digest
(:func:`_walk`).  One packer writes all three current layouts and picks
the smallest that holds the segments: one cold segment is v2, all cold
is v3, anything warm (or any ``reset_on_full`` configuration) is v4.

**One read contract.**  A loader accepts by what the model holds, not
by version: :func:`load_seeded` and :func:`decode_container` read any
v1–v4 container, :func:`load_bytes` any whose model is one cold
segment.  Every fault they raise is a :class:`ContainerError`
(:class:`SnapshotError` for an unreadable seed blob) carrying the
failing ``segment``; a failed decode chains the decoder's
:class:`DecodeError` as its ``__cause__``.

The three checksums split the failure modes cleanly:

* the **header CRC** catches any flipped header field (the payload CRC
  never covered the header);
* the **payload CRC** catches transport corruption of the code stream;
* the **stream digest** is computed over the *decoded* scan stream, so
  even an adversarial corruption that fixes up both CRCs cannot decode
  to different scan data undetected.

The dynamic-assignment policy knobs are deliberately *not* stored: they
affect only how the encoder chose the codes, never how codes decode.
"""

from __future__ import annotations

import struct
import zlib
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .bitstream import TernaryVector, pack_codes, unpack_codes
from .core import (
    CompressedStream,
    DictionarySnapshot,
    LZWConfig,
    decode,
    derive_final_snapshot,
)
from .core.decoder import _chars_to_stream
from .core.dictionary import SEED_BLOB, SEED_CHAIN, SEED_COLD, SEED_MODE_NAMES
from .core.stream import StreamDecoder
from .observability import NULL_RECORDER, Recorder
from .observability import events as ev
from .reliability.atomic import atomic_write_bytes
from .reliability.errors import (
    ConfigError,
    ContainerError,
    DecodeError,
    ReproError,
    SnapshotError,
)

__all__ = [
    "ContainerError",
    "LoadedSegment",
    "SEED_BLOB",
    "SEED_CHAIN",
    "SEED_COLD",
    "SEED_MODE_NAMES",
    "SegmentInfo",
    "SegmentSeed",
    "container_version",
    "decode_container",
    "dump_bytes",
    "dump_segments",
    "load_bytes",
    "load_seeded",
    "dump_file",
    "stream_digest",
]

_MAGIC = b"LZWT"
_VERSION_STREAM = 5
_FLAG_RESET_ON_FULL = 0x01
_NO_BLOB = 0xFFFF


# ----------------------------------------------------------------------
# Layout tables
# ----------------------------------------------------------------------


class _Record:
    """A fixed-width big-endian record with named fields.

    The single description of a header or table entry: :meth:`unpack`
    and :meth:`pack` map bytes to and from field values, and
    :attr:`offset` gives each field's byte offset within the record.
    """

    def __init__(self, *fields: Tuple[str, str]) -> None:
        self.names = tuple(name for name, _ in fields)
        self.struct = struct.Struct(">" + "".join(code for _, code in fields))
        self.size = self.struct.size
        self.offset: Dict[str, int] = {}
        position = 0
        for name, code in fields:
            self.offset[name] = position
            position += struct.calcsize(">" + code)

    def unpack(self, data: bytes) -> Dict[str, int]:
        return dict(zip(self.names, self.struct.unpack_from(data)))

    def pack(self, **values) -> bytes:
        """Pack ``values`` by field name; absent fields are zero."""
        return self.struct.pack(*(values.get(name, 0) for name in self.names))


class _Layout(NamedTuple):
    """How one format version lays the container model out in bytes.

    ``entry`` is ``None`` for the single-segment layouts (v1/v2): their
    header describes the one segment and its payload CRC covers every
    byte after the header.  ``blob_entry`` is ``None`` for layouts
    without seed blobs.  A ``header_crc`` field, where present, is the
    last header field and covers the header bytes before it plus the
    segment and blob tables.
    """

    header: _Record
    entry: Optional[_Record] = None
    blob_entry: Optional[_Record] = None


_CONFIG_FIELDS = (
    ("magic", "4s"),
    ("version", "B"),
    ("char_bits", "B"),
    ("dict_size", "I"),
    ("entry_bits", "I"),
)
_V1_FIELDS = (("original_bits", "Q"), ("payload_bits", "Q"), ("payload_crc", "I"))
_ENTRY_FIELDS = (
    ("offset", "Q"),
    ("original_bits", "Q"),
    ("payload_bits", "Q"),
    ("num_codes", "I"),
    ("payload_crc", "I"),
    ("stream_crc", "I"),
)

_LAYOUTS: Dict[int, _Layout] = {
    1: _Layout(_Record(*_CONFIG_FIELDS, *_V1_FIELDS)),
    2: _Layout(
        _Record(*_CONFIG_FIELDS, *_V1_FIELDS, ("stream_crc", "I"), ("header_crc", "I"))
    ),
    3: _Layout(
        _Record(*_CONFIG_FIELDS, ("segment_count", "I"), ("header_crc", "I")),
        _Record(*_ENTRY_FIELDS),
    ),
    4: _Layout(
        _Record(
            *_CONFIG_FIELDS,
            ("segment_count", "I"),
            ("flags", "B"),
            ("blob_count", "H"),
            ("header_crc", "I"),
        ),
        _Record(
            *_ENTRY_FIELDS, ("seed_mode", "B"), ("blob_index", "H"), ("reserved", "B")
        ),
        _Record(("offset", "Q"), ("length", "I"), ("crc", "I")),
    ),
}
_V2, _V3, _V4 = _LAYOUTS[2], _LAYOUTS[3], _LAYOUTS[4]

# Field offsets, exported for the fault injectors (which build
# checksum-consistent corruptions) — all read off the layout tables.
PAYLOAD_CRC_OFFSET = _V2.header.offset["payload_crc"]
STREAM_CRC_OFFSET = _V2.header.offset["stream_crc"]
HEADER_CRC_OFFSET = _V2.header.offset["header_crc"]
HEADER_SIZE = _V2.header.size
V3_SEGMENT_COUNT_OFFSET = _V3.header.offset["segment_count"]
V3_HEADER_CRC_OFFSET = _V3.header.offset["header_crc"]
V3_SEGMENT_TABLE_OFFSET = _V3.header.size
SEGMENT_ENTRY_SIZE = _V3.entry.size
V4_SEGMENT_COUNT_OFFSET = _V4.header.offset["segment_count"]
V4_FLAGS_OFFSET = _V4.header.offset["flags"]
V4_BLOB_COUNT_OFFSET = _V4.header.offset["blob_count"]
V4_HEADER_CRC_OFFSET = _V4.header.offset["header_crc"]
V4_SEGMENT_TABLE_OFFSET = _V4.header.size
SEGMENT_ENTRY_V4_SIZE = _V4.entry.size
BLOB_ENTRY_SIZE = _V4.blob_entry.size
SEED_MODE_ENTRY_OFFSET = _V4.entry.offset["seed_mode"]
BLOB_INDEX_ENTRY_OFFSET = _V4.entry.offset["blob_index"]


# ----------------------------------------------------------------------
# The container model
# ----------------------------------------------------------------------


class SegmentSeed(NamedTuple):
    """How one segment's dictionary is initialised.

    ``snapshot`` must carry the **resolved** seeding state for any warm
    mode: for ``SEED_BLOB`` it is written to the blob table; for
    ``SEED_CHAIN`` it is the previous segment's derived final state
    (used only to compute this segment's stream digest — chains are
    re-derived from codes at load time, never stored).  ``link`` is the
    cross-segment link code of a chain segment (the previous segment's
    last emitted code).
    """

    mode: int = SEED_COLD
    snapshot: Optional[DictionarySnapshot] = None
    link: Optional[int] = None


COLD_SEED = SegmentSeed()


class LoadedSegment(NamedTuple):
    """One loaded segment plus the seeding state it decodes under.

    ``stream`` is the decode the digest was checked on, ``None`` when
    the load did not verify.
    """

    compressed: CompressedStream
    seed: Optional[DictionarySnapshot]
    link: Optional[int]
    seed_mode: int
    stream: Optional[TernaryVector] = None


class SegmentInfo(NamedTuple):
    """One segment of the container model, in table order.

    A v1/v2 container holds exactly one, described by its header (at
    offset 0, with the code count implied by the bit count); v3
    segments are all cold.  ``stream_crc`` is ``None`` for v1, which
    stores no digest.
    """

    offset: int
    original_bits: int
    payload_bits: int
    num_codes: int
    payload_crc: int
    stream_crc: Optional[int]
    seed_mode: int = SEED_COLD
    blob_index: int = _NO_BLOB


class BlobInfo(NamedTuple):
    """One blob-table entry of a v4 container."""

    offset: int
    length: int
    crc: int


class _Container(NamedTuple):
    """Container bytes of any v1–v4 layout, mapped onto the one model."""

    version: int
    layout: _Layout
    config: LZWConfig
    header_crc: Optional[int]
    crc_span: bytes  #: the bytes the header CRC covers
    segments: Tuple[SegmentInfo, ...]
    blobs: Tuple[BlobInfo, ...]
    blob_area: bytes
    payload_area: bytes

    @property
    def single(self) -> bool:
        """True for the single-segment layouts (v1/v2)."""
        return self.layout.entry is None


def stream_digest(stream: TernaryVector) -> int:
    """CRC32 digest of a fully specified decoded stream.

    Covers both the bit values and the length, so a decode that produces
    the wrong number of bits is as detectable as one producing wrong
    values.
    """
    nbytes = (len(stream) + 7) // 8
    payload = len(stream).to_bytes(8, "big") + stream.value_mask.to_bytes(
        nbytes, "little"
    )
    return zlib.crc32(payload)


def container_version(data: bytes) -> int:
    """Format version of container bytes (validates magic only)."""
    if len(data) < 5 or data[:4] != _MAGIC:
        raise ContainerError(f"bad magic {data[:5]!r}", byte_offset=0, field="magic")
    return data[4]


# ----------------------------------------------------------------------
# One parse
# ----------------------------------------------------------------------


def _parse_header(data: bytes) -> Tuple[_Layout, Dict[str, int], LZWConfig]:
    """Pick the layout and read the fixed header and its configuration.

    Raises :class:`ContainerError` when the bytes are not a v1–v4
    container at all: bad magic, an unknown (or v5) version, a short
    header or an invalid configuration.
    """
    if len(data) < 5:
        raise ContainerError("truncated container header", byte_offset=len(data))
    if data[:4] != _MAGIC:
        raise ContainerError(f"bad magic {data[:4]!r}", byte_offset=0, field="magic")
    version = data[4]
    layout = _LAYOUTS.get(version)
    if layout is None:
        raise ContainerError(
            "streaming (v5) container; decode it with decode_container() "
            "or repro.streamio"
            if version == _VERSION_STREAM
            else f"unsupported container version {version}",
            byte_offset=4,
            field="version",
        )
    if len(data) < layout.header.size:
        raise ContainerError(
            "truncated container header", byte_offset=len(data), field="header"
        )
    fields = layout.header.unpack(data)
    try:
        config = LZWConfig(
            char_bits=fields["char_bits"],
            dict_size=fields["dict_size"],
            entry_bits=fields["entry_bits"],
            reset_on_full=bool(fields.get("flags", 0) & _FLAG_RESET_ON_FULL),
        )
    except ConfigError as exc:
        raise ContainerError(
            f"invalid configuration in header: {exc.message}",
            field=getattr(exc, "field", None),
        ) from None
    return layout, fields, config


def _parse_tables(
    data: bytes, layout: _Layout, fields: Dict[str, int], config: LZWConfig
) -> _Container:
    """Map the rest of the bytes onto the model (no checksum checks).

    Raises :class:`ContainerError` when the tables themselves are
    unusable (unknown flags, no segments, tables cut short).  Entry
    contents, area bounds and checksums are left to the walk, so every
    consumer judges each segment on its own bytes.
    """
    header = layout.header
    flags = fields.get("flags", 0)
    if flags & ~_FLAG_RESET_ON_FULL:
        raise ContainerError(
            f"unknown container flags 0x{flags:02x}",
            byte_offset=header.offset["flags"],
            field="flags",
        )
    if layout.entry is None:
        bits = fields["payload_bits"]
        segments = (
            SegmentInfo(
                0,
                fields["original_bits"],
                bits,
                bits // config.code_bits,
                fields["payload_crc"],
                fields.get("stream_crc"),
            ),
        )
        blobs: Tuple[BlobInfo, ...] = ()
        tables_end = header.size
    else:
        count = fields["segment_count"]
        if count < 1:
            raise ContainerError(
                "segment count must be >= 1",
                byte_offset=header.offset["segment_count"],
                field="segment_count",
            )
        blob_count = fields.get("blob_count", 0)
        table_end = header.size + count * layout.entry.size
        tables_end = table_end + blob_count * BLOB_ENTRY_SIZE
        if len(data) < tables_end:
            raise ContainerError(
                f"truncated segment table ({count} segments, "
                f"{blob_count} blobs declared)",
                byte_offset=len(data),
                field="segment_table",
            )
        # A v4 entry ends in a reserved byte the model does not keep.
        kept = len(SegmentInfo._fields)
        segments = tuple(
            SegmentInfo(
                *layout.entry.struct.unpack_from(
                    data, header.size + index * layout.entry.size
                )[:kept]
            )
            for index in range(count)
        )
        blobs = tuple(
            BlobInfo(
                *layout.blob_entry.struct.unpack_from(
                    data, table_end + index * BLOB_ENTRY_SIZE
                )
            )
            for index in range(blob_count)
        )
    blob_area_end = tables_end + max((b.offset + b.length for b in blobs), default=0)
    crc_at = header.offset.get("header_crc")
    if crc_at is None:
        crc_span = b""
    else:
        crc_span = data[:crc_at] + data[header.size : tables_end]
    return _Container(
        version=fields["version"],
        layout=layout,
        config=config,
        header_crc=fields.get("header_crc"),
        crc_span=crc_span,
        segments=segments,
        blobs=blobs,
        blob_area=data[tables_end:blob_area_end],
        payload_area=data[blob_area_end:],
    )


def _parse(data: bytes) -> _Container:
    """Parse container bytes of any v1–v4 layout into the model."""
    return _parse_tables(data, *_parse_header(data))


def _header_crc_fault(model: _Container) -> Optional[ContainerError]:
    """The header-CRC mismatch, or ``None`` (also when v1 stores none)."""
    if model.header_crc is None:
        return None
    actual = zlib.crc32(model.crc_span)
    if actual == model.header_crc:
        return None
    return ContainerError(
        "header CRC mismatch (corrupted header)",
        byte_offset=model.layout.header.offset["header_crc"],
        expected=model.header_crc,
        actual=actual,
    )


def _load_blob(model: _Container, index: int) -> DictionarySnapshot:
    """Check, parse and config-validate one seed blob."""
    blob = model.blobs[index]
    raw = model.blob_area[blob.offset : blob.offset + blob.length]
    if len(raw) != blob.length:
        raise ContainerError(
            "seed blob extends past the end of the container",
            blob=index,
            expected=blob.offset + blob.length,
            actual=len(model.blob_area),
        )
    actual = zlib.crc32(raw)
    if actual != blob.crc:
        raise ContainerError(
            "seed blob CRC mismatch (corrupted container)",
            blob=index,
            expected=blob.crc,
            actual=actual,
        )
    snapshot = DictionarySnapshot.from_bytes(raw)
    snapshot.require_config(model.config)
    return snapshot


_Blob = Union[DictionarySnapshot, ReproError]


def _resolve_blobs(model: _Container) -> List[_Blob]:
    """Every seed blob: its snapshot, or the typed error that stopped it."""
    out: List[_Blob] = []
    for index in range(len(model.blobs)):
        try:
            out.append(_load_blob(model, index))
        except ReproError as exc:
            out.append(exc)
    return out


# ----------------------------------------------------------------------
# One segment walk
# ----------------------------------------------------------------------


class _Step(NamedTuple):
    """What the segment walk found for one segment.

    ``stage`` names the first stage that failed (``"seed"``,
    ``"payload-crc"``, ``"decode"`` or ``"stream-digest"``; ``None``
    when every stage that ran passed) and ``error`` its typed error;
    the stages after it did not run.  ``decoded`` counts the codes that
    decoded and, in a tolerant walk, ``chars`` holds their characters;
    ``stream`` is the segment's decode once it passed; ``decoder``, its
    decoder, seeds a chain successor (yielded steps drop it).
    """

    index: int
    entry: SegmentInfo
    seed: Optional[DictionarySnapshot] = None
    link: Optional[int] = None
    codes: Tuple[int, ...] = ()
    compressed: Optional[CompressedStream] = None
    chars: Sequence[int] = ()
    decoded: int = 0
    stream: Optional[TernaryVector] = None
    decoder: Optional[StreamDecoder] = None
    stage: Optional[str] = None
    error: Optional[ReproError] = None
    notes: Tuple[str, ...] = ()


def _stage_name(model: _Container, index: int, stage: str) -> str:
    """A stage's report name: bare for v1/v2, ``segment[i] ...`` otherwise."""
    return stage if model.single else f"segment[{index}] {stage}"


def _decode_prefix(
    codes: Sequence[int],
    config: LZWConfig,
    recorder: Optional[Recorder] = None,
    seed: Optional[DictionarySnapshot] = None,
    link: Optional[int] = None,
) -> Tuple[List[int], int, Optional[ReproError], Optional[StreamDecoder]]:
    """Decode as far as the codes go: ``(chars, codes decoded, error, decoder)``.

    ``decoder`` is set only when there were codes and all of them decoded.
    """
    chars: List[int] = []
    if not codes:
        return chars, 0, None, None
    try:
        decoder = StreamDecoder(config, recorder, seed=seed, link=link)
        decoder.decode_into(codes, chars)
    except (DecodeError, SnapshotError) as exc:
        # A seed that passes its CRC can still fail to replay
        # (duplicate child, entry width): then no code decodes.
        return chars, getattr(exc, "code_index", 0), exc, None
    return chars, len(codes), None, decoder


def _resolve_seed(
    model: _Container, blobs: Sequence[_Blob], step: _Step, prev: Optional[_Step]
) -> Tuple[Optional[DictionarySnapshot], Optional[int]]:
    """The seed stage: the dictionary state a segment decodes under."""
    index, entry = step.index, step.entry
    mode = entry.seed_mode
    if mode not in SEED_MODE_NAMES:
        raise ContainerError(
            f"unknown segment seed mode {mode}", segment=index, field="seed_mode"
        )
    if mode != SEED_BLOB and entry.blob_index != _NO_BLOB:
        raise ContainerError(
            f"{SEED_MODE_NAMES[mode]} segment carries a blob index",
            segment=index,
            field="blob_index",
        )
    if mode == SEED_COLD:
        return None, None
    if mode == SEED_BLOB:
        if entry.blob_index >= len(blobs):
            raise ContainerError(
                f"segment references blob {entry.blob_index} of {len(blobs)}",
                segment=index,
                field="blob_index",
            )
        seed = blobs[entry.blob_index]
        if isinstance(seed, ReproError):
            raise SnapshotError(
                f"segment {index} seeds from unreadable blob {entry.blob_index}",
                segment=index,
                blob=entry.blob_index,
            )
        return seed, None
    if prev is None:
        raise ContainerError(
            "segment 0 cannot chain from a previous segment",
            segment=index,
            field="seed_mode",
        )
    if prev.error is not None:
        raise ContainerError(
            f"segment {index} chains from segment {index - 1}, which failed "
            "its own checks; its seed cannot be derived",
            segment=index,
            field="seed_mode",
        )
    try:
        # A walk that did not decode the predecessor re-derives its state.
        seed = (
            prev.decoder.snapshot()
            if prev.decoder is not None
            else derive_final_snapshot(
                prev.codes, model.config, seed=prev.seed, link=prev.link
            )
        )
    except (DecodeError, SnapshotError) as exc:
        raise ContainerError(
            f"chain seed underivable from segment {index - 1}: {exc}",
            segment=index,
            field="seed_mode",
        ) from exc
    return seed, prev.codes[-1] if prev.codes else prev.link


def _walk_segment(
    model: _Container,
    blobs: Sequence[_Blob],
    step: _Step,
    prev: Optional[_Step],
    decode: bool,
    verify: bool,
    tolerant: bool,
    recorder: Optional[Recorder],
    span: Optional[str],
) -> _Step:
    config = model.config
    index, entry = step.index, step.entry
    label = "" if model.single else "segment "
    prefix = "" if model.single else f"segment {index}: "

    def where(field: str) -> dict:
        if model.single:
            return {"segment": index, "byte_offset": model.layout.header.offset[field]}
        return {"segment": index}

    def fail(stage: str, error: ReproError) -> _Step:
        return step._replace(stage=stage, error=error)

    # 1. Seed.
    try:
        seed, link = _resolve_seed(model, blobs, step, prev)
    except ReproError as exc:
        return fail("seed", exc)
    step = step._replace(seed=seed, link=link)

    # 2. Payload: bounds, whole codes, code count, CRC.  Each fault
    # pairs the strict walk's typed error with the tolerant walk's note.
    area = model.payload_area
    bits = entry.payload_bits
    width = config.code_bits
    end = entry.offset + (bits + 7) // 8
    payload = area if model.single else area[entry.offset : end]
    faults = []

    def fault(message: str, tolerated: str, **diagnostics) -> None:
        error = ContainerError(f"{label}{message}", **diagnostics)
        faults.append((error, tolerated))

    if end > len(area):
        fault(
            "payload extends past the end of the container",
            f"declared payload bits ({bits}) exceed data "
            f"({len(payload) * 8}); clamped",
            **where("payload_bits"),
            expected=end,
            actual=len(area),
        )
    if bits % width:
        fault(
            "payload is not a whole number of codes",
            "trailing partial code dropped",
            **where("payload_bits"),
            field="payload_bits",
            expected=width,
            actual=bits,
        )
    if entry.num_codes != bits // width:
        fault(
            "code count disagrees with its payload bit count",
            f"code count {entry.num_codes} disagrees with the payload (tolerated)",
            segment=index,
            field="num_codes",
            expected=bits // width,
            actual=entry.num_codes,
        )
    actual = zlib.crc32(payload)
    if actual != entry.payload_crc:
        fault(
            "payload CRC mismatch (corrupted container)",
            "payload CRC mismatch (tolerated)",
            **where("payload_crc"),
            expected=entry.payload_crc,
            actual=actual,
        )
    if faults and not tolerant:
        return fail("payload-crc", faults[0][0])
    bits = min(bits, len(payload) * 8)
    step = step._replace(
        codes=unpack_codes(payload, bits // width, width),
        notes=tuple(f"{prefix}{tolerated}" for _, tolerated in faults),
    )
    if not tolerant:
        try:
            compressed = CompressedStream(step.codes, config, entry.original_bits)
        except ValueError as exc:
            error = ContainerError(str(exc), **where("payload_bits"))
            return fail("payload-crc", error)
        step = step._replace(compressed=compressed)

    # 3. Decode under the seed.
    if not decode:
        return step
    name = _stage_name(model, index, "decode")
    with recorder.span(f"{span}{name}") if span else nullcontext():
        chars, decoded, error, decoder = _decode_prefix(
            step.codes, config, recorder, seed, link
        )
        # Only salvage reads the characters; a strict walk keeps the stream.
        step = step._replace(
            chars=chars if tolerant else (), decoded=decoded, decoder=decoder
        )
        if error is None:
            try:
                step = step._replace(
                    stream=_chars_to_stream(chars, config, entry.original_bits)
                )
            except DecodeError as exc:
                error = exc
    if error is not None:
        return fail("decode", error)

    # 4. Digest of the decoded stream.
    if verify and entry.stream_crc is not None:
        actual = stream_digest(step.stream)
        if actual != entry.stream_crc:
            return fail(
                "stream-digest",
                ContainerError(
                    f"{label}decoded stream digest mismatch (tampered payload)",
                    **where("stream_crc"),
                    expected=entry.stream_crc,
                    actual=actual,
                ),
            )
        if step.compressed is not None and seed is None and link is None:
            # The checked decode of a cold segment is what decode() of
            # the loaded stream would compute: hand it over.
            object.__setattr__(step.compressed, "_decoded", step.stream)
    return step


def _walk(
    model: _Container,
    blobs: Sequence[_Blob],
    decode: bool = True,
    verify: bool = True,
    tolerant: bool = False,
    recorder: Optional[Recorder] = None,
    span: Optional[str] = None,
) -> Iterator[_Step]:
    """The one segment walk, in table order; never raises for bad data.

    Each segment runs the stages resolve the seed, check the payload
    (bounds, whole codes, code count, CRC), unpack the codes, decode
    under the seed and check the digest, stopping at its first failing
    stage.  A chain segment whose predecessor did not pass fails its
    seed stage; a passing one hands it its decoder's end state.
    ``decode=False`` stops after the unpack (chain seeds re-derived) and
    ``verify=False`` skips the digest.  ``tolerant`` (salvage) clamps a
    short or ragged payload and ignores a payload CRC mismatch, noting
    both, and keeps a partial decode.  ``recorder`` records the decodes
    (under ``span`` + the stage name when ``span`` is set).
    """
    prev: Optional[_Step] = None
    for index, entry in enumerate(model.segments):
        prev = _walk_segment(
            model,
            blobs,
            _Step(index, entry),
            prev,
            decode,
            verify,
            tolerant,
            recorder,
            span,
        )
        yield prev._replace(decoder=None)


def _load(
    data: bytes,
    verify: bool,
    recorder: Optional[Recorder],
    decode: bool = False,
    single: bool = False,
) -> List[_Step]:
    """The strict walk: every segment passes every stage, or raise.

    Faults are raised as the read contract (module docstring) says;
    ``single`` rejects any container but one cold segment.  The recorder
    counts the container read and, when the caller asked for the decode
    (``decode``), the decode itself; a verify-only decode is not
    recorded.
    """
    model = _parse(data)
    rec = recorder if recorder is not None else NULL_RECORDER
    if rec.enabled:
        rec.incr(ev.CONTAINER_BYTES_READ, len(data))
        rec.incr(ev.CONTAINER_SEGMENTS_READ, len(model.segments))
    fault = _header_crc_fault(model)
    if fault is not None:
        raise fault
    if single:
        warm = sum(entry.seed_mode != SEED_COLD for entry in model.segments)
        if len(model.segments) > 1 or warm:
            raise ContainerError(
                f"container holds {len(model.segments)} segments ({warm} warm), "
                "not one cold segment; load it with load_seeded()",
                field="segment_count",
            )
    blobs = _resolve_blobs(model)
    for blob in blobs:
        if isinstance(blob, ReproError):
            raise blob
    steps = []
    for step in _walk(
        model, blobs, decode or verify, verify, recorder=rec if decode else None
    ):
        if step.error is None:
            steps.append(step)
        elif step.stage != "decode":
            raise step.error
        else:
            # Only a warm segment's failure can be its seed's.
            mode = step.entry.seed_mode
            seed = (
                "" if mode == SEED_COLD else f" under its {SEED_MODE_NAMES[mode]} seed"
            )
            what = "code stream" if model.single else f"segment {step.index}"
            raise ContainerError(
                f"{what} does not decode{seed}: {step.error}", segment=step.index
            ) from step.error
    return steps


# ----------------------------------------------------------------------
# Loaders
# ----------------------------------------------------------------------


def load_bytes(
    data: bytes, verify: bool = True, recorder: Optional[Recorder] = None
) -> CompressedStream:
    """Parse a container of one cold segment into a :class:`CompressedStream`.

    Any v1–v4 container whose model is exactly one cold segment loads
    (v2, and v4 as a ``reset_on_full`` configuration writes it); any
    other raises :class:`ContainerError` pointing to :func:`load_seeded`.

    With ``verify`` (the default) the segment is decoded and the decode
    checked against the stored digest, which catches corruptions that
    keep both CRCs valid.  The checked decode stays on the returned
    stream, so a following :func:`~repro.core.decoder.decode` of it
    costs nothing.  ``verify=False`` skips the decode and with it the
    only check against such tampering: a later ``decode`` never looks
    at the digest.  Pass it only when the stream is not decoded under
    its stored digest at all (a seeded shard, or a read of the codes
    alone).  Every fault raises :class:`ContainerError`.
    """
    return _load(data, verify, recorder, single=True)[0].compressed


def load_seeded(
    data: bytes, verify: bool = True, recorder: Optional[Recorder] = None
) -> Tuple[LoadedSegment, ...]:
    """Parse container bytes of any v1–v4 version into seed-aware segments.

    v1/v2/v3 containers load as cold segments; v4 containers resolve
    each segment's seeding state — blob snapshots are CRC-checked and
    parsed, chain states taken from the previous segment's decode (or,
    with ``verify=False``, re-derived from its codes).  With ``verify``
    each segment carries the decode its digest was checked on.  Every
    fault raises :class:`ContainerError` (:class:`SnapshotError` for a
    malformed blob).
    """
    return tuple(
        LoadedSegment(
            step.compressed, step.seed, step.link, step.entry.seed_mode, step.stream
        )
        for step in _load(data, verify, recorder)
    )


def decode_container(
    data: bytes, verify: bool = True, recorder: Optional[Recorder] = None
) -> TernaryVector:
    """Decode container bytes of any version to the full logical stream.

    For multi-segment containers this is the concatenation of the
    per-segment decodes in table order; v4 segments decode under their
    declared seeding state; v5 streaming containers decode frame by
    frame with per-frame digest verification.  Each segment decodes
    once: the digest is checked on the decode that is returned.  Every
    fault raises :class:`ContainerError`, as in :func:`load_seeded`.
    """
    if container_version(data) == _VERSION_STREAM:
        from .streamio import decode_stream_bytes

        return decode_stream_bytes(data, recorder=recorder)
    steps = _load(data, verify, recorder, decode=True)
    return TernaryVector.concat_all([step.stream for step in steps])


# ----------------------------------------------------------------------
# One packer
# ----------------------------------------------------------------------


def _check_seeds(
    parts: Sequence[CompressedStream], seeds: Sequence[SegmentSeed]
) -> None:
    """Reject seeding a v4 container could not replay."""
    config = parts[0].config
    expected_link: Optional[int] = None
    for index, (part, seed) in enumerate(zip(parts, seeds)):
        if seed.mode not in SEED_MODE_NAMES:
            raise ValueError(f"segment {index}: unknown seed mode {seed.mode}")
        if seed.mode == SEED_CHAIN:
            if index == 0:
                raise ValueError("segment 0 cannot chain from a previous segment")
            if seed.snapshot is None or seed.link is None:
                raise ValueError(
                    f"segment {index}: chain seeding needs the resolved "
                    "snapshot and link"
                )
            if seed.link != expected_link:
                raise ValueError(
                    f"segment {index}: chain link {seed.link} is not the "
                    f"previous segment's last code {expected_link}"
                )
        elif seed.mode == SEED_BLOB:
            if seed.snapshot is None:
                raise ValueError(f"segment {index}: blob seeding needs a snapshot")
            if seed.link is not None:
                raise ValueError(f"segment {index}: blob seeding takes no link")
        elif seed.snapshot is not None or seed.link is not None:
            raise ValueError(f"segment {index}: cold seeding takes no state")
        if seed.snapshot is not None:
            seed.snapshot.require_config(config)
        expected_link = part.codes[-1] if part.codes else (
            seed.link if seed.mode == SEED_CHAIN else None
        )


def _pack(
    parts: Sequence[CompressedStream],
    streams: Sequence[Optional[TernaryVector]],
    seeds: Sequence[SegmentSeed],
    recorder: Optional[Recorder],
) -> bytes:
    """Serialise segments in the smallest layout that holds them.

    One cold segment is v2, all cold segments v3, anything warm v4.  A
    ``reset_on_full`` configuration is v4 too: v1–v3 headers have no
    flags byte, and a reader that does not reset where the encoder did
    cannot decode the codes.
    """
    config = parts[0].config
    rec = recorder if recorder is not None else NULL_RECORDER
    with rec.span("pack"):
        if config.reset_on_full or any(seed.mode != SEED_COLD for seed in seeds):
            version = 4
        else:
            version = 2 if len(parts) == 1 else 3
        layout = _LAYOUTS[version]

        # Blob table: deduplicate snapshots by digest, first-reference order.
        blob_bytes: List[bytes] = []
        blob_order: Dict[str, int] = {}
        for seed in seeds:
            if seed.mode == SEED_BLOB and seed.snapshot.digest not in blob_order:
                blob_order[seed.snapshot.digest] = len(blob_bytes)
                blob_bytes.append(seed.snapshot.to_bytes())
        if len(blob_bytes) >= _NO_BLOB:
            raise ValueError(f"too many distinct seed blobs ({len(blob_bytes)})")

        entries = []
        payloads = []
        offset = 0
        width = config.code_bits
        for part, stream, seed in zip(parts, streams, seeds):
            payload = pack_codes(part.codes, width)
            if stream is None:
                stream = decode(part, seed=seed.snapshot, link=seed.link)
            entries.append(
                dict(
                    offset=offset,
                    original_bits=part.original_bits,
                    payload_bits=len(part.codes) * width,
                    num_codes=len(part.codes),
                    payload_crc=zlib.crc32(payload),
                    stream_crc=stream_digest(stream),
                    seed_mode=seed.mode,
                    blob_index=(
                        blob_order[seed.snapshot.digest]
                        if seed.mode == SEED_BLOB
                        else _NO_BLOB
                    ),
                )
            )
            payloads.append(payload)
            offset += len(payload)

        tables = []
        if layout.entry is not None:
            tables = [layout.entry.pack(**entry) for entry in entries]
            blob_offset = 0
            for blob in blob_bytes:
                tables.append(
                    layout.blob_entry.pack(
                        offset=blob_offset, length=len(blob), crc=zlib.crc32(blob)
                    )
                )
                blob_offset += len(blob)
        header = layout.header.pack(
            **(entries[0] if layout.entry is None else {}),
            magic=_MAGIC,
            version=version,
            char_bits=config.char_bits,
            dict_size=config.dict_size,
            entry_bits=config.entry_bits,
            segment_count=len(parts),
            flags=_FLAG_RESET_ON_FULL if config.reset_on_full else 0,
            blob_count=len(blob_bytes),
        )
        table_bytes = b"".join(tables)
        crc_at = layout.header.offset["header_crc"]
        header_crc = zlib.crc32(header[:crc_at] + table_bytes)
        data = b"".join(
            [
                header[:crc_at],
                struct.pack(">I", header_crc),
                table_bytes,
                *blob_bytes,
                *payloads,
            ]
        )
    if rec.enabled:
        rec.incr(ev.CONTAINER_BYTES_WRITTEN, len(data))
        rec.incr(ev.CONTAINER_SEGMENTS_WRITTEN, len(parts))
    return data


def dump_bytes(
    compressed: CompressedStream,
    stream: Optional[TernaryVector] = None,
    recorder: Optional[Recorder] = None,
) -> bytes:
    """Serialise a compressed test set to v2 container bytes.

    ``stream`` may supply the already-decoded scan stream (e.g. a
    :class:`~repro.core.pipeline.CompressionResult`'s
    ``assigned_stream``) to avoid re-decoding when computing the stream
    digest; when omitted the codes are decoded here.  ``recorder``
    collects ``container.*`` counters and a ``pack`` span.
    """
    return _pack([compressed], [stream], [COLD_SEED], recorder)


def dump_segments(
    parts: Sequence[CompressedStream],
    streams: Optional[Sequence[Optional[TernaryVector]]] = None,
    recorder: Optional[Recorder] = None,
    seeds: Optional[Sequence[SegmentSeed]] = None,
) -> bytes:
    """Serialise independently coded segments into one container.

    ``parts`` must share one :class:`LZWConfig` (they decode on the same
    hardware).  ``streams`` optionally supplies the already-decoded
    stream per segment, as in :func:`dump_bytes`.  ``seeds`` optionally
    supplies per-segment warm-dictionary seeding; any non-cold entry
    switches the output to the v4 seeded framing.  A single cold
    segment is written in the v2 format, so batch output degenerates to
    the serial container bit-for-bit when there is no sharding.
    """
    if not parts:
        raise ValueError("dump_segments needs at least one segment")
    if streams is None:
        streams = [None] * len(parts)
    if len(streams) != len(parts):
        raise ValueError("streams must align with parts")
    config = parts[0].config
    for part in parts[1:]:
        if part.config != config:
            raise ValueError("all segments must share one LZWConfig")
    if seeds is None:
        seeds = [COLD_SEED] * len(parts)
    if len(seeds) != len(parts):
        raise ValueError("seeds must align with parts")
    if any(seed.mode != SEED_COLD for seed in seeds):
        _check_seeds(parts, seeds)
    return _pack(parts, streams, seeds, recorder)


def dump_file(
    compressed: CompressedStream,
    path: Union[str, Path],
    stream: Optional[TernaryVector] = None,
    recorder: Optional[Recorder] = None,
) -> None:
    """Write a container file (``stream`` as in :func:`dump_bytes`).

    The write is atomic (tmp + fsync + rename): a killed writer leaves
    either the previous container or none, never a torn file that
    ``repro verify`` would misreport as corruption.
    """
    atomic_write_bytes(path, dump_bytes(compressed, stream, recorder))
