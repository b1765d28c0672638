"""Container format v5: the crash-safe streaming frame journal.

The v2–v4 containers are one-shot artefacts: the whole payload is
packed in memory and installed atomically.  A streaming session cannot
do that — the input may be arbitrarily large and the process may die at
any point — so v5 is an *append-only frame journal*: a fixed stream
header binding the configuration, then data frames (each a bounded
slice of the code stream with its own CRCs and a dictionary-state
digest), then one terminal frame sealing the totals.  Each frame is
made durable (``flush`` + ``fsync`` via
:class:`~repro.reliability.atomic.DurableAppendFile`) before the next
begins, so a crash leaves a prefix of whole frames plus at most one
torn tail — a *resumable, salvageable* artefact, never a silent loss.

Layout (big-endian, all fixed-width)::

    stream header (19 bytes)
    0   4   magic  b"LZWT"
    4   1   format version (5)
    5   1   char_bits (C_C)
    6   4   dict_size (N)
    10  4   entry_bits (C_MDATA)
    14  1   flags (bit 0: reset_on_full)
    15  4   CRC32 of header bytes 0..15

    data frame (41-byte header + payload), repeated 0+ times
    0   1   frame type 0x01
    1   4   frame index (0-based, strictly sequential)
    5   4   code count in this frame
    9   4   payload byte length
    13  8   cumulative original_bits through this frame
    21  4   CRC32 of this frame's payload bytes
    25  4   chain CRC: running CRC32 of all data-frame payload bytes
    29  8   frame seal: first 8 bytes of SHA-256 over the decoder's
            dictionary-snapshot digest after this frame's last code,
            concatenated with the running CRC32 of every character
            decoded so far (see :func:`frame_seal`)
    37  4   CRC32 of frame-header bytes 0..37
    41  ..  payload: the codes, MSB-first, zero-padded to a byte

    terminal frame (37 bytes)
    0   1   frame type 0x02
    1   4   total data-frame count
    5   8   total code count
    13  8   total original_bits of the stream
    21  4   final chain CRC
    25  8   final frame seal (as above)
    33  4   CRC32 of frame-header bytes 0..33

The **chain CRC** makes every frame attest to the entire payload
before it, so a checksum-consistent tamper of frame *k* (payload and
its own CRCs rewritten together) is still caught by frame *k+1* or the
terminal.  The **frame seal** is the second, independent seal, and it
covers the *decoded* content: both the dictionary state and a running
CRC of the expanded characters.  The dictionary digest alone would not
do — swapping a frame's *last* code for another live code leaves the
boundary dictionary unchanged (that code's allocation happens on the
next frame's first push) while decoding to different characters, which
only the character CRC half of the seal catches.  Seals are produced
by a shadow :class:`~repro.core.stream.StreamDecoder` the writer
pushes every code through — which also means any frame boundary
doubles as a **resume point**: the snapshot the seal attests is
exactly the ``seed`` (with the frame's last code as ``link``) that a
new :class:`~repro.core.stream.StreamEncoder` continues from,
byte-identically to the uninterrupted encode.

``original_bits`` bookkeeping: a mid-stream frame's cumulative bits are
exactly ``chars_so_far * char_bits`` (no padding mid-stream); frames
flushed by ``finalize()`` clamp to the true total, because only the
finalize path appends the X-padded partial character.  The terminal's
``total_original_bits`` is authoritative for truncating the decode.

A missing terminal frame or a torn trailing frame raises a typed
:class:`ContainerError` with ``reason="torn_tail"`` /
``"missing_terminal"`` — distinguishable from mid-stream corruption
(``reason="frame_header"``/``"payload_crc"``/``"chain_crc"``/...), so
salvage knows the difference between "crashed while appending" (keep
the prefix, resume) and "bit rot in the middle" (keep the prefix,
alert).
"""

from __future__ import annotations

import hashlib
import io
import struct
import zlib
from typing import (
    BinaryIO,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .bitstream import TernaryVector, pack_codes, unpack_codes
from .core import DictionarySnapshot, LZWConfig
from .core.stream import StreamDecoder, StreamEncoder, chars_to_vector
from .observability import NULL_RECORDER, Recorder
from .observability import events as ev
from .reliability.errors import ConfigError, ContainerError, DecodeError

__all__ = [
    "FRAME_DATA",
    "FRAME_TERMINAL",
    "FRAME_DATA_HEADER_SIZE",
    "FRAME_TERMINAL_HEADER_SIZE",
    "FrameRecord",
    "StreamContainerReader",
    "StreamContainerWriter",
    "StreamScan",
    "StreamWrite",
    "TerminalRecord",
    "V5_HEADER_CRC_OFFSET",
    "V5_HEADER_SIZE",
    "VERSION_STREAM",
    "DATA_PAYLOAD_CRC_OFFSET",
    "DATA_CHAIN_CRC_OFFSET",
    "DATA_HEADER_CRC_OFFSET",
    "decode_stream_bytes",
    "frame_seal",
    "iter_decode_stream",
    "iter_raw_bytes",
    "pack_chars",
    "pack_frame_payload",
    "raw_chunks",
    "read_stream_header",
    "scan_stream",
    "stream_header_bytes",
    "terminal_frame_bytes",
    "write_stream",
]

_MAGIC = b"LZWT"
VERSION_STREAM = 5

_HEADER_V5 = struct.Struct(">4sBBIIBI")
_FRAME_DATA_HEADER = struct.Struct(">BIIIQII8sI")
_FRAME_TERMINAL_HEADER = struct.Struct(">BIQQI8sI")

V5_HEADER_SIZE = _HEADER_V5.size  # 19
V5_HEADER_CRC_OFFSET = 15
FRAME_DATA_HEADER_SIZE = _FRAME_DATA_HEADER.size  # 41
FRAME_TERMINAL_HEADER_SIZE = _FRAME_TERMINAL_HEADER.size  # 37

FRAME_DATA = 0x01
FRAME_TERMINAL = 0x02

# Offsets *within a data-frame header* (for the fault injectors, which
# build checksum-consistent corruptions).
DATA_PAYLOAD_CRC_OFFSET = 21
DATA_CHAIN_CRC_OFFSET = 25
DATA_HEADER_CRC_OFFSET = 37

_FLAG_RESET_ON_FULL = 0x01

#: Default codes per data frame: with 16-bit codes this is ~8 KiB of
#: payload per fsync — small enough to bound loss, large enough that
#: the fsync amortises.
DEFAULT_CODES_PER_FRAME = 4096


def pack_chars(chars: Sequence[int]) -> bytes:
    """Canonical byte form of decoded characters (for the seal CRC)."""
    return struct.pack(f">{len(chars)}I", *chars) if chars else b""


def frame_seal(snapshot: DictionarySnapshot, chars_crc: int) -> bytes:
    """The 8-byte frame seal over the decoded content so far.

    Covers the dictionary state *and* a running CRC32 of every decoded
    character, so a tamper that decodes through the same dictionary to
    different characters (e.g. a frame's last code swapped for another
    live code) is still caught.
    """
    return hashlib.sha256(
        bytes.fromhex(snapshot.digest) + chars_crc.to_bytes(4, "big")
    ).digest()[:8]


def pack_frame_payload(codes: Sequence[int], code_bits: int) -> bytes:
    """Pack codes MSB-first, zero-padded to a byte boundary."""
    return pack_codes(codes, code_bits)


def stream_header_bytes(config: LZWConfig) -> bytes:
    """The 19-byte v5 stream header binding the configuration."""
    without_crc = _HEADER_V5.pack(
        _MAGIC,
        VERSION_STREAM,
        config.char_bits,
        config.dict_size,
        config.entry_bits,
        _FLAG_RESET_ON_FULL if config.reset_on_full else 0,
        0,
    )
    crc = zlib.crc32(without_crc[:V5_HEADER_CRC_OFFSET])
    return without_crc[:V5_HEADER_CRC_OFFSET] + struct.pack(">I", crc)


def _parse_stream_header(data: bytes) -> Tuple[LZWConfig, Optional[ContainerError]]:
    """Read a v5 stream header: its configuration and its integrity fault.

    Raises :class:`ContainerError` when the bytes are not a v5 header
    at all (cut short, wrong magic or version, invalid configuration).
    A CRC mismatch or unknown flag bits come back as the fault instead,
    so a verifier can report a recognised header that fails its check.
    """
    if len(data) < V5_HEADER_SIZE:
        raise ContainerError(
            "truncated v5 stream header",
            byte_offset=len(data),
            reason="torn_tail",
        )
    if data[:4] != _MAGIC:
        raise ContainerError(f"bad magic {data[:4]!r}", byte_offset=0, field="magic")
    if data[4] != VERSION_STREAM:
        raise ContainerError(
            f"not a streaming (v5) container (version {data[4]})",
            byte_offset=4,
            field="version",
        )
    _, _, char_bits, dict_size, entry_bits, flags, header_crc = _HEADER_V5.unpack_from(
        data
    )
    try:
        config = LZWConfig(
            char_bits=char_bits,
            dict_size=dict_size,
            entry_bits=entry_bits,
            reset_on_full=bool(flags & _FLAG_RESET_ON_FULL),
        )
    except ConfigError as exc:
        raise ContainerError(
            f"invalid configuration in stream header: {exc.message}",
            field=getattr(exc, "field", None),
        ) from None
    actual = zlib.crc32(data[:V5_HEADER_CRC_OFFSET])
    if actual != header_crc:
        return config, ContainerError(
            "stream header CRC mismatch (corrupted header)",
            byte_offset=V5_HEADER_CRC_OFFSET,
            expected=header_crc,
            actual=actual,
            reason="header_crc",
        )
    if flags & ~_FLAG_RESET_ON_FULL:
        return config, ContainerError(
            f"unknown stream header flags 0x{flags:02x}",
            byte_offset=V5_HEADER_CRC_OFFSET - 1,  # the byte before the CRC
            field="flags",
        )
    return config, None


def read_stream_header(data: bytes) -> LZWConfig:
    """Parse and check a v5 stream header; returns the config."""
    config, fault = _parse_stream_header(data)
    if fault is not None:
        raise fault
    return config


def terminal_frame_bytes(
    frame_count: int,
    total_codes: int,
    total_original_bits: int,
    chain_crc: int,
    seal: bytes,
) -> bytes:
    """The 37-byte terminal frame sealing the given totals.

    The writer's :meth:`StreamContainerWriter.finalize` emits exactly
    this; it is public so repair (``repro fsck --repair``) can re-seal
    a verified frame prefix after a torn tail is cut away.
    """
    without_crc = _FRAME_TERMINAL_HEADER.pack(
        FRAME_TERMINAL,
        frame_count,
        total_codes,
        total_original_bits,
        chain_crc,
        seal,
        0,
    )
    crc = zlib.crc32(without_crc[: FRAME_TERMINAL_HEADER_SIZE - 4])
    return without_crc[: FRAME_TERMINAL_HEADER_SIZE - 4] + struct.pack(">I", crc)


class FrameRecord(NamedTuple):
    """One structurally validated data frame."""

    index: int
    num_codes: int
    original_bits_cum: int
    payload_crc: int
    chain_crc: int
    dict_digest: bytes
    codes: Tuple[int, ...]
    header_offset: int
    end_offset: int


class TerminalRecord(NamedTuple):
    """The parsed terminal frame sealing the stream."""

    frame_count: int
    total_codes: int
    total_original_bits: int
    chain_crc: int
    dict_digest: bytes
    header_offset: int
    end_offset: int


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------


class StreamContainerWriter:
    """Incremental v5 writer: buffer codes, emit durable frames.

    ``sink`` is anything with ``write(bytes)``; when it also has a
    ``sync()`` method (:class:`DurableAppendFile`), it is called after
    the header and after every frame, making each frame durable before
    the next begins.  The writer keeps a *shadow decoder* it pushes
    every code through — the source of the per-frame dictionary digests
    and cumulative original-bits, and a continuous proof that the
    encoder's output decodes (a code the shadow rejects raises
    immediately instead of poisoning the artefact).
    """

    def __init__(
        self,
        config: LZWConfig,
        sink,
        codes_per_frame: int = DEFAULT_CODES_PER_FRAME,
        recorder: Optional[Recorder] = None,
    ) -> None:
        if codes_per_frame < 1:
            raise ValueError("codes_per_frame must be >= 1")
        self.config = config
        self.sink = sink
        self.codes_per_frame = codes_per_frame
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._shadow = StreamDecoder(config)
        self._pending: List[int] = []
        self._frame_index = 0
        self._total_codes = 0
        self._chain_crc = 0
        self._chars_crc = 0
        self._total_bits: Optional[int] = None
        self._finished = False
        self._bytes_written = 0
        header = stream_header_bytes(config)
        self._emit(header)
        self._sync()

    def _emit(self, data: bytes) -> None:
        self.sink.write(data)
        self._bytes_written += len(data)

    def _sync(self) -> None:
        sync = getattr(self.sink, "sync", None)
        if sync is not None:
            sync()

    def write_codes(self, codes: Iterable[int]) -> int:
        """Buffer codes; flush every full frame.  Returns frames flushed."""
        if self._finished:
            raise RuntimeError("write_codes() after finalize()")
        self._pending.extend(codes)
        flushed = 0
        while len(self._pending) >= self.codes_per_frame:
            frame = self._pending[: self.codes_per_frame]
            del self._pending[: self.codes_per_frame]
            self._flush_frame(frame)
            flushed += 1
        return flushed

    def finalize(
        self, final_codes: Iterable[int], total_original_bits: int
    ) -> None:
        """Flush the remaining codes and seal with the terminal frame.

        ``total_original_bits`` is the exact bit count fed to the
        encoder (``StreamEncoder.original_bits`` after its own
        ``finalize()``) — frames flushed here clamp their cumulative
        bits to it, because only the finalize path carries the X-padded
        partial character.
        """
        if self._finished:
            raise RuntimeError("finalize() called twice")
        self._pending.extend(final_codes)
        self._total_bits = total_original_bits
        while self._pending:
            frame = self._pending[: self.codes_per_frame]
            del self._pending[: self.codes_per_frame]
            self._flush_frame(frame)
        self._emit(
            terminal_frame_bytes(
                self._frame_index,
                self._total_codes,
                total_original_bits,
                self._chain_crc,
                frame_seal(self._shadow.snapshot(), self._chars_crc),
            )
        )
        self._sync()
        self._finished = True
        if self.recorder.enabled:
            self.recorder.incr(ev.CONTAINER_BYTES_WRITTEN, self._bytes_written)

    def _flush_frame(self, codes: Sequence[int]) -> None:
        shadow = self._shadow
        chars: List[int] = []
        try:
            shadow.decode_into(codes, chars)
        except DecodeError as exc:
            raise ContainerError(
                f"encoder emitted an undecodable code: {exc.message}",
                frame=self._frame_index,
            ) from exc
        # CRC32 is incremental over concatenation: one call per frame
        # gives the same running value as one per code.
        self._chars_crc = zlib.crc32(pack_chars(chars), self._chars_crc)
        cum_bits = shadow.chars_decoded * self.config.char_bits
        if self._total_bits is not None:
            cum_bits = min(cum_bits, self._total_bits)
        payload = pack_frame_payload(codes, self.config.code_bits)
        self._chain_crc = zlib.crc32(payload, self._chain_crc)
        header_wo_crc = _FRAME_DATA_HEADER.pack(
            FRAME_DATA,
            self._frame_index,
            len(codes),
            len(payload),
            cum_bits,
            zlib.crc32(payload),
            self._chain_crc,
            frame_seal(shadow.snapshot(), self._chars_crc),
            0,
        )
        crc = zlib.crc32(header_wo_crc[: FRAME_DATA_HEADER_SIZE - 4])
        self._emit(
            header_wo_crc[: FRAME_DATA_HEADER_SIZE - 4]
            + struct.pack(">I", crc)
            + payload
        )
        self._sync()
        self._frame_index += 1
        self._total_codes += len(codes)
        if self.recorder.enabled:
            self.recorder.incr(ev.STREAM_FRAMES_WRITTEN)


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------


class StreamContainerReader:
    """Incremental v5 reader over a binary file object.

    Validates structure as it goes — header CRCs, payload CRCs, the
    chain CRC, frame-index sequencing — and raises a typed
    :class:`ContainerError` at the first problem, with ``reason``
    distinguishing a torn tail (``"torn_tail"``, the crash signature)
    from mid-stream corruption and a clean-but-unsealed journal
    (``"missing_terminal"``).  Dictionary digests are *not* checked
    here (they need a decode); :func:`iter_decode_stream` checks them.
    """

    def __init__(self, fh: BinaryIO, recorder: Optional[Recorder] = None) -> None:
        self._fh = fh
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._offset = 0
        header = self._read_exact(V5_HEADER_SIZE, "stream header")
        self.config = read_stream_header(header)
        self._chain_crc = 0
        self._next_index = 0
        self._total_codes = 0
        self.terminal: Optional[TerminalRecord] = None

    def _read_exact(self, n: int, what: str) -> bytes:
        data = self._fh.read(n)
        if len(data) < n:
            raise ContainerError(
                f"torn tail: {what} cut short at byte "
                f"{self._offset + len(data)} (expected {n} bytes)",
                byte_offset=self._offset + len(data),
                reason="torn_tail",
            )
        self._offset += n
        return data

    def frames(self) -> Iterable[FrameRecord]:
        """Yield data frames in order; stops after the terminal frame.

        Iterate to exhaustion and then check :attr:`terminal`; a torn
        or corrupt journal raises mid-iteration.
        """
        while True:
            frame = self.read_frame()
            if frame is None:
                return
            yield frame

    def read_frame(self) -> Optional[FrameRecord]:
        """Read one data frame; returns None once the stream is sealed."""
        if self.terminal is not None:
            return None
        head_offset = self._offset
        lead = self._fh.read(1)
        if not lead:
            raise ContainerError(
                "stream ends without a terminal frame (unsealed journal)",
                byte_offset=self._offset,
                reason="missing_terminal",
            )
        self._offset += 1
        frame_type = lead[0]
        if frame_type == FRAME_DATA:
            rest = self._read_exact(
                FRAME_DATA_HEADER_SIZE - 1, f"frame[{self._next_index}] header"
            )
            header = lead + rest
            (
                _,
                index,
                num_codes,
                payload_len,
                cum_bits,
                payload_crc,
                chain_crc,
                dict_digest,
                header_crc,
            ) = _FRAME_DATA_HEADER.unpack(header)
            actual = zlib.crc32(header[: FRAME_DATA_HEADER_SIZE - 4])
            if actual != header_crc:
                raise ContainerError(
                    f"frame[{self._next_index}] header CRC mismatch",
                    byte_offset=head_offset,
                    expected=header_crc,
                    actual=actual,
                    frame=self._next_index,
                    reason="frame_header",
                )
            if index != self._next_index:
                raise ContainerError(
                    f"frame index {index} out of sequence "
                    f"(expected {self._next_index})",
                    byte_offset=head_offset,
                    frame=self._next_index,
                    reason="frame_sequence",
                )
            expected_len = (num_codes * self.config.code_bits + 7) // 8
            if payload_len != expected_len:
                raise ContainerError(
                    f"frame[{index}] declares {payload_len} payload bytes "
                    f"for {num_codes} codes (expected {expected_len})",
                    byte_offset=head_offset,
                    frame=index,
                    reason="frame_header",
                )
            payload = self._read_exact(payload_len, f"frame[{index}] payload")
            actual_crc = zlib.crc32(payload)
            if actual_crc != payload_crc:
                raise ContainerError(
                    f"frame[{index}] payload CRC mismatch",
                    byte_offset=head_offset + FRAME_DATA_HEADER_SIZE,
                    expected=payload_crc,
                    actual=actual_crc,
                    frame=index,
                    reason="payload_crc",
                )
            self._chain_crc = zlib.crc32(payload, self._chain_crc)
            if self._chain_crc != chain_crc:
                raise ContainerError(
                    f"frame[{index}] chain CRC mismatch (an earlier frame "
                    "was altered after writing)",
                    byte_offset=head_offset + DATA_CHAIN_CRC_OFFSET,
                    expected=chain_crc,
                    actual=self._chain_crc,
                    frame=index,
                    reason="chain_crc",
                )
            codes = unpack_codes(payload, num_codes, self.config.code_bits)
            self._next_index += 1
            self._total_codes += num_codes
            if self.recorder.enabled:
                self.recorder.incr(ev.STREAM_FRAMES_READ)
            return FrameRecord(
                index=index,
                num_codes=num_codes,
                original_bits_cum=cum_bits,
                payload_crc=payload_crc,
                chain_crc=chain_crc,
                dict_digest=dict_digest,
                codes=codes,
                header_offset=head_offset,
                end_offset=self._offset,
            )
        if frame_type == FRAME_TERMINAL:
            rest = self._read_exact(FRAME_TERMINAL_HEADER_SIZE - 1, "terminal frame")
            header = lead + rest
            (
                _,
                frame_count,
                total_codes,
                total_bits,
                chain_crc,
                dict_digest,
                header_crc,
            ) = _FRAME_TERMINAL_HEADER.unpack(header)
            actual = zlib.crc32(header[: FRAME_TERMINAL_HEADER_SIZE - 4])
            if actual != header_crc:
                raise ContainerError(
                    "terminal frame header CRC mismatch",
                    byte_offset=head_offset,
                    expected=header_crc,
                    actual=actual,
                    reason="frame_header",
                )
            if frame_count != self._next_index:
                raise ContainerError(
                    f"terminal declares {frame_count} frames, read "
                    f"{self._next_index}",
                    byte_offset=head_offset,
                    expected=frame_count,
                    actual=self._next_index,
                    reason="terminal_mismatch",
                )
            if total_codes != self._total_codes:
                raise ContainerError(
                    f"terminal declares {total_codes} codes, read "
                    f"{self._total_codes}",
                    byte_offset=head_offset,
                    expected=total_codes,
                    actual=self._total_codes,
                    reason="terminal_mismatch",
                )
            if chain_crc != self._chain_crc:
                raise ContainerError(
                    "terminal chain CRC mismatch (a data frame was altered "
                    "after writing)",
                    byte_offset=head_offset,
                    expected=chain_crc,
                    actual=self._chain_crc,
                    reason="chain_crc",
                )
            trailing = self._fh.read(1)
            if trailing:
                raise ContainerError(
                    "data past the terminal frame",
                    byte_offset=self._offset,
                    reason="trailing_data",
                )
            self.terminal = TerminalRecord(
                frame_count=frame_count,
                total_codes=total_codes,
                total_original_bits=total_bits,
                chain_crc=chain_crc,
                dict_digest=dict_digest,
                header_offset=head_offset,
                end_offset=self._offset,
            )
            return None
        raise ContainerError(
            f"unknown frame type 0x{frame_type:02x}",
            byte_offset=head_offset,
            reason="frame_type",
        )


# ----------------------------------------------------------------------
# Whole-container operations (scan / decode)
# ----------------------------------------------------------------------


class StreamScan(NamedTuple):
    """Tolerant structural scan of a v5 container.

    ``frames`` holds every structurally valid frame before the first
    problem; ``error`` is the typed failure that stopped the scan (None
    for a clean, sealed journal).  Dictionary digests are not checked
    by the scan — decode-level salvage does that.
    """

    config: LZWConfig
    frames: Tuple[FrameRecord, ...]
    terminal: Optional[TerminalRecord]
    error: Optional[ContainerError]


def scan_stream(data: bytes) -> StreamScan:
    """Scan container bytes, collecting frames until the first fault."""
    reader = StreamContainerReader(io.BytesIO(data))
    frames: List[FrameRecord] = []
    error: Optional[ContainerError] = None
    try:
        for frame in reader.frames():
            frames.append(frame)
    except ContainerError as exc:
        error = exc
    return StreamScan(
        config=reader.config,
        frames=tuple(frames),
        terminal=reader.terminal,
        error=error,
    )


class _FrameWalk:
    """The one v5 frame walk: decode each frame, check its seal and
    cumulative original bits, then check the terminal.

    Feed the data frames in order to :meth:`step` (or iterate
    :meth:`verified`) and the terminal to :meth:`finish`.  The first
    fault lands in :attr:`fault` as a typed :class:`ContainerError`
    (``reason`` ``frame_decode``, ``dict_digest`` or
    ``original_bits``; an undecodable code's :class:`DecodeError` is
    its ``__cause__``).  Past it the decoder state has diverged, so
    each caller — strict decode, verify, salvage, fsck rebuild —
    decides only what to do at that point.
    """

    def __init__(self, config: LZWConfig, recorder: Optional[Recorder] = None) -> None:
        self.config = config
        self.decoder = StreamDecoder(config, recorder=recorder)
        self.chars_crc = 0
        self.last_cum_bits = 0
        self.fault: Optional[ContainerError] = None

    def step(self, frame: FrameRecord) -> Tuple[int, ...]:
        """Decode one frame; returns its characters (a prefix on a fault)."""
        decoder = self.decoder
        chars: List[int] = []
        try:
            decoder.decode_into(frame.codes, chars)
        except DecodeError as exc:
            self.fault = ContainerError(
                f"frame[{frame.index}] undecodable: {exc.message}",
                frame=frame.index,
                reason="frame_decode",
            )
            self.fault.__cause__ = exc
            return tuple(chars)
        chars_crc = zlib.crc32(pack_chars(chars), self.chars_crc)
        actual_seal = frame_seal(decoder.snapshot(), chars_crc)
        char_bits = self.config.char_bits
        cum_bits = decoder.chars_decoded * char_bits
        # Mid-stream frames carry exact cumulative bits; only the very
        # last frame may clamp below chars*char_bits (the X-padded
        # partial character), by strictly less than one character.
        diff = cum_bits - frame.original_bits_cum
        if actual_seal != frame.dict_digest:
            self.fault = ContainerError(
                f"frame[{frame.index}] seal mismatch "
                "(decoded content diverges from the writer's)",
                frame=frame.index,
                expected=frame.dict_digest.hex(),
                actual=actual_seal.hex(),
                reason="dict_digest",
            )
        elif (
            diff < 0
            or diff >= char_bits
            or frame.original_bits_cum < self.last_cum_bits
        ):
            self.fault = ContainerError(
                f"frame[{frame.index}] cumulative original_bits "
                f"{frame.original_bits_cum} inconsistent with decode "
                f"({cum_bits} bits decoded)",
                frame=frame.index,
                expected=cum_bits,
                actual=frame.original_bits_cum,
                reason="original_bits",
            )
        else:
            self.chars_crc = chars_crc
            self.last_cum_bits = frame.original_bits_cum
        return tuple(chars)

    def verified(
        self, frames: Iterable[FrameRecord]
    ) -> Iterator[Tuple[FrameRecord, Tuple[int, ...]]]:
        """Yield ``(frame, chars)`` per frame that verifies, up to the first fault."""
        for frame in frames:
            chars = self.step(frame)
            if self.fault is not None:
                return
            yield frame, chars

    def finish(self, terminal: TerminalRecord) -> Optional[ContainerError]:
        """The terminal's fault: its seal or its total bits disagree."""
        actual_seal = frame_seal(self.decoder.snapshot(), self.chars_crc)
        if actual_seal != terminal.dict_digest:
            return ContainerError(
                "terminal seal mismatch",
                expected=terminal.dict_digest.hex(),
                actual=actual_seal.hex(),
                reason="dict_digest",
            )
        total_bits = terminal.total_original_bits
        decoded_bits = self.decoder.chars_decoded * self.config.char_bits
        if not 0 <= decoded_bits - total_bits < self.config.char_bits:
            return ContainerError(
                f"terminal declares {total_bits} original bits, decode "
                f"produced {decoded_bits}",
                expected=total_bits,
                actual=decoded_bits,
                reason="original_bits",
            )
        return None


def iter_decode_stream(
    reader: StreamContainerReader, recorder: Optional[Recorder] = None
):
    """Decode a v5 stream frame by frame, yielding character tuples.

    Yields one ``(chars, frame)`` pair per data frame, where ``chars``
    is the tuple of character values that frame's codes expanded to.
    Each frame's seal (dictionary digest + decoded-character CRC) and
    cumulative original-bits are verified as it is decoded; the
    terminal's seal and totals are verified at the end.  Bounded
    memory: only one frame's codes and expansions are live at a time.
    """
    walk = _FrameWalk(reader.config, recorder)
    for frame, chars in walk.verified(reader.frames()):
        yield chars, frame
    fault = walk.fault or walk.finish(reader.terminal)
    if fault is not None:
        raise fault


def decode_stream_bytes(
    data: bytes, recorder: Optional[Recorder] = None
) -> TernaryVector:
    """Strict one-shot decode of a v5 container to the original stream.

    Every structural check of :class:`StreamContainerReader` plus the
    per-frame dictionary digests; any fault raises the typed
    :class:`ContainerError` (use salvage for best-effort recovery).
    """
    rec = recorder if recorder is not None else NULL_RECORDER
    if rec.enabled:
        rec.incr(ev.CONTAINER_BYTES_READ, len(data))
    reader = StreamContainerReader(io.BytesIO(data), recorder=recorder)
    all_chars: List[int] = []
    for chars, _frame in iter_decode_stream(reader, recorder=recorder):
        all_chars.extend(chars)
    total_bits = reader.terminal.total_original_bits
    stream = chars_to_vector(all_chars, reader.config.char_bits)
    return stream[:total_bits]


# ----------------------------------------------------------------------
# The front door: chunks in, frames out; raw bytes both ways
# ----------------------------------------------------------------------


class StreamWrite(NamedTuple):
    """What :func:`write_stream` fed and wrote."""

    original_bits: int
    chunks: int
    frames: int
    bytes_written: int


def write_stream(
    config: LZWConfig,
    chunks: Iterable[TernaryVector],
    sink,
    codes_per_frame: int = DEFAULT_CODES_PER_FRAME,
    recorder: Optional[Recorder] = None,
    cancel: Optional[object] = None,
) -> StreamWrite:
    """Encode ``chunks`` through one encoder into one sealed v5 journal.

    The one hand-off from :class:`StreamEncoder` to
    :class:`StreamContainerWriter`, sealed with the encoder's own
    ``original_bits``; the bytes never depend on how the input is cut.
    ``cancel`` (any object with a raising ``check()``) is checked
    before every chunk and before the seal; ``recorder`` also counts
    ``stream.chunks_fed``.
    """
    rec = recorder if recorder is not None else NULL_RECORDER
    encoder = StreamEncoder(config, recorder=rec, cancel=cancel)
    writer = StreamContainerWriter(config, sink, codes_per_frame, rec)
    fed = 0
    for chunk in chunks:
        if cancel is not None:
            cancel.check()
        writer.write_codes(encoder.feed(chunk))
        fed += 1
        if rec.enabled:
            rec.incr(ev.STREAM_CHUNKS_FED)
    if cancel is not None:
        cancel.check()
    writer.finalize(encoder.finalize(), encoder.original_bits)
    return StreamWrite(
        encoder.original_bits, fed, writer._frame_index, writer._bytes_written
    )


def raw_chunks(source, chunk_bytes: int) -> Iterator[TernaryVector]:
    """Raw bytes in: a bytes object or binary file, ``chunk_bytes`` at a time.

    Bit *i* of the stream is bit *i* of the little-endian byte string:
    every bit is a care bit (X-density 0, where the X-aware encoder is
    classical LZW).
    """
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    while True:
        buf = source.read(chunk_bytes)
        if not buf:
            return
        yield TernaryVector.from_int(int.from_bytes(buf, "little"), len(buf) * 8)


def iter_raw_bytes(
    reader: StreamContainerReader, recorder: Optional[Recorder] = None
) -> Iterator[bytes]:
    """Raw bytes out: the inverse of :func:`raw_chunks`, frame by frame.

    Never emits past a frame's attested ``original_bits_cum`` (the
    final frame's X-padded partial character stays behind) and
    zero-pads only a final partial byte.  Once exhausted,
    ``reader.terminal`` holds the sealed totals.
    """
    char_bits = reader.config.char_bits
    acc = acc_bits = emitted_bits = 0
    for chars, frame in iter_decode_stream(reader, recorder=recorder):
        acc |= chars_to_vector(chars, char_bits).value_mask << acc_bits
        acc_bits += len(chars) * char_bits
        nbytes = min(acc_bits, frame.original_bits_cum - emitted_bits) // 8
        if nbytes:
            yield (acc & ((1 << (nbytes * 8)) - 1)).to_bytes(nbytes, "little")
            acc >>= nbytes * 8
            acc_bits -= nbytes * 8
            emitted_bits += nbytes * 8
    tail_bits = reader.terminal.total_original_bits - emitted_bits
    if tail_bits > 0:
        acc &= (1 << tail_bits) - 1
        yield acc.to_bytes((tail_bits + 7) // 8, "little")
