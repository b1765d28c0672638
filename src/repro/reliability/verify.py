"""Staged container integrity verification (the ``repro verify`` engine).

Runs the checks a ``.lzwt`` container must pass, in dependency order,
and reports each one individually instead of stopping at the first
typed exception — an operator debugging a bad ATE archive wants to know
*all* of what is wrong, not just the first failure:

1. **header** — magic, version, parsable and valid configuration, and
   (multi-segment layouts) complete segment and blob tables;
2. **header-crc** — the header checksum over the header and its tables
   (``not present`` for v1);
3. **blob[i] crc** / **blob[i] parse** — each stored seed snapshot;
4. per segment, the stages of the container's one segment walk
   (:func:`repro.container._walk`): **seed** (warm segments only),
   **payload-crc**, **decode** and **stream-digest** (``not present``
   for v1).  v1/v2 containers hold one segment and name its stages
   bare; later layouts prefix them ``segment[i]`` so a corrupted shard
   is reported by index.  Each stage is judged on its own bytes: a
   broken header CRC fails ``header-crc`` and nothing else;
5. **coverage** — optional: the decoded stream covers a reference cube
   stream (full round-trip verification).

Streaming (v5) frame journals run ``frame[i] payload-crc`` /
``frame[i] decode`` stages per frame plus a ``terminal`` stage that
fails for an unsealed journal, over the v5 frame walk (see
:func:`_verify_stream`).

The report distinguishes *not a container* (bad magic / truncated
header / unknown version → CLI exit 3) from *recognised but failing
integrity* (→ CLI exit 4).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..bitstream import TernaryVector
from ..container import (
    SEED_BLOB,
    SEED_CHAIN,
    _MAGIC,
    _header_crc_fault,
    _parse_header,
    _parse_tables,
    _resolve_blobs,
    _stage_name,
    _walk,
)
from ..observability import NULL_RECORDER, Recorder, metrics_snapshot
from ..observability import events as ev
from .errors import ContainerError, ReproError, SnapshotError

__all__ = ["Check", "VerifyReport", "verify_container"]


@dataclass(frozen=True)
class Check:
    """One verification stage: name, pass/fail and a detail line."""

    name: str
    ok: bool
    detail: str

    def describe(self) -> str:
        return f"{'ok  ' if self.ok else 'FAIL'} {self.name}: {self.detail}"


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of all verification stages for one container."""

    checks: Tuple[Check, ...]
    recognised: bool
    version: Optional[int] = None
    config_summary: Optional[str] = None
    num_codes: Optional[int] = None
    original_bits: Optional[int] = None
    segments: Optional[int] = None
    #: Recorder snapshot (versioned metrics envelope) when
    #: :func:`verify_container` ran with a recorder attached — the
    #: decode counters and per-stage spans that accompany a failure
    #: diagnosis.  ``None`` when no recorder was supplied.
    metrics: Optional[dict] = None

    @property
    def ok(self) -> bool:
        """True when every stage passed."""
        return all(check.ok for check in self.checks)

    @property
    def exit_code(self) -> int:
        """Documented process exit status: 0 ok, 3 not a container, 4 integrity."""
        if self.ok:
            return 0
        return 4 if self.recognised else 3

    def describe(self) -> str:
        lines = []
        if self.recognised:
            codes = "?" if self.num_codes is None else self.num_codes
            seg = "" if self.segments is None else f"{self.segments} segments, "
            lines.append(
                f"container v{self.version}: {self.config_summary}, "
                f"{seg}{codes} codes, {self.original_bits} original bits"
            )
        lines.extend(check.describe() for check in self.checks)
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def verify_container(
    data: bytes,
    original: Optional[TernaryVector] = None,
    recorder: Optional[Recorder] = None,
) -> VerifyReport:
    """Verify container bytes stage by stage; never raises for bad data.

    ``original`` enables the final coverage stage: the decoded stream
    must reproduce every specified bit of the given cube stream.
    Multi-segment containers get per-segment stages named
    ``segment[i] ...`` so the failing shard is identified by index.
    ``recorder`` collects per-stage ``verify.*`` spans plus the decode
    and container counters; its snapshot lands on
    :attr:`VerifyReport.metrics` so failure diagnostics carry the
    counter state at the point things went wrong.
    """
    rec = recorder if recorder is not None else NULL_RECORDER
    metrics = (lambda: metrics_snapshot(rec) if rec.enabled else None)
    if len(data) >= 5 and data[:4] == _MAGIC and data[4] == 5:
        return _verify_stream(data, original, rec, metrics)
    try:
        with rec.span("verify.header"):
            layout, fields, config = _parse_header(data)
    except ContainerError as exc:
        return VerifyReport(
            checks=(Check("header", False, str(exc)),),
            recognised=False,
            metrics=metrics(),
        )
    version = fields["version"]
    count = fields.get("segment_count")
    try:
        model = _parse_tables(data, layout, fields, config)
    except ContainerError as exc:
        return VerifyReport(
            checks=(Check("header", False, str(exc)),),
            recognised=True,
            version=version,
            config_summary=config.describe(),
            segments=count,
            metrics=metrics(),
        )
    if rec.enabled:
        rec.incr(ev.CONTAINER_BYTES_READ, len(data))
        rec.incr(ev.CONTAINER_SEGMENTS_READ, len(model.segments))

    detail = f"v{version}, {config.describe()}"
    if not model.single:
        detail += f", {count} segments"
    if layout.blob_entry is not None:
        detail += f", {len(model.blobs)} seed blobs"
    checks = [Check("header", True, detail)]
    fault = _header_crc_fault(model)
    if model.header_crc is None:
        detail = f"not present (v{version} container)"
        checks.append(Check("header-crc", True, detail))
    else:
        detail = str(fault) if fault else f"{model.header_crc:#010x} matches"
        checks.append(Check("header-crc", fault is None, detail))

    blobs = _resolve_blobs(model)
    for index, blob in enumerate(blobs):
        # A SnapshotError passed the CRC and failed the parse or replay.
        crc_ok = not isinstance(blob, ReproError) or isinstance(blob, SnapshotError)
        crc = f"{model.blobs[index].crc:#010x} matches" if crc_ok else str(blob)
        checks.append(Check(f"blob[{index}] crc", crc_ok, crc))
        if isinstance(blob, SnapshotError):
            checks.append(Check(f"blob[{index}] parse", False, str(blob)))
        elif crc_ok:
            detail = f"{len(blob)} entries, digest {blob.digest[:12]}"
            checks.append(Check(f"blob[{index}] parse", True, detail))

    streams = []
    for step in _walk(model, blobs, recorder=rec, span="verify."):
        checks.extend(_step_checks(model, step))
        streams.append(step.stream if step.error is None else None)

    if original is not None and all(stream is not None for stream in streams):
        checks.append(_coverage(TernaryVector.concat_all(streams), original, rec))

    return VerifyReport(
        checks=tuple(checks),
        recognised=True,
        version=version,
        config_summary=config.describe(),
        num_codes=sum(entry.num_codes for entry in model.segments),
        original_bits=sum(entry.original_bits for entry in model.segments),
        segments=None if model.single else len(model.segments),
        metrics=metrics(),
    )


def _step_checks(model, step) -> List[Check]:
    """The checks of one walked segment, up to its first failing stage."""
    entry = step.entry
    if entry.stream_crc is None:
        digest = f"not present (v{model.version} container)"
    else:
        digest = f"{entry.stream_crc:#010x} matches the decode"
    stages = [
        ("payload-crc", f"{entry.num_codes} codes, crc {entry.payload_crc:#010x}"),
        ("decode", f"{len(step.codes)} codes -> {len(step.stream or ())} bits"),
        ("stream-digest", digest),
    ]
    if step.stage == "seed":
        stages.insert(0, ("seed", ""))
    elif entry.seed_mode == SEED_BLOB:
        stages.insert(0, ("seed", f"blob {entry.blob_index}, {len(step.seed)} entries"))
    elif entry.seed_mode == SEED_CHAIN:
        detail = (
            f"chained from segment {step.index - 1}, "
            f"{len(step.seed)} entries, link {step.link}"
        )
        stages.insert(0, ("seed", detail))
    checks = []
    for stage, detail in stages:
        name = _stage_name(model, step.index, stage)
        if stage == step.stage:
            checks.append(Check(name, False, str(step.error)))
            break
        checks.append(Check(name, True, detail))
    return checks


def _coverage(decoded: TernaryVector, original: TernaryVector, rec: Recorder) -> Check:
    with rec.span("verify.coverage"):
        covers = decoded.covers(original)
    if covers:
        detail = f"covers all {original.care_count} specified bits"
        return Check("coverage", True, detail)
    return Check("coverage", False, "decoded stream does not cover original")


def _verify_stream(
    data: bytes, original: Optional[TernaryVector], rec: Recorder, metrics
) -> VerifyReport:
    """Staged verification of a streaming (v5) frame journal.

    After the header stages, every data frame gets a
    ``frame[i] payload-crc`` stage (header CRC, payload CRC, chain CRC,
    index sequencing) and a ``frame[i] decode`` stage (the v5 frame
    walk's seal and cumulative original-bits checks).  The walk stops
    at the first *framing* fault — the chain structure means nothing
    after a torn or corrupt frame can be trusted — and a journal
    without a terminal frame fails the ``terminal`` stage (unsealed:
    the crash-before-finalize signature).
    """
    from ..core.stream import chars_to_vector
    from ..streamio import StreamContainerReader, _FrameWalk, _parse_stream_header

    try:
        config, fault = _parse_stream_header(data)
    except ContainerError as exc:
        return VerifyReport(
            checks=(Check("header", False, str(exc)),),
            recognised=False,
            version=5,
            metrics=metrics(),
        )
    checks = [Check("header", True, f"v5 streaming, {config.describe()}")]
    detail = str(fault) if fault else "matches"
    checks.append(Check("header-crc", fault is None, detail))
    if fault is not None:
        return VerifyReport(
            checks=tuple(checks),
            recognised=True,
            version=5,
            config_summary=config.describe(),
            metrics=metrics(),
        )

    reader = StreamContainerReader(io.BytesIO(data), recorder=rec)
    walk = _FrameWalk(config, rec)
    chars: list = []
    framing_ok = True
    total_codes = 0
    frame_count = 0
    with rec.span("verify.frames"):
        while True:
            try:
                frame = reader.read_frame()
            except ContainerError as exc:
                name = f"frame[{frame_count}] payload-crc"
                checks.append(Check(name, False, str(exc)))
                framing_ok = False
                break
            if frame is None:
                break
            frame_count += 1
            total_codes += frame.num_codes
            name = f"frame[{frame.index}]"
            checks.append(
                Check(
                    f"{name} payload-crc",
                    True,
                    f"{frame.num_codes} codes, chain {frame.chain_crc:#010x}",
                )
            )
            if walk.fault is not None:
                checks.append(
                    Check(
                        f"{name} decode",
                        False,
                        "not attempted (decoder state diverged earlier)",
                    )
                )
                continue
            frame_chars = walk.step(frame)
            if walk.fault is not None:
                checks.append(Check(f"{name} decode", False, str(walk.fault)))
                continue
            checks.append(
                Check(
                    f"{name} decode",
                    True,
                    f"{frame.num_codes} codes -> {len(frame_chars)} chars",
                )
            )
            chars.extend(frame_chars)

    terminal = reader.terminal
    if framing_ok:
        if walk.fault is not None:
            checks.append(
                Check("terminal", False, "not attempted (a frame failed to decode)")
            )
        else:
            fault = walk.finish(terminal)
            checks.append(
                Check(
                    "terminal",
                    fault is None,
                    str(fault)
                    if fault
                    else f"{terminal.frame_count} frames, {terminal.total_codes} "
                    f"codes, {terminal.total_original_bits} original bits",
                )
            )

    if original is not None and all(check.ok for check in checks):
        decoded = chars_to_vector(chars, config.char_bits)
        checks.append(
            _coverage(decoded[: terminal.total_original_bits], original, rec)
        )

    return VerifyReport(
        checks=tuple(checks),
        recognised=True,
        version=5,
        config_summary=config.describe(),
        num_codes=total_codes,
        original_bits=terminal.total_original_bits if terminal is not None else None,
        segments=frame_count,
        metrics=metrics(),
    )
