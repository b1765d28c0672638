"""Unified deep scan/repair over every on-disk artefact (``repro fsck``).

Recovery machinery already exists per format — staged verification
(:mod:`~repro.reliability.verify`), salvage decoding
(:mod:`~repro.reliability.salvage`), the tolerant v5 scan
(:func:`~repro.streamio.scan_stream`), the checkpoint journal's
discard-torn-entries load, the fleet cache's verified reads — but an
operator staring at a directory after a crash had to know which tool
matched which file.  ``repro fsck PATH...`` is the single entry point:
it auto-detects what each path is, runs the right deep verification,
and (with ``--repair``) rewrites what can be salvaged.

Artefact kinds and their repair policies:

============== ======================================================
kind            policy
============== ======================================================
container v5    rebuild: the seal-verified frame prefix is re-sealed
                with a fresh terminal frame (torn tails and unsealed
                journals are the crash signature this format is
                designed around); dropped frames are reported
journal         trim: structurally invalid JSONL entries (torn last
                line, CRC-mismatched container blobs) are dropped and
                the file rewritten; an unreadable header is a refusal
                (the batch binding is gone)
container v1–v4 verify-only: the one-shot formats carry no redundancy
                beyond their CRCs, so a payload fault is a typed
                refusal — salvage decoding can extract the prefix, but
                fsck will not forge a container for lost data
snapshot blob   verify-only (LZWS blobs are atomic artefacts; a CRC
                fault is a refusal)
cache entry     quarantine: a corrupt entry is moved aside — the cache
                re-encodes on the next miss, the bad bytes are kept
                for forensics
stale tmp       sweep: ``*.tmp.*`` leftovers from crashed atomic
                writers are reported and (with ``--repair``) removed
============== ======================================================

Every repair is itself crash-safe: the original is preserved as
``<name>.quarantine`` and the replacement goes through
:func:`~repro.reliability.atomic.atomic_write_bytes` — fsck dying
mid-repair can only leave the quarantined original plus a tmp file a
second fsck sweeps.  A rebuilt artefact is re-verified before it is
installed; a rebuild that does not verify is a refusal, never a write.
Clean artefacts are **byte-neutral**: fsck never rewrites a file that
passes verification, with or without ``--repair``.

Exit codes follow ``repro verify``: 0 everything clean (or repaired),
3 only unrecognised/unreadable paths, 4 integrity faults remain
(unrepaired, or repair refused).
"""

from __future__ import annotations

import base64
import binascii
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .atomic import atomic_write_bytes
from .errors import ContainerError, ReproError, SnapshotError
from .verify import verify_container

__all__ = [
    "FsckItem",
    "FsckReport",
    "fsck_paths",
    "detect_kind",
]

#: Statuses that leave a fault on disk (drive exit code 4).
_FAULT_STATUSES = frozenset({"corrupt", "salvageable", "stale_tmp", "refused"})
#: Statuses meaning fsck could not even classify the path (exit 3).
_UNKNOWN_STATUSES = frozenset({"unknown", "unreadable"})


@dataclass(frozen=True)
class FsckItem:
    """One scanned path: what it is, what state it is in, what was done.

    ``status`` vocabulary: ``clean`` (verifies; byte-neutral),
    ``salvageable`` (fault found, a repair is available — dry run),
    ``corrupt`` (fault found, repairability unknown/none),
    ``repaired`` (rewritten; original at ``.quarantine``),
    ``swept`` (stale tmp removed), ``stale_tmp`` (reported, not
    removed), ``quarantined`` (an earlier repair's ``.quarantine``
    artefact — informational), ``refused`` (fault found and repair is
    refused: no redundancy to rebuild from), ``unreadable`` (I/O error),
    ``unknown`` (no artefact kind matched).
    """

    path: str
    kind: str
    status: str
    detail: str = ""
    notes: Tuple[str, ...] = ()
    churned: int = 0  #: bytes rewritten into the path (0 = untouched)

    @property
    def is_fault(self) -> bool:
        return self.status in _FAULT_STATUSES

    def describe(self) -> str:
        flag = "FAULT" if self.is_fault else "ok   "
        line = f"{flag} {self.path} [{self.kind}] {self.status}"
        if self.detail:
            line += f": {self.detail}"
        return line


@dataclass
class FsckReport:
    """Everything one fsck invocation found and did."""

    items: List[FsckItem] = field(default_factory=list)
    repair: bool = False
    scrub_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0

    @property
    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for item in self.items:
            counts[item.status] = counts.get(item.status, 0) + 1
        return counts

    @property
    def exit_code(self) -> int:
        if any(item.is_fault for item in self.items):
            return 4
        if any(item.status in _UNKNOWN_STATUSES for item in self.items):
            return 3
        return 0

    def to_json(self) -> dict:
        return {
            "schema": "repro.fsck/1",
            "ok": self.ok,
            "exit_code": self.exit_code,
            "repair": self.repair,
            "counts": self.counts,
            "items": [
                {
                    "path": item.path,
                    "kind": item.kind,
                    "status": item.status,
                    "detail": item.detail,
                    "notes": list(item.notes),
                    "churned": item.churned,
                }
                for item in self.items
            ],
            "scrub": self.scrub_stats,
        }

    def describe(self) -> str:
        lines = [item.describe() for item in self.items]
        for directory, stats in sorted(self.scrub_stats.items()):
            summary = ", ".join(f"{k}={v}" for k, v in sorted(stats.items()))
            lines.append(f"scrub {directory}: {summary}")
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        lines.append(f"{'PASS' if self.ok else 'FAIL'} ({counts or 'nothing scanned'})")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Kind detection
# ----------------------------------------------------------------------


def detect_kind(path: Path, data: bytes) -> str:
    """Classify a file by name and content (see the module table)."""
    name = path.name
    if name.endswith(".quarantine"):
        return "quarantine"
    if ".tmp." in name:
        return "tmp"
    if name.endswith(".entry"):
        return "cache-entry"
    if data[:4] == b"LZWT" and len(data) >= 5:
        return f"container-v{data[4]}"
    if data[:4] == b"LZWS":
        return "snapshot"
    first_line = data.split(b"\n", 1)[0]
    if first_line[:1] == b"{":
        try:
            head = json.loads(first_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            head = None
        if isinstance(head, dict) and head.get("kind") == "header" and "fingerprint" in head:
            return "journal"
    if data[:1] in (b"{", b"["):
        try:
            json.loads(data.decode("utf-8"))
            return "report"
        except (UnicodeDecodeError, json.JSONDecodeError):
            pass
    return "unknown"


# ----------------------------------------------------------------------
# Per-kind deep checks and rebuilds
# ----------------------------------------------------------------------


def _rebuild_stream(data: bytes) -> Tuple[bytes, Tuple[str, ...]]:
    """Rebuild a v5 journal from its seal-verified frame prefix.

    Raises :class:`ContainerError` when the stream header itself is
    unusable (nothing to anchor a rebuild to).  Returns the rebuilt
    container bytes and human-readable notes on what was dropped.
    """
    from ..core.stream import StreamDecoder
    from ..streamio import (
        V5_HEADER_SIZE,
        _FrameWalk,
        frame_seal,
        scan_stream,
        terminal_frame_bytes,
    )

    scan = scan_stream(data)  # raises only for an unusable header
    walk = _FrameWalk(scan.config)
    kept = [frame for frame, _chars in walk.verified(scan.frames)]
    notes: List[str] = []
    if walk.fault is not None:
        notes.append(f"{walk.fault.message}; dropped")
    dropped = len(scan.frames) - len(kept)
    if dropped > 1:
        notes.append(f"frames after the first fault dropped ({dropped} total)")
    if scan.error is not None:
        reason = getattr(scan.error, "reason", None) or "structural"
        notes.append(f"tail unparseable past frame {len(scan.frames) - 1} ({reason})")
    if kept:
        last = kept[-1]
        # The writer's terminal seal equals the last frame's (no codes
        # are pushed between the final data frame and finalize), so the
        # kept prefix's own header fields are the rebuild's totals —
        # no re-derivation that could diverge from the writer.
        terminal = terminal_frame_bytes(
            len(kept),
            sum(frame.num_codes for frame in kept),
            last.original_bits_cum,
            last.chain_crc,
            last.dict_digest,
        )
        body = data[V5_HEADER_SIZE : kept[-1].end_offset]
    else:
        terminal = terminal_frame_bytes(
            0, 0, 0, 0, frame_seal(StreamDecoder(scan.config).snapshot(), 0)
        )
        body = b""
        notes.append("no complete frame survived; resealed as an empty stream")
    rebuilt = data[:V5_HEADER_SIZE] + body + terminal
    return rebuilt, tuple(notes)


def _journal_lines(data: bytes) -> Tuple[bytes, List[bytes], List[str]]:
    """Split a journal, validate entries; returns (header, kept, notes).

    Raises :class:`ContainerError` when the header line is unreadable
    or is not a shard-journal header — without the batch fingerprint
    binding there is nothing safe to rebuild.
    """
    lines = data.split(b"\n")
    terminated = lines and lines[-1] == b""
    if terminated:
        lines = lines[:-1]
    if not lines:
        raise ContainerError("journal is empty", reason="journal_header")
    try:
        header = json.loads(lines[0].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ContainerError(
            "journal header line is unreadable; the batch binding is lost",
            reason="journal_header",
        ) from None
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise ContainerError(
            "not a shard-journal file (bad header)", reason="journal_header"
        )
    kept: List[bytes] = []
    notes: List[str] = []
    for number, raw in enumerate(lines[1:], start=2):
        try:
            record = json.loads(raw.decode("utf-8"))
            if not isinstance(record, dict) or record.get("kind") != "shard":
                raise ValueError("not a shard entry")
            container = base64.b64decode(record["container"], validate=True)
            if zlib.crc32(container) != record["crc"]:
                raise ValueError("container CRC mismatch")
        except (
            UnicodeDecodeError,
            json.JSONDecodeError,
            KeyError,
            ValueError,
            TypeError,
            binascii.Error,
        ) as exc:
            notes.append(f"line {number}: invalid entry dropped ({exc})")
            continue
        kept.append(raw)
    if not terminated and not notes:
        notes.append("journal not newline-terminated (torn final write)")
    return lines[0], kept, notes


def _check_cache_entry(path: Path, data: bytes) -> Optional[str]:
    """None when the entry verifies, else a fault description."""
    from ..fleet.cache import parse_entry

    try:
        _, container = parse_entry(path.name[: -len(".entry")], data)
    except ContainerError as exc:
        return exc.message
    report = verify_container(container)
    if not report.ok:
        failed = [check.name for check in report.checks if not check.ok]
        return f"stored container fails verification ({', '.join(failed)})"
    return None


# ----------------------------------------------------------------------
# Per-path inspection
# ----------------------------------------------------------------------


def _quarantine_and_replace(path: Path, rebuilt: bytes) -> None:
    """Install a repair crash-safely: keep the original, write atomically."""
    os.replace(path, path.with_name(path.name + ".quarantine"))
    atomic_write_bytes(path, rebuilt)


def _inspect_file(path: Path, repair: bool) -> FsckItem:
    try:
        data = path.read_bytes()
    except OSError as exc:
        return FsckItem(str(path), "unreadable", "unreadable", detail=str(exc))
    kind = detect_kind(path, data)

    if kind == "quarantine":
        return FsckItem(
            str(path), kind, "quarantined", detail="kept for forensics"
        )

    if kind == "tmp":
        if repair:
            try:
                path.unlink()
            except OSError as exc:
                return FsckItem(str(path), kind, "stale_tmp", detail=str(exc))
            return FsckItem(
                str(path), kind, "swept", detail="stale temp file removed"
            )
        return FsckItem(
            str(path),
            kind,
            "stale_tmp",
            detail="leftover from a crashed atomic write (--repair removes)",
        )

    if kind.startswith("container-"):
        return _inspect_container(path, data, kind, repair)

    if kind == "snapshot":
        return _inspect_snapshot(path, data, kind)

    if kind == "journal":
        return _inspect_journal(path, data, kind, repair)

    if kind == "cache-entry":
        fault = _check_cache_entry(path, data)
        if fault is None:
            return FsckItem(str(path), kind, "clean")
        if repair:
            try:
                os.replace(path, path.with_name(path.name + ".quarantine"))
            except OSError as exc:
                return FsckItem(str(path), kind, "corrupt", detail=str(exc))
            return FsckItem(
                str(path),
                kind,
                "repaired",
                detail=f"{fault}; entry quarantined (cache re-encodes on miss)",
            )
        return FsckItem(str(path), kind, "salvageable", detail=fault)

    if kind == "report":
        return FsckItem(str(path), kind, "clean", detail="well-formed JSON")

    return FsckItem(
        str(path), kind, "unknown", detail="no artefact signature matched"
    )


def _inspect_container(path: Path, data: bytes, kind: str, repair: bool) -> FsckItem:
    report = verify_container(data)
    if report.ok:
        return FsckItem(str(path), kind, "clean")
    failed = [check.name for check in report.checks if not check.ok]
    detail = f"fails {', '.join(failed)}"
    if not report.recognised:
        # Carries our magic but cannot be parsed as any container
        # version: a torn header stub from an interrupted append-journal
        # (atomic writers never leave torn finals).  There is nothing to
        # rebuild from, so --repair moves it aside for forensics.
        if not repair:
            return FsckItem(str(path), kind, "corrupt", detail=detail)
        os.replace(path, path.with_name(path.name + ".quarantine"))
        return FsckItem(
            str(path),
            kind,
            "quarantined",
            detail=f"{detail}; unparseable header stub moved aside",
        )

    if report.version == 5:
        try:
            rebuilt, notes = _rebuild_stream(data)
        except ContainerError as exc:
            return FsckItem(
                str(path),
                kind,
                "refused",
                detail=f"{detail}; rebuild refused: {exc.message}",
            )
        if not verify_container(rebuilt).ok:
            return FsckItem(
                str(path),
                kind,
                "refused",
                detail=f"{detail}; rebuilt prefix does not verify",
                notes=notes,
            )
        if not repair:
            return FsckItem(
                str(path),
                kind,
                "salvageable",
                detail=f"{detail}; frame-prefix rebuild available (--repair)",
                notes=notes,
            )
        _quarantine_and_replace(path, rebuilt)
        return FsckItem(
            str(path),
            kind,
            "repaired",
            detail=f"{detail}; resealed frame prefix installed",
            notes=notes,
            churned=len(rebuilt),
        )

    # v1–v4: one-shot formats with no redundancy — a fault is a typed,
    # documented refusal (salvage decoding can still extract the
    # prefix, but fsck will not write a container for lost data).
    return FsckItem(
        str(path),
        kind,
        "refused",
        detail=(
            f"{detail}; v{report.version} carries no redundancy to rebuild "
            "from — extract the decodable prefix with salvage decoding"
        ),
    )


def _inspect_snapshot(path: Path, data: bytes, kind: str) -> FsckItem:
    from ..core.dictionary import DictionarySnapshot

    try:
        DictionarySnapshot.from_bytes(data)
    except (SnapshotError, ReproError) as exc:
        return FsckItem(
            str(path),
            kind,
            "refused",
            detail=(
                f"{exc.message}; snapshot blobs carry no redundancy — "
                "re-derive the snapshot from its source container"
            ),
        )
    return FsckItem(str(path), kind, "clean")


def _inspect_journal(path: Path, data: bytes, kind: str, repair: bool) -> FsckItem:
    try:
        header_line, kept, notes = _journal_lines(data)
    except ContainerError as exc:
        return FsckItem(
            str(path), kind, "refused", detail=f"repair refused: {exc.message}"
        )
    if not notes:
        return FsckItem(str(path), kind, "clean")
    rebuilt = b"\n".join([header_line] + kept) + b"\n"
    detail = f"{len(notes)} problem(s); {len(kept)} valid entries"
    if not repair:
        return FsckItem(
            str(path),
            kind,
            "salvageable",
            detail=f"{detail}; trimmed rewrite available (--repair)",
            notes=tuple(notes),
        )
    _quarantine_and_replace(path, rebuilt)
    return FsckItem(
        str(path),
        kind,
        "repaired",
        detail=f"{detail}; invalid entries trimmed",
        notes=tuple(notes),
        churned=len(rebuilt),
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def _scrub_cache_dir(directory: Path, repair: bool, recorder) -> Dict[str, int]:
    from ..fleet.cache import ResultCache

    cache = ResultCache(directory, recorder=recorder)
    return cache.scrub(repair=repair)


def fsck_paths(
    paths: Sequence[Union[str, Path]],
    repair: bool = False,
    scrub: bool = False,
    recorder=None,
) -> FsckReport:
    """Scan (and with ``repair`` fix) every given file or directory.

    Directories are walked recursively and every file inspected; with
    ``scrub`` a directory is instead treated as a fleet result-cache
    root and swept through :meth:`~repro.fleet.cache.ResultCache.scrub`
    (quarantining corrupt entries only when ``repair`` is also set).
    """
    report = FsckReport(repair=repair)
    for given in paths:
        given = Path(given)
        if given.is_dir():
            if scrub:
                stats = _scrub_cache_dir(given, repair, recorder)
                report.scrub_stats[str(given)] = stats
                if stats["corrupt"] and not repair:
                    status, detail = "corrupt", (
                        f"{stats['corrupt']} corrupt entries (--repair quarantines)"
                    )
                elif stats["stale_tmp"] and not repair:
                    status, detail = "stale_tmp", (
                        f"{stats['stale_tmp']} stale temp files (--repair sweeps)"
                    )
                elif stats["corrupt"]:
                    status, detail = "repaired", (
                        f"{stats['quarantined']}/{stats['corrupt']} corrupt "
                        "entries quarantined"
                    )
                else:
                    status, detail = "clean", f"{stats['clean']} entries verified"
                report.items.append(
                    FsckItem(str(given), "cache-dir", status, detail=detail)
                )
                continue
            files = sorted(
                entry for entry in given.rglob("*") if entry.is_file()
            )
            for entry in files:
                report.items.append(_inspect_file(entry, repair))
            continue
        if not given.exists():
            report.items.append(
                FsckItem(str(given), "unreadable", "unreadable", detail="no such file")
            )
            continue
        report.items.append(_inspect_file(given, repair))
    return report
