"""Content-addressed, integrity-verified cache of compressed containers.

Regression-test traffic repeats itself: the same cube sets get
compressed with the same configs over and over.  The cache turns those
repeats into zero-encode-cost replays — *iff* a hit can be trusted.
The durability story is therefore the whole design:

* **keying** — entries are addressed by the request's workload
  fingerprint (op + canonical config + payload bytes, see
  :func:`~repro.fleet.router.workload_fingerprint`), so a hit is by
  construction the answer to this exact request;
* **writes** — every entry goes through
  :func:`~repro.reliability.atomic.atomic_write_bytes` (tmp + fsync +
  rename), so a crash mid-write leaves no torn entry to find later;
* **reads** — every hit is re-verified before replay: the entry's own
  CRC over the stored container, then the container's header + payload
  CRCs (and, with ``deep_verify``, a full decode against the stored
  stream digest).  A failed check unlinks the entry, bumps
  ``fleet.cache_corrupt`` and reports a miss — corrupt bytes are
  *never* served;
* **bounding** — the entry count is capped.  An in-process index
  keeps the entries oldest first (built from one mtime-ordered scan
  when the cache opens, then moved by every write and hit), and a
  write that takes the cache over its bound evicts from the front of
  it, so a write never rescans the directory.  The bound is this
  process's: entries another process writes are counted when this one
  reopens the cache or hits them.

An entry file is one JSON metadata line (reply fields + container CRC)
followed by the raw container bytes.  Only ``compress`` results are
cached: they are deterministic pure functions of the fingerprint, and
they are the expensive op the fleet exists to absorb.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..container import load_seeded
from ..observability import NULL_RECORDER, Recorder
from ..observability import events as ev
from ..reliability.atomic import atomic_write_bytes
from ..reliability.errors import ContainerError, ReproError

__all__ = ["ResultCache", "parse_entry"]

#: Entry filename suffix (anything else in the tree is ignored).
_SUFFIX = ".entry"


def parse_entry(fingerprint: str, data: bytes) -> Tuple[Dict[str, Any], bytes]:
    """Split one entry file into ``(reply fields, container bytes)``.

    The entry's own framing only (metadata line, key, container CRC,
    fields); its first fault raises :class:`ContainerError` naming it.
    """
    newline = data.find(b"\n")
    if newline < 0:
        raise ContainerError("no metadata line")
    try:
        meta = json.loads(data[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ContainerError("metadata line unreadable") from None
    if not isinstance(meta, dict) or meta.get("fingerprint") != fingerprint:
        raise ContainerError(
            "fingerprint mismatch (entry does not answer its own key)"
        )
    container = data[newline + 1 :]
    if meta.get("crc") != zlib.crc32(container):
        raise ContainerError("container CRC mismatch")
    fields = meta.get("fields")
    if not isinstance(fields, dict):
        raise ContainerError("reply fields missing")
    return fields, container


def _mtime(path: Path) -> float:
    try:
        return path.stat().st_mtime
    except OSError:
        return 0.0


class ResultCache:
    """Bounded on-disk cache of ``(reply fields, container bytes)``.

    Thread-safe; every public method tolerates a concurrently-mutated
    directory (entries vanishing underneath it are treated as misses,
    never as errors).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        max_entries: int = 1024,
        recorder: Optional[Recorder] = None,
        deep_verify: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.max_entries = max(1, int(max_entries))
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.deep_verify = deep_verify
        self._lock = threading.Lock()
        self.directory.mkdir(parents=True, exist_ok=True)
        # Entry paths, oldest first: the order the mtimes say.
        self._order: "OrderedDict[Path, None]" = OrderedDict(
            (path, None) for path in sorted(self._entries(), key=_mtime)
        )

    def _path_for(self, fingerprint: str) -> Path:
        # Two-level fan-out keeps any one directory small.
        return self.directory / fingerprint[:2] / f"{fingerprint}{_SUFFIX}"

    # -- reads ---------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[Tuple[Dict[str, Any], bytes]]:
        """A verified ``(fields, container)`` hit, or ``None`` (miss).

        Any integrity failure — torn metadata, CRC mismatch, container
        that no longer parses — quarantines the entry (unlink + the
        ``fleet.cache_corrupt`` counter) and reports a miss.
        """
        path = self._path_for(fingerprint)
        try:
            data = path.read_bytes()
        except (FileNotFoundError, OSError):
            return None
        entry = self._verify(fingerprint, data)
        if entry is None:
            self._quarantine(path)
            return None
        try:
            os.utime(path)  # LRU-ish: refresh the eviction clock on hits
        except OSError:
            return entry
        self._touch(path)
        return entry

    def _verify(
        self, fingerprint: str, data: bytes
    ) -> Optional[Tuple[Dict[str, Any], bytes]]:
        try:
            fields, container = parse_entry(fingerprint, data)
            # Any v1–v4 layout: a seeded compress replies with v4.
            # verify=False still checks the header and payload CRCs;
            # deep_verify additionally decodes the stream and checks
            # the stored digest (catches CRC-preserving tampering).
            load_seeded(container, verify=self.deep_verify)
        except (ContainerError, ReproError, ValueError):
            return None
        return fields, container

    def _quarantine(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
        with self._lock:
            self._order.pop(path, None)
        if self.recorder.enabled:
            self.recorder.incr(ev.FLEET_CACHE_CORRUPT)

    # -- scrubbing -----------------------------------------------------

    def scrub(self, repair: bool = False) -> Dict[str, int]:
        """Sweep every entry through the read-side verifier.

        The background-scrubber entry point behind ``repro fsck
        --scrub``: bit rot is found *now*, on the operator's schedule,
        instead of at the next unlucky ``get``.  Corrupt entries bump
        ``fleet.cache_corrupt`` and — with ``repair`` — are moved aside
        to ``<entry>.quarantine`` (kept for forensics, invisible to
        ``get``); without ``repair`` they are only counted, so a
        dry-run scrub never mutates the cache.  Stale ``*.tmp.*``
        leftovers from crashed writers are swept the same way.

        Returns counters: ``scanned`` / ``clean`` / ``corrupt`` /
        ``quarantined`` / ``stale_tmp``.
        """
        stats = {
            "scanned": 0,
            "clean": 0,
            "corrupt": 0,
            "quarantined": 0,
            "stale_tmp": 0,
        }
        for path in sorted(self._entries()):
            stats["scanned"] += 1
            fingerprint = path.name[: -len(_SUFFIX)]
            try:
                data = path.read_bytes()
            except OSError:
                continue  # vanished underneath us: not corruption
            if self._verify(fingerprint, data) is not None:
                stats["clean"] += 1
                continue
            stats["corrupt"] += 1
            if self.recorder.enabled:
                self.recorder.incr(ev.FLEET_CACHE_CORRUPT)
            if repair:
                try:
                    os.replace(path, path.with_name(path.name + ".quarantine"))
                    stats["quarantined"] += 1
                except OSError:
                    continue
                with self._lock:
                    self._order.pop(path, None)
        try:
            tmp_files = [
                path
                for path in self.directory.glob("*/*.tmp.*")
                if path.is_file()
            ]
        except OSError:
            tmp_files = []
        for path in sorted(tmp_files):
            stats["stale_tmp"] += 1
            if repair:
                try:
                    path.unlink()
                except OSError:
                    pass
        return stats

    # -- writes --------------------------------------------------------

    def put(self, fingerprint: str, fields: Dict[str, Any], container: bytes) -> None:
        """Store one result; failures are silent (the cache is advisory)."""
        meta = {
            "fingerprint": fingerprint,
            "crc": zlib.crc32(container),
            "fields": {
                key: value
                for key, value in fields.items()
                if key not in ("id", "ok", "code", "payload_len")
            },
        }
        line = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
        path = self._path_for(fingerprint)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(path, line + b"\n" + container)
        except (ContainerError, OSError):
            return  # full/readonly disk: the backend result still flows
        self._touch(path)

    def _entries(self):
        try:
            return [
                path
                for path in self.directory.glob(f"*/*{_SUFFIX}")
                if path.is_file()
            ]
        except OSError:
            return []

    def _touch(self, path: Path) -> None:
        """Mark ``path`` newest; evict the oldest entries over the bound."""
        evicted = 0
        with self._lock:
            order = self._order
            order[path] = None
            order.move_to_end(path)
            while len(order) > self.max_entries:
                oldest, _ = order.popitem(last=False)
                try:
                    oldest.unlink()
                    evicted += 1
                except OSError:
                    pass  # already gone (fsck, scrub, another process)
        if evicted and self.recorder.enabled:
            self.recorder.incr(ev.FLEET_CACHE_EVICTIONS, evicted)

    def __len__(self) -> int:
        return len(self._entries())
