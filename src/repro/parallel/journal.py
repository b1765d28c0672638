"""Shard-completion journal: checkpoint/resume for long batch runs.

A multi-workload batch that dies (machine reboot, OOM, operator
Ctrl-C) used to restart from zero.  The journal is an append-only JSONL
file the engine writes one entry to per completed shard, keyed by
``(workload, shard)``; a resumed run replays valid entries instead of
re-encoding.

Safety properties:

* **binding** — the file opens with a header carrying a fingerprint of
  the batch identity (streams, configs, shard plans).  Resuming against
  a journal written for *different* inputs is a typed
  :class:`~repro.reliability.errors.ConfigError`, never a silent mix;
* **integrity** — each entry stores the shard's serialised v2 container
  plus its CRC32; entries whose CRC does not match (torn write, disk
  corruption) are discarded on load and the shard is re-encoded — the
  journal is a cache, recomputation is always the authority;
* **determinism** — a replayed shard is bit-identical to a re-encoded
  one (the container bytes *are* the encoding), so a killed-then-resumed
  batch reproduces the exact bytes of an uninterrupted run;
* **crash-consistency** — entries are one line each, flushed as
  written; a run killed mid-write loses at most the torn last line.

Worker metrics snapshots ride along in each entry so a resumed
instrumented run still merges the same per-shard counters.
"""

from __future__ import annotations

import base64
import binascii
import errno
import hashlib
import json
import zlib
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from ..bitstream import TernaryVector
from ..container import dump_bytes, load_bytes
from ..core.config import LZWConfig
from ..core.decoder import decode
from ..core.dictionary import DictionarySnapshot
from ..core.encoder import CompressedStream, EncodeStats
from ..reliability.atomic import current_backend
from ..reliability.errors import (
    ConfigError,
    ContainerError,
    DecodeError,
    SnapshotError,
)
from .seeding import COLD_PLAN, SeedPlan
from .shard import ShardPlan
from .worker import ShardResult

__all__ = ["ShardJournal", "batch_fingerprint"]

_JOURNAL_VERSION = 2


#: A journal key: (workload index, shard index).
Key = Tuple[int, int]


def batch_fingerprint(
    configs: Sequence[LZWConfig],
    streams: Sequence[TernaryVector],
    plans: Sequence[ShardPlan],
    seed_plan: Optional[SeedPlan] = None,
) -> str:
    """Hex digest of a batch's identity: inputs, configs, plans, seeding.

    Any change to a stream's bits, a config parameter affecting the
    emitted bytes, a shard cut or the **seed plan** changes the
    fingerprint, so a journal can never be replayed against a batch it
    was not written for.  The seed-plan identity is folded in
    unconditionally: journals from before seeding existed (whose
    fingerprints omit it) are invalidated rather than silently mixing
    cold shards into a warm batch.
    """
    seed_plan = seed_plan if seed_plan is not None else COLD_PLAN
    digest = hashlib.sha256()
    digest.update(f"seed={seed_plan.identity}".encode())
    for config, stream, plan in zip(configs, streams, plans):
        digest.update(
            f"|{config.char_bits}:{config.dict_size}:{config.entry_bits}"
            f":{config.policy}:{config.lookahead}:{config.lookahead_budget}"
            f":{int(config.reset_on_full)}|"
            f"{plan.total_bits}:{','.join(map(str, plan.cuts))}|"
            f"{len(stream)}".encode()
        )
        nbytes = (len(stream) + 7) // 8
        digest.update(stream.value_mask.to_bytes(nbytes, "little"))
        digest.update(stream.care_mask.to_bytes(nbytes, "little"))
    return digest.hexdigest()


class ShardJournal:
    """Append-only shard-completion log bound to one batch identity.

    Use :meth:`open`; entries live in :attr:`completed` as
    :class:`~repro.parallel.worker.ShardResult` objects, the same type
    a pool worker returns.
    """

    def __init__(self, path: Path, fingerprint: str) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.completed: Dict[Key, "object"] = {}
        self._handle = None
        self._fs = None

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        fingerprint: str,
        resume: bool = False,
    ) -> "ShardJournal":
        """Open (and with ``resume`` replay) a journal file.

        Without ``resume`` any existing file is truncated and a fresh
        header written.  With ``resume``, a file whose header
        fingerprint disagrees with this batch raises
        :class:`ConfigError`; a missing file starts fresh.
        """
        journal = cls(Path(path), fingerprint)
        if resume and journal.path.exists():
            journal._load()
        # Binary handles through the FSBackend seam so the crash-point
        # harness can interpose a simulated disk under journal appends.
        journal._fs = current_backend()
        journal._handle = journal._fs.open(
            journal.path, "ab" if journal.completed else "wb"
        )
        if not journal.completed:
            journal._write_line(
                {
                    "kind": "header",
                    "version": _JOURNAL_VERSION,
                    "fingerprint": fingerprint,
                }
            )
        return journal

    # -- persistence ---------------------------------------------------

    def _write_line(self, record: dict) -> None:
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        # fsync per entry: a completed shard recorded here must survive
        # the very crash the journal exists for.  ENOSPC/EACCES surface
        # as typed ContainerErrors like every other artefact write.
        try:
            self._handle.write(line)
            self._handle.flush()
            self._fs.fsync(self._handle)
        except OSError as exc:
            if exc.errno in (errno.ENOSPC, errno.EDQUOT, errno.EACCES, errno.EROFS):
                raise ContainerError(
                    f"cannot write checkpoint journal {self.path}: {exc.strerror}",
                    path=str(self.path),
                    errno=errno.errorcode.get(exc.errno, exc.errno),
                ) from exc
            raise

    def _load(self) -> None:
        lines = self.path.read_text(encoding="utf-8").splitlines()
        if not lines:
            return
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            raise ConfigError(
                "checkpoint journal header is unreadable", field="checkpoint"
            ) from None
        if header.get("kind") != "header" or header.get("version") != _JOURNAL_VERSION:
            raise ConfigError(
                "not a shard-journal file (bad header)",
                field="checkpoint",
                value=str(self.path),
            )
        if header.get("fingerprint") != self.fingerprint:
            raise ConfigError(
                "checkpoint journal was written for a different batch "
                "(streams, configs or shard plans changed)",
                field="checkpoint",
                expected=self.fingerprint,
                actual=header.get("fingerprint"),
            )
        for line in lines[1:]:
            entry = self._parse_entry(line)
            if entry is None:
                continue  # torn or corrupted entry: recompute that shard
            key, result = entry
            self.completed[key] = result

    def _parse_entry(self, line: str):
        try:
            record = json.loads(line)
            if record.get("kind") != "shard":
                return None
            container = base64.b64decode(record["container"], validate=True)
            if zlib.crc32(container) != record["crc"]:
                return None
            seed: Optional[DictionarySnapshot] = None
            if record.get("seed"):
                seed = DictionarySnapshot.from_bytes(
                    base64.b64decode(record["seed"], validate=True)
                )
            link = record.get("link")
            cold = seed is None and link is None
            # A seeded shard's stored v2 digest covers its *seeded*
            # decode; load raw and decode under the recorded seed, so a
            # corrupt seed/link simply discards the entry and the shard
            # is re-encoded.  A cold shard's verified load already holds
            # its decode, which decode(loaded) returns.
            loaded = load_bytes(container, verify=cold)
            compressed = CompressedStream(
                loaded.codes,
                loaded.config,
                loaded.original_bits,
                tuple(record.get("expansion_chars", ())),
            )
            key = (int(record["workload"]), int(record["shard"]))
            final_state = None
            if record.get("final_state"):
                final_state = base64.b64decode(record["final_state"], validate=True)
            result = ShardResult(
                index=key[1],
                compressed=compressed,
                assigned_stream=decode(loaded, seed=seed, link=link),
                stats=EncodeStats(**record["stats"]),
                metrics=record.get("metrics"),
                seed_mode=int(record.get("seed_mode", 0)),
                seed=seed,
                link=link,
                final_state=final_state,
            )
        except (
            KeyError,
            ValueError,
            TypeError,
            binascii.Error,
            ContainerError,
            DecodeError,
            SnapshotError,
        ):
            return None
        return key, result

    def record(self, workload: int, shard: int, result) -> None:
        """Append one completed shard (flushed immediately)."""
        container = dump_bytes(result.compressed, result.assigned_stream)
        entry = {
            "kind": "shard",
            "workload": workload,
            "shard": shard,
            "crc": zlib.crc32(container),
            "container": base64.b64encode(container).decode("ascii"),
            "expansion_chars": list(result.compressed.expansion_chars),
            "stats": asdict(result.stats),
            "metrics": result.metrics,
        }
        if result.seed_mode:
            entry["seed_mode"] = result.seed_mode
            entry["link"] = result.link
            if result.seed is not None:
                entry["seed"] = base64.b64encode(result.seed.to_bytes()).decode("ascii")
        if result.final_state is not None:
            entry["final_state"] = base64.b64encode(result.final_state).decode("ascii")
        self._write_line(entry)
        self.completed[(workload, shard)] = result

    def close(self) -> None:
        """Close the underlying file handle."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ShardJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
