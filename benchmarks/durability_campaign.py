"""Crash-point durability campaign: the artefact writers and their contracts.

The ``crash`` section of ``fault_campaign.py`` replays a simulated
power cut at **every** I/O boundary of every artefact writer that
:func:`build_specs` lists (atomic v2/v3/v4 containers, the v5
streaming frame journal, the batch checkpoint journal, LZWS snapshot
blobs, fleet cache entries, metrics reports), expands each cut over the
page-cache-survival × metadata-survival grid, and classifies the
recovered state against the writer's documented contract:

* **old-or-new** for every :func:`atomic_write_bytes` artefact — the
  final path holds the complete old version or the complete new one,
  never a prefix;
* **whole-frame-prefix** for the v5 journal — salvage recovers exactly
  a frame-aligned prefix of the uninterrupted encode;
* **resume-equals-fresh** for the checkpoint journal — every entry a
  resumed run replays is byte-identical to a fresh encode of that
  shard;
* **never-serve-corrupt** for the fleet cache — a post-crash ``get``
  returns the correct container or a miss, never damaged bytes.

Every post-crash state is additionally run through ``repro fsck
--repair``: afterwards no ``corrupt``/``salvageable``/``stale_tmp``
finding may remain (repairs must verify; refusals must be typed).  A
second arm injects ``ENOSPC`` at every write/fsync and requires a typed
:class:`ReproError` (or a documented silent-advisory path, e.g. the
cache) — an untyped exception is ``escaped``.

Run it with::

    PYTHONPATH=src python benchmarks/fault_campaign.py crash \
        -o DURABILITY_report.json

Everything is deterministic — a red crash point reproduces exactly from
its ``(writer, op index, survival, meta)`` coordinates.
"""

import hashlib
import io
import json
import random
from pathlib import Path

from repro.bitstream import TernaryVector
from repro.container import (
    COLD_SEED,
    SEED_BLOB,
    SegmentSeed,
    dump_bytes,
    dump_segments,
)
from repro.core import LZWConfig, compress
from repro.core.decoder import derive_final_snapshot
from repro.fleet.cache import ResultCache
from repro.parallel.engine import ShardResult
from repro.parallel.journal import ShardJournal
from repro.reliability.atomic import DurableAppendFile, atomic_write_bytes, atomic_write_text
from repro.reliability.crashsim import CrashWriterSpec
from repro.reliability.errors import ConfigError, ContainerError
from repro.reliability.fsck import fsck_paths
from repro.reliability.salvage import salvage_container
from repro.reliability.verify import verify_container
from repro.streamio import decode_stream_bytes, write_stream

CONFIG = LZWConfig(char_bits=4, dict_size=64, entry_bits=20)
CODES_PER_FRAME = 16
JOURNAL_FINGERPRINT = hashlib.sha256(b"durability-campaign-batch").hexdigest()
CACHE_FINGERPRINT = hashlib.sha256(b"durability-campaign-entry").hexdigest()

# ----------------------------------------------------------------------
# Deterministic fixture artefacts (computed once; writers re-emit them)
# ----------------------------------------------------------------------

_RNG = random.Random(20030308)
STREAM = TernaryVector.random(600, x_density=0.7, rng=_RNG)
STREAM_B = TernaryVector.random(350, x_density=0.4, rng=_RNG)

_RESULT = compress(STREAM, CONFIG)
_RESULT_B = compress(STREAM_B, CONFIG)
V2_NEW = dump_bytes(_RESULT.compressed, _RESULT.assigned_stream)
V2_OLD = dump_bytes(_RESULT_B.compressed, _RESULT_B.assigned_stream)

V3_NEW = dump_segments(
    [_RESULT.compressed, _RESULT_B.compressed],
    streams=[_RESULT.assigned_stream, _RESULT_B.assigned_stream],
)

_SNAPSHOT = derive_final_snapshot(_RESULT.compressed.codes, CONFIG)
_SEEDED = compress(STREAM_B, CONFIG, seed=_SNAPSHOT)
V4_NEW = dump_segments(
    [_RESULT.compressed, _SEEDED.compressed],
    streams=[_RESULT.assigned_stream, _SEEDED.assigned_stream],
    seeds=[
        COLD_SEED,
        SegmentSeed(SEED_BLOB, _SNAPSHOT, None),
    ],
)

SNAP_BYTES = _SNAPSHOT.to_bytes()
REPORT_NEW = json.dumps({"schema": "repro.metrics/1", "counters": {"runs": 2}}, indent=2)
REPORT_OLD = json.dumps({"schema": "repro.metrics/1", "counters": {"runs": 1}}, indent=2)

# Checkpoint-journal shards: the campaign stream split in two, each
# compressed cold exactly as a fresh batch would.
_HALF = len(STREAM) // 2
_SHARD_STREAMS = [STREAM[:_HALF], STREAM[_HALF:]]
_SHARD_RESULTS = {}
EXPECTED_SHARD_BYTES = {}
for _i, _part in enumerate(_SHARD_STREAMS):
    _res = compress(_part, CONFIG)
    _SHARD_RESULTS[(0, _i)] = ShardResult(
        index=_i,
        compressed=_res.compressed,
        assigned_stream=_res.assigned_stream,
        stats=_res.stats,
    )
    EXPECTED_SHARD_BYTES[(0, _i)] = dump_bytes(_res.compressed, _res.assigned_stream)


_V5_SINK = io.BytesIO()
write_stream(CONFIG, [STREAM], _V5_SINK, codes_per_frame=CODES_PER_FRAME)
V5_FULL = _V5_SINK.getvalue()
V5_DECODED = decode_stream_bytes(V5_FULL)


# ----------------------------------------------------------------------
# The fsck gate every post-crash state must pass
# ----------------------------------------------------------------------

#: fsck statuses that may not survive a --repair pass.
_FSCK_BAD = ("corrupt", "salvageable", "stale_tmp")


def _fsck_gate(root: Path):
    """Run ``fsck --repair`` over the state; None when it settles clean.

    Returns a ``(outcome, detail)`` failure tuple when any
    repair-mandated status survives — repairs must verify, sweeps must
    sweep; only typed refusals and clean/quarantined artefacts remain.
    """
    report = fsck_paths([root], repair=True)
    bad = [item for item in report.items if item.status in _FSCK_BAD]
    if bad:
        return (
            "silent:fsck-left-faults",
            "; ".join(item.describe() for item in bad),
        )
    return None


def _with_fsck(root: Path, outcome: str, detail: str = ""):
    failure = _fsck_gate(root)
    if failure is not None:
        return failure
    return outcome, detail


# ----------------------------------------------------------------------
# Writer specs
# ----------------------------------------------------------------------


def _atomic_spec(name: str, filename: str, new: bytes, old: bytes = None) -> CrashWriterSpec:
    """old-or-new contract for one atomic_write_bytes artefact."""

    def setup(root):
        return {} if old is None else {filename: old}

    def write(root):
        atomic_write_bytes(root / filename, new)

    def recover(root):
        target = root / filename
        if not target.exists():
            if old is not None:
                return "silent:old-version-lost"
            return _with_fsck(root, "absent")
        data = target.read_bytes()
        if data == new:
            return _with_fsck(root, "new")
        if old is not None and data == old:
            return _with_fsck(root, "old")
        return "silent:torn-artefact", f"{len(data)} bytes, neither old nor new"

    return CrashWriterSpec(
        name=name,
        write=write,
        recover=recover,
        setup=setup,
        description=f"atomic_write_bytes old-or-new for {filename}",
    )


def _stream_spec() -> CrashWriterSpec:
    """whole-frame-prefix contract for the v5 streaming journal."""

    def write(root):
        sink = DurableAppendFile(root / "stream.lzwt")
        write_stream(CONFIG, [STREAM], sink, codes_per_frame=CODES_PER_FRAME)
        sink.close()

    def recover(root):
        target = root / "stream.lzwt"
        if not target.exists():
            return "absent", "crash before the directory entry was durable"
        data = target.read_bytes()
        try:
            partial = salvage_container(data)
        except ContainerError as exc:
            # Header unusable: nothing durable was ever claimed.  fsck
            # must still flag the stub loudly (refusal/unknown).
            failure = _fsck_gate(root)
            if failure is not None:
                return failure
            return "detected:header-unusable", exc.message
        prefix = partial.stream
        reference = V5_DECODED[: len(prefix)]
        if (
            prefix.value_mask != reference.value_mask
            or prefix.care_mask != reference.care_mask
        ):
            return "silent:non-prefix-salvage", partial.describe()
        failure = _fsck_gate(root)
        if failure is not None:
            return failure
        # After repair the artefact (if still present) must verify and
        # decode to the same prefix.
        if target.exists():
            repaired = target.read_bytes()
            if not verify_container(repaired).ok:
                return "silent:repair-does-not-verify", ""
            redecoded = decode_stream_bytes(repaired)
            ref = V5_DECODED[: len(redecoded)]
            if (
                redecoded.value_mask != ref.value_mask
                or redecoded.care_mask != ref.care_mask
            ):
                return "silent:repair-decodes-wrong", ""
        label = "complete" if partial.complete else "prefix"
        return label, partial.describe()

    return CrashWriterSpec(
        name="stream-v5-journal",
        write=write,
        recover=recover,
        description="v5 frame journal: whole-frame-prefix + fsck rebuild",
    )


def _journal_spec() -> CrashWriterSpec:
    """resume-equals-fresh contract for the checkpoint journal."""

    def write(root):
        journal = ShardJournal.open(root / "batch.ckpt", JOURNAL_FINGERPRINT)
        for (workload, shard), result in sorted(_SHARD_RESULTS.items()):
            journal.record(workload, shard, result)
        journal.close()

    def recover(root):
        target = root / "batch.ckpt"
        if not target.exists():
            return "absent", "crash before the journal file was durable"
        # Resume from a copy so the fsck gate still sees the raw state
        # (ShardJournal.open truncates a header-less file).
        copy = root / "resume.ckpt.copy"
        copy.write_bytes(target.read_bytes())
        try:
            journal = ShardJournal.open(copy, JOURNAL_FINGERPRINT, resume=True)
        except ConfigError as exc:
            copy.unlink()
            failure = _fsck_gate(root)
            if failure is not None:
                return failure
            return "detected:unusable-header", exc.message
        replayed = dict(journal.completed)
        journal.close()
        copy.unlink()
        for key, result in replayed.items():
            if key not in EXPECTED_SHARD_BYTES:
                return "silent:foreign-entry", str(key)
            fresh = EXPECTED_SHARD_BYTES[key]
            if dump_bytes(result.compressed, result.assigned_stream) != fresh:
                return "silent:resume-differs-from-fresh", str(key)
        return _with_fsck(
            root, f"replayed-{len(replayed)}", f"of {len(EXPECTED_SHARD_BYTES)} shards"
        )

    return CrashWriterSpec(
        name="checkpoint-journal",
        write=write,
        recover=recover,
        description="shard journal: resume-equals-fresh + torn-tail trim",
    )


def _cache_spec() -> CrashWriterSpec:
    """never-serve-corrupt contract for the fleet result cache."""

    def write(root):
        cache = ResultCache(root / "cache")
        cache.put(CACHE_FINGERPRINT, {"op": "compress", "ratio": 61.2}, V2_NEW)

    def recover(root):
        cache = ResultCache(root / "cache")
        hit = cache.get(CACHE_FINGERPRINT)
        if hit is not None:
            _fields, container = hit
            if container != V2_NEW:
                return "silent:served-corrupt-bytes", ""
            label = "hit"
        else:
            label = "miss"
        failure = _fsck_gate(root)
        if failure is not None:
            return failure
        stats = cache.scrub(repair=True)
        if stats["corrupt"] and stats["quarantined"] != stats["corrupt"]:
            return "silent:scrub-left-corrupt-entries", json.dumps(stats)
        return label, json.dumps(stats)

    return CrashWriterSpec(
        name="fleet-cache-entry",
        write=write,
        recover=recover,
        description="result cache: verified reads + scrub quarantine",
    )


def _snapshot_spec() -> CrashWriterSpec:
    def write(root):
        atomic_write_bytes(root / "dict.lzws", SNAP_BYTES)

    def recover(root):
        target = root / "dict.lzws"
        if not target.exists():
            return _with_fsck(root, "absent")
        if target.read_bytes() != SNAP_BYTES:
            return "silent:torn-snapshot", ""
        return _with_fsck(root, "new")

    return CrashWriterSpec(
        name="snapshot-blob",
        write=write,
        recover=recover,
        description="LZWS dictionary snapshot: old-or-new",
    )


def _report_spec() -> CrashWriterSpec:
    def setup(root):
        return {"metrics.json": REPORT_OLD.encode("utf-8")}

    def write(root):
        atomic_write_text(root / "metrics.json", REPORT_NEW)

    def recover(root):
        target = root / "metrics.json"
        if not target.exists():
            return "silent:old-version-lost", ""
        text = target.read_text(encoding="utf-8")
        if text == REPORT_NEW:
            return _with_fsck(root, "new")
        if text == REPORT_OLD:
            return _with_fsck(root, "old")
        return "silent:torn-report", ""

    return CrashWriterSpec(
        name="metrics-report",
        write=write,
        recover=recover,
        setup=setup,
        description="metrics JSON: old-or-new",
    )


def build_specs():
    return [
        _atomic_spec("atomic-v2-fresh", "fresh.lzwt", V2_NEW),
        _atomic_spec("atomic-v2-overwrite", "art.lzwt", V2_NEW, old=V2_OLD),
        _atomic_spec("atomic-v3-multi", "multi.lzwt", V3_NEW, old=V2_OLD),
        _atomic_spec("atomic-v4-seeded", "seeded.lzwt", V4_NEW),
        _stream_spec(),
        _journal_spec(),
        _cache_spec(),
        _snapshot_spec(),
        _report_spec(),
    ]
