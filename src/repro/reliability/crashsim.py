"""Crash-point injection: prove the durability contracts, don't assert them.

Every artefact writer in the package claims a recovery contract —
old-or-new for :func:`~repro.reliability.atomic.atomic_write_bytes`,
whole-frame-prefix for the v5 journal, resume-equals-fresh for the
checkpoint journal, never-serve-corrupt for the fleet cache.  This
module *demonstrates* those claims: it runs the real writer code over a
simulated disk (:class:`CrashFS`, installed through the
:class:`~repro.reliability.atomic.FSBackend` seam), enumerates a power
cut at **every** I/O boundary the writer crosses, and materialises the
post-crash filesystem for a recovery check.

Power-cut model
---------------

The simulated disk distinguishes three durability tiers, mirroring
what a journalling filesystem actually guarantees:

* **durable** bytes — written *and* covered by an ``fsync`` of the
  file; they survive any crash;
* **volatile** bytes — written but not yet fsynced; a crash may keep
  *any prefix* of them (the page cache flushes out of order and
  sector-at-a-time).  Each crash point is therefore expanded along a
  survival axis: ``none`` (all volatile bytes lost), ``half`` (a torn
  prefix), ``all`` (the cache happened to flush);
* **pending metadata** — renames, unlinks and file creations not yet
  covered by a directory fsync (or, for creation/content, an fsync of
  the file itself).  Each crash point is expanded along a metadata
  axis: ``lost`` (pending operations rolled back — the lost-rename
  case) and ``kept``.

``open(..., "wb")`` models truncation as immediately durable (the
conservative direction for old-or-new checks: the *old* content is
gone the moment a writer truncates in place, which is exactly why
``atomic_write_bytes`` never does).  A crash raises
:class:`SimulatedCrash` — a ``BaseException``, because a power cut
does not run ``except Exception`` cleanup handlers; once crashed the
disk freezes and every later operation is inert, so ``finally``
blocks in writer code cannot alter the post-crash state.

Besides crashes, :class:`CrashFS` injects *environmental* failures
(``fail_at``/``fail_errno``): the scheduled operation raises e.g.
``ENOSPC`` and the writer keeps running — this drives the
disk-full-mid-append campaign arm, where the contract is a typed
:class:`~repro.reliability.errors.ContainerError` plus an artefact
that still honours its recovery contract.

The states reached from different crash points frequently coincide
(every ``flush`` boundary, for instance, is indistinguishable from the
preceding ``write``).  :func:`run_crash_campaign` deduplicates states
by content digest and runs recovery once per *unique* state, while the
report still accounts for every enumerated point.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .atomic import FSBackend, use_backend
from .campaign import FAILING, CampaignResult, Trial, TrialOutcome, judge, label_outcome
from .errors import ReproError

__all__ = [
    "CrashFS",
    "CrashPoint",
    "CrashWriterSpec",
    "SimulatedCrash",
    "enumerate_crash_points",
    "run_crash_campaign",
    "DATA_SURVIVAL",
    "META_SURVIVAL",
]

#: Volatile-data survival levels a power cut is expanded over.
DATA_SURVIVAL = ("none", "half", "all")
#: Pending-metadata survival levels (renames/unlinks/creations).
META_SURVIVAL = ("lost", "kept")

class SimulatedCrash(BaseException):
    """The power cut.  A ``BaseException``: cleanup code that catches
    ``Exception``/``OSError`` must not run, exactly as it would not run
    on a real power loss."""


class _SimFile:
    """One simulated inode: durable content + unsynced tail."""

    __slots__ = ("durable", "volatile", "link_durable")

    def __init__(self, durable: bytes = b"", link_durable: bool = True) -> None:
        self.durable = durable
        self.volatile = b""
        #: Whether the directory entry survives a crash (true once the
        #: file — or its directory — has been fsynced).
        self.link_durable = link_durable


class _SimHandle:
    """File-object shim routing writes into the simulated disk."""

    def __init__(self, fs: "CrashFS", path: str, append: bool) -> None:
        self._fs = fs
        self._path = path
        self.closed = False
        del append  # position bookkeeping lives in the _SimFile

    def write(self, data: bytes) -> int:
        self._fs._write(self._path, bytes(data))
        return len(data)

    def flush(self) -> None:
        self._fs._flush(self._path)

    def close(self) -> None:
        if not self.closed:
            self._fs._close(self._path)
            self.closed = True

    def fileno(self) -> int:  # pragma: no cover — nothing should need it
        raise OSError("simulated handle has no file descriptor")

    @property
    def path(self) -> str:
        return self._path

    def __enter__(self) -> "_SimHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CrashFS(FSBackend):
    """A :class:`FSBackend` over a simulated disk with power-cut
    semantics.

    ``crash_after=k`` raises :class:`SimulatedCrash` in place of the
    *k*-th operation (0-based; operations 0..k-1 applied).
    ``fail_at=k`` instead makes the *k*-th operation raise
    ``OSError(fail_errno)`` once, then continues normally.  With
    neither, the writer runs to completion and ``trace`` records every
    operation — the schedule later campaigns enumerate over.
    """

    def __init__(
        self,
        initial: Optional[Dict[str, bytes]] = None,
        crash_after: Optional[int] = None,
        fail_at: Optional[int] = None,
        fail_errno: int = 28,  # ENOSPC
    ) -> None:
        self.files: Dict[str, _SimFile] = {
            str(path): _SimFile(durable=data)
            for path, data in (initial or {}).items()
        }
        #: Metadata ops not yet covered by a directory fsync, oldest
        #: first: ("rename", src, moved, dst, old_dst) / ("unlink",
        #: path, file) / ("create", path, file).
        self.pending: List[tuple] = []
        self.trace: List[str] = []
        self.crash_after = crash_after
        self.fail_at = fail_at
        self.fail_errno = fail_errno
        self.crashed = False

    # -- op scheduling -------------------------------------------------

    def _tick(self, desc: str) -> None:
        if self.crashed:
            # Frozen: the machine is off.  Writer-side cleanup that
            # still executes (finally blocks) must not touch the disk.
            raise SimulatedCrash(desc)
        index = len(self.trace)
        if self.crash_after is not None and index == self.crash_after:
            self.crashed = True
            raise SimulatedCrash(f"power cut before op {index}: {desc}")
        if self.fail_at is not None and index == self.fail_at:
            self.fail_at = None  # fail once, then recover
            self.trace.append(f"{desc} -> E{self.fail_errno}")
            raise OSError(self.fail_errno, os.strerror(self.fail_errno), desc)
        self.trace.append(desc)

    # -- FSBackend surface ---------------------------------------------

    def open(self, path, mode: str):
        path = str(path)
        if mode not in ("wb", "ab"):
            raise ValueError(f"CrashFS supports binary modes only, got {mode!r}")
        self._tick(f"open:{mode}:{_short(path)}")
        existing = self.files.get(path)
        if mode == "wb" or existing is None:
            # Creation (or in-place truncation, modelled as durable —
            # see the module docstring).  A brand-new file's directory
            # entry is pending until an fsync covers it.
            created = _SimFile(durable=b"", link_durable=False)
            if existing is None:
                self.pending.append(("create", path, created))
            else:
                created.link_durable = existing.link_durable
            self.files[path] = created
        return _SimHandle(self, path, append=mode == "ab")

    def _write(self, path: str, data: bytes) -> None:
        self._tick(f"write:{len(data)}:{_short(path)}")
        self.files[path].volatile += data

    def _flush(self, path: str) -> None:
        # Application buffer -> page cache: still volatile.
        self._tick(f"flush:{_short(path)}")

    def _close(self, path: str) -> None:
        self._tick(f"close:{_short(path)}")

    def fsync(self, handle) -> None:
        path = handle.path
        self._tick(f"fsync:{_short(path)}")
        sim = self.files[path]
        sim.durable += sim.volatile
        sim.volatile = b""
        sim.link_durable = True

    def replace(self, src, dst) -> None:
        src, dst = str(src), str(dst)
        self._tick(f"replace:{_short(src)}->{_short(dst)}")
        moved = self.files.pop(src, None)
        if moved is None:
            raise OSError(2, "No such file or directory", src)
        old = self.files.get(dst)
        self.files[dst] = moved
        self.pending.append(("rename", src, moved, dst, old))

    def unlink(self, path) -> None:
        path = str(path)
        self._tick(f"unlink:{_short(path)}")
        gone = self.files.pop(path, None)
        if gone is None:
            raise OSError(2, "No such file or directory", path)
        self.pending.append(("unlink", path, gone))

    def fsync_dir(self, directory) -> None:
        directory = str(directory)
        self._tick(f"dirsync:{_short(directory)}")
        # Directory fsync persists every pending metadata op under it.
        kept: List[tuple] = []
        for op in self.pending:
            target = op[3] if op[0] == "rename" else op[1]
            if os.path.dirname(target) == directory:
                if op[0] in ("rename", "create"):
                    op[2].link_durable = True
            else:
                kept.append(op)
        self.pending = kept

    # -- post-crash state ----------------------------------------------

    def materialize(self, survival: str, meta: str) -> Dict[str, bytes]:
        """The on-disk bytes after the power cut, path -> content.

        ``survival`` picks how much of each file's volatile tail made
        it out of the page cache; ``meta`` decides whether pending
        renames/unlinks/creations were persisted by the journal or
        rolled back.
        """
        names: Dict[str, _SimFile] = dict(self.files)
        rolled_back = set()
        if meta == "lost":
            for op in reversed(self.pending):
                if op[0] == "rename":
                    _, src, moved, dst, old = op
                    if old is not None:
                        names[dst] = old
                    else:
                        names.pop(dst, None)
                    names[src] = moved
                elif op[0] == "unlink":
                    names[op[1]] = op[2]
                else:  # create
                    rolled_back.add(op[1])
        state: Dict[str, bytes] = {}
        for path, sim in names.items():
            if meta == "lost" and (path in rolled_back or not sim.link_durable):
                continue
            tail = sim.volatile
            if survival == "none":
                tail = b""
            elif survival == "half":
                tail = tail[: len(tail) // 2]
            state[path] = sim.durable + tail
        return state


def _short(path: str) -> str:
    return os.path.basename(path) or path


# ----------------------------------------------------------------------
# Campaign runner
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CrashPoint:
    """One enumerated failure: where in the schedule, and how much
    survived."""

    index: int  #: ops 0..index-1 applied; the crash replaced op ``index``
    op: str  #: description of the interrupted op ("complete" when none)
    survival: str  #: DATA_SURVIVAL level
    meta: str  #: META_SURVIVAL level
    mode: str = "crash"  #: "crash" or "errno" (environmental failure)

    def describe(self) -> str:
        return f"{self.mode}@{self.index}[{self.op}] data={self.survival} meta={self.meta}"


@dataclass(frozen=True)
class CrashWriterSpec:
    """One artefact writer under test.

    ``write(root)`` runs the production writer against paths under
    ``root`` (all file I/O is intercepted through the backend seam).
    ``recover(root)`` inspects a materialised post-crash directory and
    returns a contract label (optionally with a detail string), which
    :func:`~repro.reliability.campaign.label_outcome` maps to an
    outcome: ``silent*`` and ``escaped*`` fail the campaign,
    ``detected*`` is a loud failure, and every other label (``old``,
    ``prefix``, ``replayed-2``, ...) is the spec's own word for an
    honoured contract.  ``setup(root)`` optionally returns pre-existing
    durable files (``relative path -> bytes``), e.g. the old artefact
    version for overwrite contracts.
    """

    name: str
    write: Callable[[Path], None]
    recover: Callable[[Path], Union[str, Tuple[str, str]]]
    setup: Optional[Callable[[Path], Dict[str, bytes]]] = None
    description: str = ""


def enumerate_crash_points(
    spec: CrashWriterSpec, root: Path
) -> Tuple[List[str], Dict[str, bytes]]:
    """Record the spec's full op schedule (no faults injected).

    Returns the op trace and the initial (pre-state) files.  The trace
    length bounds the crash indices the campaign replays.
    """
    initial = _initial_state(spec, root)
    fs = CrashFS(initial=initial)
    with use_backend(fs):
        spec.write(root)
    return fs.trace, initial


def _initial_state(spec: CrashWriterSpec, root: Path) -> Dict[str, bytes]:
    if spec.setup is None:
        return {}
    return {
        str(root / rel): data for rel, data in spec.setup(root).items()
    }


def _state_digest(state: Dict[str, bytes]) -> str:
    digest = hashlib.sha256()
    for path in sorted(state):
        digest.update(path.encode())
        digest.update(b"\0")
        digest.update(hashlib.sha256(state[path]).digest())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def _materialize_to_dir(
    state: Dict[str, bytes], virtual_root: Path, real_root: Path
) -> None:
    real_root.mkdir(parents=True, exist_ok=True)
    for path, data in state.items():
        rel = os.path.relpath(path, str(virtual_root))
        target = real_root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)




def run_crash_campaign(
    spec: CrashWriterSpec,
    workdir: Union[str, Path],
    errno_ops: Sequence[str] = ("write", "fsync"),
    max_errno_points: Optional[int] = None,
) -> CampaignResult:
    """Replay every crash point of ``spec`` and classify the recoveries.

    For each op index the writer is re-run against a fresh simulated
    disk that cuts power in place of that op; the post-crash state is
    expanded over the ``DATA_SURVIVAL`` × ``META_SURVIVAL`` grid,
    deduplicated by content, materialised under ``workdir`` and handed
    to ``spec.recover``.  A second arm injects ``ENOSPC`` at every op
    whose description starts with one of ``errno_ops`` and requires the
    writer to fail *typed* (or succeed) — an untyped exception is
    ``escaped``.

    Each point becomes one :class:`~repro.reliability.campaign.Trial`
    whose outcome is :func:`~repro.reliability.campaign.label_outcome`
    of its contract label.  ``info`` keeps the dedup accounting and
    the per-label tally (labels cut at the first ``:``).
    """
    workdir = Path(workdir)
    virtual_root = workdir / "virtual"
    virtual_root.mkdir(parents=True, exist_ok=True)
    ops, initial = enumerate_crash_points(spec, virtual_root)
    trials: List[Trial] = []
    recovered: Dict[str, Tuple[str, str]] = {}  # state digest -> (label, detail)

    def record(point: CrashPoint, digest: str, label: str, detail: str) -> None:
        trials.append(
            Trial(
                spec.name,
                f"{point.describe()} state={digest}",
                label_outcome(label),
                detail=detail,
                label=label,
            )
        )

    def recover_state(state: Dict[str, bytes]) -> Tuple[str, str, str]:
        digest = _state_digest(state)
        if digest not in recovered:
            real_root = workdir / f"state-{len(recovered) + 1:04d}"
            _materialize_to_dir(state, virtual_root, real_root)
            # recover must return a label: raising, even typed, is an escape.
            try:
                label = spec.recover(real_root)
            except Exception as exc:  # noqa: BLE001 — classified, not hidden
                typed = isinstance(exc, ReproError)
                label = (
                    "escaped:typed-from-recover" if typed else "escaped:recover-raised",
                    str(exc) if typed else f"{type(exc).__name__}: {exc}",
                )
            recovered[digest] = label if isinstance(label, tuple) else (label, "")
        return (digest, *recovered[digest])

    # Arm 1: power cut in place of every op (plus the completed run).
    for index in range(len(ops) + 1):
        fs = CrashFS(initial=dict(initial), crash_after=index)
        try:
            with use_backend(fs):
                spec.write(virtual_root)
        except SimulatedCrash:
            grid = [(s, m) for s in DATA_SURVIVAL for m in META_SURVIVAL]
        else:
            grid = [("all", "kept")]  # no crash fired: one fully-survived state
        op = ops[index] if index < len(ops) else "complete"
        for survival, meta in grid:
            point = CrashPoint(index, op, survival, meta)
            record(point, *recover_state(fs.materialize(survival, meta)))

    # Arm 2: environmental failure (ENOSPC) at every matching op; the
    # writer keeps running and must fail typed — then the artefact must
    # still honour its recovery contract.
    errno_indices = [
        index for index, op in enumerate(ops) if op.startswith(tuple(errno_ops))
    ]
    for index in errno_indices[:max_errno_points]:
        fs = CrashFS(initial=dict(initial), fail_at=index)

        def write() -> None:
            with use_backend(fs):
                spec.write(virtual_root)

        outcome, error = judge(write, lambda _: True)
        point = CrashPoint(index, ops[index], "all", "kept", mode="errno")
        if outcome is TrialOutcome.ESCAPED:
            kind = "untyped-oserror" if isinstance(error, OSError) else "writer-raised"
            record(point, "-", f"escaped:{kind}", f"{type(error).__name__}: {error}")
            continue
        writer = "detected" if outcome is TrialOutcome.DETECTED else "completed"
        digest, label, detail = recover_state(fs.materialize("all", "kept"))
        if label_outcome(label) not in FAILING:
            label = f"{writer}+{label}"
        if not detail and error is not None:
            detail = f"{type(error).__name__}: {error}"
        record(point, digest, label, detail)

    shutil.rmtree(virtual_root, ignore_errors=True)
    labels: Dict[str, int] = {}
    for trial in trials:
        key = trial.label.split(":", 1)[0]
        labels[key] = labels.get(key, 0) + 1
    info = {
        "writer": spec.name,
        "ops": len(ops),
        "points_enumerated": len(trials),
        "unique_states": len(recovered),
        "labels": labels,
    }
    return CampaignResult(tuple(trials), info)
