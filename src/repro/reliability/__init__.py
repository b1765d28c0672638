"""Reliability subsystem: typed errors, fault injection, salvage, verify.

The ATE use case tolerates no silent miscoding — a wrongly decoded bit
is a false pass/fail on the tester.  This package provides the tooling
that *proves* the decode stack fails loudly:

* :mod:`~repro.reliability.errors` — the unified exception taxonomy
  (:class:`ReproError` and friends) used across every layer;
* :mod:`~repro.reliability.inject` — deterministic, seeded fault
  injectors over container bytes;
* :mod:`~repro.reliability.chaos` — deterministic *process-level*
  injectors (worker exception / SIGKILL / hang / corrupt-result) for
  the supervised batch engine;
* :mod:`~repro.reliability.campaign` — the fault-campaign core: the one
  *correct / detected / silent / escaped* classifier every campaign
  reports through, and the runners over container bytes and batch
  worker processes;
* :mod:`~repro.reliability.salvage` — :func:`decode_partial`, the
  graceful-degradation decoder for debugging bad ATE dumps;
* :mod:`~repro.reliability.verify` — staged container integrity
  verification backing ``repro verify``;
* :mod:`~repro.reliability.crashsim` — the power-cut simulator behind
  the :class:`~repro.reliability.atomic.FSBackend` seam, enumerating a
  crash at every I/O boundary of every artefact writer;
* :mod:`~repro.reliability.fsck` — unified deep scan/repair over every
  on-disk artefact kind, backing ``repro fsck``.

Only the error taxonomy is imported eagerly; the tooling modules import
the rest of the package, so they are loaded lazily to keep this package
importable from the lowest layers (``repro.bitstream`` raises
:class:`StreamError`).
"""

from .errors import (
    ConfigError,
    ContainerError,
    DeadlineError,
    DecodeError,
    OverloadError,
    ProtocolError,
    ReproError,
    ShardError,
    SnapshotError,
    StreamError,
    TestFileError,
)

from .._lazy import lazy_exports

_EXPORTS = {
    "atomic_write_bytes": ".atomic",
    "atomic_write_text": ".atomic",
    "DurableAppendFile": ".atomic",
    "FSBackend": ".atomic",
    "current_backend": ".atomic",
    "use_backend": ".atomic",
    "CrashFS": ".crashsim",
    "CrashWriterSpec": ".crashsim",
    "SimulatedCrash": ".crashsim",
    "run_crash_campaign": ".crashsim",
    "FsckReport": ".fsck",
    "fsck_paths": ".fsck",
    "INJECTORS": ".inject",
    "MULTI_INJECTORS": ".inject",
    "SEEDED_INJECTORS": ".inject",
    "STREAM_INJECTORS": ".inject",
    "ChaosPlan": ".chaos",
    "PROCESS_FAULTS": ".chaos",
    "CampaignResult": ".campaign",
    "Trial": ".campaign",
    "TrialOutcome": ".campaign",
    "run_campaign": ".campaign",
    "run_process_campaign": ".campaign",
    "run_trial": ".campaign",
    "Check": ".verify",
    "VerifyReport": ".verify",
    "verify_container": ".verify",
    "PartialDecodeResult": ".salvage",
    "decode_partial": ".salvage",
    "salvage_container": ".salvage",
}

__all__ = [
    "ConfigError",
    "ContainerError",
    "DeadlineError",
    "DecodeError",
    "OverloadError",
    "ProtocolError",
    "ReproError",
    "ShardError",
    "SnapshotError",
    "StreamError",
    "TestFileError",
    *_EXPORTS,
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
