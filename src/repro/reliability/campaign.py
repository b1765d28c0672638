"""Fault-injection campaign runners.

A *byte* campaign takes a known-good container and its original
(pre-X-fill) cube stream, corrupts the container under every registered
injector for a range of seeds, and classifies each trial into the
trichotomy the ATE use case demands:

``DETECTED``
    the corrupted container was rejected with a typed
    :class:`~repro.reliability.errors.ReproError` subclass — the safe
    outcome;
``CORRECT``
    the corruption happened to be harmless (e.g. a flipped bit in the
    zero padding): decoding succeeded *and* the result still covers
    every specified bit of the original stream;
``SILENT``
    decoding succeeded but produced a stream that does **not** cover the
    original — the catastrophic outcome a tester can never tolerate;
``ESCAPED``
    a non-``ReproError`` exception leaked through the public API — a
    hardening bug even though the corruption did not go unnoticed.

:func:`run_campaign` returns a :class:`CampaignResult`; the test suite
asserts ``result.ok`` (zero ``SILENT``, zero ``ESCAPED``) across every
injector class and seed.

A *process* campaign (:func:`run_process_campaign`) applies the same
trichotomy one layer up: instead of corrupting bytes it injects
process-level faults (worker exception, SIGKILL, hang, corrupt-result —
see :mod:`repro.reliability.chaos`) into a supervised
:func:`~repro.parallel.compress_batch` run and demands that every batch
either completes with containers **byte-identical to the unfaulted
run** (the retry/degrade paths healed it) or fails loudly with a typed
error — never silently different bytes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..bitstream import TernaryVector
from ..container import decode_container
from .errors import ReproError
from .inject import INJECTORS, inject

__all__ = [
    "TrialOutcome",
    "Trial",
    "CampaignResult",
    "run_campaign",
    "ProcessTrial",
    "ProcessCampaignResult",
    "run_process_campaign",
]


class TrialOutcome(enum.Enum):
    """Classification of one corrupted-container decode attempt."""

    DETECTED = "detected"
    CORRECT = "correct"
    SILENT = "silent"
    ESCAPED = "escaped"


@dataclass(frozen=True)
class Trial:
    """One (injector, seed) corruption and how the decode stack handled it."""

    injector: str
    seed: int
    outcome: TrialOutcome
    error: Optional[BaseException] = None

    def describe(self) -> str:
        base = f"{self.injector}/seed={self.seed}: {self.outcome.value}"
        if self.error is not None:
            base += f" ({type(self.error).__name__}: {self.error})"
        return base


@dataclass(frozen=True)
class CampaignResult:
    """Aggregate of every trial in one campaign run."""

    trials: Tuple[Trial, ...]

    @property
    def counts(self) -> Dict[TrialOutcome, int]:
        """Trials per outcome class."""
        tally = {outcome: 0 for outcome in TrialOutcome}
        for trial in self.trials:
            tally[trial.outcome] += 1
        return tally

    @property
    def failures(self) -> Tuple[Trial, ...]:
        """Trials that violate the no-silent-corruption guarantee."""
        return tuple(
            t
            for t in self.trials
            if t.outcome in (TrialOutcome.SILENT, TrialOutcome.ESCAPED)
        )

    @property
    def ok(self) -> bool:
        """True when no trial was silent corruption or an escaped exception."""
        return not self.failures

    def summary(self) -> str:
        """Multi-line human-readable report."""
        counts = self.counts
        lines = [
            f"{len(self.trials)} trials: "
            + ", ".join(f"{o.value}={counts[o]}" for o in TrialOutcome)
        ]
        lines.extend(t.describe() for t in self.failures)
        return "\n".join(lines)


def run_trial(
    container: bytes, original: TernaryVector, injector: str, seed: int
) -> Trial:
    """Corrupt, decode and classify a single trial."""
    corrupted = inject(container, injector, seed)
    try:
        stream = decode_container(corrupted)
    except ReproError as exc:
        return Trial(injector, seed, TrialOutcome.DETECTED, exc)
    except Exception as exc:  # noqa: BLE001 - the escape *is* the finding
        return Trial(injector, seed, TrialOutcome.ESCAPED, exc)
    if stream.covers(original):
        return Trial(injector, seed, TrialOutcome.CORRECT)
    return Trial(injector, seed, TrialOutcome.SILENT)


def run_campaign(
    container: bytes,
    original: TernaryVector,
    injectors: Optional[Sequence[str]] = None,
    seeds: Iterable[int] = range(50),
) -> CampaignResult:
    """Run the full injector × seed grid against one container.

    ``original`` is the cube stream the container was compressed from
    (don't-cares allowed); a decode only counts as ``CORRECT`` when it
    still covers every specified bit.
    """
    names = tuple(injectors) if injectors is not None else tuple(sorted(INJECTORS))
    seed_list = tuple(seeds)
    trials = [
        run_trial(container, original, name, seed)
        for name in names
        for seed in seed_list
    ]
    return CampaignResult(tuple(trials))


# ----------------------------------------------------------------------
# Process-level (chaos) campaign
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessTrial:
    """One (fault, seed) chaos run and how the supervised batch fared."""

    fault: str
    seed: int
    outcome: TrialOutcome
    on_failure: str
    detail: str = ""

    def describe(self) -> str:
        base = (
            f"{self.fault}/seed={self.seed}/on_failure={self.on_failure}: "
            f"{self.outcome.value}"
        )
        if self.detail:
            base += f" ({self.detail})"
        return base


@dataclass(frozen=True)
class ProcessCampaignResult:
    """Aggregate of every trial in one process-fault campaign run."""

    trials: Tuple[ProcessTrial, ...]

    @property
    def counts(self) -> Dict[TrialOutcome, int]:
        """Trials per outcome class."""
        tally = {outcome: 0 for outcome in TrialOutcome}
        for trial in self.trials:
            tally[trial.outcome] += 1
        return tally

    @property
    def failures(self) -> Tuple[ProcessTrial, ...]:
        """Trials that violate the no-silent-corruption guarantee."""
        return tuple(
            t
            for t in self.trials
            if t.outcome in (TrialOutcome.SILENT, TrialOutcome.ESCAPED)
        )

    @property
    def ok(self) -> bool:
        """True when no trial was silent corruption or an escaped exception."""
        return not self.failures

    def summary(self) -> str:
        """Multi-line human-readable report."""
        counts = self.counts
        lines = [
            f"{len(self.trials)} trials: "
            + ", ".join(f"{o.value}={counts[o]}" for o in TrialOutcome)
        ]
        lines.extend(t.describe() for t in self.failures)
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Machine-readable report (the CI chaos job's artifact body)."""
        return {
            "ok": self.ok,
            "counts": {o.value: c for o, c in self.counts.items()},
            "trials": [
                {
                    "fault": t.fault,
                    "seed": t.seed,
                    "on_failure": t.on_failure,
                    "outcome": t.outcome.value,
                    "detail": t.detail,
                }
                for t in self.trials
            ],
        }


def run_process_trial(
    config,
    streams: Sequence[TernaryVector],
    reference: Sequence[Optional[bytes]],
    fault: str,
    seed: int,
    *,
    workers: int = 1,
    shard_bits: int = 0,
    pattern_bits=0,
    on_failure: str = "degrade",
    rate: float = 0.6,
    shard_timeout: Optional[float] = None,
    retry_policy=None,
    seed_plan=None,
) -> ProcessTrial:
    """Run one chaos-injected batch and classify it.

    ``reference`` is the unfaulted run's container list under the same
    ``seed_plan`` — the oracle a surviving batch must match byte for
    byte.  A ``kill`` fault needs a real pool (``workers >= 2``) and is
    bumped there automatically; all other faults honour ``workers`` as
    given.
    """
    from ..parallel import compress_batch
    from .chaos import ChaosPlan
    from .errors import ShardError

    plan = ChaosPlan(fault, seed=seed, rate=rate)
    if fault == "kill":
        workers = max(workers, 2)
    try:
        items = compress_batch(
            config,
            streams,
            workers=workers,
            shard_bits=shard_bits,
            pattern_bits=pattern_bits,
            on_failure=on_failure,
            shard_timeout=shard_timeout,
            retry_policy=retry_policy,
            chaos=plan,
            seed_plan=seed_plan,
        )
    except ReproError as exc:
        return ProcessTrial(
            fault, seed, TrialOutcome.DETECTED, on_failure,
            f"{type(exc).__name__}: {exc}",
        )
    except Exception as exc:  # noqa: BLE001 - the escape *is* the finding
        return ProcessTrial(
            fault, seed, TrialOutcome.ESCAPED, on_failure,
            f"{type(exc).__name__}: {exc}",
        )
    skipped = [
        error for item in items if not item.ok for error in item.errors
    ]
    for item, expected in zip(items, reference):
        if item.ok and item.container != expected:
            return ProcessTrial(
                fault, seed, TrialOutcome.SILENT, on_failure,
                "completed container differs from the unfaulted run",
            )
    if skipped:
        if not all(isinstance(error, ShardError) for error in skipped):
            return ProcessTrial(
                fault, seed, TrialOutcome.ESCAPED, on_failure,
                "skipped shard surfaced an untyped error",
            )
        return ProcessTrial(
            fault, seed, TrialOutcome.DETECTED, on_failure,
            f"{len(skipped)} shard(s) skipped with typed ShardError",
        )
    return ProcessTrial(fault, seed, TrialOutcome.CORRECT, on_failure)


def run_process_campaign(
    config,
    streams: Sequence[TernaryVector],
    faults: Optional[Sequence[str]] = None,
    seeds: Iterable[int] = range(10),
    *,
    workers: int = 1,
    shard_bits: int = 0,
    pattern_bits=0,
    on_failure: str = "degrade",
    rate: float = 0.6,
    shard_timeout: Optional[float] = None,
    retry_policy=None,
    seed_plan=None,
) -> ProcessCampaignResult:
    """Run the full process-fault × seed grid against one batch.

    The unfaulted ``workers=1`` run under the same ``seed_plan`` (cold
    when ``None``) is computed once as the byte oracle;
    every chaos trial must end byte-identical to it or fail loudly with
    a typed error — the process-level zero-silent-corruption guarantee.
    """
    from ..parallel import compress_batch
    from .chaos import PROCESS_FAULTS

    names = tuple(faults) if faults is not None else PROCESS_FAULTS
    reference: List[Optional[bytes]] = [
        item.container
        for item in compress_batch(
            config, streams, workers=1,
            shard_bits=shard_bits, pattern_bits=pattern_bits,
            seed_plan=seed_plan,
        )
    ]
    trials = [
        run_process_trial(
            config,
            streams,
            reference,
            fault,
            seed,
            workers=workers,
            shard_bits=shard_bits,
            pattern_bits=pattern_bits,
            on_failure=on_failure,
            rate=rate,
            shard_timeout=shard_timeout,
            retry_policy=retry_policy,
            seed_plan=seed_plan,
        )
        for fault in names
        for seed in tuple(seeds)
    ]
    return ProcessCampaignResult(tuple(trials))
