"""The fault-campaign core: one outcome classifier for every fault source.

Every campaign in the repository — corrupted container bytes, process
faults in the supervised batch, power cuts at each I/O boundary of an
artefact writer, faults at the fleet's dispatcher tier — runs a target
under a fault and compares it with an unfaulted oracle.  This module is
the one place that sorts the result into the four outcomes the ATE use
case demands:

``DETECTED``
    the target failed loudly with a typed
    :class:`~repro.reliability.errors.ReproError` subclass — the safe
    outcome;
``CORRECT``
    the target finished and its result passes the oracle (e.g. a
    flipped bit in the zero padding still decodes to a stream covering
    every specified bit);
``SILENT``
    the target finished with a result that fails the oracle — the
    catastrophic outcome a tester can never tolerate;
``ESCAPED``
    any other ``Exception`` leaked through the public API — a hardening
    bug even though the fault did not go unnoticed.

:func:`judge` is that rule for a call; ``BaseException`` (a simulated
power cut, ``KeyboardInterrupt``) is never caught.  Two sources report
through a mapping onto the same four outcomes instead of a call:
:func:`label_outcome` reads a crash writer's contract label, and
:func:`classify_reply` reads a service reply.  A :class:`Trial` is one
classified fault case and :class:`CampaignResult` the aggregate every
source returns; ``result.ok`` means zero ``SILENT`` and zero
``ESCAPED``.

The sources here are :func:`run_campaign` (byte injectors over a
container) and :func:`run_process_campaign` (process faults from
:mod:`repro.reliability.chaos` in a supervised
:func:`~repro.parallel.compress_batch`, where the oracle is the
unfaulted run's bytes); :mod:`repro.reliability.crashsim` and
:mod:`repro.fleet.chaos` hold the other two.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..bitstream import TernaryVector
from ..container import decode_container
from ..service.protocol import (
    CODE_DEADLINE,
    CODE_INTERNAL,
    CODE_OK,
    CODE_SHED,
    CODE_UNAVAILABLE,
)
from .errors import ReproError
from .inject import INJECTORS, inject

__all__ = [
    "EXPECTED_CODES",
    "TrialOutcome",
    "Trial",
    "CampaignResult",
    "classify_reply",
    "judge",
    "label_outcome",
    "run_campaign",
    "run_process_campaign",
    "run_process_trial",
    "run_trial",
]

#: Reply codes a well-formed service request may legitimately receive.
EXPECTED_CODES = frozenset(
    {CODE_OK, CODE_DEADLINE, CODE_SHED, CODE_INTERNAL, CODE_UNAVAILABLE}
)


class TrialOutcome(enum.Enum):
    """Classification of one fault case."""

    DETECTED = "detected"
    CORRECT = "correct"
    SILENT = "silent"
    ESCAPED = "escaped"


#: The outcomes that fail a campaign.
FAILING = (TrialOutcome.SILENT, TrialOutcome.ESCAPED)


def judge(
    attempt: Callable[[], Any], oracle: Callable[[Any], bool]
) -> Tuple[TrialOutcome, Optional[Exception]]:
    """Run ``attempt()`` and classify it against ``oracle``.

    A typed :class:`ReproError` is ``DETECTED``, any other
    ``Exception`` is ``ESCAPED``; a result ``oracle`` rejects is
    ``SILENT`` and one it accepts ``CORRECT``.  ``BaseException``
    propagates.
    """
    try:
        result = attempt()
    except ReproError as exc:
        return TrialOutcome.DETECTED, exc
    except Exception as exc:  # noqa: BLE001 - the escape *is* the finding
        return TrialOutcome.ESCAPED, exc
    if oracle(result):
        return TrialOutcome.CORRECT, None
    return TrialOutcome.SILENT, None


def label_outcome(label: str) -> TrialOutcome:
    """The outcome a contract label (``old``, ``detected+old``, ...) names.

    ``silent*`` is ``SILENT``, ``escaped*`` is ``ESCAPED``,
    ``detected*`` is ``DETECTED``; any other label is the label's own
    word for an honoured contract, i.e. ``CORRECT``.  A compound label
    (``writer+recovery``, before any ``:`` detail) takes its worst word,
    so ``completed+detected:header-unusable`` is ``DETECTED``.
    """
    words = label.split(":", 1)[0].split("+")
    for outcome in (TrialOutcome.SILENT, TrialOutcome.ESCAPED, TrialOutcome.DETECTED):
        if any(word.startswith(outcome.value) for word in words):
            return outcome
    return TrialOutcome.CORRECT


def classify_reply(
    header: Mapping[str, Any],
    payload: bytes = b"",
    expected: Optional[bytes] = None,
    codes: Collection[int] = EXPECTED_CODES,
) -> TrialOutcome:
    """Classify one service reply.

    An ``ok`` reply is ``CORRECT`` unless ``expected`` is given and the
    payload differs (``SILENT``).  An error reply is ``DETECTED`` only
    when it carries a typed ``error`` object and a code in ``codes``;
    anything else (no ``type``, an undocumented code) is ``ESCAPED``.
    """
    if header.get("ok"):
        if expected is not None and payload != expected:
            return TrialOutcome.SILENT
        return TrialOutcome.CORRECT
    error = header.get("error")
    if isinstance(error, dict) and "type" in error and header.get("code") in codes:
        return TrialOutcome.DETECTED
    return TrialOutcome.ESCAPED


@dataclass(frozen=True)
class Trial:
    """One fault case and how the target handled it.

    ``fault`` names what was injected (an injector, a process fault, a
    crash writer, a fleet fault) and ``case`` which instance of it (a
    seed, a crash point).  ``label`` keeps a source's finer word for the
    outcome (a crash contract label); ``facts`` holds source-specific
    numbers that belong in the report (a fleet trial's reply tally).
    """

    fault: str
    case: str
    outcome: TrialOutcome
    error: Optional[BaseException] = None
    detail: str = ""
    label: str = ""
    facts: Mapping[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        base = f"{self.fault}/{self.case}: {self.label or self.outcome.value}"
        if self.error is not None:
            base += f" ({type(self.error).__name__}: {self.error})"
        if self.detail:
            base += f" ({self.detail})"
        return base

    def to_json(self) -> dict:
        record = {"fault": self.fault, "case": self.case, "outcome": self.outcome.value}
        if self.label:
            record["label"] = self.label
        if self.error is not None:
            record["error"] = f"{type(self.error).__name__}: {self.error}"
        if self.detail:
            record["detail"] = self.detail
        record.update(self.facts)
        return record


@dataclass(frozen=True)
class CampaignResult:
    """Every trial of one campaign, plus the source's own accounting."""

    trials: Tuple[Trial, ...]
    info: Mapping[str, Any] = field(default_factory=dict)

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
        return tuple(t for t in self.trials if t.outcome in FAILING)

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
        """Machine-readable report: one section of ``repro.campaign/1``."""
        return {
            "ok": self.ok,
            "counts": {o.value: c for o, c in self.counts.items()},
            **self.info,
            "trials": [t.to_json() for t in self.trials],
        }


# ----------------------------------------------------------------------
# Byte-injection campaign
# ----------------------------------------------------------------------


def run_trial(
    container: bytes, original: TernaryVector, injector: str, seed: int
) -> Trial:
    """Corrupt, decode and classify a single trial."""
    corrupted = inject(container, injector, seed)
    outcome, error = judge(
        lambda: decode_container(corrupted), lambda stream: stream.covers(original)
    )
    return Trial(injector, f"seed={seed}", outcome, error)


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
# Process-fault (chaos) campaign
# ----------------------------------------------------------------------


def run_process_trial(
    config,
    streams: Sequence[TernaryVector],
    reference: Sequence[Optional[bytes]],
    fault: str,
    seed: int,
    *,
    workers: int = 1,
    on_failure: str = "degrade",
    rate: float = 0.6,
    **batch,
) -> Trial:
    """Run one chaos-injected batch and classify it.

    ``reference`` is the unfaulted run's container list under the same
    ``seed_plan`` — the oracle every completed container must match
    byte for byte.  A shard the batch skipped counts as the error it
    surfaced.  ``batch`` holds the other
    :func:`~repro.parallel.compress_batch` keywords.  The default is an
    inline run that degrades; a ``kill`` fault needs a real pool and is
    bumped to ``workers >= 2``.
    """
    from ..parallel import compress_batch
    from .chaos import ChaosPlan

    if fault == "kill":
        workers = max(workers, 2)

    def matches(items) -> bool:
        return all(
            item.container == expected
            for item, expected in zip(items, reference)
            if item.ok
        )

    def attempt():
        items = compress_batch(
            config, streams, workers=workers, on_failure=on_failure,
            chaos=ChaosPlan(fault, seed=seed, rate=rate), **batch,
        )
        # A skipped shard's errors are always typed ShardErrors.
        skipped = [error for item in items if not item.ok for error in item.errors]
        if skipped and matches(items):
            raise skipped[0]
        return items

    outcome, error = judge(attempt, matches)
    return Trial(fault, f"seed={seed}", outcome, error)


def run_process_campaign(
    config,
    streams: Sequence[TernaryVector],
    faults: Optional[Sequence[str]] = None,
    seeds: Iterable[int] = range(10),
    *,
    rate: float = 0.6,
    **batch,
) -> CampaignResult:
    """Run the full process-fault × seed grid against one batch.

    The unfaulted ``workers=1`` run under the same ``seed_plan`` (cold
    when absent) is computed once as the byte oracle; every chaos trial
    must end byte-identical to it or fail loudly with a typed error —
    the process-level zero-silent-corruption guarantee.  ``batch`` goes
    to every :func:`run_process_trial` (inline and ``degrade`` unless
    given).
    """
    from ..parallel import compress_batch
    from .chaos import PROCESS_FAULTS

    names = tuple(faults) if faults is not None else PROCESS_FAULTS
    oracle_keys = ("shard_bits", "pattern_bits", "seed_plan")
    reference = [
        item.container
        for item in compress_batch(
            config, streams, workers=1,
            **{key: batch[key] for key in oracle_keys if key in batch},
        )
    ]
    trials = [
        run_process_trial(config, streams, reference, fault, seed, rate=rate, **batch)
        for fault in names
        for seed in tuple(seeds)
    ]
    return CampaignResult(tuple(trials))
