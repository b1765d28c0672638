"""Supervised execution of batch shard jobs.

:class:`Supervisor` is the fault-tolerant layer between
:func:`~repro.parallel.engine.compress_batch` and the worker pool.  The
engine's single ``pool.map`` call had one failure mode: any worker
crash, hang or exception aborted the whole batch.  The supervisor
instead drives per-shard futures and recovers from every *loud*
process-level failure.

The pool lives as long as the supervisor, i.e. one batch job: each
:meth:`Supervisor.run` call (one wave-seeding round) reuses the warm
pool the previous round left, so a job pays ``spawn`` start-up once,
not once per round.  A pool lost in round *r* (crash, watchdog kill) is
respawned by the next pooled wave — a retry in round *r*, or round
*r + 1*.  :meth:`Supervisor.close` shuts the pool down and reaps its
workers; :func:`run_supervised` is the one-run form (the service's
inline use).  Recovery covers:

* **retries** — a failed attempt is re-submitted under a
  :class:`RetryPolicy` (bounded attempts, deterministic exponential
  backoff with *seeded* jitter — no wall clock and no global ``random``
  in the decision path, so a given schedule of failures always produces
  the same retry schedule);
* **timeouts** — each attempt runs under a per-shard timeout enforced
  *inside* the worker with ``SIGALRM`` (precise, no pool teardown) plus
  a parent-side watchdog over the whole submission wave that catches
  alarm-proof hangs by terminating and respawning the pool (its budget,
  ``ceil(wave / pool size)`` shard timeouts plus grace, uses the pool
  size fixed when the supervisor was built);
* **crashes** — a dead worker (``BrokenProcessPool``: SIGKILL, OOM,
  segfault) poisons every in-flight future; the supervisor respawns the
  pool and charges one attempt to each in-flight shard (the culprit is
  not identifiable from the parent);
* **graceful degradation** — a shard that exhausts its pool attempts is
  handled per the ``on_failure`` policy: ``fail`` raises a typed
  :class:`~repro.reliability.errors.ShardError`, ``degrade`` re-runs the
  shard inline in the calling process (serial fallback; one last
  attempt, no pool between it and the result), ``skip`` records the
  :class:`ShardError` as the shard's outcome and carries on;
* **result validation** — an optional ``validate`` hook rejects results
  that came back structurally wrong (e.g. a corrupted-input encode whose
  output no longer covers the shard), turning *silent* corruption into a
  retriable failure.

Because the worker function is pure, a retried shard reproduces its
bytes exactly — the engine's determinism contract ("same inputs + same
plan ⇒ bit-identical containers") therefore extends to *any* crash,
timeout or retry schedule, which ``tests/reliability/test_chaos.py``
asserts under injected process faults.

Everything is observable through the :mod:`repro.observability`
vocabulary: ``batch.retries`` / ``batch.worker_crashes`` /
``batch.timeouts`` / ``batch.degraded_shards`` / ``batch.skipped_shards``
counters and a ``retry`` span around each backoff wait.
"""

from __future__ import annotations

import math
import random
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..observability import events as ev
from ..observability.recorder import NULL_RECORDER, Recorder
from ..reliability.errors import ConfigError, ShardError
from .worker import _call_with_timeout, _WorkerTimeout

__all__ = [
    "RetryPolicy",
    "ON_FAILURE_POLICIES",
    "Supervisor",
    "check_supervision",
    "run_supervised",
]

#: A shard job key: (workload index, shard index).
Key = Tuple[int, int]

#: Valid ``on_failure`` policies, in escalation order.
ON_FAILURE_POLICIES = ("fail", "degrade", "skip")

#: Parent-watchdog slack on top of the theoretical wave budget, seconds.
_WATCHDOG_GRACE = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how fast failed shard attempts are retried.

    The backoff for attempt ``n`` (1-based; attempt 1 is the first
    *retry*) is ``min(backoff_max, backoff_base * backoff_factor**(n-1))``
    scaled by a jitter factor in ``[1, 1 + jitter]`` drawn from a
    :class:`random.Random` seeded with ``(seed, key, n)`` — fully
    deterministic, so two runs that fail the same way wait the same way.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                "max_attempts must be >= 1",
                field="max_attempts",
                value=self.max_attempts,
            )
        for name in ("backoff_base", "backoff_factor", "backoff_max", "jitter"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"{name} must be non-negative",
                    field=name,
                    value=getattr(self, name),
                )

    def delay(self, key: Key, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` of shard ``key``."""
        raw = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )
        rng = random.Random(f"retry:{self.seed}:{key[0]}.{key[1]}:{attempt}")
        return raw * (1.0 + self.jitter * rng.random())


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool whose workers may be hung: kill, then reap.

    SIGKILL cannot be caught, so the pool breaks at once and the
    blocking shutdown returns promptly, with every worker reaped: none
    outlives this call.
    """
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.kill()
        except Exception:  # already dead / reaped
            pass
    pool.shutdown(wait=True, cancel_futures=True)


@dataclass
class _Attempt:
    """Outcome of one shard attempt, as classified by the supervisor."""

    key: Key
    result: Any = None
    ok: bool = False
    kind: str = "error"  # error | timeout | crash | invalid
    cause: Optional[BaseException] = None


def check_supervision(on_failure: str, shard_timeout: Optional[float]) -> None:
    """Raise :class:`ConfigError` for an unknown policy or a bad timeout."""
    if on_failure not in ON_FAILURE_POLICIES:
        raise ConfigError(
            f"on_failure must be one of {', '.join(ON_FAILURE_POLICIES)}",
            field="on_failure",
            value=on_failure,
        )
    if shard_timeout is not None and shard_timeout <= 0:
        raise ConfigError(
            "shard_timeout must be positive",
            field="shard_timeout",
            value=shard_timeout,
        )


class Supervisor:
    """Supervised runs of shard jobs that share one worker pool.

    Each :meth:`run` call drives one set of keys to completion; the
    pool is spawned lazily by the first pooled run and kept warm for
    the next, so a job of several rounds pays pool start-up once.  A
    pool that dies or is torn down in one run is respawned by the next
    pooled wave.  :meth:`close` (or leaving the ``with`` block) shuts
    the pool down and reaps its workers.

    ``workers`` is the pool size for the supervisor's whole lifetime —
    the caller caps it by the job's shard count.  ``<= 1`` runs every
    wave inline.  The other parameters are those of
    :func:`run_supervised`.
    """

    def __init__(
        self,
        worker: Callable[[Any], Any],
        make_args: Callable[[Key, int], Any],
        workers: int = 1,
        retry_policy: Optional[RetryPolicy] = None,
        shard_timeout: Optional[float] = None,
        on_failure: str = "fail",
        validate: Optional[Callable[[Key, Any], Optional[str]]] = None,
        recorder: Optional[Recorder] = None,
        sleep: Callable[[float], None] = time.sleep,
        on_result: Optional[Callable[[Key, Any], None]] = None,
    ) -> None:
        check_supervision(on_failure, shard_timeout)
        self.worker = worker
        self.make_args = make_args
        self.pool_size = workers
        self.policy = retry_policy or RetryPolicy()
        self.timeout = shard_timeout
        self.on_failure = on_failure
        self.validate = validate
        self.rec = recorder if recorder is not None else NULL_RECORDER
        self.sleep = sleep
        self.on_result = on_result
        self.attempts: Dict[Key, int] = {}
        self.results: Dict[Key, Any] = {}
        self.pool: Optional[ProcessPoolExecutor] = None

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down and wait for its workers to exit."""
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None

    # -- attempt classification ----------------------------------------

    def _classify(self, key: Key, result: Any, exc: Optional[BaseException]) -> _Attempt:
        if exc is None:
            message = self.validate(key, result) if self.validate else None
            if message is None:
                return _Attempt(key, result=result, ok=True)
            return _Attempt(key, kind="invalid", cause=ShardError(message))
        if isinstance(exc, _WorkerTimeout):
            if self.rec.enabled:
                self.rec.incr(ev.BATCH_TIMEOUTS)
            return _Attempt(key, kind="timeout", cause=exc)
        if isinstance(exc, BrokenProcessPool):
            return _Attempt(key, kind="crash", cause=exc)
        return _Attempt(key, kind="error", cause=exc)

    def _shard_error(self, attempt: _Attempt) -> ShardError:
        return ShardError(
            f"shard ({attempt.key[0]}, {attempt.key[1]}) failed after "
            f"{self.attempts[attempt.key]} attempt(s): {attempt.kind}",
            workload=attempt.key[0],
            shard=attempt.key[1],
            attempts=self.attempts[attempt.key],
            kind=attempt.kind,
            cause=repr(attempt.cause),
        )

    # -- wave execution ------------------------------------------------

    def _run_wave_inline(self, wave: List[Key]) -> List[_Attempt]:
        outcomes = []
        for key in wave:
            args = self.make_args(key, self.attempts[key])
            try:
                result = _call_with_timeout(self.worker, args, self.timeout)
            except Exception as exc:  # noqa: BLE001 - classified below
                outcomes.append(self._classify(key, None, exc))
            else:
                outcomes.append(self._classify(key, result, None))
        return outcomes

    def _run_wave_pooled(self, wave: List[Key]) -> List[_Attempt]:
        if self.pool is None:
            # spawn matches the engine's pinned start method (see
            # engine docstring) and survives respawn after a crash.
            self.pool = ProcessPoolExecutor(
                max_workers=self.pool_size, mp_context=get_context("spawn")
            )
        futures = {}
        outcomes = []
        for index, key in enumerate(wave):
            try:
                future = self.pool.submit(
                    _call_with_timeout,
                    self.worker,
                    self.make_args(key, self.attempts[key]),
                    self.timeout,
                )
            except BrokenProcessPool as exc:
                # A warm pool's idle worker can pick up a shard and die
                # before the rest of the wave is submitted: the rest
                # share the in-flight shards' crash.
                outcomes.extend(
                    _Attempt(rest, kind="crash", cause=exc) for rest in wave[index:]
                )
                break
            futures[future] = key
        pool_broken = bool(outcomes)
        budget = None
        if self.timeout:
            # Worst-case wall clock for the wave if every queued shard
            # burns its full in-worker budget, plus grace; beyond that
            # the hang is alarm-proof and the pool must die.
            budget = (
                self.timeout * math.ceil(len(wave) / self.pool_size)
                + _WATCHDOG_GRACE
            )
        done, not_done = wait(set(futures), timeout=budget)
        for future in done:
            key = futures[future]
            exc = future.exception()
            if isinstance(exc, BrokenProcessPool):
                pool_broken = True
            outcomes.append(
                self._classify(key, None if exc else future.result(), exc)
            )
        if not_done:
            _terminate_pool(self.pool)
            self.pool = None
            for future in not_done:
                if self.rec.enabled:
                    self.rec.incr(ev.BATCH_TIMEOUTS)
                outcomes.append(
                    _Attempt(
                        futures[future],
                        kind="timeout",
                        cause=_WorkerTimeout(
                            f"wave watchdog expired after {budget}s"
                        ),
                    )
                )
        elif pool_broken:
            _terminate_pool(self.pool)
            self.pool = None
            if self.rec.enabled:
                self.rec.incr(ev.BATCH_WORKER_CRASHES)
        return outcomes

    # -- failure policies ----------------------------------------------

    def _handle_exhausted(self, attempt: _Attempt) -> None:
        key = attempt.key
        if self.on_failure == "degrade":
            # Serial fallback: one last inline attempt with nothing but
            # this process between the shard and its result.  No timeout
            # here — an alarm in the caller's thread is not ours to own.
            self.attempts[key] += 1
            try:
                result = self.worker(self.make_args(key, self.attempts[key] - 1))
            except Exception as exc:  # noqa: BLE001 - re-raised typed below
                raise self._shard_error(
                    _Attempt(key, kind=attempt.kind, cause=exc)
                ) from exc
            message = self.validate(key, result) if self.validate else None
            if message is not None:
                raise self._shard_error(
                    _Attempt(key, kind="invalid", cause=ShardError(message))
                )
            if self.rec.enabled:
                self.rec.incr(ev.BATCH_DEGRADED_SHARDS)
            self._accept(key, result)
            return
        error = self._shard_error(attempt)
        if self.on_failure == "skip":
            if self.rec.enabled:
                self.rec.incr(ev.BATCH_SKIPPED_SHARDS)
            self.results[key] = error
            return
        if self.pool is not None:
            _terminate_pool(self.pool)
            self.pool = None
        raise error

    def _accept(self, key: Key, result: Any) -> None:
        """Store a good result and notify the caller immediately.

        ``on_result`` fires per completed shard — not at the end of the
        run — so a checkpoint journal stays crash-consistent even when a
        later shard aborts the whole batch under ``on_failure="fail"``.
        """
        self.results[key] = result
        if self.on_result is not None:
            self.on_result(key, result)

    # -- main loop -----------------------------------------------------

    def run(self, keys: Sequence[Key]) -> Dict[Key, Any]:
        """Run one job per key; the pool stays up for the next call."""
        outstanding = list(keys)
        self.attempts = {key: 0 for key in outstanding}
        self.results = {}
        while outstanding:
            wave = outstanding
            outstanding = []
            if self.pool_size > 1:
                outcomes = self._run_wave_pooled(wave)
            else:
                outcomes = self._run_wave_inline(wave)
            delays = []
            for attempt in outcomes:
                key = attempt.key
                self.attempts[key] += 1
                if attempt.ok:
                    self._accept(key, attempt.result)
                elif self.attempts[key] < self.policy.max_attempts:
                    if self.rec.enabled:
                        self.rec.incr(ev.BATCH_RETRIES)
                    delays.append(self.policy.delay(key, self.attempts[key]))
                    outstanding.append(key)
                else:
                    self._handle_exhausted(attempt)
            if delays and outstanding:
                with self.rec.span("retry"):
                    self.sleep(max(delays))
        return self.results


def run_supervised(
    worker: Callable[[Any], Any],
    keys: Sequence[Key],
    make_args: Callable[[Key, int], Any],
    workers: int = 1,
    retry_policy: Optional[RetryPolicy] = None,
    shard_timeout: Optional[float] = None,
    on_failure: str = "fail",
    validate: Optional[Callable[[Key, Any], Optional[str]]] = None,
    recorder: Optional[Recorder] = None,
    sleep: Callable[[float], None] = time.sleep,
    on_result: Optional[Callable[[Key, Any], None]] = None,
) -> Dict[Key, Any]:
    """Run one job per key through a :class:`Supervisor` of its own.

    The one-run form: the pool (if any) lives for this call only.

    Parameters
    ----------
    worker:
        Module-level picklable function of one argument (runs in worker
        processes when ``workers > 1``).
    keys:
        Job identities, ``(workload, shard)`` pairs.
    make_args:
        ``(key, attempt) -> args`` builder, called in the parent for
        every attempt so retries can carry the attempt number (the chaos
        injectors key off it).
    workers:
        Pool size; ``<= 1`` (or a single job) runs inline with the same
        retry/timeout/degradation semantics, minus crash recovery.
    retry_policy / shard_timeout / on_failure / validate:
        See the module docstring.  ``shard_timeout`` is seconds per
        attempt; ``validate(key, result)`` returns an error message to
        reject a structurally wrong result, or ``None`` to accept.
    recorder:
        Observability sink for the ``batch.*`` supervision counters and
        ``retry`` spans.
    sleep:
        Injectable clock for tests; only ever called with the
        deterministic backoff delays.
    on_result:
        ``(key, result)`` callback fired the moment a shard's result is
        accepted (validated), in addition to appearing in the returned
        dict.  Lets a checkpoint journal record progress even when a
        later shard aborts the run.  Never called for skipped shards.

    Returns a dict mapping every key to its result — or to a
    :class:`ShardError` under ``on_failure="skip"``.
    """
    keys = list(keys)
    with Supervisor(
        worker,
        make_args,
        workers=min(workers, len(keys)),
        retry_policy=retry_policy,
        shard_timeout=shard_timeout,
        on_failure=on_failure,
        validate=validate,
        recorder=recorder,
        sleep=sleep,
        on_result=on_result,
    ) as supervisor:
        return supervisor.run(keys)
