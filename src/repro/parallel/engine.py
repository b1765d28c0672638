"""Parallel sharded batch-compression engine.

The unit of work is one *shard* — a pattern-aligned slice of one
workload's scan stream — encoded with its own fresh LZW dictionary.
All shards of all workloads in a batch are flattened into one job list
and driven through the fault-tolerant supervisor
(:mod:`repro.parallel.supervisor`) over a
:class:`~concurrent.futures.ProcessPoolExecutor`; results are
reassembled strictly by ``(workload, shard)`` index, so the output is a
pure function of the inputs and the shard plans.  Worker count,
completion order — and, because ``_encode_shard`` is pure, any
crash/retry/timeout schedule — can never leak into the container bytes:
the determinism contract ``tests/parallel`` and
``tests/reliability/test_chaos.py`` lock down.

One job owns one :class:`~repro.parallel.supervisor.Supervisor` and so
at most one pool: a ``wave`` job's rounds all run on it, and it is shut
down (its workers reaped) before :func:`compress_batch` returns or
raises.

The pool is pinned to the ``spawn`` multiprocessing start method on
every platform.  ``fork`` (the historical Linux default) duplicates the
parent's arbitrary state into workers, so fork-started and
spawn-started pools can diverge in behaviour (inherited globals, open
handles, signal dispositions) between Linux and macOS; ``spawn`` starts
every worker from a clean interpreter, makes the picklability of jobs
an enforced invariant, and is also what lets the supervisor respawn a
crashed pool identically.

A clean interpreter has to import what it runs, so the code a worker
runs lives apart from this module: :mod:`repro.parallel.worker` holds
the shard encoder and the timeout wrapper the supervisor submits, and
imports only :mod:`repro.bitstream` (ternary vectors and bit I/O), the
:mod:`repro.core` encode and decode modules, the recorders and event
names, and the error taxonomy.  Package exports load on first use, so
unpickling that callable loads neither this module, the supervisor,
the journal, the container writer nor the chaos injectors (those only
when a job carries a chaos plan).  Spawn also re-runs the caller's ``__main__``
in every worker, which is why ``repro.cli`` keeps its top level to the
standard library and the error taxonomy.  DESIGN.md §8 ("Slim
workers") records the start-up cost before and after.

With ``workers <= 1`` the engine runs inline in the calling process
(no pool, no pickling) with the same retry/timeout/degradation
semantics; the inline path is also the deterministic reference the
parallel paths are compared against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..bitstream.ternary import TernaryVector
from ..container import SegmentSeed, dump_segments
from ..core.config import LZWConfig
from ..core.decoder import derive_final_snapshot
from ..core.dictionary import SEED_BLOB, SEED_CHAIN, SEED_COLD, DictionarySnapshot
from ..observability import events as ev
from ..observability.recorder import (
    NULL_RECORDER,
    CompositeRecorder,
    CounterRecorder,
    Recorder,
    SpanRecorder,
)
from ..reliability.errors import ConfigError, ShardError, SnapshotError
from .journal import ShardJournal, batch_fingerprint
from .seeding import COLD_PLAN, SeedPlan, train_preamble
from .shard import ShardPlan, plan_shards
from .supervisor import RetryPolicy, Supervisor, check_supervision
from .worker import ShardResult, _encode_shard, _Job

if TYPE_CHECKING:
    from ..reliability.chaos import ChaosPlan

__all__ = ["ShardResult", "BatchItemResult", "compress_batch"]


@dataclass(frozen=True)
class BatchItemResult:
    """Everything produced for one workload of a batch.

    ``container`` is the serialised artefact: a v2 container for a
    single cold shard, the multi-segment v3 framing for cold plans, the
    seeded v4 framing when any shard encoded warm (see
    :mod:`repro.container`).  Under ``on_failure="skip"`` a workload
    with failed shards carries the typed
    :class:`~repro.reliability.errors.ShardError`\\ s in ``errors`` and
    ``container is None`` — there is no such thing as a partially
    trustworthy container.
    """

    plan: ShardPlan
    shards: Tuple[ShardResult, ...]
    container: Optional[bytes]
    errors: Tuple[ShardError, ...] = ()

    @property
    def ok(self) -> bool:
        """True when every planned shard encoded successfully."""
        return not self.errors

    @property
    def num_shards(self) -> int:
        """Number of independently coded segments."""
        return len(self.shards)

    @property
    def original_bits(self) -> int:
        """Uncompressed size of the whole workload in bits."""
        return sum(s.compressed.original_bits for s in self.shards)

    @property
    def compressed_bits(self) -> int:
        """Compressed size over all segments in bits."""
        return sum(s.compressed.compressed_bits for s in self.shards)

    @property
    def num_codes(self) -> int:
        """Total emitted codes over all segments."""
        return sum(s.compressed.num_codes for s in self.shards)

    @property
    def ratio(self) -> float:
        """Compression ratio ``1 - compressed/original`` (may be negative)."""
        if self.original_bits == 0:
            return 0.0
        return 1.0 - self.compressed_bits / self.original_bits

    @property
    def ratio_percent(self) -> float:
        """Ratio as the percentage the paper's tables report."""
        return 100.0 * self.ratio

    @property
    def assigned_stream(self) -> TernaryVector:
        """The fully specified stream the decompressor reproduces."""
        return TernaryVector.concat_all([s.assigned_stream for s in self.shards])

    def verify(self, original: TernaryVector) -> bool:
        """True iff the decoded stream covers every specified bit."""
        return self.ok and self.assigned_stream.covers(original)


def _broadcast(value, count: int, name: str) -> List:
    """Expand a scalar to ``count`` copies; validate sequence lengths."""
    if value is None or not isinstance(value, (list, tuple)):
        return [value] * count
    if len(value) != count:
        raise ConfigError(
            f"{name} has {len(value)} entries for {count} streams",
            field=name,
            expected=count,
            actual=len(value),
        )
    return list(value)


def compress_batch(
    configs: Union[LZWConfig, Sequence[Optional[LZWConfig]], None],
    streams: Sequence[TernaryVector],
    workers: Optional[int] = None,
    shard_bits: int = 0,
    pattern_bits: Union[int, Sequence[int]] = 0,
    plans: Optional[Sequence[ShardPlan]] = None,
    recorder: Optional[Recorder] = None,
    retry_policy: Optional[RetryPolicy] = None,
    shard_timeout: Optional[float] = None,
    on_failure: str = "fail",
    checkpoint: Optional[Union[str, "os.PathLike"]] = None,
    resume: bool = False,
    chaos: Optional[ChaosPlan] = None,
    seed_plan: Union[SeedPlan, str, None] = None,
) -> List[BatchItemResult]:
    """Compress a batch of scan streams across a supervised worker pool.

    Parameters
    ----------
    configs:
        One :class:`LZWConfig` shared by every stream, a per-stream
        sequence, or ``None`` for the defaults.
    streams:
        The ternary scan streams, one per workload.  An empty sequence
        returns an empty result list; a zero-length stream yields one
        (empty-segment) container.
    workers:
        Pool size; ``None`` means ``os.cpu_count()`` and ``<= 1`` runs
        inline.  **Never affects the output bytes.**  The job builds
        one pool, capped at its widest round (every pending shard for
        cold and preamble plans, one shard per workload for ``wave``),
        and every round reuses it; a job that cannot run two shards at
        once runs inline.  No pool worker outlives the call, whether it
        returns or raises.
    shard_bits:
        Target shard size in bits; ``0`` disables intra-stream sharding
        (each workload is one segment).
    pattern_bits:
        Pattern (vector) width per stream — cuts are aligned up to its
        multiples so no vector straddles shards.  Scalar or per-stream.
    plans:
        Explicit per-stream :class:`ShardPlan`\\ s, overriding
        ``shard_bits``/``pattern_bits`` planning.
    recorder:
        Optional :mod:`repro.observability` sink.  The parent records
        ``plan``/``encode``/``reassemble`` spans, the ``batch.*``
        planning and supervision counters, and ``retry`` spans; each
        worker records its own shard snapshot which is merged back in
        ``(workload, shard)`` order under a ``shard[i.j]`` label — so
        merged counters are identical for every ``workers`` value, and
        only span timings vary.
    retry_policy:
        :class:`~repro.parallel.supervisor.RetryPolicy` for failed shard
        attempts (default: 3 attempts, deterministic seeded backoff).
    shard_timeout:
        Seconds one shard attempt may run before it is declared hung
        (``None`` disables timeouts).
    on_failure:
        What to do with a shard that exhausts its retries: ``"fail"``
        raises :class:`~repro.reliability.errors.ShardError`,
        ``"degrade"`` re-runs it inline (serial fallback), ``"skip"``
        records the error in the workload's
        :attr:`BatchItemResult.errors` and continues.
    checkpoint:
        Path of a shard-completion journal.  Completed shards are
        appended as they finish; with ``resume=True`` an existing
        journal for the *same* batch (validated by fingerprint and
        per-entry CRC) is replayed so a killed run restarts from its
        completed shards — with bytes identical to an uninterrupted run.
    chaos:
        A :class:`~repro.reliability.chaos.ChaosPlan` for fault drills;
        ``None`` (always, outside the chaos harness) runs clean.
    seed_plan:
        A :class:`~repro.parallel.seeding.SeedPlan` (or its mode name)
        choosing how shards warm their dictionaries: ``"cold"`` (the
        default), ``"preamble"`` (each workload trains a snapshot on a
        stream prefix and seeds every shard from it) or ``"wave"``
        (shard *i* seeds from shard *i-1*'s final state; same-numbered
        shards of different workloads run concurrently).  Warm plans
        emit v4 containers; cold plans keep v2/v3 bit-for-bit.  Like
        ``workers``, the *execution schedule* never affects the bytes —
        but the seed plan itself does, which is why it is part of the
        batch fingerprint.

    Returns one :class:`BatchItemResult` per input stream, in input
    order.
    """
    # Validate the supervision knobs up front (not lazily when the
    # supervisor is built) so an empty batch with a bogus policy still
    # fails with the typed error instead of silently succeeding.
    check_supervision(on_failure, shard_timeout)
    if resume and checkpoint is None:
        raise ConfigError(
            "resume=True needs a checkpoint path", field="resume"
        )
    if seed_plan is None:
        seed_plan = COLD_PLAN
    elif isinstance(seed_plan, str):
        seed_plan = SeedPlan(mode=seed_plan)
    rec = recorder if recorder is not None else NULL_RECORDER
    recording = rec.enabled
    streams = list(streams)
    with rec.span("plan"):
        config_list = [
            cfg or LZWConfig() for cfg in _broadcast(configs, len(streams), "configs")
        ]
        pattern_list = _broadcast(pattern_bits, len(streams), "pattern_bits")
        if plans is None:
            plan_list = [
                plan_shards(len(stream), shard_bits, pattern or 0)
                for stream, pattern in zip(streams, pattern_list)
            ]
        else:
            plan_list = list(plans)
            if len(plan_list) != len(streams):
                raise ConfigError(
                    f"plans has {len(plan_list)} entries for {len(streams)} streams",
                    field="plans",
                    expected=len(streams),
                    actual=len(plan_list),
                )

        shard_streams: Dict[Tuple[int, int], TernaryVector] = {}
        shard_configs: Dict[Tuple[int, int], LZWConfig] = {}
        for item_index, (stream, config, plan) in enumerate(
            zip(streams, config_list, plan_list)
        ):
            for shard_index, shard in enumerate(plan.split(stream)):
                shard_streams[(item_index, shard_index)] = shard
                shard_configs[(item_index, shard_index)] = config
    if recording:
        rec.incr(ev.BATCH_WORKLOADS, len(streams))
        rec.incr(ev.BATCH_SHARDS, len(shard_streams))

    journal: Optional[ShardJournal] = None
    results: Dict[Tuple[int, int], object] = {}
    if checkpoint is not None:
        fingerprint = batch_fingerprint(config_list, streams, plan_list, seed_plan)
        journal = ShardJournal.open(checkpoint, fingerprint, resume=resume)
        for key, replayed in journal.completed.items():
            if key in shard_streams:
                results[key] = replayed
                if recording:
                    rec.incr(ev.BATCH_JOURNAL_HITS)

    pending = sorted(key for key in shard_streams if key not in results)

    # Per-shard seeding state: key -> (mode, snapshot, link).  Absent
    # keys are cold.  Preamble snapshots are trained serially here in
    # the parent (one prefix encode per multi-shard workload with
    # pending shards); wave seeds are resolved round by round below.
    shard_seeds: Dict[Tuple[int, int], Tuple[int, object, Optional[int]]] = {}
    if seed_plan.mode == "preamble":
        pending_items = {key[0] for key in pending}
        with rec.span("train"):
            for item_index, (stream, config, plan) in enumerate(
                zip(streams, config_list, plan_list)
            ):
                if plan.num_shards <= 1:
                    continue
                bits = seed_plan.resolve_preamble_bits(plan)
                if bits <= 0:
                    continue
                if item_index not in pending_items:
                    # Every shard replayed from the journal: the dump
                    # below rebuilds seeds from the replayed results,
                    # no need to re-train.
                    continue
                train_rec: Recorder = NULL_RECORDER
                if recording:
                    train_rec = CompositeRecorder([CounterRecorder(), SpanRecorder()])
                snapshot = train_preamble(stream, config, bits, recorder=train_rec)
                if recording:
                    rec.merge_child(train_rec.snapshot(), f"preamble[{item_index}]")
                if snapshot is None:
                    continue
                for shard_index in range(plan.num_shards):
                    shard_seeds[(item_index, shard_index)] = (SEED_BLOB, snapshot, None)
        if recording and shard_seeds:
            rec.incr(ev.BATCH_SEEDED_SHARDS, len(shard_seeds))

    want_final = {
        key: seed_plan.mode == "wave"
        and key[1] < plan_list[key[0]].num_shards - 1
        for key in shard_streams
    }

    def _make_args(key: Tuple[int, int], attempt: int) -> _Job:
        mode, snapshot, link = shard_seeds.get(key, (SEED_COLD, None, None))
        return (
            key[0],
            key[1],
            shard_streams[key],
            shard_configs[key],
            recording,
            chaos,
            attempt,
            snapshot,
            link,
            want_final[key],
        )

    def _validate(key: Tuple[int, int], result: ShardResult) -> Optional[str]:
        # The one cheap end-to-end check the parent can make without
        # the workload context: the decoded shard must still cover the
        # shard it was cut from.  Catches corrupted-input encodes that
        # are otherwise perfectly well-formed.
        if not result.assigned_stream.covers(shard_streams[key]):
            return (
                f"shard ({key[0]}, {key[1]}) result does not cover its "
                "input stream"
            )
        return None

    def _on_result(key: Tuple[int, int], result: ShardResult) -> None:
        # Fired per accepted shard, so a batch aborted by a later
        # shard's ShardError still leaves its completed work resumable.
        if journal is not None:
            journal.record(key[0], key[1], result)

    def _chain_state(prev: ShardResult, config: LZWConfig):
        # Prefer the final-state snapshot the worker shipped; fall back
        # to re-deriving it from the predecessor's codes (journal entry
        # from a degraded run, unreadable snapshot) so a lost seed costs
        # one replay, never the wave.
        if prev.final_state is not None:
            try:
                return DictionarySnapshot.from_bytes(prev.final_state)
            except SnapshotError:
                pass
        if recording:
            rec.incr(ev.BATCH_SEED_REDERIVATIONS)
        return derive_final_snapshot(
            prev.compressed.codes, config, seed=prev.seed, link=prev.link
        )

    if seed_plan.mode == "wave":
        # Pipelined rounds: round r encodes shard r of every workload
        # concurrently, seeded from round r-1's final states.
        # Parallelism comes from the workload axis.
        max_shards = max((plan.num_shards for plan in plan_list), default=0)
        rounds = [
            [key for key in pending if key[1] == index]
            for index in range(max_shards)
        ]
    else:
        rounds = [pending]
    if workers is None:
        workers = os.cpu_count() or 1
    # One supervisor, and so at most one pool, for the whole job: every
    # round reuses it.  Sized once by the widest round — the most shards
    # that can ever run at once — so a small first round (a resumed
    # job) cannot starve later, larger ones, and a job that is one
    # chain runs inline.
    supervisor = Supervisor(
        _encode_shard,
        _make_args,
        workers=min(workers, max(map(len, rounds), default=0)),
        retry_policy=retry_policy,
        shard_timeout=shard_timeout,
        on_failure=on_failure,
        validate=_validate,
        recorder=rec,
        on_result=_on_result,
    )
    try:
        with rec.span("encode"):
            for round_keys in rounds:
                runnable = []
                for key in round_keys:
                    item_index, shard_index = key
                    if seed_plan.mode == "wave" and shard_index > 0:
                        prev = results[(item_index, shard_index - 1)]
                        if isinstance(prev, ShardError):
                            # Without the predecessor's final state the
                            # shard cannot be encoded equivalently; under
                            # "skip" the whole chain tail is abandoned.
                            results[key] = ShardError(
                                f"shard ({item_index}, {shard_index}) depends "
                                "on a failed predecessor shard",
                                workload=item_index,
                                shard=shard_index,
                                kind="dependency",
                            )
                            if recording:
                                rec.incr(ev.BATCH_SKIPPED_SHARDS)
                            continue
                        codes = prev.compressed.codes
                        shard_seeds[key] = (
                            SEED_CHAIN,
                            _chain_state(prev, shard_configs[key]),
                            codes[-1] if codes else prev.link,
                        )
                        if recording:
                            rec.incr(ev.BATCH_SEEDED_SHARDS)
                    runnable.append(key)
                if runnable:
                    results.update(supervisor.run(runnable))
    finally:
        # Reaps every pool worker, whether the job returned or raised.
        supervisor.close()
        if journal is not None:
            journal.close()

    with rec.span("reassemble"):
        # Deterministic reassembly: order by (workload, shard), never by
        # completion.  Worker snapshots merge in the same order, so
        # merged metrics are worker-count- and retry-schedule-
        # independent.
        per_item: List[List[ShardResult]] = [[] for _ in streams]
        per_item_errors: List[List[ShardError]] = [[] for _ in streams]
        for (item_index, shard_index), outcome in sorted(results.items()):
            if isinstance(outcome, ShardError):
                per_item_errors[item_index].append(outcome)
                continue
            per_item[item_index].append(outcome)
            if recording:
                rec.merge_child(outcome.metrics, f"shard[{item_index}.{shard_index}]")

        out = []
        for plan, shards, errors in zip(plan_list, per_item, per_item_errors):
            shard_tuple = tuple(shards)
            if errors:
                out.append(
                    BatchItemResult(plan, shard_tuple, None, tuple(errors))
                )
                continue
            seeds = None
            if any(s.seed_mode != SEED_COLD for s in shard_tuple):
                seeds = [
                    SegmentSeed(s.seed_mode, s.seed, s.link) for s in shard_tuple
                ]
            container = dump_segments(
                [s.compressed for s in shard_tuple],
                [s.assigned_stream for s in shard_tuple],
                recorder=rec,
                seeds=seeds,
            )
            out.append(BatchItemResult(plan, shard_tuple, container))
    return out
