"""What a batch pool worker runs: one shard encode under a timeout.

Everything a spawn worker needs to execute a shard job lives here, so
that unpickling the submitted callable loads only the encode path:
:mod:`repro.bitstream` ternary vectors and bit I/O, the
:mod:`repro.core` encode and decode modules (config, dictionary,
matchers, stream, encoder, decoder, metrics), the recorders and event
names of :mod:`repro.observability`, and the error taxonomy.
The parent-side machinery — :mod:`repro.parallel.engine` (planning,
seeding, reassembly), :mod:`repro.parallel.supervisor` (retries, the
pool itself), the checkpoint journal and the container writer — stays
out of the workers.  A chaos plan loads :mod:`repro.reliability.chaos`
only when a job carries one (fault drills).

Spawn also re-runs the caller's ``__main__`` module in every worker
(as ``__mp_main__``), so a script that submits batch jobs keeps its
own top-level imports light too; ``repro.cli`` imports its subcommand
dependencies inside the subcommands for this reason.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

from ..bitstream.ternary import TernaryVector
from ..core.config import LZWConfig
from ..core.decoder import decode
from ..core.dictionary import SEED_BLOB, SEED_CHAIN, SEED_COLD, DictionarySnapshot
from ..core.encoder import CompressedStream, LZWEncoder
from ..core.stream import EncodeStats
from ..observability.recorder import (
    NULL_RECORDER,
    CompositeRecorder,
    CounterRecorder,
    Recorder,
    SpanRecorder,
)

if TYPE_CHECKING:
    from ..reliability.chaos import ChaosPlan

__all__ = ["ShardResult"]

#: One shard job: (workload index, shard index, shard stream, config,
#: whether the worker should record a metrics snapshot, the chaos plan
#: (None outside fault drills), the 0-based attempt number, the seed
#: snapshot and link code (both None for a cold shard), and whether the
#: worker should ship its final dictionary state back (wave mode).
_Job = Tuple[
    int,
    int,
    TernaryVector,
    LZWConfig,
    bool,
    Optional["ChaosPlan"],
    int,
    Optional[DictionarySnapshot],
    Optional[int],
    bool,
]


@dataclass(frozen=True)
class ShardResult:
    """One encoded shard: codes, the implied X assignment and stats.

    ``metrics`` is the worker-local recorder snapshot (counters,
    histograms and encode/assign spans) when the batch ran with a
    recorder attached, else ``None``.  Snapshots travel with the result
    precisely because worker processes cannot share the caller's
    recorder object.

    ``seed_mode``/``seed``/``link`` echo the seeding state the shard
    was encoded under (see :mod:`repro.parallel.seeding`), and
    ``final_state`` carries the encoder's final dictionary snapshot in
    serialized form when the shard feeds a pipelined-wave successor.
    The final state is an optimisation, never an authority: a missing
    or unreadable snapshot is re-derived from the shard's codes.
    """

    index: int
    compressed: CompressedStream
    assigned_stream: TernaryVector
    stats: EncodeStats
    metrics: Optional[dict] = None
    seed_mode: int = SEED_COLD
    seed: Optional[DictionarySnapshot] = None
    link: Optional[int] = None
    final_state: Optional[bytes] = None


def _encode_shard(job: _Job) -> ShardResult:
    """Pool worker: encode one shard with a fresh dictionary.

    Module-level (picklable by reference) and pure — the only state is
    the job tuple, so spawn and inline execution (and any retry of the
    same job) agree exactly.  The chaos plan, when present, is the
    injectable pre-encode hook the fault drills use: it may raise, kill
    or hang the worker, or corrupt the input stream before encoding.
    When recording, the shard gets its own counter+span sinks and ships
    the snapshot back with the result for deterministic merging.
    """
    (
        item_index,
        shard_index,
        stream,
        config,
        record,
        chaos,
        attempt,
        seed,
        link,
        want_final,
    ) = job
    if chaos is not None:
        stream = chaos.apply(item_index, shard_index, attempt, stream)
    rec: Recorder = NULL_RECORDER
    if record:
        rec = CompositeRecorder([CounterRecorder(), SpanRecorder()])
    encoder = LZWEncoder(config, recorder=rec, seed=seed, link=link)
    with rec.span("encode"):
        compressed = encoder.encode(stream)
    with rec.span("assign"):
        assigned = decode(compressed, recorder=rec, seed=seed, link=link)
    if link is not None:
        seed_mode = SEED_CHAIN
    elif seed is not None:
        seed_mode = SEED_BLOB
    else:
        seed_mode = SEED_COLD
    final_state = None
    if want_final:
        final_state = encoder.dictionary.snapshot().to_bytes()
    return ShardResult(
        index=shard_index,
        compressed=compressed,
        assigned_stream=assigned,
        stats=encoder.stats(),
        metrics=rec.snapshot() if record else None,
        seed_mode=seed_mode,
        seed=seed,
        link=link,
        final_state=final_state,
    )


class _WorkerTimeout(Exception):
    """Raised inside a worker when its SIGALRM budget expires."""


def _call_with_timeout(fn: Callable[[Any], Any], args: Any, timeout: Optional[float]):
    """Run ``fn(args)``, bounded by a ``SIGALRM``-based timeout.

    Module-level so the pool can pickle it by reference; it is the
    callable every pool submission names, so its module is the one a
    worker imports first.  Contexts without a usable alarm — Windows
    (no ``SIGALRM``), non-main threads (``signal.signal`` raises
    ``ValueError``), restricted environments where installing the
    handler or arming the timer fails — degrade cleanly to an unbounded
    call here; the parent-side wave watchdog is the backstop that still
    catches the hang.  Nothing in this function may raise at startup
    for a platform limitation: a worker that can't arm an alarm must
    still run its shard.
    """
    if not timeout or not hasattr(signal, "SIGALRM"):
        return fn(args)

    def _on_alarm(signum, frame):
        raise _WorkerTimeout(f"shard attempt exceeded {timeout}s")

    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except (ValueError, OSError, RuntimeError):
        # Not the main thread, or signals are unavailable entirely.
        return fn(args)
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
    except (ValueError, OSError, AttributeError):
        # Handler installed but the timer can't be armed: restore and
        # fall back to the watchdog rather than failing the shard.
        signal.signal(signal.SIGALRM, previous)
        return fn(args)
    try:
        return fn(args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
