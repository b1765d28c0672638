"""Clocks, CPU and memory probes, percentiles and the result record.

Everything here observes the program from outside: wall clocks around
calls, ``os.times()`` for this process and its reaped children, and
``/proc/<pid>`` for live helper processes (``repro serve``/``fleet``).
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

#: Bits in one reported megabyte (decimal MB of original test data).
BITS_PER_MB = 8e6

#: How many times a run builds its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """CPU seconds (user + system) a live process has used so far."""
    with open(f"/proc/{pid}/stat") as fh:
        # The command name may hold spaces; fields resume after ')'.
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def proc_peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM (peak resident set) of a live process, in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM line in {path}")


def children_peak_rss_mb() -> float:
    """Largest peak RSS among this process's reaped children, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6


class CpuMeter:
    """CPU seconds of this process, its reaped children and watched pids.

    Started right before the timed phase and read right after it, so
    set-up and checking work stay out of ``cpu_s_per_mb``.
    """

    def __init__(self, pids: Sequence[int] = ()) -> None:
        self.pids = list(pids)
        self._start = self._sample()

    def _sample(self) -> List[float]:
        t = os.times()
        own = t.user + t.system
        children = t.children_user + t.children_system
        return [own, children] + [proc_cpu_s(pid) for pid in self.pids]

    def elapsed(self) -> List[float]:
        """Per-source CPU seconds since start: own, children, each pid."""
        return [b - a for a, b in zip(self._start, self._sample())]


def percentile(samples: Sequence[float], q: int) -> Optional[float]:
    """The ``q``-th percentile, or None without enough samples beyond it.

    ``q=50`` is the median and needs no tail; any higher percentile needs
    :data:`MIN_TAIL_SAMPLES` samples above it, i.e. at least
    ``MIN_TAIL_SAMPLES * 100 / (100 - q)`` samples in all.
    """
    if not samples:
        return None
    if q == 50:
        return statistics.median(samples)
    if len(samples) * (100 - q) / 100 < MIN_TAIL_SAMPLES:
        return None
    return statistics.quantiles(samples, n=100)[q - 1]


#: Work of one speed probe: a fixed pure-Python loop that runs no repro
#: code, so no change to the program can move it.
PROBE_LOOPS = 30000

#: Probe time that counts as reference speed: about the probe's median on
#: a 2-CPU Xeon VM at 2.0 GHz.  Timing metrics are reported at this speed.
PROBE_REFERENCE_S = 0.003


def probe() -> float:
    """Seconds one speed probe takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class Speed:
    """Machine-speed samples; the scale of every reported time.

    On a shared host the CPU itself runs slower or faster for seconds to
    minutes at a time, each CPU on its own, and wall and CPU time move
    together (by ±25 % on the VM this benchmark was tuned on).  A sample
    runs the probe once on every CPU the process may use; ``factor``
    rescales a time measured beside the samples to what it would read at
    :data:`PROBE_REFERENCE_S`.

    ``stop`` lists helper processes of the program (``repro serve`` and
    ``repro fleet``).  They are held with SIGSTOP while the probe runs,
    so work they do in the background cannot slow the probe and so
    cannot make the program's own times read faster.
    """

    def __init__(self, stop: Sequence[int] = ()) -> None:
        self.samples: List[float] = []
        self.stop = list(stop)
        #: Wall and own CPU seconds spent probing, left out of the timings.
        self.spent = 0.0
        self.spent_cpu = 0.0
        self._cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

    def sample(self, count: int = 1) -> None:
        """Probe ``count`` times on each CPU, with the helpers held."""
        start = time.perf_counter()
        start_cpu = time.process_time()
        held = _hold(self.stop)
        try:
            for _ in range(count):
                if len(self._cpus) < 2:
                    self.samples.append(probe())
                    continue
                try:
                    for cpu in self._cpus:
                        os.sched_setaffinity(0, {cpu})
                        self.samples.append(probe())
                finally:
                    os.sched_setaffinity(0, self._cpus)
        finally:
            _release(held)
        self.spent += time.perf_counter() - start
        self.spent_cpu += time.process_time() - start_cpu

    def factor(self) -> float:
        return PROBE_REFERENCE_S / statistics.median(self.samples)


def _proc_state(pid: int) -> str:
    with open(f"/proc/{pid}/stat") as fh:
        return fh.read().rsplit(")", 1)[1].split()[0]


def _hold(pids: Sequence[int]) -> List[int]:
    """SIGSTOP each pid and wait until it is stopped; the pids held."""
    held = []
    try:
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)
            held.append(pid)
        deadline = time.perf_counter() + 1.0
        for pid in held:
            while _proc_state(pid) not in "Tt" and time.perf_counter() < deadline:
                time.sleep(0.0002)
    except BaseException:
        _release(held)
        raise
    return held


def _release(pids: Sequence[int]) -> None:
    for pid in reversed(pids):
        os.kill(pid, signal.SIGCONT)


class Phase(NamedTuple):
    """One timed phase: its tally, whole passes, wall and CPU seconds.

    ``wall`` and ``cpu`` are as measured; ``speed`` is the factor that
    brings them (and the op latencies) to reference speed.
    """

    tally: "Tally"
    passes: int
    wall: float
    cpu: List[float]
    tracer: "Tracer"
    speed: float


def run_phase(workload, state, seconds: float, tracer: "Tracer") -> Phase:
    """Run whole passes of ``workload`` until ``seconds`` of pass time.

    A pass is the workload's unit of complete, balanced work, so every
    run measures the same mix no matter where the clock runs out.  Speed
    probes run between passes (and inside long ones, by the workload);
    their time is left out of the wall and CPU figures.  The outputs are
    checked after the clock stops.
    """
    tally = Tally()
    speed = Speed(workload.pids(state))
    meter = CpuMeter(workload.pids(state))
    speed.sample(2)
    passes = 0
    wall = 0.0
    while wall < seconds:
        spent = speed.spent
        start = time.perf_counter()
        workload.run_pass(state, passes, tally, tracer, speed)
        wall += time.perf_counter() - start - (speed.spent - spent)
        passes += 1
        speed.sample(2)
    cpu = meter.elapsed()
    cpu[0] -= speed.spent_cpu
    workload.check(state, tally)
    return Phase(tally, passes, wall, cpu, tracer, speed.factor())


def median_setup(build, teardown, pids, repeats: int = SETUP_REPEATS):
    """Build the set-up ``repeats`` times; keep the last, time them all.

    ``build()`` returns the workload state; ``teardown(state)``, if given,
    releases an earlier build before the next one starts; ``pids(state)`` names
    the helper processes the kept build runs, held while the speed is
    probed.  Returns the kept state, the median build seconds and the
    speed factor beside them.
    """
    times = []
    speed = Speed()
    state = None
    for index in range(repeats):
        if state is not None and teardown is not None:
            teardown(state)
        speed.sample(2)
        start = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - start)
    speed.stop = pids(state)
    speed.sample(2)
    return state, statistics.median(times), speed.factor()


def sum_spans(spans: Iterable, predicate) -> float:
    """Seconds of the ``(name, seconds)`` spans whose name matches."""
    return sum(seconds for name, seconds in spans if predicate(name))


class Tally:
    """Ops attempted, failed and timed in one phase, plus bits completed."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.bits = 0
        self.errors: List[str] = []
        #: Latencies split by op kind, for workloads that mix kinds.
        self.kinds: Dict[str, List[float]] = {}

    def op(self, seconds: float, bits: int, kind: Optional[str] = None) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        self.bits += bits
        if kind is not None:
            self.kinds.setdefault(kind, []).append(seconds)

    def fail(self, message: str, ops: int = 1) -> None:
        """Mark ``ops`` already-counted ops as failed (wrong or errored)."""
        self.failed += ops
        if len(self.errors) < 5:
            self.errors.append(message)


class _NullLayer:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_LAYER = _NullLayer()


class _Layer:
    __slots__ = ("_busy", "_name", "_start")

    def __init__(self, busy: Dict[str, float], name: str) -> None:
        self._busy = busy
        self._name = name

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        self._busy[self._name] = self._busy.get(self._name, 0.0) + elapsed
        return False


class Tracer:
    """Busy time per layer, measured around the bench's calls into it.

    With ``enabled=False`` it hands out a no-op context and no recorder,
    so the untraced phase runs the same code with nothing attached.
    With ``enabled=True`` it also carries the library's own
    ``CounterRecorder``/``SpanRecorder`` pair, passed as ``recorder=``
    to every public function that takes one.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.busy: Dict[str, float] = {}
        self.recorder = None
        self.counters = None
        self.spans = None
        if enabled:
            from repro import CompositeRecorder, CounterRecorder, SpanRecorder

            self.counters = CounterRecorder()
            self.spans = SpanRecorder()
            self.recorder = CompositeRecorder([self.counters, self.spans])

    def layer(self, name: str):
        if not self.enabled:
            return _NULL_LAYER
        return _Layer(self.busy, name)

    def counter(self, name: str) -> int:
        return self.counters.counters.get(name, 0) if self.enabled else 0

    def span_seconds(self, predicate) -> float:
        return sum_spans(self.spans.spans, predicate) if self.enabled else 0.0
