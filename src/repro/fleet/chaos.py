"""Fleet chaos campaign: faults at the dispatcher tier, oracle-checked.

Each trial runs one :class:`~repro.reliability.chaos.FleetFaultPlan`
against a real fleet — three ``repro serve`` subprocesses behind an
in-process :class:`~repro.fleet.dispatcher.FleetDispatcher` — and
classifies **every** reply against the serial oracle
(:func:`repro.core.compress` on the same input) with
:func:`~repro.reliability.campaign.classify_reply`: a byte-identical
``ok`` reply is correct, a typed error with a documented code is
detected (honest shedding under the fault), an ``ok`` reply with other
bytes is silent, anything else is escaped.  The trial takes the worst
of its replies; a trial *note* (a transport failure, no cache entry to
tamper, a tampered entry never detected) makes it escaped.

Fault implementations (the plan decides *when/who*, this module acts):

* ``backend_kill`` — SIGKILL the target backend mid-run;
* ``backend_hang`` — SIGSTOP it (sockets stay open, nothing answers);
* ``backend_partition`` — the target backend sits behind a
  :class:`ChaosProxy`; the fault cuts it, so established connections
  die and new ones are accepted-then-dropped;
* ``cache_tamper`` — the trial sends *repeated* payloads to populate
  the result cache, then flips one byte of an entry on disk; the
  verified-read path must turn that into a miss (``fleet.cache_corrupt``)
  and re-fetch, never replay the damage.
"""

from __future__ import annotations

import socket
import threading
import random
from pathlib import Path
from typing import List, Optional, Sequence

from ..container import dump_bytes
from ..core import LZWConfig, compress
from ..observability import events as ev
from ..reliability.campaign import CampaignResult, Trial, TrialOutcome, classify_reply
from ..reliability.chaos import FLEET_FAULTS, FleetFaultPlan
from ..reliability.errors import ProtocolError
from ..service.protocol import ServiceClient
from ..testfile import parse_test_text
from .cache import _SUFFIX
from .dispatcher import FleetConfig, FleetDispatcher
from .procs import BackendProcess, spawn_backend, stop_backend

__all__ = ["ChaosProxy", "run_trial", "run_campaign"]

#: Backend tuning for trials: fast drain, fast breaker, debug ops off.
BACKEND_ARGS = (
    "--workers", "2",
    "--queue-depth", "8",
    "--drain-grace", "3.0",
    "--breaker-threshold", "3",
    "--breaker-cooldown", "0.5",
)


class ChaosProxy(threading.Thread):
    """TCP forwarder with a kill switch, modelling a network partition.

    Until :meth:`cut`, bytes flow both ways transparently.  After it,
    every established connection is torn down and new connections are
    accepted and immediately closed — the "dropped sockets" flavour of
    partition, which a dispatcher sees as connect-then-EOF rather than
    connection-refused.
    """

    def __init__(self, upstream: str) -> None:
        super().__init__(name="repro-chaos-proxy", daemon=True)
        host, _, port = upstream.rpartition(":")
        self.upstream = (host, int(port))
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(32)
        self.listener.settimeout(0.2)
        self.address = "%s:%d" % self.listener.getsockname()[:2]
        self._cut = threading.Event()
        # _stop would shadow threading.Thread internals; see HealthProber.
        self._closing = threading.Event()
        self._active: List[socket.socket] = []
        self._lock = threading.Lock()

    def cut(self) -> None:
        """Partition: drop every live connection, refuse service."""
        self._cut.set()
        with self._lock:
            active, self._active = list(self._active), []
        for sock in active:
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        self._closing.set()
        self.cut()
        try:
            self.listener.close()
        except OSError:
            pass

    def run(self) -> None:
        while not self._closing.is_set():
            try:
                client, _ = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            if self._cut.is_set():
                client.close()  # accepted, then dropped: the partition
                continue
            try:
                upstream = socket.create_connection(self.upstream, timeout=2.0)
            except OSError:
                client.close()
                continue
            with self._lock:
                self._active += [client, upstream]
            for source, sink in ((client, upstream), (upstream, client)):
                threading.Thread(
                    target=self._pump, args=(source, sink), daemon=True
                ).start()

    def _pump(self, source: socket.socket, sink: socket.socket) -> None:
        try:
            while True:
                chunk = source.recv(65536)
                if not chunk:
                    break
                sink.sendall(chunk)
        except OSError:
            pass
        for sock in (source, sink):
            try:
                sock.close()
            except OSError:
                pass


def _trial_texts(plan: FleetFaultPlan) -> List[str]:
    """Deterministic cube texts for one trial.

    ``cache_tamper`` repeats one text (the cache must fill and then
    survive the tampering); every other fault gets unique texts so each
    request exercises routing rather than the cache.
    """
    def text_for(tag) -> str:
        rng = random.Random(f"fleet-trial:{plan.fault}:{plan.seed}:{tag}")
        rows = [
            "".join(rng.choice("01X") for _ in range(8)) for _ in range(6)
        ]
        return "\n".join(rows) + "\n"

    if plan.fault == "cache_tamper":
        return [text_for("repeat")] * plan.requests
    return [text_for(i) for i in range(plan.requests)]


def _oracle(text: str) -> bytes:
    result = compress(parse_test_text(text).to_stream(), LZWConfig())
    return dump_bytes(result.compressed, result.assigned_stream)


def _tamper_cache(cache_dir: Path, plan: FleetFaultPlan) -> bool:
    """Flip one byte of one cache entry; False if there is none yet."""
    entries = sorted(cache_dir.glob(f"*/*{_SUFFIX}"))
    if not entries:
        return False
    target = entries[plan.target_backend % len(entries)]
    data = target.read_bytes()
    target.write_bytes(plan.tamper(data))
    return True


def run_trial(plan: FleetFaultPlan, work_dir: Path) -> Trial:
    """One fault, one seed, one fresh fleet, classified."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = work_dir / "cache"
    backends: List[BackendProcess] = []
    proxy: Optional[ChaosProxy] = None
    dispatcher: Optional[FleetDispatcher] = None
    replies = {outcome: 0 for outcome in TrialOutcome}
    notes: List[str] = []
    try:
        for _ in range(plan.backends):
            backends.append(spawn_backend(BACKEND_ARGS))
        addresses = [backend.address for backend in backends]
        target = plan.target_backend % len(backends)
        if plan.fault == "backend_partition":
            proxy = ChaosProxy(addresses[target])
            proxy.start()
            addresses[target] = proxy.address
        config = FleetConfig(
            port=0,
            workers=2,
            queue_depth=16,
            backends=tuple(addresses),
            probe_interval=0.25,
            probe_timeout=0.5,
            backend_timeout=2.0,
            backend_connect_timeout=1.0,
            failover_attempts=2,
            backend_breaker_threshold=2,
            backend_breaker_cooldown=0.5,
            cache_dir=str(cache_dir),
            default_deadline=20.0,
        )
        dispatcher = FleetDispatcher(config)
        dispatcher.start()
        texts = _trial_texts(plan)
        expected = {text: _oracle(text) for text in set(texts)}
        client = ServiceClient(dispatcher.address, timeout=30.0)
        try:
            for index, text in enumerate(texts):
                if index == plan.trigger_index:
                    if plan.fault == "backend_kill":
                        backends[target].kill()
                    elif plan.fault == "backend_hang":
                        backends[target].pause()
                    elif plan.fault == "backend_partition":
                        proxy.cut()
                    else:  # cache_tamper
                        if not _tamper_cache(cache_dir, plan):
                            notes.append("no cache entry to tamper")
                try:
                    header, payload = client.compress(text, deadline_ms=15000)
                except (ProtocolError, OSError) as exc:
                    replies[TrialOutcome.ESCAPED] += 1
                    notes.append(f"request {index}: transport failure: {exc}")
                    client.close()
                    client = ServiceClient(dispatcher.address, timeout=30.0)
                    continue
                replies[classify_reply(header, payload, expected[text])] += 1
        finally:
            client.close()
        counters = dispatcher.recorder.snapshot().get("counters", {})
    finally:
        if dispatcher is not None:
            dispatcher.request_drain()
            dispatcher.drain()
        if proxy is not None:
            proxy.close()
        for backend in backends:
            backend.resume()
            if backend.alive():
                stop_backend(backend, timeout=10.0)
            else:
                backend.kill()
    if plan.fault == "cache_tamper" and not counters.get(ev.FLEET_CACHE_CORRUPT):
        notes.append("tampered entry was never detected as corrupt")
    # The trial takes its worst reply; a note fails it.
    if replies[TrialOutcome.SILENT]:
        outcome = TrialOutcome.SILENT
    elif replies[TrialOutcome.ESCAPED] or notes:
        outcome = TrialOutcome.ESCAPED
    elif replies[TrialOutcome.DETECTED]:
        outcome = TrialOutcome.DETECTED
    else:
        outcome = TrialOutcome.CORRECT
    return Trial(
        plan.fault,
        f"seed={plan.seed}",
        outcome,
        detail="; ".join(notes),
        facts={
            "replies": {o.value: n for o, n in replies.items()},
            "trigger_index": plan.trigger_index,
            "target_backend": plan.target_backend % plan.backends,
            "counters": {
                name: value
                for name, value in sorted(counters.items())
                if name.startswith("fleet.")
            },
        },
    )


def run_campaign(
    seeds: Sequence[int],
    work_dir: Path,
    faults: Sequence[str] = FLEET_FAULTS,
    requests: int = 24,
) -> CampaignResult:
    """The full fault × seed matrix; ``info`` totals the replies."""
    trials = tuple(
        run_trial(
            FleetFaultPlan(fault, seed=seed, requests=requests),
            Path(work_dir) / f"{fault}-{seed}",
        )
        for fault in faults
        for seed in seeds
    )
    replies = {o.value: 0 for o in TrialOutcome}
    for trial in trials:
        for name, count in trial.facts["replies"].items():
            replies[name] += count
    return CampaignResult(trials, {"replies": replies})
