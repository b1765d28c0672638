"""The fleet dispatcher: ``repro serve``'s front door across N backends.

:class:`FleetDispatcher` subclasses
:class:`~repro.service.server.CompressionServer` and keeps its entire
admission envelope — wire protocol, bounded queue, rate limiter,
deadlines, graceful drain — swapping only the execution model behind
:meth:`~repro.service.server.CompressionServer._execute_job`: instead
of running a local worker pool, a job is

1. **fingerprinted** (op + canonical config + payload) and, for
   ``compress``, looked up in the verified
   :class:`~repro.fleet.cache.ResultCache` — a hit replays the stored
   container without touching any backend;
2. **routed** over the backends in rendezvous order for that
   fingerprint, skipping every backend whose circuit breaker is not
   admitting traffic;
3. **relayed** with the request's remaining deadline; transport
   failures (dead, hung, unreachable backend) trip that backend's
   breaker and fail over to the next ranked backend within a bounded
   retry budget — backend *replies* are values: 4xx/5xx error replies
   are reconstructed as their typed exceptions and relayed verbatim,
   never retried;
4. optionally **hedged**: when the primary has not replied within
   ``hedge_after_ms``, a second identical request is launched on the
   next healthy backend and the first reply wins (the loser completes
   harmlessly on its own connection).

When every backend is skipped or exhausted the client gets a typed
``no_backends`` 503 with a ``retry_after_ms`` hint — never a hang and
never a silent drop, matching the single-server shed contract.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from ..observability import Recorder
from ..observability import events as ev
from ..reliability.errors import ConfigError, OverloadError
from ..service.protocol import error_from_reply
from ..service.server import CompressionServer, ServiceConfig, _Job
from .backends import BackendError, BackendState, HealthProber
from .cache import ResultCache
from .router import rank_backends, workload_fingerprint

__all__ = ["FleetConfig", "FleetDispatcher"]

#: Backend reply header keys that are transport framing, not result
#: fields, and must not be re-sent to the dispatcher's client.
_REPLY_FRAMING = frozenset({"id", "ok", "code", "payload_len", "error"})


@dataclass(frozen=True)
class FleetConfig(ServiceConfig):
    """Dispatcher tunables on top of the inherited service envelope.

    The inherited worker/breaker knobs keep their meaning: ``workers``
    is the number of concurrent relay threads, and the inherited
    per-server breaker fields are reused as the *per-backend* breaker
    configuration via ``backend_breaker_*`` defaults below.
    """

    backends: Tuple[str, ...] = ()
    probe_interval: float = 1.0
    probe_timeout: float = 2.0
    backend_timeout: float = 30.0
    backend_connect_timeout: float = 5.0
    failover_attempts: int = 2
    hedge_after_ms: Optional[float] = None
    backend_breaker_threshold: int = 3
    backend_breaker_cooldown: float = 2.0
    cache_dir: Optional[str] = None
    cache_entries: int = 1024
    cache_deep_verify: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.backends:
            raise ConfigError(
                "a fleet needs at least one backend", field="backends", value=()
            )
        if len(set(self.backends)) != len(self.backends):
            raise ConfigError(
                "backend addresses must be unique",
                field="backends",
                value=",".join(self.backends),
            )
        if self.failover_attempts < 0:
            raise ConfigError(
                "failover_attempts must be >= 0",
                field="failover_attempts",
                value=self.failover_attempts,
            )
        for name in (
            "probe_interval",
            "probe_timeout",
            "backend_timeout",
            "backend_connect_timeout",
            "backend_breaker_cooldown",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(
                    f"{name} must be positive", field=name, value=getattr(self, name)
                )
        if self.hedge_after_ms is not None and self.hedge_after_ms <= 0:
            raise ConfigError(
                "hedge_after_ms must be positive",
                field="hedge_after_ms",
                value=self.hedge_after_ms,
            )
        if self.backend_breaker_threshold < 1:
            raise ConfigError(
                "backend_breaker_threshold must be >= 1",
                field="backend_breaker_threshold",
                value=self.backend_breaker_threshold,
            )
        if self.cache_entries < 1:
            raise ConfigError(
                "cache_entries must be >= 1",
                field="cache_entries",
                value=self.cache_entries,
            )


class FleetDispatcher(CompressionServer):
    """Routes admitted jobs across backends instead of encoding locally."""

    config: FleetConfig

    def __init__(
        self, config: FleetConfig, recorder: Optional[Recorder] = None
    ) -> None:
        super().__init__(config, recorder=recorder)
        self.backends: Dict[str, BackendState] = {
            address: BackendState(
                address,
                breaker_threshold=config.backend_breaker_threshold,
                breaker_cooldown=config.backend_breaker_cooldown,
                timeout=config.backend_timeout,
                connect_timeout=config.backend_connect_timeout,
            )
            for address in config.backends
        }
        self.cache: Optional[ResultCache] = None
        if config.cache_dir:
            self.cache = ResultCache(
                config.cache_dir,
                max_entries=config.cache_entries,
                recorder=self.recorder,
                deep_verify=config.cache_deep_verify,
            )
        self.prober = HealthProber(
            list(self.backends.values()),
            interval=config.probe_interval,
            timeout=config.probe_timeout,
            recorder=self.recorder,
        )

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        super().start()
        self.prober.start()

    def drain(self) -> int:
        self.prober.stop()
        code = super().drain()
        for backend in self.backends.values():
            backend.close()
        return code

    # -- inline ops ----------------------------------------------------

    def _reply_inline(self, connection, op: str, request_id: Any) -> None:
        if op == "ping":
            from ..service.protocol import ok_reply

            connection.reply(
                ok_reply(
                    request_id,
                    state=self.state,
                    queue_depth=self.queue.depth,
                    breaker=self.breaker.state,
                    backends={
                        address: backend.breaker.state
                        for address, backend in self.backends.items()
                    },
                )
            )
            return
        super()._reply_inline(connection, op, request_id)

    # -- execution -----------------------------------------------------

    def _execute_job(self, job: _Job) -> Tuple[Dict[str, Any], bytes]:
        rec = self.recorder
        routing_started = time.monotonic()
        # Streaming-aware: codes_per_frame changes the v5 framing bytes
        # so it routes distinctly (an omitted field is the documented
        # default — same reply, same fingerprint); chunk_bytes does not
        # change the reply and stays out of the fingerprint.
        codes_per_frame = None
        if job.op == "compress_stream":
            from ..streamio import DEFAULT_CODES_PER_FRAME

            raw = job.header.get("codes_per_frame")
            codes_per_frame = raw if isinstance(raw, int) else DEFAULT_CODES_PER_FRAME
        fingerprint = workload_fingerprint(
            job.op,
            job.header.get("config"),
            job.payload,
            seed=job.header.get("seed"),
            codes_per_frame=codes_per_frame,
        )
        cacheable = self.cache is not None and job.op == "compress"
        if cacheable:
            hit = self.cache.get(fingerprint)
            if hit is not None:
                fields, container = hit
                if rec.enabled:
                    rec.incr(ev.FLEET_REQUESTS)
                    rec.incr(ev.FLEET_CACHE_HITS)
                    rec.observe(
                        ev.HIST_ROUTING_LATENCY_MS,
                        int((time.monotonic() - routing_started) * 1000),
                    )
                return dict(fields, cache="hit"), container
            if rec.enabled:
                rec.incr(ev.FLEET_CACHE_MISSES)
        ranked = rank_backends(fingerprint, tuple(self.backends))
        if rec.enabled:
            rec.incr(ev.FLEET_REQUESTS)
            rec.observe(
                ev.HIST_ROUTING_LATENCY_MS,
                int((time.monotonic() - routing_started) * 1000),
            )
        header, payload = self._route(job, ranked)
        if not header.get("ok"):
            raise error_from_reply(header)  # relay the typed value as-is
        fields = {
            key: value
            for key, value in header.items()
            if key not in _REPLY_FRAMING
        }
        if cacheable:
            self.cache.put(fingerprint, fields, payload)
        return fields, payload

    def _route(
        self, job: _Job, ranked: Sequence[str]
    ) -> Tuple[Dict[str, Any], bytes]:
        """Failover loop: ranked, breaker-gated, bounded retries."""
        rec = self.recorder
        attempts_left = self.config.failover_attempts + 1
        attempted = 0
        for address in ranked:
            if attempts_left <= 0:
                break
            backend = self.backends[address]
            if not backend.breaker.allow():
                continue
            attempts_left -= 1
            attempted += 1
            try:
                if attempted == 1 and self.config.hedge_after_ms is not None:
                    return self._call_hedged(job, backend, ranked)
                return self._call_one(backend, job)
            except BackendError:
                # The deadline expiring mid-call is the client's story,
                # not the backend's; surface it as a 408 immediately.
                job.token.check()
                if rec.enabled and attempts_left > 0:
                    rec.incr(ev.FLEET_FAILOVERS)
                continue
        if rec.enabled:
            rec.incr(ev.FLEET_NO_BACKENDS)
        raise OverloadError(
            "no healthy backend available",
            reason="no_backends",
            backends=len(ranked),
            attempted=attempted,
            retry_after=max(self.config.probe_interval, 0.1),
        )

    def _call_one(
        self, backend: BackendState, job: _Job
    ) -> Tuple[Dict[str, Any], bytes]:
        """One relay attempt with breaker accounting on its outcome."""
        rec = self.recorder
        remaining = job.token.remaining()
        deadline_ms = None
        reply_timeout = self.config.backend_timeout
        if remaining is not None:
            deadline_ms = max(1, int(remaining * 1000))
            # Give the backend's own 408 a moment to arrive before the
            # transport gives up on the connection.
            reply_timeout = min(reply_timeout, remaining + 1.0)
        try:
            reply = backend.call(
                job.header,
                job.payload,
                deadline_ms=deadline_ms,
                reply_timeout=reply_timeout,
            )
        except BackendError:
            backend.breaker.record_failure()
            if rec.enabled:
                rec.incr(ev.FLEET_BACKEND_ERRORS)
            raise
        backend.breaker.record_success()
        return reply

    def _next_hedge_target(
        self, ranked: Sequence[str], exclude: str
    ) -> Optional[BackendState]:
        """The hedge secondary: next ranked, *closed-breaker* backend.

        Half-open backends are deliberately skipped — a hedge must not
        consume the single recovery-probe slot a real attempt (or the
        prober) should own.
        """
        from ..service.breaker import CircuitBreaker

        for address in ranked:
            if address == exclude:
                continue
            backend = self.backends[address]
            if backend.breaker.state == CircuitBreaker.CLOSED:
                return backend
        return None

    def _call_hedged(
        self, job: _Job, primary: BackendState, ranked: Sequence[str]
    ) -> Tuple[Dict[str, Any], bytes]:
        """Primary attempt with a tail-latency hedge; first reply wins."""
        rec = self.recorder
        results: "queue.Queue" = queue.Queue()

        def attempt(backend: BackendState, is_hedge: bool) -> None:
            try:
                results.put((self._call_one(backend, job), is_hedge, None))
            except BaseException as exc:  # relayed to the caller below
                results.put((None, is_hedge, exc))

        threading.Thread(
            target=attempt,
            args=(primary, False),
            name="repro-fleet-hedge-primary",
            daemon=True,
        ).start()
        outstanding = 1
        try:
            reply, is_hedge, error = results.get(
                timeout=self.config.hedge_after_ms / 1000.0
            )
            outstanding -= 1
        except queue.Empty:
            secondary = self._next_hedge_target(ranked, exclude=primary.address)
            if secondary is not None:
                if rec.enabled:
                    rec.incr(ev.FLEET_HEDGES)
                threading.Thread(
                    target=attempt,
                    args=(secondary, True),
                    name="repro-fleet-hedge-secondary",
                    daemon=True,
                ).start()
                outstanding += 1
            reply, is_hedge, error = results.get()
            outstanding -= 1
        while error is not None and outstanding > 0:
            # The first finisher failed; the race is still live.
            reply, is_hedge, error = results.get()
            outstanding -= 1
        if error is not None:
            raise error
        if is_hedge and rec.enabled:
            rec.incr(ev.FLEET_HEDGE_WINS)
        return reply
