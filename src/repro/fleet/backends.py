"""Per-backend state: connection pool, circuit breaker, health probing.

Each ``repro serve`` process behind the dispatcher is represented by
one :class:`BackendState` owning

* a small pool of :class:`~repro.service.protocol.ServiceClient`
  connections (checked out per call, discarded on any transport error
  so a poisoned socket is never reused);
* its own :class:`~repro.service.breaker.CircuitBreaker`, fed by
  transport failures only — a backend *reply*, even a 500, proves the
  backend is alive and is relayed as a value, never counted here;
* liveness bookkeeping driven by :class:`HealthProber`.

:class:`BackendError` is the dispatcher-internal "infrastructure
failed" signal (dial refused, connection reset, no reply within the
backend timeout).  It deliberately is *not* a
:class:`~repro.reliability.errors.ReproError`: it must never leak into
a client reply — the failover loop either converts it into a retry on
another backend or into a typed ``no_backends`` 503.

:class:`HealthProber` is one daemon thread pinging every backend on a
fixed cadence.  Probe outcomes go through the same breaker the request
path uses, so the half-open single-probe rule holds fleet-wide: after
a backend's cooldown, *either* a live request *or* the prober — not
both — performs the recovery probe, and its success restores traffic.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, Optional, Sequence, Tuple

from ..observability import NULL_RECORDER, Recorder
from ..observability import events as ev
from ..reliability.errors import ProtocolError
from ..service.breaker import CircuitBreaker
from ..service.protocol import ServiceClient

__all__ = ["BackendError", "BackendState", "HealthProber"]

#: Idle pooled connections kept per backend (excess ones are closed).
_MAX_IDLE = 2

#: Request header keys the dispatcher owns and must not relay verbatim.
_HOP_FIELDS = frozenset({"op", "id", "config", "deadline_ms", "payload_len"})


class BackendError(Exception):
    """A backend failed at the transport level (dead, hung, unreachable).

    Internal to the fleet layer — converted to failover or a typed 503,
    never serialised into a reply.
    """

    def __init__(self, address: str, cause: BaseException) -> None:
        super().__init__(f"backend {address} failed: {cause}")
        self.address = address
        self.cause = cause


class BackendState:
    """One backend's address, breaker and pooled connections."""

    def __init__(
        self,
        address: str,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 2.0,
        timeout: float = 30.0,
        connect_timeout: float = 5.0,
    ) -> None:
        self.address = address
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.breaker = CircuitBreaker(breaker_threshold, breaker_cooldown)
        self._idle: Deque[ServiceClient] = deque()
        self._lock = threading.Lock()

    # -- connection pool ----------------------------------------------

    def _checkout(self) -> ServiceClient:
        with self._lock:
            if self._idle:
                return self._idle.popleft()
        return ServiceClient(
            self.address,
            timeout=self.connect_timeout,
            reply_timeout=self.timeout,
        )

    def _checkin(self, client: ServiceClient) -> None:
        with self._lock:
            if len(self._idle) < _MAX_IDLE:
                self._idle.append(client)
                return
        client.close()

    def close(self) -> None:
        """Close every idle pooled connection (drain path)."""
        with self._lock:
            idle, self._idle = list(self._idle), deque()
        for client in idle:
            client.close()

    # -- calls ---------------------------------------------------------

    def call(
        self,
        header: Dict[str, Any],
        payload: bytes,
        deadline_ms: Optional[int] = None,
        reply_timeout: Optional[float] = None,
    ) -> Tuple[Dict[str, Any], bytes]:
        """Relay one request; raises :class:`BackendError` on transport
        failure, returns the backend's reply (including error replies)
        otherwise.  ``reply_timeout`` tightens this call's wait below
        the pool default (e.g. to the request's remaining deadline).
        """
        fields = {
            key: value for key, value in header.items() if key not in _HOP_FIELDS
        }
        try:
            client = self._checkout()
        except (ProtocolError, OSError) as exc:
            raise BackendError(self.address, exc) from exc
        client.reply_timeout = (
            self.timeout if reply_timeout is None else min(self.timeout, reply_timeout)
        )
        try:
            reply = client.request(
                header["op"],
                payload,
                config=header.get("config"),
                deadline_ms=deadline_ms,
                **fields,
            )
        except (ProtocolError, OSError) as exc:
            client.close()
            raise BackendError(self.address, exc) from exc
        self._checkin(client)
        return reply

    def probe(self, timeout: float) -> bool:
        """One liveness ping on a dedicated short-lived connection."""
        try:
            client = ServiceClient(
                self.address, timeout=timeout, reply_timeout=timeout
            )
        except (ProtocolError, OSError):
            return False
        try:
            header = client.ping()
            return bool(header.get("ok"))
        except (ProtocolError, OSError):
            return False
        finally:
            client.close()


class HealthProber(threading.Thread):
    """Daemon thread feeding probe outcomes into the backends' breakers."""

    def __init__(
        self,
        backends: Sequence[BackendState],
        interval: float = 1.0,
        timeout: float = 2.0,
        recorder: Optional[Recorder] = None,
    ) -> None:
        super().__init__(name="repro-fleet-prober", daemon=True)
        self.backends = list(backends)
        self.interval = interval
        self.timeout = timeout
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        # NB: must not be called _stop -- that would shadow an internal
        # threading.Thread method and break join()/is_alive().
        self._stopping = threading.Event()

    def stop(self) -> None:
        self._stopping.set()

    def run(self) -> None:
        while not self._stopping.wait(self.interval):
            for backend in self.backends:
                if self._stopping.is_set():
                    return
                self._probe_one(backend)

    def _probe_one(self, backend: BackendState) -> None:
        # allow() both respects the open-state cooldown and claims the
        # single half-open probe slot; if a live request claimed it
        # first, this cycle simply skips the backend.
        if not backend.breaker.allow():
            return
        if backend.probe(self.timeout):
            backend.breaker.record_success()
        else:
            backend.breaker.record_failure()
            if self.recorder.enabled:
                self.recorder.incr(ev.FLEET_PROBE_FAILURES)
