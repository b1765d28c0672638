"""The long-running compression service behind ``repro serve``.

Dataflow (one request)::

    client ──NDJSON──▶ connection thread                    (protocol)
                         │  parse / limits / rate limit     (admission)
                         │  draining? → typed 503
                         ▼
                   AdmissionQueue (bounded; full → typed 429)
                         │
                         ▼
                   worker thread ── breaker gate ──▶ run_supervised
                         │            (open → 503)    (RetryPolicy,
                         │                             typed ShardError)
                         ▼
                   reply writer (per-connection lock)

Robustness envelope, in one place:

* **admission control** — the queue is the only buffer; a full queue or
  a rate-limited client gets an immediate structured 429-style reply
  (:class:`~repro.reliability.errors.OverloadError`), never a hang;
* **deadlines** — every request carries a
  :class:`~repro.service.cancel.CancellationToken`; expired-before-start
  requests are rejected without work, in-flight ones are stopped inside
  the encoder's symbol loop and replied 408;
* **circuit breaker** — request execution reuses the batch
  supervisor's :func:`~repro.parallel.supervisor.run_supervised`
  (bounded :class:`~repro.parallel.supervisor.RetryPolicy` attempts,
  typed :class:`~repro.reliability.errors.ShardError` on exhaustion);
  consecutive ShardErrors open the breaker, a half-open probe closes it;
* **protocol defence** — garbage headers, oversized frames and
  slow-loris clients become typed replies and a closed connection; a
  client disconnecting mid-reply is counted, not fatal;
* **graceful drain** — :meth:`CompressionServer.drain` stops accepting,
  sheds every queued-but-unstarted request with a typed reply, lets
  in-flight work finish (or cancels it when the grace expires), flushes
  a final metrics snapshot and returns 0.

Results are byte-identical to the serial path: ``compress`` requests
run the same :func:`repro.core.compress` + :func:`repro.container.
dump_bytes` pair the CLI uses, so an accepted request's container
equals ``repro compress -o`` on the same input, bit for bit.
"""

from __future__ import annotations

import base64
import binascii
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..container import SEED_BLOB, SegmentSeed, decode_container, dump_bytes, dump_segments
from ..core import DictionarySnapshot, LZWConfig, compress
from ..observability import CounterRecorder, Recorder, metrics_snapshot
from ..observability import events as ev
from ..parallel.supervisor import RetryPolicy, run_supervised
from ..reliability.errors import (
    ConfigError,
    ContainerError,
    DeadlineError,
    DecodeError,
    OverloadError,
    ProtocolError,
    ShardError,
    StreamError,
    TestFileError,
)
from ..testfile import parse_test_text
from .admission import AdmissionQueue, RateLimiter
from .breaker import CircuitBreaker
from .cancel import CancellationToken
from .protocol import (
    DEFAULT_MAX_PAYLOAD,
    MessageStream,
    error_reply,
    ok_reply,
)

__all__ = ["ServiceConfig", "CompressionServer", "FORCED_EXIT_CODE"]

#: Exit status of a second SIGTERM/SIGINT during drain (forced exit).
FORCED_EXIT_CODE = 70

#: Ops that run on the worker pool (and therefore meet the breaker).
POOL_OPS = frozenset(
    {"compress", "compress_stream", "decompress", "verify", "sleep", "fail"}
)
#: Ops answered inline on the connection thread (cheap, never queued).
INLINE_OPS = frozenset({"ping", "metrics"})
#: Ops only enabled by ``debug_ops`` (test/soak instrumentation).
DEBUG_OPS = frozenset({"sleep", "fail"})

#: ``config`` keys a request may set (mirrors the CLI's LZW options).
_CONFIG_KEYS = frozenset(
    {
        "char_bits",
        "dict_size",
        "entry_bits",
        "policy",
        "lookahead",
        "reset_on_full",
    }
)

#: Errors that are the request's fault: replied, never retried, and
#: never counted against the circuit breaker.
_CLIENT_ERRORS = (
    DeadlineError,
    ProtocolError,
    ConfigError,
    TestFileError,
    ContainerError,
    DecodeError,
    StreamError,
    OverloadError,
)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one server instance (validated at construction)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: ephemeral, resolved at bind time
    socket_path: Optional[str] = None  # set: serve a unix socket instead
    workers: int = 2
    queue_depth: int = 16
    max_payload: int = DEFAULT_MAX_PAYLOAD
    io_timeout: float = 10.0
    default_deadline: Optional[float] = 30.0
    max_deadline: float = 300.0
    rate_limit: Optional[float] = None
    rate_burst: Optional[int] = None
    breaker_threshold: int = 5
    breaker_cooldown: float = 5.0
    retry_attempts: int = 2
    drain_grace: float = 10.0
    metrics_json: Optional[str] = None
    debug_ops: bool = False

    def __post_init__(self) -> None:
        for name, minimum in (
            ("workers", 1),
            ("queue_depth", 1),
            ("max_payload", 1),
            ("breaker_threshold", 1),
            ("retry_attempts", 1),
        ):
            if getattr(self, name) < minimum:
                raise ConfigError(
                    f"{name} must be >= {minimum}",
                    field=name,
                    value=getattr(self, name),
                )
        for name in ("io_timeout", "max_deadline", "breaker_cooldown", "drain_grace"):
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise ConfigError(
                    f"{name} must be positive",
                    field=name,
                    value=getattr(self, name),
                )


class _LockedRecorder(Recorder):
    """Thread-safety shim: many threads share the server's recorder.

    What still records through it, one event at a time: the server-level
    counters of ``_process`` (completed, errors, deadlines, latency),
    connection threads (admission, protocol faults, disconnects), the
    breaker gate, the drain and the supervisor's retry bookkeeping.
    Codec work does not: each op attempt records into its own unlocked
    :class:`CounterRecorder`, folded in here by one :meth:`merge_child`
    when the attempt ends (:meth:`CompressionServer._handle_op`).
    """

    def __init__(self, inner: Recorder) -> None:
        self.inner = inner
        self.enabled = inner.enabled
        self._lock = threading.Lock()

    def incr(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.inner.incr(name, value)

    def observe(self, name: str, value: int, count: int = 1) -> None:
        with self._lock:
            self.inner.observe(name, value, count)

    def span(self, name: str):
        # Span records land through the child's own sink; the service
        # recorder is counters-only, so this stays the null span.
        return self.inner.span(name)

    def merge_child(self, snapshot: Optional[dict], label: str) -> None:
        with self._lock:
            self.inner.merge_child(snapshot, label)

    def snapshot(self) -> dict:
        with self._lock:
            return self.inner.snapshot()


@dataclass
class _Job:
    """One admitted request, in flight between admission and reply."""

    header: Dict[str, Any]
    payload: bytes
    token: CancellationToken
    config: Optional[LZWConfig]
    writer: "_Connection"
    received_at: float
    op: str = field(init=False)
    request_id: Any = field(init=False)

    def __post_init__(self) -> None:
        self.op = self.header.get("op")
        self.request_id = self.header.get("id")


class _Connection:
    """Server side of one client connection: framed I/O + write lock."""

    def __init__(self, sock: socket.socket, client_id: str, server: "CompressionServer") -> None:
        self.sock = sock
        self.client_id = client_id
        self.server = server
        self.stream = MessageStream(
            sock,
            max_payload=server.config.max_payload,
            io_timeout=server.config.io_timeout,
            stop=lambda: server._stopping,
        )
        self._write_lock = threading.Lock()
        self.alive = True

    def reply(self, header: Dict[str, Any], payload: bytes = b"") -> bool:
        """Send one reply; False (and a counter) if the client is gone."""
        with self._write_lock:
            if not self.alive:
                return False
            try:
                self.stream.send_message(header, payload)
                return True
            except OSError:
                self.alive = False
                rec = self.server.recorder
                if rec.enabled:
                    rec.incr(ev.SERVICE_DISCONNECTS)
                return False

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class CompressionServer:
    """Concurrent compress/decompress/verify service with a full
    admission → breaker → pool robustness envelope (module docstring).
    """

    def __init__(
        self, config: Optional[ServiceConfig] = None, recorder: Optional[Recorder] = None
    ) -> None:
        self.config = config or ServiceConfig()
        self.recorder: Recorder = _LockedRecorder(
            recorder if recorder is not None else CounterRecorder()
        )
        self.queue: AdmissionQueue = AdmissionQueue(self.config.queue_depth)
        self.limiter = RateLimiter(self.config.rate_limit, self.config.rate_burst)
        self.breaker = CircuitBreaker(
            self.config.breaker_threshold, self.config.breaker_cooldown
        )
        self._retry_policy = RetryPolicy(
            max_attempts=self.config.retry_attempts, backoff_base=0.01, backoff_max=0.1
        )
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._conn_threads: List[threading.Thread] = []
        self._connections: List[_Connection] = []
        self._conn_lock = threading.Lock()
        self._inflight: Dict[int, _Job] = {}
        self._inflight_lock = threading.Lock()
        self._draining = False
        self._stopping = False
        self._drain_event = threading.Event()
        self._started = False

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> Union[Tuple[str, str, int], Tuple[str, str]]:
        """The bound address (``("tcp", host, port)`` or ``("unix", path)``)."""
        if self.config.socket_path:
            return ("unix", self.config.socket_path)
        host, port = self._listener.getsockname()[:2]
        return ("tcp", host, port)

    @property
    def address_str(self) -> str:
        addr = self.address
        return f"unix:{addr[1]}" if addr[0] == "unix" else f"{addr[1]}:{addr[2]}"

    @property
    def state(self) -> str:
        if self._stopping:
            return "stopped"
        return "draining" if self._draining else "running"

    def start(self) -> None:
        """Bind, listen and start the accept + worker threads."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        if self.config.socket_path:
            path = self.config.socket_path
            if os.path.exists(path):
                os.unlink(path)  # stale socket from a dead server
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.config.host, self.config.port))
        listener.listen(64)
        listener.settimeout(0.2)
        self._listener = listener
        accept = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        for index in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-worker-{index}", daemon=True
            )
            worker.start()
            self._threads.append(worker)

    def request_drain(self) -> None:
        """Signal-safe drain trigger (idempotent)."""
        self._drain_event.set()

    def serve_forever(self) -> int:
        """Block until a drain is requested, then drain; returns 0."""
        while not self._drain_event.wait(timeout=0.2):
            pass
        return self.drain()

    # -- drain ---------------------------------------------------------

    def drain(self) -> int:
        """Graceful shutdown: shed queued work, finish in-flight, exit 0.

        1. stop accepting (listener closed, new requests on live
           connections get typed ``draining`` replies);
        2. flush the queue — every queued-but-unstarted request gets a
           typed shed reply;
        3. wait up to ``drain_grace`` for in-flight requests, then
           cancel their tokens (they reply 408 and the workers exit);
        4. close connections, flush the final metrics snapshot.
        """
        self._draining = True
        self._drain_event.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        pending = self.queue.close()
        rec = self.recorder
        for job in pending:
            if rec.enabled:
                rec.incr(ev.SERVICE_DRAINED)
            job.writer.reply(
                error_reply(
                    job.request_id,
                    OverloadError(
                        "server draining before this request started",
                        reason="draining",
                        retry_after=self.config.drain_grace,
                    ),
                )
            )
        deadline = time.monotonic() + self.config.drain_grace
        workers = [t for t in self._threads if t.name.startswith("repro-serve-worker")]
        for thread in workers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        if any(thread.is_alive() for thread in workers):
            # Grace expired: cancel every in-flight token; the encoder
            # checkpoints turn that into 408 replies promptly.
            with self._inflight_lock:
                for job in self._inflight.values():
                    job.token.cancel()
            for thread in workers:
                thread.join(timeout=2.0)
        self._stopping = True
        with self._conn_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()
        for thread in self._conn_threads:
            thread.join(timeout=1.0)
        if self.config.socket_path and os.path.exists(self.config.socket_path):
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass
        if self.config.metrics_json:
            from ..observability import write_metrics_json

            write_metrics_json(self.recorder, self.config.metrics_json)
        return 0

    # -- accept / connection threads ------------------------------------

    def _accept_loop(self) -> None:
        while not self._draining:
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed by drain
            client_id = addr[0] if isinstance(addr, tuple) and addr else (
                f"unix:{conn.fileno()}"
            )
            connection = _Connection(conn, client_id, self)
            with self._conn_lock:
                self._connections.append(connection)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="repro-serve-conn",
                daemon=True,
            )
            thread.start()
            self._conn_threads.append(thread)

    def _serve_connection(self, connection: _Connection) -> None:
        rec = self.recorder
        try:
            while not self._stopping and connection.alive:
                try:
                    message = connection.stream.recv_message()
                except ProtocolError as exc:
                    # Framing is gone: one typed reply, then close (the
                    # stream cannot be resynchronised after bad bytes).
                    if rec.enabled:
                        rec.incr(ev.SERVICE_PROTOCOL_ERRORS)
                    connection.reply(error_reply(None, exc))
                    break
                if message is None:
                    break
                header, payload = message
                if rec.enabled:
                    rec.incr(ev.SERVICE_REQUESTS)
                self._admit(connection, header, payload)
        finally:
            connection.close()
            with self._conn_lock:
                if connection in self._connections:
                    self._connections.remove(connection)

    def _admit(
        self, connection: _Connection, header: Dict[str, Any], payload: bytes
    ) -> None:
        """Validate and enqueue one parsed request (or shed it, typed)."""
        rec = self.recorder
        request_id = header.get("id")
        try:
            op = header.get("op")
            known = POOL_OPS | INLINE_OPS
            if not isinstance(op, str) or op not in known or (
                op in DEBUG_OPS and not self.config.debug_ops
            ):
                raise ProtocolError(
                    f"unknown op {op!r}", reason="bad_field", field="op"
                )
            if op in INLINE_OPS:
                self._reply_inline(connection, op, request_id)
                return
            token = self._token_for(header)
            if self._draining:
                if rec.enabled:
                    rec.incr(ev.SERVICE_DRAINED)
                raise OverloadError(
                    "server is draining, request shed",
                    reason="draining",
                    retry_after=self.config.drain_grace,
                )
            if not self.limiter.try_acquire(connection.client_id):
                if rec.enabled:
                    rec.incr(ev.SERVICE_SHED)
                raise OverloadError(
                    "client rate limit exceeded",
                    reason="rate_limited",
                    client=connection.client_id,
                    retry_after=max(
                        0.001,
                        self.limiter.seconds_until_token(connection.client_id),
                    ),
                )
            config = self._config_for(header)
            job = _Job(
                header=header,
                payload=payload,
                token=token,
                config=config,
                writer=connection,
                received_at=time.monotonic(),
            )
            try:
                self.queue.submit(job)
            except OverloadError:
                if rec.enabled:
                    rec.incr(ev.SERVICE_SHED)
                raise
            if rec.enabled:
                rec.incr(ev.SERVICE_ACCEPTED)
        except _CLIENT_ERRORS as exc:
            connection.reply(error_reply(request_id, exc))

    def _reply_inline(
        self, connection: _Connection, op: str, request_id: Any
    ) -> None:
        """ping/metrics: answered on the connection thread, never queued."""
        if op == "ping":
            connection.reply(
                ok_reply(
                    request_id,
                    state=self.state,
                    queue_depth=self.queue.depth,
                    breaker=self.breaker.state,
                )
            )
        else:  # metrics
            connection.reply(
                ok_reply(request_id, metrics=metrics_snapshot(self.recorder))
            )

    def _token_for(self, header: Dict[str, Any]) -> CancellationToken:
        deadline_ms = header.get("deadline_ms")
        if deadline_ms is None:
            seconds = self.config.default_deadline
        else:
            if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
                raise ProtocolError(
                    "deadline_ms must be a positive number",
                    reason="bad_field",
                    field="deadline_ms",
                )
            seconds = min(deadline_ms / 1000.0, self.config.max_deadline)
        return CancellationToken.after(seconds)

    def _config_for(self, header: Dict[str, Any]) -> Optional[LZWConfig]:
        raw = header.get("config")
        if raw is None:
            return None
        if not isinstance(raw, dict):
            raise ProtocolError(
                "config must be a JSON object", reason="bad_field", field="config"
            )
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(
                f"unknown config key(s): {', '.join(sorted(unknown))}",
                field="config",
            )
        return LZWConfig(**raw)  # raises typed ConfigError on bad values

    # -- worker threads ------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self.queue.take(timeout=0.2)
            if job is None:
                if self.queue.closed:
                    return
                continue
            with self._inflight_lock:
                self._inflight[id(job)] = job
            try:
                self._process(job)
            finally:
                with self._inflight_lock:
                    self._inflight.pop(id(job), None)

    def _process(self, job: _Job) -> None:
        """Reply bookkeeping around one job, execution model agnostic.

        Everything specific to *how* a job runs — breaker gates, the
        supervised pool, or (in the fleet dispatcher subclass) routing
        to a backend — lives behind :meth:`_execute_job`; this method
        only turns its outcome into exactly one reply plus counters.
        """
        rec = self.recorder
        started = time.monotonic()
        header: Dict[str, Any]
        payload = b""
        try:
            job.token.check()  # expired while queued: no work, reply 408
            fields, payload = self._execute_job(job)
            header = ok_reply(job.request_id, **fields)
            if rec.enabled:
                rec.incr(ev.SERVICE_COMPLETED)
        except ShardError as exc:
            if rec.enabled:
                rec.incr(ev.SERVICE_ERRORS)
            header = error_reply(job.request_id, exc)
            payload = b""
        except _CLIENT_ERRORS as exc:
            if rec.enabled:
                if isinstance(exc, DeadlineError):
                    rec.incr(ev.SERVICE_DEADLINE_EXCEEDED)
                elif not isinstance(exc, OverloadError):
                    rec.incr(ev.SERVICE_ERRORS)
            header = error_reply(job.request_id, exc)
            payload = b""
        if rec.enabled:
            elapsed_ms = int((time.monotonic() - started) * 1000)
            rec.observe(ev.HIST_REQUEST_LATENCY_MS, elapsed_ms)
        job.writer.reply(header, payload)

    def _execute_job(self, job: _Job) -> Tuple[Dict[str, Any], bytes]:
        """Run one admitted job; returns ``(reply fields, payload)``.

        The local execution model: breaker gate, then the supervised
        worker pool.  Client-class errors are raised for ``_process`` to
        reply (they count as breaker successes — the infrastructure
        worked, the input didn't); a ShardError records a breaker
        failure and propagates.
        """
        rec = self.recorder
        if not self.breaker.allow():
            if rec.enabled:
                rec.incr(ev.SERVICE_BREAKER_OPEN)
            raise OverloadError(
                "circuit breaker open, request shed",
                reason="breaker_open",
                retry_after=self.breaker.retry_after() or 0.05,
            )
        try:
            outcome = self._execute_supervised(job)
        except ShardError:
            self.breaker.record_failure()
            raise
        if isinstance(outcome, _CLIENT_ERRORS):
            self.breaker.record_success()  # infra worked; input didn't
            raise outcome
        self.breaker.record_success()
        return outcome

    def _execute_supervised(self, job: _Job):
        """Run one job through the supervisor's retry machinery.

        Reuses :func:`run_supervised` inline (``workers=1``): bounded
        :class:`RetryPolicy` attempts with deterministic backoff, and a
        typed :class:`ShardError` when every attempt failed — exactly
        the failure unit the circuit breaker counts.  Client-class
        errors are returned (not raised) by the attempt callable so the
        supervisor never retries them.
        """

        def attempt(_attempt_index: int):
            try:
                return self._handle_op(job)
            except _CLIENT_ERRORS as exc:
                return exc

        results = run_supervised(
            worker=attempt,
            keys=[(0, 0)],
            make_args=lambda _key, attempt_index: attempt_index,
            workers=1,
            retry_policy=self._retry_policy,
            recorder=self.recorder,
        )
        return results[(0, 0)]

    # -- request handlers ----------------------------------------------

    def _handle_op(self, job: _Job) -> Tuple[Dict[str, Any], bytes]:
        """Execute one op attempt; returns (reply fields, reply payload).

        The attempt records into its own unlocked :class:`CounterRecorder`,
        folded into the shared recorder once when the attempt ends —
        replied, failed with a typed error or crashed — so a request
        takes the shared lock once instead of once per phrase or code.
        """
        shared = self.recorder
        rec = CounterRecorder() if shared.enabled else shared
        token = job.token
        op = job.op
        try:
            token.check()
            if op == "compress":
                return self._op_compress(job, rec)
            if op == "compress_stream":
                return self._op_compress_stream(job, rec)
            if op == "decompress":
                stream = decode_container(job.payload, recorder=rec)
                token.check()
                return {"bits": len(stream)}, str(stream).encode("ascii")
            if op == "verify":
                from ..reliability.verify import verify_container

                report = verify_container(job.payload, None, recorder=rec)
                return (
                    {"verify_exit_code": report.exit_code, "detail": report.describe()},
                    b"",
                )
            if op == "sleep":  # debug op: deterministic slow request
                seconds = float(job.header.get("seconds", 0.1))
                deadline = time.monotonic() + seconds
                while time.monotonic() < deadline:
                    token.check()
                    time.sleep(0.01)
                return {"slept": seconds}, b""
            if op == "fail":  # debug op: deterministic pool failure
                from ..reliability.chaos import InjectedWorkerError

                raise InjectedWorkerError("injected service worker failure")
            raise ProtocolError(f"unknown op {op!r}", reason="bad_field", field="op")
        finally:
            if rec is not shared:
                shared.merge_child(rec.snapshot(), "request")

    def _op_compress(self, job: _Job, rec: Recorder) -> Tuple[Dict[str, Any], bytes]:
        try:
            text = job.payload.decode("utf-8")
        except UnicodeDecodeError:
            raise TestFileError(
                "compress payload is not UTF-8 cube text", source="request"
            ) from None
        test_set = parse_test_text(text, name="request")
        config = job.config or LZWConfig()
        seed = self._parse_seed(job, config)
        result = compress(
            test_set.to_stream(),
            config,
            recorder=rec,
            cancel=job.token,
            seed=seed,
        )
        if seed is not None:
            # A warm-compressed stream only decodes under its seed, so
            # the reply container must carry it: v4, one blob segment.
            container = dump_segments(
                [result.compressed],
                [result.assigned_stream],
                recorder=rec,
                seeds=[SegmentSeed(SEED_BLOB, seed, None)],
            )
        else:
            container = dump_bytes(
                result.compressed, result.assigned_stream, recorder=rec
            )
        job.token.check()
        fields = {
            "original_bits": result.original_bits,
            "compressed_bits": result.compressed_bits,
            "num_codes": result.compressed.num_codes,
            "ratio_percent": round(result.ratio_percent, 4),
        }
        if seed is not None:
            fields["seed_digest"] = seed.digest
        return fields, container

    def _op_compress_stream(
        self, job: _Job, rec: Recorder
    ) -> Tuple[Dict[str, Any], bytes]:
        """Chunked raw-bytes compression into a v5 frame journal.

        The payload is opaque bytes (the X-density-0 degenerate mode);
        the worker feeds it through the stream front door
        (:func:`~repro.streamio.write_stream`) ``chunk_bytes`` at a
        time with the request's cancellation token, checked *between
        every chunk* — a deadline that expires mid-stream stops at the
        next chunk boundary and replies 408 instead of finishing a
        doomed encode.  Backpressure is the service's existing
        admission envelope: the bounded queue and rate limiter shed
        with typed 429s before a stream is ever started, and worker
        memory stays bounded by one chunk plus the dictionary
        regardless of payload size.  The reply payload is the complete
        v5 container — byte-identical to
        ``repro compress --stream`` on the same bytes and settings.
        """
        import io

        from ..streamio import DEFAULT_CODES_PER_FRAME, raw_chunks, write_stream

        def positive(field: str, default: int) -> int:
            value = job.header.get(field, default)
            if not isinstance(value, int) or value < 1:
                raise ProtocolError(
                    f"{field} must be a positive integer",
                    reason="bad_field",
                    field=field,
                )
            return value

        data = job.payload
        sink = io.BytesIO()
        written = write_stream(
            job.config or LZWConfig(),
            raw_chunks(data, positive("chunk_bytes", 1 << 16)),
            sink,
            codes_per_frame=positive("codes_per_frame", DEFAULT_CODES_PER_FRAME),
            recorder=rec,
            cancel=job.token,
        )
        container = sink.getvalue()
        ratio = (
            100.0 * (1.0 - len(container) / len(data)) if data else 0.0
        )
        fields = {
            "original_bits": written.original_bits,
            "container_bytes": len(container),
            "frames": written.frames,
            "chunks": written.chunks,
            "ratio_percent": round(ratio, 4),
        }
        return fields, container

    @staticmethod
    def _parse_seed(job: _Job, config: LZWConfig) -> Optional[DictionarySnapshot]:
        """Decode the optional base64 ``seed`` request field.

        The snapshot is validated structurally (magic, CRC, entries)
        and against the request's LZW config before any compression
        work starts; a bad seed is a client error, never a pool crash.
        """
        encoded = job.header.get("seed")
        if encoded is None:
            return None
        if not isinstance(encoded, str):
            raise ProtocolError(
                "seed must be a base64 string", reason="bad_field", field="seed"
            )
        try:
            blob = base64.b64decode(encoded, validate=True)
        except (binascii.Error, ValueError):
            raise ProtocolError(
                "seed is not valid base64", reason="bad_field", field="seed"
            ) from None
        snapshot = DictionarySnapshot.from_bytes(blob)
        snapshot.require_config(config)
        return snapshot
