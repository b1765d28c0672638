"""Process-level chaos injection for the supervised batch engine.

The byte-level injectors (:mod:`repro.reliability.inject`) corrupt a
finished container; the chaos harness instead attacks the *processes*
that produce one, modelling the failures a long multi-workload batch
run actually meets on a build farm:

``exception``
    the worker raises mid-shard (a transient bug, a flaky dependency);
``kill``
    the worker is SIGKILLed (OOM killer, operator) — the pool breaks
    and must be respawned; **only meaningful with a real pool**: an
    inline run would kill the calling process;
``hang``
    the worker stops making progress (deadlock, livelock) — caught by
    the per-shard timeout;
``corrupt``
    the *pre-encode hook*: the shard's input stream is deterministically
    corrupted before encoding, so the worker returns a well-formed but
    wrong result — the case only the supervisor's result validation can
    catch.

A :class:`ChaosPlan` is a frozen, picklable value object; which shards
it targets and what the corruption does are pure functions of
``(seed, workload, shard)``, so a failing trial is reproducible from
its ``(fault, seed)`` pair alone, exactly like the byte injectors.
Faults trigger only while ``attempt < attempts``, which is what lets
the retry path win: the default plan faults the first attempt and lets
every retry through clean.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import time
from dataclasses import dataclass

from ..bitstream import TernaryVector

__all__ = [
    "CLIENT_FAULTS",
    "FLEET_FAULTS",
    "PROCESS_FAULTS",
    "ChaosPlan",
    "ClientFaultPlan",
    "FleetFaultPlan",
    "InjectedWorkerError",
]

#: The process-level fault classes, in campaign order.
PROCESS_FAULTS = ("exception", "kill", "hang", "corrupt")

#: The service-client fault classes the soak harness drives.
CLIENT_FAULTS = ("slow_loris", "oversized_frame", "garbage_frame", "disconnect")

#: The dispatcher-tier fault classes the fleet chaos campaign drives.
FLEET_FAULTS = ("backend_kill", "backend_hang", "backend_partition", "cache_tamper")


class InjectedWorkerError(RuntimeError):
    """The chaos harness's injected worker exception (picklable)."""


def _corrupt_stream(stream: TernaryVector, rng: random.Random) -> TernaryVector:
    """Deterministically flip one care bit of ``stream``.

    Flipping a *care* bit makes the encoded result fail the
    covers-the-original check; a stream with no care bits has nothing
    detectable (or harmful) to corrupt and is returned unchanged.
    """
    care_positions = [i for i, bit in enumerate(stream) if bit is not None]
    if not care_positions:
        return stream
    position = rng.choice(care_positions)
    flipped = TernaryVector.from_int(1 - stream[position], 1)
    return stream[:position] + flipped + stream[position + 1 :]


@dataclass(frozen=True)
class ChaosPlan:
    """Deterministic schedule of process faults for one batch run.

    ``rate`` is the fraction of shards targeted (decided per shard from
    ``seed``); a targeted shard faults on every attempt below
    ``attempts`` and runs clean afterwards.  ``hang_seconds`` bounds the
    injected hang so an un-timeouted test cannot wedge forever.
    """

    fault: str
    seed: int = 0
    rate: float = 1.0
    attempts: int = 1
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.fault not in PROCESS_FAULTS:
            raise ValueError(
                f"unknown fault {self.fault!r}; known: {', '.join(PROCESS_FAULTS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")

    def _rng(self, workload: int, shard: int) -> random.Random:
        # String seeds hash deterministically across processes (sha512),
        # unlike tuples through the salted builtin hash().
        return random.Random(f"chaos:{self.fault}:{self.seed}:{workload}.{shard}")

    def targets(self, workload: int, shard: int) -> bool:
        """Whether this plan faults shard ``(workload, shard)`` at all."""
        return self._rng(workload, shard).random() < self.rate

    def apply(
        self, workload: int, shard: int, attempt: int, stream: TernaryVector
    ) -> TernaryVector:
        """Trigger the planned fault, or pass ``stream`` through clean.

        Called by the shard worker immediately before encoding (the
        pre-encode hook).  Returns the (possibly corrupted) stream.
        """
        if attempt >= self.attempts or not self.targets(workload, shard):
            return stream
        if self.fault == "exception":
            raise InjectedWorkerError(
                f"injected worker exception on shard ({workload}, {shard}) "
                f"attempt {attempt}"
            )
        if self.fault == "kill":  # pragma: no cover - dies in the worker
            os.kill(os.getpid(), signal.SIGKILL)
        if self.fault == "hang":
            deadline = time.monotonic() + self.hang_seconds
            while time.monotonic() < deadline:
                time.sleep(0.01)
            return stream
        return _corrupt_stream(stream, self._rng(workload, shard))


@dataclass(frozen=True)
class FleetFaultPlan:
    """One dispatcher-tier fault, as a reproducible value object.

    Where :class:`ChaosPlan` attacks batch workers and
    :class:`ClientFaultPlan` attacks the serving front door, this
    attacks the *fleet* — the layer between a dispatcher and its
    backends:

    ``backend_kill``
        one backend is SIGKILLed mid-campaign (crash, OOM);
    ``backend_hang``
        one backend is SIGSTOPped — sockets stay open, nothing is
        answered (wedged process, GC death spiral);
    ``backend_partition``
        the network path to one backend starts dropping connections
        (the harness interposes a proxy and cuts it);
    ``cache_tamper``
        bytes of one result-cache entry are flipped on disk (bit rot,
        torn write escaping the atomic path) — the dispatcher must
        treat the entry as a miss, never serve it.

    Which backend (or cache entry) is targeted and when the fault fires
    are pure functions of ``(fault, seed)``, so a failing campaign
    trial is reproducible from that pair alone.  The plan only
    *decides*; the fleet harness (:mod:`repro.fleet.chaos`) owns the
    processes and actually pulls the trigger — reliability sits below
    the fleet layer and must stay importable without it.
    """

    fault: str
    seed: int = 0
    #: Requests the campaign sends for this trial.
    requests: int = 24
    #: Backends the trial assumes (targeting is modulo this count).
    backends: int = 3

    def __post_init__(self) -> None:
        if self.fault not in FLEET_FAULTS:
            raise ValueError(
                f"unknown fault {self.fault!r}; known: {', '.join(FLEET_FAULTS)}"
            )
        if self.requests < 2:
            raise ValueError("a trial needs at least 2 requests")
        if self.backends < 1:
            raise ValueError("a trial needs at least 1 backend")

    def _rng(self) -> random.Random:
        return random.Random(f"fleet-chaos:{self.fault}:{self.seed}")

    @property
    def trigger_index(self) -> int:
        """Request ordinal after which the fault is injected.

        Strictly inside the run (never before the first request or
        after the last), so every trial exercises both the healthy and
        the faulted regime.
        """
        return 1 + self._rng().randrange(max(1, self.requests - 2))

    @property
    def target_backend(self) -> int:
        """Index of the backend (or cache shard) the fault targets."""
        return self._rng().randrange(self.backends)

    def tamper(self, data: bytes) -> bytes:
        """Deterministically flip one byte of a cache entry's bytes."""
        if not data:
            return data
        rng = self._rng()
        position = rng.randrange(len(data))
        flipped = data[position] ^ (1 << rng.randrange(8))
        return data[:position] + bytes([flipped]) + data[position + 1 :]


@dataclass(frozen=True)
class ClientFaultPlan:
    """One hostile service client, as a reproducible value object.

    Where :class:`ChaosPlan` attacks the batch engine's *workers*,
    this attacks the serving layer's *front door* — the four client
    behaviours a network service must survive without hanging a
    connection thread or crashing:

    ``slow_loris``
        starts a header and then dribbles bytes slower than the
        server's I/O budget — must become a typed ``timeout`` reply
        (or a close), never a parked thread;
    ``oversized_frame``
        declares a payload bigger than the server's cap — must be
        rejected from the *header alone* (413-style reply) without
        buffering the body;
    ``garbage_frame``
        sends bytes that are not a JSON header — typed ``bad_header``
        reply, connection closed;
    ``disconnect``
        vanishes mid-payload — the server must treat the connection as
        over and reclaim the thread, with nothing to reply to.

    :meth:`run` executes one such interaction against a live server and
    reports what actually happened; :meth:`classify` turns that into a
    campaign outcome (typed reply or clean close — never a hang).
    The service modules are imported lazily: reliability sits *below*
    the service layer and must stay importable without it.
    """

    fault: str
    seed: int = 0
    #: Seconds between dribbled bytes for ``slow_loris``; the driver
    #: must pair this with a server ``io_timeout`` it exceeds.
    dribble_interval: float = 0.3
    #: Ceiling on one interaction, so a misbehaving server fails the
    #: soak instead of wedging it.
    reply_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.fault not in CLIENT_FAULTS:
            raise ValueError(
                f"unknown fault {self.fault!r}; known: {', '.join(CLIENT_FAULTS)}"
            )

    def run(self, address) -> dict:
        """Attack ``address`` once; return the observed outcome.

        The outcome dict has ``fault``, ``reply`` (the decoded reply
        header, or ``None`` if the server just closed) and ``closed``
        (whether the server ended the connection afterwards, which the
        protocol requires after any framing violation).
        """
        from ..service.protocol import MessageStream, connect, encode_message

        sock = connect(address, timeout=self.reply_timeout)
        try:
            if self.fault == "slow_loris":
                header = encode_message({"op": "ping", "id": "loris"})
                # Three dribbled bytes are enough: the server's message
                # clock starts at the first one.
                for byte in header[:3]:
                    sock.sendall(bytes([byte]))
                    time.sleep(self.dribble_interval)
            elif self.fault == "oversized_frame":
                sock.sendall(
                    b'{"op": "compress", "id": "oversized", '
                    b'"payload_len": 1099511627776}\n'
                )
            elif self.fault == "garbage_frame":
                rng = random.Random(f"client-chaos:{self.seed}")
                junk = bytes(rng.randrange(256) for _ in range(64))
                sock.sendall(junk.replace(b"\n", b"?") + b"\n")
            else:  # disconnect: declare a payload, send half, vanish
                sock.sendall(
                    b'{"op": "compress", "id": "gone", "payload_len": 1024}\n'
                )
                sock.sendall(b"01X0" * 128)  # 512 of the promised 1024
                return {"fault": self.fault, "reply": None, "closed": True}
            reply = self._read_reply(sock)
            closed = self._observe_close(sock)
            return {"fault": self.fault, "reply": reply, "closed": closed}
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def classify(self, observed: dict):
        """The :class:`~repro.reliability.campaign.TrialOutcome` of a run.

        ``DETECTED`` when the server rejected the fault loudly: a typed
        reply with the code the protocol gives this framing violation
        (judged by :func:`~repro.reliability.campaign.classify_reply`),
        or no reply and a close.  ``ESCAPED`` otherwise — an accepted,
        untyped or wrongly coded reply, or neither reply nor close.
        """
        from ..service.protocol import CODE_BAD_REQUEST, CODE_PAYLOAD_TOO_LARGE
        from .campaign import TrialOutcome, classify_reply

        reply = observed["reply"]
        if reply is None:
            rejected = observed["closed"]
        else:
            # The protocol's error_code: an oversized frame is 413, any
            # other framing violation (a header the I/O budget never
            # completed included) 400.  A vanished client gets no reply.
            oversized = self.fault == "oversized_frame"
            code = CODE_PAYLOAD_TOO_LARGE if oversized else CODE_BAD_REQUEST
            rejected = classify_reply(reply, codes={code}) is TrialOutcome.DETECTED
        return TrialOutcome.DETECTED if rejected else TrialOutcome.ESCAPED

    def _read_reply(self, sock) -> "dict | None":
        from ..service.protocol import MessageStream

        stream = MessageStream(sock, io_timeout=self.reply_timeout)
        deadline = time.monotonic() + self.reply_timeout
        try:
            while time.monotonic() < deadline:
                message = stream.recv_message()
                if message is not None:
                    return message[0]
                if stream._eof:
                    return None
        except Exception:  # noqa: BLE001 - a garbage reply is "no reply"
            return None
        return None

    def _observe_close(self, sock) -> bool:
        """True if the server closes the connection within the budget."""
        deadline = time.monotonic() + self.reply_timeout
        sock.settimeout(0.1)
        while time.monotonic() < deadline:
            try:
                if sock.recv(4096) == b"":
                    return True
            except socket.timeout:
                continue
            except OSError:
                return True  # reset counts as closed
        return False
