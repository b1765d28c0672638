"""Soak harness for the hardened compression service (``repro serve``).

Drives a real ``repro serve`` subprocess with a mixed fleet of clients —
well-behaved compress/decompress/verify traffic, deadline abusers,
breaker-tripping failure injectors, and one hostile client per
:data:`repro.reliability.chaos.CLIENT_FAULTS` class (slow-loris,
oversized frame, garbage frame, mid-request disconnect) — then asserts
the service's whole robustness contract at once:

* **no hangs, no crashes** — every request gets a structured reply (or
  a clean close after a framing violation by that client) within its
  budget, and the server process survives the entire run;
* **typed shedding** — every rejected request carries a typed error
  (`OverloadError` / `DeadlineError` / `ProtocolError` / `ShardError`)
  with an HTTP-flavoured code from the documented set;
* **byte identity** — every *accepted* compress (``compress_stream``)
  reply's container is byte-identical to the serial ``repro compress``
  path (the local stream front door) on the same input;
* **graceful drain** — SIGTERM ends the run with exit 0 and a valid
  final ``repro.metrics/1`` snapshot on disk;
* **counter invariant** (smoke) — the drained snapshot's
  ``service.completed`` equals the smoke's OK replies, its
  ``encode.codes`` equals what the serial references encoded, and its
  ``decode.codes``/``decode.chars`` equal the codes in, and the
  characters a serial decode gets from, the containers the smoke sent
  to ``verify`` (counted from the decode itself, not from a recorder).

Run it as CI does::

    PYTHONPATH=src python benchmarks/service_soak.py --smoke   # fast gate
    PYTHONPATH=src python benchmarks/service_soak.py --seconds 30 \
        --report soak_report.json                              # full soak

``--smoke`` round-trips the three golden workloads and one raw payload
through a live server and byte-compares against the local paths, then
exits.  The full soak adds the concurrent fleet for ``--seconds``.
Exit status: 0 clean, 1 with every violation listed on stderr (and in
the ``--report`` JSON).
"""

import argparse
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.container import dump_bytes, load_bytes
from repro.core import LZWConfig, compress, decode_codes
from repro.observability import NULL_RECORDER, CounterRecorder
from repro.reliability.campaign import TrialOutcome, classify_reply
from repro.reliability.chaos import CLIENT_FAULTS, ClientFaultPlan
from repro.reliability.errors import ProtocolError
from repro.service import ServiceClient
from repro.streamio import StreamContainerReader, iter_raw_bytes
from repro.streamio import raw_chunks, write_stream
from repro.testfile import format_test_text
from repro.workloads import build_testset

#: The golden corpus (mirrors tests/golden): name, scale.
WORKLOADS = (("s5378f", 0.12), ("s9234f", 0.08), ("s35932f", 0.25))

#: The raw-bytes (X-density 0) payload of the ``compress_stream`` turns.
RAW_PAYLOAD = b"soak raw payload: repeated structure, repeated structure\n" * 96
RAW_CHUNK_BYTES = 500

#: Server tuning for the soak: tight enough that shedding and the
#: breaker actually fire under the fleet's load.
SERVER_ARGS = [
    "--port", "0",
    "--workers", "2",
    "--queue-depth", "6",
    "--io-timeout", "0.5",
    "--default-deadline", "10.0",
    "--drain-grace", "5.0",
    "--breaker-threshold", "4",
    "--breaker-cooldown", "0.5",
    "--debug-ops",
]


def _workload_texts(recorder=NULL_RECORDER):
    """The golden corpus as (name, cube text, serial container) triples."""
    triples = []
    for name, scale in WORKLOADS:
        test_set = build_testset(name, scale=scale)
        text = format_test_text(test_set)
        result = compress(test_set.to_stream(), LZWConfig(), recorder=recorder)
        serial = dump_bytes(result.compressed, result.assigned_stream)
        triples.append((name, text, serial))
    return triples


def _raw_reference(recorder=NULL_RECORDER):
    """The v5 container the stream front door builds for RAW_PAYLOAD."""
    sink = io.BytesIO()
    write_stream(
        LZWConfig(),
        raw_chunks(RAW_PAYLOAD, RAW_CHUNK_BYTES),
        sink,
        recorder=recorder,
    )
    return sink.getvalue()


class Stats:
    """Thread-safe outcome tally plus the violation list."""

    def __init__(self):
        self.lock = threading.Lock()
        self.outcomes = {}
        self.violations = []

    def count(self, label):
        with self.lock:
            self.outcomes[label] = self.outcomes.get(label, 0) + 1

    def violation(self, message):
        with self.lock:
            self.violations.append(message)

    def snapshot(self):
        with self.lock:
            return dict(sorted(self.outcomes.items())), list(self.violations)


def _check_reply(stats, label, header):
    """Every reply must be structured: ok, or a typed error with an
    expected code (:func:`repro.reliability.campaign.classify_reply`)."""
    outcome = classify_reply(header)
    if outcome is TrialOutcome.CORRECT:
        stats.count(f"{label}.ok")
        return True
    if outcome is TrialOutcome.DETECTED:
        stats.count(f"{label}.code_{header.get('code')}")
    else:
        stats.violation(f"{label}: untyped or unexpected-code reply: {header}")
    return False


def _good_client(index, address, corpus, raw_reference, stats, stop):
    """Round-robins compress, decompress, verify, compress_stream."""
    try:
        client = ServiceClient(address, timeout=15.0)
    except OSError as exc:
        stats.violation(f"good[{index}]: could not connect: {exc}")
        return
    containers = {}
    turn = 0
    with client:
        while not stop.is_set():
            name, text, serial = corpus[turn % len(corpus)]
            try:
                op = ("compress", "decompress", "verify", "compress_stream")[
                    turn % 4
                ]
                if op == "compress_stream":
                    header, payload = client.compress_stream(
                        RAW_PAYLOAD, chunk_bytes=RAW_CHUNK_BYTES
                    )
                    if _check_reply(stats, op, header) and payload != raw_reference:
                        stats.violation(f"{op}: container differs from front door")
                elif op == "compress" or name not in containers:
                    header, payload = client.compress(text)
                    if _check_reply(stats, "compress", header):
                        if payload != serial:
                            stats.violation(
                                f"compress({name}): container differs from "
                                f"serial path ({len(payload)} vs "
                                f"{len(serial)} bytes)"
                            )
                        containers[name] = payload
                elif op == "decompress":
                    header, _ = client.decompress(containers[name])
                    _check_reply(stats, "decompress", header)
                else:
                    header, _ = client.verify(containers[name])
                    if _check_reply(stats, "verify", header) and (
                        header.get("verify_exit_code") != 0
                    ):
                        stats.violation(
                            f"verify({name}): good container reported "
                            f"exit {header.get('verify_exit_code')}"
                        )
            except ProtocolError as exc:
                # A conforming server never hangs up on this client's
                # well-formed traffic — except when drain raced the send.
                if not stop.is_set():
                    stats.violation(f"good[{index}]: {exc}")
                return
            except OSError as exc:
                if not stop.is_set():
                    stats.violation(f"good[{index}]: socket error: {exc}")
                return
            turn += 1


def _deadline_client(address, stats, stop):
    """Sends slow ops with tiny deadlines: every reply must be a 408."""
    try:
        client = ServiceClient(address, timeout=15.0)
    except OSError as exc:
        stats.violation(f"deadline: could not connect: {exc}")
        return
    with client:
        while not stop.is_set():
            try:
                header, _ = client.request("sleep", deadline_ms=30, seconds=2.0)
                if header.get("ok"):
                    stats.violation(f"deadline: slow op beat a 30ms deadline")
                else:
                    _check_reply(stats, "deadline", header)
            except (ProtocolError, OSError) as exc:
                if not stop.is_set():
                    stats.violation(f"deadline: {exc}")
                return
            time.sleep(0.05)


def _breaker_client(address, stats, stop):
    """Bursts injected failures, then watches the breaker shed (503)."""
    try:
        client = ServiceClient(address, timeout=15.0)
    except OSError as exc:
        stats.violation(f"breaker: could not connect: {exc}")
        return
    with client:
        while not stop.is_set():
            try:
                header, _ = client.request("fail")
                _check_reply(stats, "breaker", header)
            except (ProtocolError, OSError) as exc:
                if not stop.is_set():
                    stats.violation(f"breaker: {exc}")
                return
            time.sleep(0.02)


def _fault_client(fault, address, stats, stop):
    """Repeats one hostile behaviour; asserts typed-reply-or-close."""
    turn = 0
    while not stop.is_set():
        plan = ClientFaultPlan(fault, seed=turn, reply_timeout=6.0)
        try:
            outcome = plan.run(address)
        except OSError as exc:
            if not stop.is_set():
                stats.violation(f"{fault}: connect failed: {exc}")
            return
        reply = outcome["reply"]
        if plan.classify(outcome) is not TrialOutcome.DETECTED:
            stats.violation(
                f"{fault}: expected a typed expected-code reply or a close, "
                f"got {outcome}"
            )
        elif fault == "disconnect":
            stats.count(f"{fault}.sent")
        elif reply is not None:
            stats.count(f"{fault}.code_{reply.get('code')}")
        else:
            stats.count(f"{fault}.closed")
        turn += 1
        time.sleep(0.1)


def _start_server(metrics_path, extra=(), subcommand="serve", base_args=None):
    """Launch one ``repro <subcommand>`` process, return (proc, address).

    The fleet soak reuses this with ``subcommand="fleet"`` — both
    subcommands print the same ``serving on <address> ...`` banner.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if base_args is None:
        base_args = SERVER_ARGS
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", subcommand,
         "--metrics-json", str(metrics_path), *base_args, *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    banner = proc.stdout.readline()
    if "serving on" not in banner:
        proc.kill()
        raise RuntimeError(f"server failed to start: {banner!r}")
    return proc, banner.split()[2]


def _stop_server(proc, stats):
    """SIGTERM, require exit 0 within the drain budget."""
    proc.send_signal(signal.SIGTERM)
    try:
        output, _ = proc.communicate(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        stats.violation("server did not drain within 20s of SIGTERM")
        return ""
    if proc.returncode != 0:
        stats.violation(f"server exited {proc.returncode} after drain")
    return output


def _check_metrics(metrics_path, stats):
    try:
        snapshot = json.loads(Path(metrics_path).read_text())
    except (OSError, ValueError) as exc:
        stats.violation(f"final metrics snapshot unreadable: {exc}")
        return {}
    if snapshot.get("schema") != "repro.metrics/1":
        stats.violation(f"bad metrics schema: {snapshot.get('schema')!r}")
    if snapshot.get("partial"):
        stats.violation("final drain snapshot must not be marked partial")
    return snapshot.get("counters", {})


def run_smoke(report_path=None):
    """Golden round-trip: three workloads, byte-equal to serial, drain 0,
    and the drained counters agree with the replies and the references."""
    stats = Stats()
    reference = CounterRecorder()
    corpus = _workload_texts(reference)
    raw_reference = _raw_reference(reference)
    # Only verify requests decode in the server: each decodes every
    # code of its container once.
    decoded = {"decode.codes": 0, "decode.chars": 0}
    ok_replies = 0
    metrics_path = Path("soak_smoke_metrics.json").resolve()
    proc, address = _start_server(metrics_path)
    try:
        with ServiceClient(address, timeout=30.0) as client:
            for name, text, serial in corpus:
                header, payload = client.compress(text)
                if not header.get("ok"):
                    stats.violation(f"smoke compress({name}): {header}")
                    continue
                ok_replies += 1
                if payload != serial:
                    stats.violation(
                        f"smoke compress({name}): not byte-identical to "
                        f"serial ({len(payload)} vs {len(serial)} bytes)"
                    )
                stats.count("smoke.compress_ok")
                header, _ = client.verify(payload)
                sent = load_bytes(payload, verify=False)
                decoded["decode.codes"] += sent.num_codes
                decoded["decode.chars"] += len(decode_codes(sent.codes, sent.config))
                ok_replies += bool(header.get("ok"))
                if header.get("verify_exit_code") != 0:
                    stats.violation(f"smoke verify({name}): {header}")
                else:
                    stats.count("smoke.verify_ok")
            # One raw payload: equal to the local front door, and back.
            header, payload = client.compress_stream(
                RAW_PAYLOAD, chunk_bytes=RAW_CHUNK_BYTES
            )
            ok_replies += bool(header.get("ok"))
            if payload != raw_reference or RAW_PAYLOAD != b"".join(
                iter_raw_bytes(StreamContainerReader(io.BytesIO(payload)))
            ):
                stats.violation(f"smoke compress_stream: {header}")
            else:
                stats.count("smoke.compress_stream_ok")
    finally:
        _stop_server(proc, stats)
    counters = _check_metrics(metrics_path, stats)
    expected = {
        "service.completed": ok_replies,
        "encode.codes": reference.counters.get("encode.codes", 0),
        **decoded,
    }
    for name, value in expected.items():
        if counters.get(name, 0) != value:
            stats.violation(
                f"drained counter {name} = {counters.get(name, 0)}, expected {value}"
            )
    return _report(stats, counters, report_path, mode="smoke")


def run_soak(seconds, good_clients, report_path=None):
    """The full mixed-fleet soak (module docstring)."""
    stats = Stats()
    corpus = _workload_texts()
    raw_reference = _raw_reference()
    metrics_path = Path("soak_metrics.json").resolve()
    proc, address = _start_server(metrics_path)
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=_good_client,
            args=(i, address, corpus, raw_reference, stats, stop),
        )
        for i in range(good_clients)
    ]
    threads.append(
        threading.Thread(target=_deadline_client, args=(address, stats, stop))
    )
    threads.append(
        threading.Thread(target=_breaker_client, args=(address, stats, stop))
    )
    threads.extend(
        threading.Thread(target=_fault_client, args=(f, address, stats, stop))
        for f in CLIENT_FAULTS
    )
    print(
        f"soak: {len(threads)} concurrent clients "
        f"({good_clients} good, 1 deadline, 1 breaker, "
        f"{len(CLIENT_FAULTS)} hostile) for {seconds}s against {address}"
    )
    for thread in threads:
        thread.start()
    time.sleep(seconds)
    stop.set()
    for thread in threads:
        thread.join(timeout=30)
        if thread.is_alive():
            stats.violation(f"client thread {thread.name} failed to stop")
    _stop_server(proc, stats)
    counters = _check_metrics(metrics_path, stats)
    if not counters.get("service.completed"):
        stats.violation("soak completed zero requests — nothing was tested")
    return _report(stats, counters, report_path, mode="soak")


def _report(stats, counters, report_path, mode, interesting=None):
    outcomes, violations = stats.snapshot()
    report = {
        "mode": mode,
        "outcomes": outcomes,
        "server_counters": counters,
        "violations": violations,
        "ok": not violations,
    }
    if report_path:
        Path(report_path).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {report_path}")
    print(f"{mode} outcomes:")
    for label, count in outcomes.items():
        print(f"  {label}: {count}")
    if interesting is None:
        interesting = (
            "service.requests", "service.completed", "service.shed",
            "service.deadline_exceeded", "service.breaker_open",
            "service.protocol_errors", "service.drained", "service.errors",
        )
    print("server counters:")
    for name in interesting:
        print(f"  {name}: {counters.get(name, 0)}")
    if violations:
        print(f"{mode} FAILED: {len(violations)} violation(s)", file=sys.stderr)
        for message in violations:
            print(f"  - {message}", file=sys.stderr)
        return 1
    print(f"{mode} passed: no hangs, no crashes, every reply typed")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="golden round-trip only (fast CI gate)",
    )
    parser.add_argument(
        "--seconds", type=float, default=30.0, help="soak duration"
    )
    parser.add_argument(
        "--clients", type=int, default=3, help="well-behaved client threads"
    )
    parser.add_argument("--report", help="write the JSON report here")
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke(args.report)
    return run_soak(args.seconds, args.clients, args.report)


if __name__ == "__main__":
    sys.exit(main())
