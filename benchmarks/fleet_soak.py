"""Soak harness for the dispatcher tier (``repro fleet``).

Drives a real fleet — N ``repro serve`` backend subprocesses behind a
``repro fleet`` dispatcher subprocess — and asserts the fleet-wide
robustness contract:

* **byte identity through the dispatcher** — every accepted compress
  reply is byte-identical to the serial ``repro compress`` path, cache
  hit or not, failover or not;
* **node death is survivable** — with one of three backends SIGKILLed
  mid-run, every request still gets a correct reply or a typed error;
* **typed shedding** — exactly the single-server contract: structured
  replies with documented codes, never a hang, never a silent drop;
* **graceful drain** — SIGTERM drains the dispatcher to exit 0 with a
  valid final ``repro.metrics/1`` snapshot, and each surviving backend
  drains to exit 0 afterwards.

Modes (CI runs both; the oracle-checked fault campaign is the
``fleet`` section of ``fault_campaign.py``)::

    PYTHONPATH=src python benchmarks/fleet_soak.py --smoke \
        --report FLEET_report.json        # golden gate + mid-run kill
    PYTHONPATH=src python benchmarks/fleet_soak.py \
        --scenario kill_midburst --seconds 20

Scenarios model production traffic shapes: ``kill_midburst`` (a node
dies under a request burst), ``hot_key`` (heavily skewed traffic that
must ride the verified result cache), ``diurnal`` (client load ramps
up, peaks, and falls away).  Exit status: 0 clean, 1 with every
violation listed on stderr (and in the ``--report`` JSON).
"""

import argparse
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from service_soak import (  # noqa: E402 - sibling module, not a package
    Stats,
    _check_metrics,
    _check_reply,
    _good_client,
    _report,
    _start_server,
    _stop_server,
    _workload_texts,
)

from repro.fleet.procs import spawn_backend, stop_backend  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

#: Backends per fleet in every mode.
BACKENDS = 3

#: Backend tuning: enough workers to absorb the fleet's relay load.
BACKEND_ARGS = (
    "--workers", "2",
    "--queue-depth", "8",
    "--io-timeout", "2.0",
    "--drain-grace", "5.0",
    "--debug-ops",
)

#: Dispatcher tuning: fast probes so a killed backend is noticed within
#: a request or two, plus a verified result cache.
FLEET_ARGS = [
    "--port", "0",
    "--workers", "4",
    "--queue-depth", "16",
    "--probe-interval", "0.3",
    "--probe-timeout", "0.6",
    "--backend-timeout", "5.0",
    "--failover-attempts", "2",
    "--default-deadline", "15.0",
    "--drain-grace", "5.0",
    "--debug-ops",
]

#: Fleet counters surfaced in every report.
FLEET_COUNTERS = (
    "fleet.requests", "fleet.cache_hits", "fleet.cache_misses",
    "fleet.cache_corrupt", "fleet.failovers", "fleet.backend_errors",
    "fleet.no_backends", "fleet.probe_failures", "service.drained",
)

SCENARIOS = ("kill_midburst", "hot_key", "diurnal")


class _Fleet:
    """One live fleet: N backend subprocesses + a dispatcher subprocess."""

    def __init__(self, metrics_path, label):
        self.cache_dir = tempfile.mkdtemp(prefix=f"fleet-{label}-cache-")
        self.backends = [spawn_backend(BACKEND_ARGS) for _ in range(BACKENDS)]
        extra = ["--cache-dir", self.cache_dir]
        for backend in self.backends:
            extra += ["--backend", backend.address]
        self.proc, self.address = _start_server(
            metrics_path, extra, subcommand="fleet", base_args=FLEET_ARGS
        )

    def kill_backend(self, index, stats):
        self.backends[index].kill()
        stats.count("fault.backend_killed")

    def shutdown(self, stats):
        """Dispatcher first (drain contract), then the backends."""
        _stop_server(self.proc, stats)
        for backend in self.backends:
            if not backend.alive():
                continue
            code = stop_backend(backend, timeout=15.0)
            if code != 0:
                stats.violation(f"backend {backend.address} exited {code}")
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _require(counters, name, stats, why):
    if not counters.get(name):
        stats.violation(f"expected {name} > 0: {why}")


def run_smoke(report_path=None):
    """Golden byte-equality through the dispatcher, one backend killed."""
    stats = Stats()
    corpus = _workload_texts()
    metrics_path = Path("fleet_smoke_metrics.json").resolve()
    fleet = _Fleet(metrics_path, "smoke")
    try:
        with ServiceClient(fleet.address, timeout=30.0) as client:
            for round_label in ("healthy", "degraded"):
                for name, text, serial in corpus:
                    header, payload = client.compress(text)
                    if not header.get("ok"):
                        stats.violation(
                            f"smoke[{round_label}] compress({name}): {header}"
                        )
                        continue
                    if payload != serial:
                        stats.violation(
                            f"smoke[{round_label}] compress({name}): not "
                            f"byte-identical to serial ({len(payload)} vs "
                            f"{len(serial)} bytes)"
                        )
                    stats.count(f"smoke.{round_label}_ok")
                    if header.get("cache") == "hit":
                        stats.count("smoke.cache_hit")
                    # verify is deliberately uncacheable: it must route
                    # to a live backend even when compress hit the cache,
                    # which is what proves failover in the degraded round.
                    header, _ = client.verify(payload)
                    if header.get("verify_exit_code") != 0:
                        stats.violation(
                            f"smoke[{round_label}] verify({name}): {header}"
                        )
                    else:
                        stats.count(f"smoke.{round_label}_verify_ok")
                if round_label == "healthy":
                    # The degraded round must survive a dead node.
                    fleet.kill_backend(0, stats)
            ping = client.ping()
            states = ping.get("backends", {})
            if len(states) != BACKENDS:
                stats.violation(f"ping reported {len(states)} backends: {ping}")
    finally:
        fleet.shutdown(stats)
    counters = _check_metrics(metrics_path, stats)
    _require(counters, "fleet.requests", stats, "nothing was routed")
    _require(counters, "fleet.cache_hits", stats,
             "the repeated corpus should hit the result cache")
    return _report(
        stats, counters, report_path, mode="fleet-smoke",
        interesting=FLEET_COUNTERS,
    )


def _hot_key_client(address, corpus, stats, stop):
    """Skewed traffic: ~80% of requests hammer one hot workload."""
    try:
        client = ServiceClient(address, timeout=15.0)
    except OSError as exc:
        stats.violation(f"hot_key: could not connect: {exc}")
        return
    hot_name, hot_text, hot_serial = corpus[0]
    turn = 0
    with client:
        while not stop.is_set():
            name, text, serial = (
                (hot_name, hot_text, hot_serial)
                if turn % 5 != 4
                else corpus[1 + turn // 5 % (len(corpus) - 1)]
            )
            try:
                header, payload = client.compress(text)
            except OSError as exc:
                if not stop.is_set():
                    stats.violation(f"hot_key: socket error: {exc}")
                return
            except Exception as exc:  # noqa: BLE001 - drain races the send
                if not stop.is_set():
                    stats.violation(f"hot_key: {exc}")
                return
            if _check_reply(stats, "hot_key", header) and payload != serial:
                stats.violation(
                    f"hot_key compress({name}): container differs from serial"
                )
            turn += 1


def run_scenario(name, seconds, report_path=None):
    """One traffic-shape scenario against a live 3-backend fleet."""
    stats = Stats()
    corpus = _workload_texts()
    metrics_path = Path(f"fleet_{name}_metrics.json").resolve()
    fleet = _Fleet(metrics_path, name)
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=_good_client, args=(i, fleet.address, corpus, stats, stop)
        )
        for i in range(2)
    ]
    if name == "hot_key":
        threads.append(
            threading.Thread(
                target=_hot_key_client,
                args=(fleet.address, corpus, stats, stop),
            )
        )
    ramp = []
    if name == "diurnal":
        # Peak-hours load joins a third of the way in and leaves at two
        # thirds; the fleet must absorb the ramp both directions.
        ramp = [
            threading.Thread(
                target=_good_client,
                args=(10 + i, fleet.address, corpus, stats, stop),
            )
            for i in range(3)
        ]
    try:
        for thread in threads:
            thread.start()
        if name == "kill_midburst":
            time.sleep(seconds / 2)
            fleet.kill_backend(0, stats)
            time.sleep(seconds / 2)
        elif name == "diurnal":
            time.sleep(seconds / 3)
            for thread in ramp:
                thread.start()
            stats.count("diurnal.ramp_up")
            time.sleep(seconds / 3)
            # (threads stop together below; the "ramp down" is the tail
            # third running on the base clients only in observed load.)
            time.sleep(seconds / 3)
        else:
            time.sleep(seconds)
        stop.set()
        for thread in threads + ramp:
            if thread.is_alive():
                thread.join(timeout=30)
            if thread.is_alive():
                stats.violation(f"client thread {thread.name} failed to stop")
    finally:
        stop.set()
        fleet.shutdown(stats)
    counters = _check_metrics(metrics_path, stats)
    _require(counters, "fleet.requests", stats, "nothing was routed")
    if name == "kill_midburst":
        _require(counters, "fleet.probe_failures", stats,
                 "the prober must notice the killed backend")
    if name == "hot_key":
        _require(counters, "fleet.cache_hits", stats,
                 "skewed traffic must ride the result cache")
    return _report(
        stats, counters, report_path, mode=f"fleet-{name}",
        interesting=FLEET_COUNTERS,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="golden gate: byte-equality, mid-run backend kill, drain",
    )
    parser.add_argument(
        "--scenario", choices=SCENARIOS, help="traffic-shape scenario"
    )
    parser.add_argument(
        "--seconds", type=float, default=15.0, help="scenario duration"
    )
    parser.add_argument("--report", help="write the JSON report here")
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke(args.report)
    if args.scenario:
        return run_scenario(args.scenario, args.seconds, args.report)
    parser.error("pick a mode: --smoke or --scenario")


if __name__ == "__main__":
    sys.exit(main())
