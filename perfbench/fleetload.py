"""service_fleet: a closed loop against ``repro serve`` and ``repro fleet``.

One client process keeps exactly one request outstanding.  Requests
alternate between the fleet dispatcher and the backend it fronts, over
one connection each, so the two paths see the same op mix.  Each
``decompress`` payload goes to both, one after the other, and the fleet
hop is the median of those paired differences.  The op mix is drawn
from the seed: ``compress`` of new cube windows and of a small hot set
that the fleet cache holds, ``decompress``/``verify`` of earlier
replies and ``compress_stream`` of fully specified (X-density 0) raw
bytes.

No record of real traffic exists, so the mix and the request size are
assumptions, tied to what the repository states: the four op kinds
share the requests equally, a third of compresses repeat a hot window
(so the fleet cache hits), and a request is about the size of the
golden corpus that ``benchmarks/service_soak.py`` sends (2.8k, 3.2k and
7.1k bits per request).
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro import TernaryVector, compress
from repro.circuit.scan import TestSet
from repro.container import dump_bytes
from repro.fleet import spawn_backend, stop_backend
from repro.service import CODE_SHED, CODE_UNAVAILABLE, ServiceClient
from repro.streamio import decode_stream_bytes
from repro.testfile import format_test_text
from repro.workloads import DEFAULT_CORPUS, build_testset

from inputs import CONFIG, Input, describe
from measure import Phase, Tally, Tracer, percentile, proc_peak_rss_mb

#: Seconds a helper process gets to drain after SIGTERM.
STOP_TIMEOUT = 20.0


class _Window:
    """One cube-text request: a run of whole vectors from a test set."""

    __slots__ = ("key", "text", "stream", "bits")

    def __init__(self, key: tuple, testset: TestSet, start: int, count: int) -> None:
        part = TestSet(testset.input_names, testset.cubes[start : start + count])
        self.key = key
        self.text = format_test_text(part)
        self.stream = part.to_stream()
        self.bits = len(self.stream)


class ServiceFleet:
    name = "service_fleet"
    #: Target size of a ``compress`` or ``compress_stream`` request, in
    #: whole vectors: ~4k bits, within the service soak corpus's sizes.
    window_bits = 4000
    #: The ratio is taken over this many leading new windows (60 per
    #: circuit, spread over several seeds), whatever the run length.
    ratio_windows = 420
    #: Generation whose windows only the warm-up requests.
    warm_generation = 63
    #: New windows rotate over this many generations (seeds) per circuit.
    seeds_per_circuit = 4
    #: Draws per pass (one pass = one seeded schedule round).
    round_draws = 40
    #: Draw weights, an assumption (see the module docstring): each op
    #: kind gets a quarter of the requests, a third of compresses are
    #: hot.  A ``decompress`` draw sends two requests, hence half weight.
    mix = (
        ("compress_new", 4),
        ("compress_hot", 2),
        ("decompress", 3),
        ("verify", 6),
        ("compress_stream", 6),
    )
    #: New windows a run may request.  Set-up synthesizes every test set
    #: they are cut from, so no timed pass synthesizes one; a 15 s run
    #: requests about 500 (both phases of ``--trace 1``).
    new_window_budget = 2100

    def __init__(self, seed: int, scale: float = None) -> None:
        self.seed = seed
        self.root = Path(__file__).resolve().parent.parent
        self._builds = 0

    # -- inputs ----------------------------------------------------------
    def _testset(self, state: dict, circuit: int, generation: int) -> TestSet:
        """Circuit ``circuit`` synthesized under generation ``generation``'s seed."""
        key = (circuit, generation)
        sets = state["sets"]
        if key not in sets:
            sets[key] = build_testset(
                DEFAULT_CORPUS[circuit], seed=self._seed(circuit, generation)
            )
        return sets[key]

    @staticmethod
    def _vectors(testset: TestSet, bits: int) -> int:
        return max(1, round(bits / testset.width))

    def _seed(self, circuit: int, generation: int) -> int:
        return (self.seed * 64 + generation) * len(DEFAULT_CORPUS) + circuit

    def _window(self, state: dict, circuit: int, generation: int, start: int) -> _Window:
        """The ~window_bits of one test set from vector ``start`` on."""
        testset = self._testset(state, circuit, generation)
        count = self._vectors(testset, self.window_bits)
        return _Window((circuit, generation, start), testset, start, count)

    def _new_window(self, state: dict, serial: int) -> _Window:
        """New cube window number ``serial``, never requested before it."""
        return self._window(state, *self._place(state, serial))

    def _place(self, state: dict, serial: int) -> Tuple[int, int, int]:
        """Where new window ``serial`` lies: (circuit, generation, start).

        Windows rotate over the circuits, and per circuit over
        ``seeds_per_circuit`` generations (seeds) before taking a second
        window of any one test set, so a run's traffic mixes several
        seeds' cubes.  A test set first gives its disjoint windows, then
        the same windows shifted by one vector, two, and so on; only
        after every shift does a circuit move on to further seeds.
        """
        circuit = serial % len(DEFAULT_CORPUS)
        k = serial // len(DEFAULT_CORPUS)
        testset = self._testset(state, circuit, 1)
        count = self._vectors(testset, self.window_bits)
        # Disjoint windows that fit at every shift 0 .. count - 1.
        per_shift = (len(testset.cubes) - count + 1) // count
        seeds = self.seeds_per_circuit
        block, within = divmod(k, seeds * per_shift * count)
        shift, within = divmod(within, seeds * per_shift)
        generation = 1 + within % seeds + seeds * block
        return circuit, generation, shift + (within // seeds) * count

    def _next_new(self, state: dict) -> _Window:
        serial = state["new_serial"]
        if serial >= self.new_window_budget:
            raise RuntimeError(
                f"service_fleet ran past its {self.new_window_budget} pre-built "
                "new windows; raise ServiceFleet.new_window_budget"
            )
        state["new_serial"] = serial + 1
        return self._new_window(state, serial)

    # -- processes -------------------------------------------------------
    def _start_fleet(self, backend_address: str, cache_dir: Path) -> tuple:
        """Start ``repro fleet`` in front of one backend; (process, address)."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "fleet",
                "--port", "0",
                "--backend", backend_address,
                "--workers", "1",
                "--cache-dir", str(cache_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        banner = proc.stdout.readline()
        if "serving on" not in banner:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"fleet failed to start: {banner!r}")
        return proc, banner.split()[2]

    def build(self) -> dict:
        self._builds += 1
        work = self.root / ".perfbench_work"
        cache_dir = work / f"cache-{os.getpid()}-{self._builds}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir.mkdir(parents=True)
        state: dict = {
            "sets": {},
            "new_serial": 0,
            "history": [],
            "pending": [],
            "references": {},
            "cache_dir": cache_dir,
            "backend": None,
            "fleet": None,
            "clients": [],
        }
        try:
            for serial in range(self.new_window_budget):
                self._testset(state, *self._place(state, serial)[:2])
            # Generation 0 holds the fixed pools: window 0 of each
            # circuit is the hot set, the window after it the stream
            # payload.  New windows come from generations 1 and up.
            state["hot"] = [
                self._window(state, c, 0, 0) for c in range(len(DEFAULT_CORPUS))
            ]
            state["streams"] = []
            for c, hot in enumerate(state["hot"]):
                testset = self._testset(state, c, 0)
                window = self._window(state, c, 0, len(hot.stream) // testset.width)
                filled = window.stream.fill(0)
                pad = -len(filled) % 8
                if pad:
                    filled = filled + TernaryVector.zeros(pad)
                data = filled.to_int().to_bytes(len(filled) // 8, "little")
                state["streams"].append((window.key, data, filled))
            state["backend"] = spawn_backend(["--workers", "1"])
            state["fleet"], fleet_address = self._start_fleet(
                state["backend"].address, cache_dir
            )
            state["clients"] = [
                ("fleet", ServiceClient(fleet_address)),
                ("direct", ServiceClient(state["backend"].address)),
            ]
            self._warm_up(state)
        except BaseException:
            self.teardown(state)
            raise
        return state

    def _warm_up(self, state: dict) -> None:
        tally = Tally()
        rng = random.Random(-1 - self.seed)
        for target, client in state["clients"]:
            for window in state["hot"]:
                self._compress(state, client, target, window, tally)
            for window in state["hot"]:  # fleet: now served from cache
                self._compress(state, client, target, window, tally)
            for index in range(2):
                for circuit in range(len(DEFAULT_CORPUS)):
                    testset = self._testset(state, circuit, self.warm_generation)
                    start = index * self._vectors(testset, self.window_bits)
                    window = self._window(state, circuit, self.warm_generation, start)
                    self._compress(state, client, target, window, tally)
            for entry in state["streams"]:
                self._compress_stream(state, client, target, entry, tally)
            for _ in range(len(state["hot"])):
                for kind in ("decompress", "verify"):
                    entry = self._earlier(state, rng)
                    self._read(state, client, target, kind, entry, tally)
        self.check(state, tally)
        if tally.failed:
            raise RuntimeError(f"service warm-up failed: {tally.errors}")
        # Timed reads start from the hot set's (gated) containers.
        state["history"] = [
            (window.key, self._reference(state, window)[0], window)
            for window in state["hot"]
        ]

    def teardown(self, state: dict) -> None:
        for _target, client in state["clients"]:
            client.close()
        fleet = state["fleet"]
        if fleet is not None and fleet.poll() is None:
            fleet.send_signal(signal.SIGTERM)
            try:
                fleet.communicate(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                fleet.kill()
                fleet.communicate()
        if state["backend"] is not None:
            stop_backend(state["backend"], timeout=STOP_TIMEOUT)
        shutil.rmtree(state["cache_dir"], ignore_errors=True)
        try:
            state["cache_dir"].parent.rmdir()
        except OSError:
            pass

    close = teardown

    # -- requests --------------------------------------------------------
    def _send(self, tally: Tally, kind: str, bits: int, call) -> tuple:
        start = time.perf_counter()
        header, payload = call()
        seconds = time.perf_counter() - start
        tally.op(seconds, bits, kind)
        if not header.get("ok"):
            code = header.get("code")
            if code in (CODE_SHED, CODE_UNAVAILABLE):
                tally.kinds.setdefault("shed", []).append(seconds)
            tally.fail(f"{kind}: error reply {code} {header.get('error')}")
        return header, payload

    def _compress(self, state, client, target, window: _Window, tally) -> None:
        header, payload = self._send(
            tally, f"{target}.compress", window.bits, lambda: client.compress(window.text)
        )
        if target == "fleet" and header.get("ok"):
            hit = header.get("cache") == "hit"
            tally.kinds.setdefault(
                "fleet.compress_hit" if hit else "fleet.compress_miss", []
            ).append(tally.latencies[-1])
        if header.get("ok"):
            state["pending"].append(("compress", window, header, payload))
            state["history"].append((window.key, payload, window))

    def _compress_stream(self, state, client, target, entry, tally) -> None:
        key, data, filled = entry
        header, payload = self._send(
            tally,
            f"{target}.compress_stream",
            len(data) * 8,
            lambda: client.compress_stream(data),
        )
        if header.get("ok"):
            state["pending"].append(("compress_stream", filled, header, payload))

    @staticmethod
    def _earlier(state, rng) -> tuple:
        """An earlier compress reply: (key, container, window)."""
        return state["history"][rng.randrange(len(state["history"]))]

    def _read(self, state, client, target, kind, entry, tally) -> bool:
        """Send ``decompress`` or ``verify`` of ``entry``; True if answered."""
        key, container, window = entry
        call = client.decompress if kind == "decompress" else client.verify
        header, payload = self._send(
            tally, f"{target}.{kind}", window.bits, lambda: call(container)
        )
        if not header.get("ok"):
            return False
        if kind == "verify" and header.get("verify_exit_code") != 0:
            tally.fail(f"verify of {key} reported {header.get('detail')}")
        if kind == "decompress":
            state["pending"].append(("decompress", window, header, payload))
        return True

    def _decompress_pair(self, state, first: int, rng, tally) -> None:
        """One payload to both targets back to back, ``first`` going
        first; the fleet-minus-direct difference is one hop sample."""
        entry = self._earlier(state, rng)
        seconds = {}
        for target, client in state["clients"][first:] + state["clients"][:first]:
            if self._read(state, client, target, "decompress", entry, tally):
                seconds[target] = tally.latencies[-1]
        if len(seconds) == 2:
            tally.kinds.setdefault("hop", []).append(seconds["fleet"] - seconds["direct"])

    def run_pass(self, state: dict, index: int, tally: Tally, tr: Tracer,
                 speed=None) -> None:
        rng = random.Random(self.seed * 1_000_003 + index)
        kinds = [kind for kind, _ in self.mix]
        weights = [weight for _, weight in self.mix]
        for draw in range(self.round_draws):
            target, client = state["clients"][draw % 2]
            kind = rng.choices(kinds, weights)[0]
            if kind == "decompress":
                self._decompress_pair(state, draw % 2, rng, tally)
            elif kind == "compress_new":
                self._compress(state, client, target, self._next_new(state), tally)
            elif kind == "compress_hot":
                window = state["hot"][rng.randrange(len(state["hot"]))]
                self._compress(state, client, target, window, tally)
            elif kind == "compress_stream":
                entry = state["streams"][rng.randrange(len(state["streams"]))]
                self._compress_stream(state, client, target, entry, tally)
            else:
                self._read(state, client, target, kind, self._earlier(state, rng), tally)

    @staticmethod
    def _reference(state: dict, window: _Window) -> Tuple[bytes, str, int]:
        """Serial ``compress`` + ``dump_bytes`` of a window: (container,
        decoded text, code-stream bits), memoised per window."""
        references = state["references"]
        if window.key not in references:
            result = compress(window.stream, CONFIG)
            references[window.key] = (
                dump_bytes(result.compressed, result.assigned_stream),
                str(result.assigned_stream),
                result.compressed_bits,
            )
        return references[window.key]

    def check(self, state: dict, tally: Tally) -> None:
        """Gate every reply of the phase against the serial library path."""
        for kind, subject, header, payload in state["pending"]:
            if kind == "compress_stream":
                if decode_stream_bytes(payload) != subject:
                    tally.fail("compress_stream read-back differs from input")
                continue
            window = subject
            container, text, _bits = self._reference(state, window)
            if kind == "compress":
                if payload != container:
                    tally.fail(f"compress reply for {window.key} differs from serial")
            elif payload.decode("ascii") != text:
                tally.fail(f"decompress reply for {window.key} differs from serial")
        state["pending"] = []

    # -- results ---------------------------------------------------------
    def ratios(self, state: dict) -> tuple:
        """Ratios over the leading new windows.  Every reply is gated
        byte-identical to its serial reference, so the references give
        the ratio of what the service returned; windows a short run never
        requested are compressed here, outside any timed phase."""
        bits = codes = stored = 0
        for serial in range(self.ratio_windows):
            window = self._new_window(state, serial)
            container, _text, code_bits = self._reference(state, window)
            bits += window.bits
            codes += code_bits
            stored += len(container)
        return 100.0 * (1.0 - codes / bits), 100.0 * (1.0 - 8 * stored / bits)

    def pids(self, state: dict) -> List[int]:
        return [state["backend"].pid, state["fleet"].pid]

    def peak_rss_mb(self, state: dict) -> float:
        return sum(
            proc_peak_rss_mb(pid) for pid in [None] + self.pids(state)
        )

    def layer_metrics(self, state, traced: Phase, untraced: Phase) -> Dict[str, float]:
        kinds = traced.tally.kinds
        ms = 1000.0 * traced.speed  # milliseconds at reference speed

        def p50(kind: str) -> float:
            return ms * (percentile(kinds.get(kind, []), 50) or 0.0)

        fleet_compress = len(kinds.get("fleet.compress", []))
        per = 1.0 / traced.passes
        sec = traced.speed / traced.passes  # seconds per pass at reference speed
        return {
            "service.compress_ms": p50("direct.compress"),
            "service.decompress_ms": p50("direct.decompress"),
            "service.verify_ms": p50("direct.verify"),
            "service.compress_stream_ms": p50("direct.compress_stream"),
            "service.server_cpu_s": traced.cpu[2] * sec,
            "service.shed": len(kinds.get("shed", [])) * per,
            "fleet.compress_miss_ms": p50("fleet.compress_miss"),
            "fleet.compress_hit_ms": p50("fleet.compress_hit"),
            "fleet.hop_ms": p50("hop"),
            "fleet.cache_hit_ratio": (
                len(kinds.get("fleet.compress_hit", [])) / fleet_compress
                if fleet_compress
                else 0.0
            ),
            "fleet.dispatcher_cpu_s": traced.cpu[3] * sec,
        }

    def covered_s(self, phase: Phase) -> float:
        return sum(phase.tally.latencies)

    def inputs(self, state: dict) -> list:
        """The test sets the run's new cube windows were cut from."""
        serials = max(state["new_serial"], self.ratio_windows)
        used = sorted({self._place(state, n)[:2] for n in range(serials)})
        items = []
        for circuit, generation in used:
            testset = self._testset(state, circuit, generation)
            seed = self._seed(circuit, generation)
            items.append(Input(DEFAULT_CORPUS[circuit], seed, testset, testset.to_stream()))
        return describe(items)
