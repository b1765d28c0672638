"""The three in-process workloads: one-shot round trip, stream, batch.

Each workload class offers the same hooks to ``run.py``:
``build``/``teardown`` (set-up, timed as ``setup_s``), ``run_pass`` (one
balanced pass, gated op by op), ``check``, ``ratios``, ``pids``,
``peak_rss_mb``, ``layer_metrics`` (folds a traced phase into the
per-layer metrics), ``covered_s``, ``inputs`` and ``close``.  A pass of
the round trip or the stream is one corpus of seven circuits, cycling
through the run's :data:`~inputs.GROUPS` corpora; a batch pass is one
job over all of them.
"""

from __future__ import annotations

import io
import statistics
import time
from typing import Dict, List

from repro import compress, compress_batch
from repro.container import dump_bytes, load_bytes
from repro.core import StreamEncoder, decode
from repro.reliability.verify import verify_container
from repro.streamio import StreamContainerWriter, decode_stream_bytes

from inputs import CONFIG, GROUPS, corpora, describe
from measure import (
    Phase,
    Speed,
    Tally,
    Tracer,
    children_peak_rss_mb,
    proc_peak_rss_mb,
)


def _ratios(original_bits: int, code_bits: int, stored_bytes: int) -> tuple:
    return (
        100.0 * (1.0 - code_bits / original_bits),
        100.0 * (1.0 - 8 * stored_bytes / original_bits),
    )


class _CorpusWorkload:
    """Shared shape of the library workloads: GROUPS corpora, no helpers.

    ``state["outputs"][group]`` holds, per circuit, the first output
    (container bytes and code-stream bits) a pass produced; every later
    pass over the same corpus must reproduce the bytes exactly, and the
    ratios are taken from them.
    """

    scale = 0.25

    def __init__(self, seed: int, scale: float = None) -> None:
        self.seed = seed
        if scale is not None:
            self.scale = scale

    def _new_state(self) -> dict:
        groups = corpora(self.seed, self.scale)
        return {"groups": groups, "outputs": [None] * len(groups)}

    def _settle(self, state: dict, group: int, k: int, item, data: bytes,
                code_bits: int, tally: Tally, ops: int) -> None:
        """Record the first output of an input, or gate a later one on it."""
        outputs = state["outputs"]
        if outputs[group] is None:
            outputs[group] = [None] * len(state["groups"][group])
        if outputs[group][k] is None:
            outputs[group][k] = (data, code_bits)
        elif outputs[group][k][0] != data:
            tally.fail(f"{item.circuit} (seed {item.seed}): output bytes changed", ops)

    def _warm_up(self, state: dict) -> None:
        tally = Tally()
        self.run_pass(state, 0, tally, Tracer(False))
        if tally.failed:
            raise RuntimeError(f"{self.name} warm-up failed: {tally.errors}")

    teardown = None

    def check(self, state: dict, tally: Tally) -> None:
        pass

    def ratios(self, state: dict) -> tuple:
        # A short run may not reach every corpus; fill in the rest now,
        # outside any timed phase.
        for group in range(GROUPS):
            if state["outputs"][group] is None:
                self.run_pass(state, group, Tally(), Tracer(False))
        bits = code_bits = stored = 0
        for inputs, outputs in zip(state["groups"], state["outputs"]):
            bits += sum(len(item.stream) for item in inputs)
            code_bits += sum(code for _data, code in outputs)
            stored += sum(len(data) for data, _code in outputs)
        return _ratios(bits, code_bits, stored)

    def pids(self, state: dict) -> List[int]:
        return []

    def peak_rss_mb(self, state: dict) -> float:
        return proc_peak_rss_mb()

    def covered_s(self, phase: Phase) -> float:
        return sum(phase.tracer.busy.values())

    def inputs(self, state: dict) -> list:
        return describe([item for group in state["groups"] for item in group])

    def close(self, state: dict) -> None:
        pass


class CorpusRoundtrip(_CorpusWorkload):
    """Library one-shot path: compress, write, read, decode, verify."""

    name = "corpus_roundtrip"

    def build(self) -> dict:
        state = self._new_state()
        self._warm_up(state)
        return state

    def run_pass(self, state: dict, index: int, tally: Tally, tr: Tracer,
                 speed: Speed = None) -> None:
        rec = tr.recorder
        group = index % GROUPS
        for k, item in enumerate(state["groups"][group]):
            start = time.perf_counter()
            with tr.layer("compress"):
                result = compress(item.stream, CONFIG, recorder=rec)
            with tr.layer("container.write_s"):
                data = dump_bytes(
                    result.compressed, result.assigned_stream, recorder=rec
                )
            with tr.layer("container.read_s"):
                loaded = load_bytes(data, recorder=rec)
            with tr.layer("core.decode_s"):
                decoded = decode(loaded, recorder=rec)
            with tr.layer("verify.s"):
                report = verify_container(data, item.stream, recorder=rec)
            tally.op(time.perf_counter() - start, len(item.stream))
            if not (report.ok and decoded.covers(item.stream)):
                tally.fail(f"{item.circuit} (seed {item.seed}): round trip lost the cubes")
            self._settle(state, group, k, item, data, loaded.compressed_bits, tally, 1)

    def layer_metrics(self, state, traced: Phase, untraced: Phase) -> Dict[str, float]:
        tr = traced.tracer
        per = 1.0 / traced.passes
        sec = traced.speed / traced.passes  # seconds per pass at reference speed
        return {
            "core.encode_s": tr.span_seconds(lambda n: n == "encode") * sec,
            "core.assign_s": tr.span_seconds(lambda n: n == "assign") * sec,
            "core.encode_codes": tr.counter("encode.codes") * per,
            "core.xbits_assigned": tr.counter("encode.xbits_assigned") * per,
            "core.decode_s": tr.busy.get("core.decode_s", 0.0) * sec,
            "container.write_s": tr.busy.get("container.write_s", 0.0) * sec,
            "container.read_s": tr.busy.get("container.read_s", 0.0) * sec,
            "container.bytes_written": tr.counter("container.bytes_written") * per,
            "verify.s": tr.busy.get("verify.s", 0.0) * sec,
        }


class StreamTernary(_CorpusWorkload):
    """Bounded-memory path: StreamEncoder + v5 frame writer, then read-back."""

    name = "stream_ternary"
    #: Bits fed per op (one ``feed`` + ``write_codes``).
    chunk_bits = 4096
    #: Chunks per input streamed during warm-up.
    warm_chunks = 2

    def build(self) -> dict:
        state = self._new_state()
        state["chunks"] = [
            [
                [
                    item.stream[start : start + self.chunk_bits]
                    for start in range(0, len(item.stream), self.chunk_bits)
                ]
                for item in inputs
            ]
            for inputs in state["groups"]
        ]
        for item, pieces in zip(state["groups"][0], state["chunks"][0]):
            warm = pieces[: self.warm_chunks]
            prefix = item.stream[: sum(map(len, warm))]
            data, _codes, _ops = self._stream(warm, Tally(), Tracer(False))
            back = decode_stream_bytes(data)
            if not (len(back) == len(prefix) and back.covers(prefix)):
                raise RuntimeError(f"warm-up stream of {item.circuit} lost the cubes")
        return state

    @staticmethod
    def _stream(pieces, tally: Tally, tr: Tracer) -> tuple:
        """Stream chunks into an in-memory v5 journal; (bytes, codes, ops)."""
        rec = tr.recorder
        encoder = StreamEncoder(CONFIG, recorder=rec)
        sink = io.BytesIO()
        writer = StreamContainerWriter(CONFIG, sink, recorder=rec)
        total_codes = 0
        for chunk in pieces:
            start = time.perf_counter()
            with tr.layer("stream.encode_s"):
                codes = encoder.feed(chunk)
            with tr.layer("streamio.frame_write_s"):
                writer.write_codes(codes)
            tally.op(time.perf_counter() - start, len(chunk))
            total_codes += len(codes)
        with tr.layer("stream.encode_s"):
            codes = encoder.finalize()
        with tr.layer("streamio.frame_write_s"):
            writer.finalize(codes, encoder.original_bits)
        return sink.getvalue(), total_codes + len(codes), len(pieces)

    def run_pass(self, state: dict, index: int, tally: Tally, tr: Tracer,
                 speed: Speed = None) -> None:
        group = index % GROUPS
        inputs = state["groups"][group]
        for k, (item, pieces) in enumerate(zip(inputs, state["chunks"][group])):
            data, codes, ops = self._stream(pieces, tally, tr)
            with tr.layer("streamio.frame_read_s"):
                back = decode_stream_bytes(data, recorder=tr.recorder)
            if not (len(back) == len(item.stream) and back.covers(item.stream)):
                tally.fail(
                    f"{item.circuit} (seed {item.seed}): stream read-back differs", ops
                )
            self._settle(state, group, k, item, data, codes * CONFIG.code_bits, tally, ops)
            if speed is not None:  # a pass lasts seconds; sample inside it too
                speed.sample()

    def layer_metrics(self, state, traced: Phase, untraced: Phase) -> Dict[str, float]:
        tr = traced.tracer
        per = 1.0 / traced.passes
        sec = traced.speed / traced.passes  # seconds per pass at reference speed
        stream_s = tr.busy.get("stream.encode_s", 0.0) * sec
        # Baseline: one-shot encode of the corpora the traced phase
        # streamed, timed by the library's own "encode" span.
        oneshot = Tracer(True)
        speed = Speed()
        speed.sample()
        for index in range(traced.passes):
            for item in state["groups"][index % GROUPS]:
                compress(item.stream, CONFIG, recorder=oneshot.recorder)
            speed.sample()
        oneshot_s = oneshot.span_seconds(lambda n: n == "encode") * per * speed.factor()
        return {
            "stream.encode_s": stream_s,
            "stream.vs_oneshot": oneshot_s / stream_s,
            "streamio.frame_write_s": tr.busy.get("streamio.frame_write_s", 0.0) * sec,
            "streamio.frame_read_s": tr.busy.get("streamio.frame_read_s", 0.0) * sec,
            "streamio.frames": tr.counter("stream.frames_written") * per,
        }


class CorpusBatch(_CorpusWorkload):
    """Warm sharded batch: compress_batch over a 2-worker spawn pool.

    One op (and one pass) is one batch job over all the run's corpora,
    so every job does the same work.
    """

    name = "corpus_batch"
    #: ~280k original bits per job in 56 streams: three wave rounds.
    scale = 0.05
    workers = 2
    shard_bits = 4096
    seed_plan = "wave"
    #: Inline (workers=1) jobs timed for parallel.inline_s.
    inline_repeats = 3

    def _job(self, state: dict, workers: int, recorder=None):
        inputs = [item for group in state["groups"] for item in group]
        return compress_batch(
            CONFIG,
            [item.stream for item in inputs],
            workers=workers,
            shard_bits=self.shard_bits,
            pattern_bits=[item.testset.width for item in inputs],
            seed_plan=self.seed_plan,
            recorder=recorder,
        )

    def build(self) -> dict:
        state = self._new_state()
        # The inline run is the reference each pooled job must
        # reproduce byte for byte.
        results = iter(self._job(state, 1))
        state["outputs"] = []
        for inputs in state["groups"]:
            outputs = []
            for item, result in zip(inputs, results):
                if not (result.ok and result.verify(item.stream)):
                    raise RuntimeError(f"inline batch lost the cubes of {item.circuit}")
                outputs.append((result.container, result.compressed_bits))
            state["outputs"].append(outputs)
        self._warm_up(state)
        return state

    def run_pass(self, state: dict, index: int, tally: Tally, tr: Tracer,
                 speed: Speed = None) -> None:
        start = time.perf_counter()
        results = self._job(state, self.workers, tr.recorder)
        tally.op(
            time.perf_counter() - start,
            sum(len(item.stream) for group in state["groups"] for item in group),
        )
        expected = [data for outputs in state["outputs"] for data, _code in outputs]
        if [result.container for result in results] != expected:
            tally.fail("pooled batch containers differ from the inline run")

    def peak_rss_mb(self, state: dict) -> float:
        # Both pool workers run at once; count the largest one twice.
        return proc_peak_rss_mb() + self.workers * children_peak_rss_mb()

    def close(self, state: dict) -> None:
        # The spawn pool started multiprocessing's resource tracker;
        # stop it and wait for it, so the run leaves no process behind.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()

    def layer_metrics(self, state, traced: Phase, untraced: Phase) -> Dict[str, float]:
        tr = traced.tracer
        per = 1.0 / traced.passes
        sec = traced.speed / traced.passes  # seconds per pass at reference speed
        inline = []
        speed = Speed()
        speed.sample()
        for _ in range(self.inline_repeats):
            start = time.perf_counter()
            self._job(state, 1)
            inline.append(time.perf_counter() - start)
            speed.sample()
        inline_s = statistics.median(inline) * speed.factor()
        pooled_s = statistics.median(untraced.tally.latencies) * untraced.speed
        shard = lambda suffix: tr.span_seconds(  # noqa: E731
            lambda n: n.startswith("shard[") and n.endswith(suffix)
        )
        return {
            "core.encode_s": shard(".encode") * sec,
            "core.assign_s": shard(".assign") * sec,
            "core.encode_codes": tr.counter("encode.codes") * per,
            "core.xbits_assigned": tr.counter("encode.xbits_assigned") * per,
            "container.bytes_written": tr.counter("container.bytes_written") * per,
            "parallel.plan_s": tr.span_seconds(lambda n: n == "plan") * sec,
            "parallel.encode_wall_s": tr.span_seconds(lambda n: n == "encode") * sec,
            "parallel.reassemble_s": tr.span_seconds(lambda n: n == "reassemble") * sec,
            "parallel.shard_cpu_s": (shard(".encode") + shard(".assign")) * sec,
            "parallel.inline_s": inline_s,
            "parallel.pool_speedup": inline_s / pooled_s,
            "parallel.seeded_shards": tr.counter("batch.seeded_shards") * per,
        }

    def covered_s(self, phase: Phase) -> float:
        return phase.tracer.span_seconds(lambda n: n in ("plan", "encode", "reassemble"))
