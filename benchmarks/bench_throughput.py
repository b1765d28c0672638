"""Throughput benchmarks — the encoder and the sharded batch pipeline.

Two personalities:

* Under pytest (``pytest benchmarks/bench_throughput.py``) the
  pytest-benchmark measurements at the bottom time the encoder, the
  software decoder and the cycle-accurate hardware model over repeated
  rounds, so regressions in the hot loops show up as timing changes.

* As a script (``PYTHONPATH=src python benchmarks/bench_throughput.py``)
  it runs the batch-engine throughput experiment: the paper corpus is
  compressed serially (one ``compress`` call per workload, no sharding)
  and then through ``compress_batch`` with pattern-aligned shards at
  several worker counts, asserting the determinism contract (identical
  containers at every worker count) and writing ``BENCH_throughput.json``
  at the repo root.  Numbers are *measured*, machine facts included —
  on a single-core container the parallel runs cannot beat serial, and
  the JSON says so rather than pretending otherwise.

Every timed pass runs with a :mod:`repro.observability` recorder
attached, so the report breaks the wall clock down by pipeline stage
(``plan``/``encode``/``reassemble`` in the parent, encode/assign summed
across worker shards) and carries the deterministic counter snapshot of
the reference run alongside the timings.

The serial pass also runs once on the test oracle, selected with
:func:`repro.core.dontcare.reference_engine`, so the report carries the
same-run speedup of the packed matcher over the oracle (``--check``
gates it with ``--min-speedup``) and confirms both emit the same codes.
"""

import argparse
import json
import os
import platform
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from repro.core import LZWConfig, LZWEncoder, compress, compress_batch, decode
from repro.core.dontcare import reference_engine
from repro.observability import (
    SCHEMA_VERSION,
    CompositeRecorder,
    CounterRecorder,
    SpanRecorder,
)
from repro.workloads import DEFAULT_CORPUS, build_corpus, build_testset

CONFIG = LZWConfig(char_bits=7, dict_size=1024, entry_bits=63)

#: Target shard size for the batch runs — ~590 characters at the paper
#: config: the throughput/ratio sweet spot on this corpus (smaller
#: shards encode faster but restart the dictionary more often).
SHARD_BITS = 4096

WORKER_COUNTS = (1, 2, 4)

_REPO_ROOT = Path(__file__).resolve().parent.parent
_DEFAULT_OUTPUT = _REPO_ROOT / "BENCH_throughput.json"


def _mb(bits: int) -> float:
    """Bits → decimal megabytes (the MB/s denominator)."""
    return bits / 8 / 1e6


def _peak_rss_bytes() -> int:
    """The process's peak resident set size so far, in bytes.

    ``ru_maxrss`` is a lifetime high-water mark: sampled after each
    stage it tells you which stage *raised* the peak (the first stage
    whose sample equals the final value is the memory-dominant one),
    not each stage's isolated footprint.  Linux reports kilobytes,
    macOS bytes; 0 on platforms without ``resource``.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    return peak


def run_serial(streams, engine="fast"):
    """Unsharded baseline: one plain ``compress`` per workload.

    ``engine`` picks the matcher: ``fast`` is the shipping packed
    matcher, ``reference`` runs inside ``reference_engine()`` on the
    test oracle.  Returns the total seconds, the per-workload results
    and the stage breakdown the attached :class:`SpanRecorder` measured
    (``encode`` is the LZW loop, ``assign`` the step that materialises
    the X-filled stream).
    """
    swap = reference_engine() if engine == "reference" else nullcontext()
    spans = SpanRecorder()
    start = time.perf_counter()
    with swap:
        results = [compress(stream, CONFIG, recorder=spans) for stream in streams]
    seconds = time.perf_counter() - start
    stages = {
        "encode": round(spans.seconds("encode"), 4),
        "assign": round(spans.seconds("assign"), 4),
    }
    return seconds, results, stages


def _batch_stage_breakdown(spans: SpanRecorder) -> dict:
    """Fold one batch pass's spans into the per-stage report entry.

    Parent stages are exact-name sums; the per-shard worker spans come
    back merged under ``shard[i.j].`` labels and are aggregated into
    CPU-seconds totals (they overlap in wall time when workers > 1).
    """
    shard_encode = shard_assign = 0.0
    for name, seconds in spans.iter_named("shard["):
        if name.endswith(".encode"):
            shard_encode += seconds
        elif name.endswith(".assign"):
            shard_assign += seconds
    return {
        "plan": round(spans.seconds("plan"), 4),
        "encode_wall": round(spans.seconds("encode"), 4),
        "reassemble": round(spans.seconds("reassemble"), 4),
        "shard_encode_cpu": round(shard_encode, 4),
        "shard_assign_cpu": round(shard_assign, 4),
    }


def run_batch(streams, pattern_bits, workers, seed_mode="cold"):
    """One sharded batch pass at a fixed pool size, instrumented.

    ``seed_mode`` selects the warm-dictionary plan (``cold`` /
    ``preamble`` / ``wave``).  Returns seconds, the batch items, the
    stage breakdown and the deterministic counter snapshot (identical
    at every pool size).
    """
    counters = CounterRecorder()
    spans = SpanRecorder()
    recorder = CompositeRecorder([counters, spans])
    start = time.perf_counter()
    items = compress_batch(
        CONFIG,
        streams,
        workers=workers,
        shard_bits=SHARD_BITS,
        pattern_bits=pattern_bits,
        recorder=recorder,
        seed_plan=seed_mode,
    )
    seconds = time.perf_counter() - start
    return seconds, items, _batch_stage_breakdown(spans), counters.snapshot()


def run_experiment(scale: float, workers=WORKER_COUNTS) -> dict:
    corpus = build_corpus(DEFAULT_CORPUS, scale=scale)
    names = [name for name, _ in corpus]
    streams = [testset.to_stream() for _, testset in corpus]
    pattern_bits = [testset.width for _, testset in corpus]
    total_bits = sum(len(stream) for stream in streams)

    # Serial passes, both engines: ``serial`` is the shipping packed
    # matcher; the reference oracle runs in the same process so the
    # engine speedup is a same-machine, same-load ratio.
    serial_seconds, serial_results, serial_stages = run_serial(streams, "fast")
    serial_bits = sum(r.compressed_bits for r in serial_results)
    rss_after_serial = _peak_rss_bytes()
    ref_seconds, ref_results, ref_stages = run_serial(streams, "reference")
    rss_after_reference = _peak_rss_bytes()
    for fast_r, ref_r in zip(serial_results, ref_results):
        if fast_r.compressed.codes != ref_r.compressed.codes:
            raise AssertionError(
                "fast and reference engines emitted different codes — "
                "byte-identity contract violated"
            )

    parallel_runs = []
    reference_containers = None
    reference_counters = None
    for count in workers:
        seconds, items, stages, counters = run_batch(streams, pattern_bits, count)
        containers = [item.container for item in items]
        if reference_containers is None:
            reference_containers = containers
            reference_counters = counters
            for item, stream in zip(items, streams):
                if not item.verify(stream):
                    raise AssertionError("batch output does not cover its input")
            batch_bits = sum(item.compressed_bits for item in items)
            shard_counts = [item.num_shards for item in items]
        else:
            if containers != reference_containers:
                raise AssertionError(
                    f"workers={count} changed the output bytes — "
                    "determinism contract violated"
                )
            if counters != reference_counters:
                raise AssertionError(
                    f"workers={count} changed the merged counters — "
                    "recorder determinism violated"
                )
        parallel_runs.append(
            {
                "workers": count,
                "seconds": round(seconds, 4),
                "mb_per_s": round(_mb(total_bits) / seconds, 5),
                "speedup_vs_serial": round(serial_seconds / seconds, 3),
                "stages": stages,
                "peak_rss_bytes": _peak_rss_bytes(),
            }
        )

    ratio_serial = 100.0 * (1.0 - serial_bits / total_bits)
    ratio_batch = 100.0 * (1.0 - batch_bits / total_bits)

    # Seed-mode ablation: the same corpus and shard plan, warm.  Cold
    # reuses the workers=1 pass above; preamble and wave re-run it with
    # the planner engaged, and wave runs once more on a pool at the
    # largest worker count, whose containers must equal the inline
    # wave's.  Ratio and bytes are deterministic; only the seconds are
    # machine facts.
    seed_ablation = [
        {
            "mode": "cold",
            "workers": 1,
            "seconds": parallel_runs[0]["seconds"],
            "ratio_percent": round(ratio_batch, 2),
            "ratio_delta_vs_serial": round(ratio_batch - ratio_serial, 2),
            "seeded_shards": 0,
        }
    ]
    warm_runs = {}
    pooled = max(workers)
    ablation_runs = [("preamble", 1), ("wave", 1)]
    if pooled > 1:
        ablation_runs.append(("wave", pooled))
    for mode, count in ablation_runs:
        seconds, items, _stages, counters = run_batch(
            streams, pattern_bits, count, seed_mode=mode
        )
        containers = [item.container for item in items]
        if count == 1:
            for item, stream in zip(items, streams):
                if not item.verify(stream):
                    raise AssertionError(
                        f"{mode}-seeded batch output does not cover its input"
                    )
            bits = sum(item.compressed_bits for item in items)
            ratio = 100.0 * (1.0 - bits / total_bits)
            warm_runs[mode] = {
                "seconds": seconds, "ratio": ratio, "containers": containers
            }
        elif containers != warm_runs[mode]["containers"]:
            raise AssertionError(
                f"{mode}-seeded batch at workers={count} changed the output "
                "bytes — determinism contract violated"
            )
        seed_ablation.append(
            {
                "mode": mode,
                "workers": count,
                "seconds": round(seconds, 4),
                "ratio_percent": round(warm_runs[mode]["ratio"], 2),
                "ratio_delta_vs_serial": round(
                    warm_runs[mode]["ratio"] - ratio_serial, 2
                ),
                "seeded_shards": counters.get("counters", {}).get(
                    "batch.seeded_shards", 0
                ),
            }
        )

    # The tentpole contract, asserted in-run so a committed report can
    # never claim it without having measured it: warm sharding holds
    # the serial ratio (within 3 points) while the sharded fast path
    # stays >= 2x faster than the reference serial encode — the
    # machine-independent speedup axis on a single-core host.
    warm_ratio = warm_runs["wave"]["ratio"]
    warm_seconds = warm_runs["wave"]["seconds"]
    ratio_gap = ratio_serial - warm_ratio
    if ratio_gap > 3.0:
        raise AssertionError(
            f"wave-seeded sharding lost {ratio_gap:.2f} ratio points vs "
            "serial (contract: <= 3)"
        )
    warm_speedup = ref_seconds / warm_seconds
    if warm_speedup < 2.0:
        raise AssertionError(
            f"wave-seeded sharded encode is only {warm_speedup:.2f}x the "
            "reference serial pass (contract: >= 2x)"
        )

    return {
        "benchmark": "parallel sharded batch compression",
        "command": "PYTHONPATH=src python benchmarks/bench_throughput.py",
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "config": {
            "char_bits": CONFIG.char_bits,
            "dict_size": CONFIG.dict_size,
            "entry_bits": CONFIG.entry_bits,
        },
        "scale": scale,
        "shard_bits": SHARD_BITS,
        "corpus": [
            {
                "name": name,
                "original_bits": len(stream),
                "shards": shards,
            }
            for name, stream, shards in zip(names, streams, shard_counts)
        ],
        "total_original_bits": total_bits,
        "serial": {
            "engine": "fast",
            "seconds": round(serial_seconds, 4),
            "mb_per_s": round(_mb(total_bits) / serial_seconds, 5),
            "encode_mb_per_s": round(
                _mb(total_bits) / serial_stages["encode"], 5
            ),
            "ratio_percent": round(ratio_serial, 2),
            "stages": serial_stages,
            "peak_rss_bytes": rss_after_serial,
        },
        "serial_reference": {
            "engine": "reference",
            "seconds": round(ref_seconds, 4),
            "mb_per_s": round(_mb(total_bits) / ref_seconds, 5),
            "encode_mb_per_s": round(_mb(total_bits) / ref_stages["encode"], 5),
            "stages": ref_stages,
            "peak_rss_bytes": rss_after_reference,
        },
        # Same-run, same-machine ratio of the two engines — the
        # machine-independent number the perf gate checks.
        "engine_speedup": {
            "encode_stage": round(
                ref_stages["encode"] / serial_stages["encode"], 2
            ),
            "overall": round(ref_seconds / serial_seconds, 2),
        },
        "parallel": parallel_runs,
        "metrics_schema": SCHEMA_VERSION,
        "counters": reference_counters.get("counters", {}),
        "ratio_percent_sharded": round(ratio_batch, 2),
        "ratio_delta_percent": round(ratio_batch - ratio_serial, 2),
        "seed_mode_ablation": seed_ablation,
        "warm_sharded": {
            "mode": "wave",
            "seconds": round(warm_seconds, 4),
            "mb_per_s": round(_mb(total_bits) / warm_seconds, 5),
            "ratio_percent": round(warm_ratio, 2),
            "ratio_delta_vs_serial": round(warm_ratio - ratio_serial, 2),
            "speedup_vs_reference_serial": round(warm_speedup, 2),
        },
        "deterministic_across_workers": True,
        "peak_rss_bytes": _peak_rss_bytes(),
        "note": (
            "peak_rss_bytes samples the process high-water mark after "
            "each stage (ru_maxrss; monotone, so the stage that first "
            "reaches the final value set the peak). "
            "Speedup is bounded by the machine's cpu_count; per-shard "
            "dictionaries trade ratio_delta_percent for parallelism — "
            "seed_mode_ablation shows the warm planner buying that "
            "ratio back (wave chains each shard from its predecessor's "
            "final dictionary). "
            "stages come from the observability recorder: *_cpu entries "
            "sum worker-shard spans and overlap in wall time."
        ),
    }


def check_against_baseline(
    report, baseline_path, max_regression, min_speedup, min_sharded_ratio=None
):
    """Regression gate: compare a fresh run against the committed JSON.

    Returns a list of human-readable failure strings (empty = gate
    passes).  Three independent checks:

    * fast-path serial MB/s must not regress more than ``max_regression``
      (fraction) below the committed baseline — catches absolute slowdowns
      on comparable machines;
    * the same-run engine speedup (reference encode stage / fast encode
      stage) must stay at or above ``min_speedup`` — machine-independent,
      so it holds even when the host is loaded or slower than the one
      that produced the baseline;
    * the warm (wave-seeded) sharded ratio must stay at or above
      ``min_sharded_ratio`` percent — fully deterministic, so any dip is
      a real planner/encoder change, never measurement noise.
    """
    baseline = json.loads(Path(baseline_path).read_text())
    failures = []
    base_mb = baseline["serial"]["mb_per_s"]
    cur_mb = report["serial"]["mb_per_s"]
    floor = base_mb * (1.0 - max_regression)
    if cur_mb < floor:
        failures.append(
            f"serial fast-path throughput regressed: {cur_mb} MB/s < "
            f"{floor:.5f} MB/s ({base_mb} baseline - {max_regression:.0%})"
        )
    if min_speedup is not None:
        speedup = report["engine_speedup"]["encode_stage"]
        if speedup < min_speedup:
            failures.append(
                f"engine speedup {speedup}x below required {min_speedup}x "
                "(reference/fast encode-stage, same run)"
            )
    if min_sharded_ratio is not None:
        warm_ratio = report["warm_sharded"]["ratio_percent"]
        if warm_ratio < min_sharded_ratio:
            failures.append(
                f"warm sharded ratio {warm_ratio}% below required "
                f"{min_sharded_ratio}% (wave-seeded, deterministic)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure serial vs sharded-batch compression throughput."
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="corpus vector-count multiplier in (0, 1] (default: 1.0)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=list(WORKER_COUNTS),
        help="pool sizes to measure (default: 1 2 4)",
    )
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=_DEFAULT_OUTPUT,
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--check",
        type=Path,
        metavar="BASELINE_JSON",
        help="regression-gate mode: measure, compare against this "
        "committed report and exit non-zero on regression (the report "
        "file is not rewritten)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.15,
        help="with --check: tolerated fractional MB/s drop vs the "
        "baseline (default 0.15)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="with --check: required same-run reference/fast "
        "encode-stage speedup factor",
    )
    parser.add_argument(
        "--min-sharded-ratio",
        type=float,
        default=None,
        metavar="PERCENT",
        help="with --check: required warm (wave-seeded) sharded "
        "compression ratio in percent; deterministic, so any miss is "
        "a real ratio regression",
    )
    parser.add_argument(
        "--attempts",
        type=int,
        default=3,
        help="with --check: re-measure up to this many times and pass "
        "if any attempt clears the gate (best-of-N noise rejection, "
        "default 3)",
    )
    args = parser.parse_args(argv)

    if args.check is not None:
        # Best-of-N gating: a single wall-clock sample on a shared/loaded
        # host wobbles more than the regression threshold, so re-measure
        # (up to --attempts times) and pass if any attempt clears — the
        # fastest observed run is the least-perturbed one, exactly like
        # timeit's min-of-N.  A true regression fails every attempt.
        failures = []
        for attempt in range(1, args.attempts + 1):
            report = run_experiment(args.scale, tuple(args.workers))
            failures = check_against_baseline(
                report,
                args.check,
                args.max_regression,
                args.min_speedup,
                args.min_sharded_ratio,
            )
            print(
                f"attempt {attempt}/{args.attempts}: "
                f"serial {report['serial']['mb_per_s']} MB/s "
                f"(encode {report['serial']['encode_mb_per_s']} MB/s), "
                f"engine speedup {report['engine_speedup']['encode_stage']}x "
                f"encode-stage / {report['engine_speedup']['overall']}x overall, "
                f"warm sharded ratio {report['warm_sharded']['ratio_percent']}%"
            )
            if not failures:
                print(f"PASS: within {args.max_regression:.0%} of {args.check}")
                return 0
            for failure in failures:
                print(f"attempt {attempt} below baseline: {failure}")
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1

    report = run_experiment(args.scale, tuple(args.workers))
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"corpus: {', '.join(e['name'] for e in report['corpus'])}")
    print(
        f"serial (fast): {report['serial']['seconds']}s"
        f" ({report['serial']['mb_per_s']} MB/s,"
        f" ratio {report['serial']['ratio_percent']}%)"
    )
    print(
        f"serial (reference): {report['serial_reference']['seconds']}s"
        f" ({report['serial_reference']['mb_per_s']} MB/s);"
        f" engine speedup {report['engine_speedup']['encode_stage']}x"
        f" encode-stage, {report['engine_speedup']['overall']}x overall"
    )
    for run in report["parallel"]:
        stages = run["stages"]
        print(
            f"workers={run['workers']}: {run['seconds']}s"
            f" ({run['mb_per_s']} MB/s, {run['speedup_vs_serial']}x;"
            f" plan {stages['plan']}s, encode {stages['encode_wall']}s,"
            f" reassemble {stages['reassemble']}s)"
        )
    print(
        f"sharded ratio {report['ratio_percent_sharded']}%"
        f" (delta {report['ratio_delta_percent']}%),"
        f" identical bytes at every worker count"
    )
    for entry in report["seed_mode_ablation"]:
        print(
            f"seed-mode {entry['mode']} (workers={entry['workers']}):"
            f" ratio {entry['ratio_percent']}%"
            f" (delta {entry['ratio_delta_vs_serial']}% vs serial,"
            f" {entry['seeded_shards']} seeded shards, {entry['seconds']}s)"
        )
    warm = report["warm_sharded"]
    print(
        f"warm sharded ({warm['mode']}): ratio {warm['ratio_percent']}%"
        f" (delta {warm['ratio_delta_vs_serial']}% vs serial)"
        f" at {warm['speedup_vs_reference_serial']}x the reference serial pass"
    )
    print(f"wrote {args.output}")
    return 0


# --- pytest-benchmark measurements (unchanged core-engine microbenches) ---

try:
    import pytest
except ImportError:  # pragma: no cover - script mode without pytest
    pytest = None

if pytest is not None:
    from repro.hardware import DecompressorModel

    @pytest.fixture(scope="module")
    def stream():
        return build_testset("s9234f", scale=0.25).to_stream()

    @pytest.fixture(scope="module")
    def compressed(stream):
        return LZWEncoder(CONFIG).encode(stream)

    def test_encoder_throughput(benchmark, stream):
        result = benchmark(lambda: LZWEncoder(CONFIG).encode(stream))
        assert result.num_codes > 0

    def test_decoder_throughput(benchmark, compressed):
        result = benchmark(lambda: decode(compressed))
        assert len(result) == compressed.original_bits

    def test_hardware_model_throughput(benchmark, compressed):
        bits = compressed.to_bits()

        def run():
            model = DecompressorModel(CONFIG, clock_ratio=10)
            return model.run(bits, compressed.original_bits)

        result = benchmark(run)
        assert result.codes_processed == compressed.num_codes

    def test_batch_engine_matches_serial(stream):
        """Smoke conformance inside the bench module: one batch pass at
        workers=2 must byte-match the workers=1 reference."""
        width = build_testset("s9234f", scale=0.25).width
        kwargs = dict(shard_bits=SHARD_BITS, pattern_bits=width)
        one = compress_batch(CONFIG, [stream], workers=1, **kwargs)
        two = compress_batch(CONFIG, [stream], workers=2, **kwargs)
        assert one[0].container == two[0].container


if __name__ == "__main__":
    sys.exit(main())
