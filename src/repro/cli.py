"""Command-line interface.

Subcommands::

    repro compress   FILE  [--char-bits N --dict-size N --entry-bits N ...]
    repro batch      FILE...  [--workers N --shard-bits B -o DIR
                     --seed-mode {cold,preamble,wave} --preamble-bits B
                     --max-retries N --shard-timeout S
                     --on-failure {fail,degrade,skip}
                     --checkpoint PATH --resume]
    repro decompress FILE.lzwt  -o OUT.test  [--width W]
    repro atpg       FILE.bench | --builtin c17 | --random N  [-o OUT]
    repro synth      BENCHMARK  [-o OUT --scale S]
    repro verify     FILE.lzwt  [--against FILE.test]
    repro fsck       PATH...  [--repair --scrub --json REPORT]  (deep
                     scan/repair of any artefact: containers v1-v5,
                     checkpoint journals, snapshot blobs, cache
                     entries, stale tmp files)
    repro stats      FILE  [--encode]  (structure, entropy bound, scan
                     power; with --encode an instrumented compression
                     pass with per-decision counters and stage spans)
    repro rtl        [-o DIR]  (generate the decompressor Verilog)
    repro table      NAME      [--scale S]
    repro serve      [--port N | --socket PATH]  [--workers N
                     --queue-depth N --rate-limit R --drain-grace S]
    repro fleet      [--backend ADDR ... | --spawn N]  [--cache-dir DIR
                     --failover-attempts N --hedge-after-ms MS]
    repro list       (workloads, tables, builtin circuits)

The CLI is a thin veneer over the library; every command prints what the
corresponding API returns.

``compress``, ``batch``, ``verify`` and ``stats`` accept
``--metrics-json PATH``: the run is instrumented with a
:mod:`repro.observability` recorder and its snapshot is written as the
versioned metrics envelope (``repro.metrics/1``).  Counters and
histograms in that file are deterministic functions of the inputs;
only the ``spans`` timings vary run to run.

Errors never surface as tracebacks: every typed
:class:`~repro.reliability.errors.ReproError` (and ``OSError``) is
reported as a one-line message on stderr with a documented exit code —
2 for usage/configuration errors, 3 for unreadable or malformed input,
4 for integrity failures (corrupt containers, undecodable streams),
5 for batch shards that failed every recovery path (see the README's
failure handling matrix).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from .reliability.errors import ConfigError, ReproError

if TYPE_CHECKING:
    from .core.config import LZWConfig
    from .observability.recorder import CompositeRecorder

# Each subcommand imports what it uses, so `repro serve` does not load
# the ATPG or the paper tables, and a spawn worker of `repro batch`
# (which re-runs this module as its __main__) stays on the encode path.

__all__ = ["main"]


def _add_lzw_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--char-bits", type=int, default=7, help="C_C (default 7)")
    parser.add_argument(
        "--dict-size", type=int, default=1024, help="N, total codes (default 1024)"
    )
    parser.add_argument(
        "--entry-bits", type=int, default=63, help="C_MDATA (default 63)"
    )
    parser.add_argument(
        "--policy",
        default="lookahead",
        choices=("first", "popular", "lookahead"),
        help="dynamic don't-care assignment heuristic",
    )
    parser.add_argument(
        "--lookahead", type=int, default=4, help="sliding-window depth W"
    )


def _metrics_recorder(args: argparse.Namespace) -> Optional[CompositeRecorder]:
    """A counter+span sink when ``--metrics-json`` was given, else None."""
    if getattr(args, "metrics_json", None):
        from .observability.recorder import (
            CompositeRecorder,
            CounterRecorder,
            SpanRecorder,
        )

        return CompositeRecorder([CounterRecorder(), SpanRecorder()])
    return None


def _emit_metrics(
    recorder: Optional[CompositeRecorder], args: argparse.Namespace
) -> None:
    """Write the recorder snapshot to the ``--metrics-json`` path."""
    if recorder is not None:
        from .observability.schema import write_metrics_json

        write_metrics_json(recorder, args.metrics_json)
        print(f"wrote {args.metrics_json}")


@contextmanager
def _interruptible_metrics(recorder, args: argparse.Namespace):
    """Flush a *partial* ``--metrics-json`` snapshot on SIGINT/SIGTERM.

    A long compress/batch run killed mid-way still leaves a valid
    ``repro.metrics/1`` envelope on disk, marked ``"partial": true`` so
    consumers never mistake it for a complete run.  The signal is then
    re-delivered with the default disposition so the process exits with
    the conventional 128+signum status.  Handler installation fails
    (and is skipped) off the main thread — tests that call commands
    from threads run unguarded, which is the pre-existing behaviour.
    """
    if recorder is None or not getattr(args, "metrics_json", None):
        yield
        return
    from .observability.schema import write_metrics_json

    def _on_signal(signum, frame):
        write_metrics_json(recorder, args.metrics_json, partial=True)
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _on_signal)
        except (ValueError, OSError):  # non-main thread
            pass
    try:
        yield
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass


def _config_from(args: argparse.Namespace) -> LZWConfig:
    from .core.config import LZWConfig

    return LZWConfig(
        char_bits=args.char_bits,
        dict_size=args.dict_size,
        entry_bits=args.entry_bits,
        policy=args.policy,
        lookahead=args.lookahead,
    )


def _open_source(spec: str):
    """A binary read handle for a path, or stdin for ``-``."""
    if spec == "-":
        return sys.stdin.buffer, False
    return open(spec, "rb"), True


def _cmd_compress_stream(args: argparse.Namespace) -> int:
    """``repro compress --stream``: raw bytes in, v5 frame journal out.

    The input (a file or stdin) goes through the stream front door
    (:func:`~repro.streamio.raw_chunks`, ``--chunk-bytes`` at a time),
    so peak memory stays bounded by the chunk size plus the dictionary
    no matter how large the input grows.  Output to a path goes through
    the durable append-only writer (fsync per frame); ``-o -`` streams
    frames to stdout for piping into ``repro decompress --stream -``.
    """
    from .reliability.atomic import DurableAppendFile
    from .streamio import raw_chunks, write_stream

    if not args.output:
        raise ConfigError(
            "--stream requires -o/--output (a path, or '-' for stdout)",
            field="output",
        )
    if args.chunk_bytes < 1:
        raise ConfigError(
            "--chunk-bytes must be >= 1", field="chunk_bytes",
            value=args.chunk_bytes,
        )
    config = _config_from(args)
    recorder = _metrics_recorder(args)
    # Frames on stdout would interleave with the report; send it to
    # stderr so `repro compress --stream - -o - | ...` stays clean.
    report = sys.stderr if args.output == "-" else sys.stdout
    source, close_source = _open_source(args.file)
    sink = None
    try:
        if args.output == "-":
            sink = sys.stdout.buffer
        else:
            sink = DurableAppendFile(Path(args.output))
        with _interruptible_metrics(recorder, args):
            written = write_stream(
                config, raw_chunks(source, args.chunk_bytes), sink,
                codes_per_frame=args.codes_per_frame, recorder=recorder,
            )
    finally:
        if close_source:
            source.close()
        if isinstance(sink, DurableAppendFile):
            sink.close()
    total_in = written.original_bits // 8
    ratio = (
        100.0 * (1.0 - written.bytes_written / total_in) if total_in else 0.0
    )
    print(f"config: {config.describe()}", file=report)
    print(
        f"streamed {total_in} bytes -> {written.bytes_written} bytes "
        f"in {written.frames} frame(s) "
        f"(ratio {ratio:.2f}%, chunk {args.chunk_bytes} bytes)",
        file=report,
    )
    if args.output != "-":
        print(f"wrote {args.output}", file=report)
    _emit_metrics(recorder, args)
    return 0


def _cmd_decompress_stream(args: argparse.Namespace, source, close_source) -> int:
    """Frame-by-frame expansion of a v5 journal back to raw bytes.

    The inverse of ``compress --stream``
    (:func:`~repro.streamio.iter_raw_bytes`): only one frame (plus the
    dictionary) is ever resident.
    """
    from .streamio import StreamContainerReader, iter_raw_bytes

    if args.width:
        raise ConfigError(
            "--width applies to cube containers; a v5 stream holds raw "
            "bytes (drop --width)",
            field="width",
        )
    recorder = _metrics_recorder(args)
    report = sys.stderr if args.output == "-" else sys.stdout
    out = None
    try:
        out = sys.stdout.buffer if args.output == "-" else open(args.output, "wb")
        reader = StreamContainerReader(source, recorder=recorder)
        out.writelines(iter_raw_bytes(reader, recorder=recorder))
    finally:
        if close_source:
            source.close()
        if out is not None and out is not sys.stdout.buffer:
            out.close()
    total_bits = reader.terminal.total_original_bits
    print(
        f"decoded {total_bits} bits from {reader.terminal.total_codes} codes "
        f"in {reader.terminal.frame_count} frame(s) "
        f"({reader.config.describe()})",
        file=report,
    )
    if total_bits % 8:
        print(
            f"note: {total_bits} bits is not a whole number of bytes; "
            "the last byte is zero-padded",
            file=report,
        )
    if args.output != "-":
        print(f"wrote {args.output}", file=report)
    _emit_metrics(recorder, args)
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    if args.stream:
        return _cmd_compress_stream(args)
    from .container import dump_file
    from .core.pipeline import compress
    from .hardware import MemoryRequirements, analyze_download
    from .testfile import read_test_file

    test_set = read_test_file(args.file)
    print(test_set.summary())
    stream = test_set.to_stream()
    config = _config_from(args)
    recorder = _metrics_recorder(args)
    with _interruptible_metrics(recorder, args):
        result = compress(stream, config, recorder=recorder)
    print(f"config: {config.describe()}")
    print(
        f"compressed: {result.compressed_bits} bits "
        f"({result.compressed.num_codes} codes of {config.code_bits} bits)"
    )
    print(f"compression ratio: {result.ratio_percent:.2f}%")
    print(f"dictionary entries used: {result.stats.entries_allocated}")
    print(f"longest dictionary string: {result.longest_entry_bits} bits")
    print(f"memory requirement: {MemoryRequirements.for_config(config).geometry}")
    for k in args.clock_ratio:
        report = analyze_download(result.compressed, k)
        print(f"download improvement at {k}x clock: {report.improvement_percent:.2f}%")
    if args.compare:
        from .baselines import GolombCompressor, LZ77Compressor

        for comp in (LZ77Compressor(), GolombCompressor()):
            r = comp.compress(stream)
            print(f"baseline {r.scheme}: {r.ratio_percent:.2f}%")
    if not result.verify(stream):
        _emit_metrics(recorder, args)
        print("ERROR: decoded stream does not cover the original cubes")
        return 1
    if args.output:
        dump_file(result.compressed, args.output, result.assigned_stream,
                  recorder=recorder)
        print(f"wrote {args.output}")
    _emit_metrics(recorder, args)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from .parallel import RetryPolicy, SeedPlan, compress_batch
    from .reliability.atomic import atomic_write_bytes, atomic_write_text
    from .testfile import read_test_file

    config = _config_from(args)
    if args.resume and not args.checkpoint:
        raise ConfigError(
            "--resume requires --checkpoint PATH", field="resume"
        )
    names, streams, originals, widths = [], [], [], []
    for file in args.files:
        test_set = read_test_file(file)
        names.append(Path(file).stem)
        originals.append(test_set)
        streams.append(test_set.to_stream())
        widths.append(test_set.width)
    recorder = _metrics_recorder(args)
    started = time.perf_counter()
    with _interruptible_metrics(recorder, args):
        results = compress_batch(
            config,
            streams,
            workers=args.workers,
            shard_bits=args.shard_bits,
            pattern_bits=widths,
            recorder=recorder,
            retry_policy=RetryPolicy(max_attempts=args.max_retries + 1),
            shard_timeout=args.shard_timeout,
            on_failure=args.on_failure,
            checkpoint=args.checkpoint,
            resume=args.resume,
            seed_plan=SeedPlan(
                mode=args.seed_mode, preamble_bits=args.preamble_bits
            ),
        )
    elapsed = time.perf_counter() - started
    # Emit before per-workload verification so a coverage failure still
    # leaves the instrumented evidence on disk.
    _emit_metrics(recorder, args)
    print(f"config: {config.describe()}")
    out_dir = Path(args.output_dir) if args.output_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    exit_code = 0
    for name, stream, item in zip(names, streams, results):
        if not item.ok:
            # on_failure="skip" surfaced typed shard errors instead of a
            # container; report them all and keep going — the batch exit
            # code says "degraded", per-workload lines say where.
            for error in item.errors:
                print(
                    f"ERROR: {name}: {type(error).__name__}: {error}",
                    file=sys.stderr,
                )
            print(f"{name}: FAILED ({len(item.errors)} shard(s) skipped)")
            rows.append({"name": name, "failed_shards": len(item.errors)})
            exit_code = 5
            continue
        if not item.verify(stream):
            print(f"ERROR: {name}: decoded stream does not cover the original cubes")
            return 1
        print(
            f"{name}: {item.original_bits} -> {item.compressed_bits} bits "
            f"({item.ratio_percent:.2f}%) in {item.num_shards} segment(s)"
        )
        row = {
            "name": name,
            "segments": item.num_shards,
            "original_bits": item.original_bits,
            "compressed_bits": item.compressed_bits,
            "ratio_percent": round(item.ratio_percent, 4),
        }
        if out_dir is not None:
            path = out_dir / f"{name}.lzwt"
            atomic_write_bytes(path, item.container)
            row["container"] = str(path)
            print(f"  wrote {path}")
        rows.append(row)
    ok_items = [item for item in results if item.ok]
    total_bits = sum(item.original_bits for item in ok_items)
    total_compressed = sum(item.compressed_bits for item in ok_items)
    ratio = 100.0 * (1.0 - total_compressed / total_bits) if total_bits else 0.0
    mb_per_s = total_bits / 8 / 1e6 / elapsed if elapsed else 0.0
    failed = len(results) - len(ok_items)
    suffix = f", {failed} FAILED" if failed else ""
    print(
        f"batch: {len(results)} workload(s), {total_bits} bits, "
        f"ratio {ratio:.2f}%, {elapsed:.2f}s ({mb_per_s:.3f} MB/s, "
        f"workers={args.workers or 'auto'}{suffix})"
    )
    if args.json:
        summary = {
            "config": config.describe(),
            "workers": args.workers,
            "shard_bits": args.shard_bits,
            "seed_mode": args.seed_mode,
            "seconds": round(elapsed, 6),
            "mb_per_s": round(mb_per_s, 6),
            "ratio_percent": round(ratio, 4),
            "failed_workloads": failed,
            "workloads": rows,
        }
        atomic_write_text(Path(args.json), json.dumps(summary, indent=2) + "\n")
        print(f"wrote {args.json}")
    return exit_code


def _cmd_decompress(args: argparse.Namespace) -> int:
    from .streamio import VERSION_STREAM

    if args.file == "-":
        # Only the framed v5 journal can arrive on stdin; the reader
        # validates the magic/version itself.
        return _cmd_decompress_stream(args, sys.stdin.buffer, False)
    source = open(args.file, "rb")
    head = source.read(5)
    source.seek(0)
    if len(head) == 5 and head[:4] == b"LZWT" and head[4] == VERSION_STREAM:
        return _cmd_decompress_stream(args, source, True)
    source.close()
    from .bitstream.ternary import TernaryVector
    from .container import load_seeded
    from .reliability.atomic import atomic_write_text

    # The verifying load decodes each segment once and checks its digest
    # on that decode, which it hands back.
    segments = load_seeded(Path(args.file).read_bytes())
    stream = TernaryVector.concat_all([seg.stream for seg in segments])
    config = segments[0].compressed.config
    num_codes = sum(seg.compressed.num_codes for seg in segments)
    warm = sum(1 for seg in segments if seg.seed is not None or seg.link is not None)
    suffix = f" in {len(segments)} segments" if len(segments) > 1 else ""
    if warm:
        suffix += f" ({warm} warm-seeded)"
    print(
        f"decoded {len(stream)} bits from {num_codes} codes{suffix} "
        f"({config.describe()})"
    )
    if args.width:
        if len(stream) % args.width:
            print(f"ERROR: {len(stream)} bits is not a multiple of {args.width}")
            return 1
        from .circuit.scan import TestSet
        from .testfile import write_test_file

        names = [f"sc{i}" for i in range(args.width)]
        test_set = TestSet.from_stream(stream, names, name=Path(args.file).stem)
        write_test_file(test_set, args.output)
    else:
        atomic_write_text(Path(args.output), str(stream) + "\n")
    print(f"wrote {args.output}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .reliability.verify import verify_container
    from .testfile import read_test_file

    data = Path(args.file).read_bytes()
    original = read_test_file(args.against).to_stream() if args.against else None
    recorder = _metrics_recorder(args)
    report = verify_container(data, original, recorder=recorder)
    print(f"{args.file}: {len(data)} bytes")
    print(report.describe())
    _emit_metrics(recorder, args)
    return report.exit_code


def _cmd_fsck(args: argparse.Namespace) -> int:
    """``repro fsck``: unified deep scan/repair over on-disk artefacts.

    Exit codes mirror ``repro verify``: 0 everything clean (or
    repaired), 3 only unrecognised/unreadable paths, 4 integrity
    faults remain (unrepaired, or repair refused).
    """
    from .observability.recorder import CounterRecorder
    from .observability.schema import metrics_snapshot
    from .reliability.atomic import atomic_write_text
    from .reliability.fsck import fsck_paths

    recorder = CounterRecorder()
    report = fsck_paths(
        args.paths, repair=args.repair, scrub=args.scrub, recorder=recorder
    )
    print(report.describe())
    if args.json:
        payload = report.to_json()
        payload["metrics"] = metrics_snapshot(recorder)
        if args.json == "-":
            json.dump(payload, sys.stdout, indent=2)
            print()
        else:
            atomic_write_text(args.json, json.dumps(payload, indent=2) + "\n")
    return report.exit_code


def _cmd_stats_raw(args: argparse.Namespace) -> int:
    """``repro stats --raw``: the X-density-0 degenerate mode.

    Treats the input as opaque bytes (every bit a care bit — zero
    don't-cares, so the X-aware machinery degenerates to classical
    LZW), round-trips it through the streaming codec, and reports the
    v5 container ratio next to ``zlib`` and ``lzma`` on the same
    corpus.  The round-trip is verified byte for byte before any
    number is printed.
    """
    import io as _io
    import lzma
    import zlib as _zlib

    from .streamio import DEFAULT_CODES_PER_FRAME, StreamContainerReader
    from .streamio import iter_raw_bytes, raw_chunks, write_stream

    source, close_source = _open_source(args.file)
    try:
        data = source.read()
    finally:
        if close_source:
            source.close()
    config = _config_from(args)
    sink = _io.BytesIO()
    written = write_stream(config, raw_chunks(data, args.chunk_bytes), sink)
    container = sink.getvalue()
    reader = StreamContainerReader(_io.BytesIO(container))
    if b"".join(iter_raw_bytes(reader)) != data:
        print("ERROR: streaming round-trip diverged from the input")
        return 1
    print(f"raw corpus: {len(data)} bytes (X-density 0: every bit a care bit)")
    print(f"config: {config.describe()}")

    def _row(name: str, size: int) -> None:
        ratio = 100.0 * (1.0 - size / len(data)) if data else 0.0
        print(f"  {name:<18} {size:>10} bytes  ({ratio:+7.2f}%)")

    print("compressed size vs general-purpose baselines:")
    _row("lzw-stream (v5)", len(container))
    _row("zlib -9", len(_zlib.compress(data, 9)))
    _row("lzma", len(lzma.compress(data)))
    print(
        "(v5 includes per-frame integrity headers; "
        f"{written.frames} frame(s) of {DEFAULT_CODES_PER_FRAME} codes)"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.raw:
        return _cmd_stats_raw(args)
    from .analysis import entropy_lower_bound, power_report, testset_profile
    from .testfile import read_test_file

    test_set = read_test_file(args.file)
    profile = testset_profile(test_set)
    print(test_set.summary())
    print(f"care bits: {profile.care_bits} "
          f"({profile.ones_percent_of_care:.1f}% ones)")
    print(f"care adjacency: {profile.care_adjacency:.2f} "
          f"(1.0 = fully clustered)")
    print(f"hottest cells: {' '.join(profile.hottest_cells[:5])}")
    bound = entropy_lower_bound(test_set)
    print(f"order-0 entropy bound (zero-fill, 8-bit blocks): "
          f"{bound:.0f} bits "
          f"({100 * (1 - bound / profile.total_bits):.1f}% ratio ceiling)")
    report = power_report(test_set)
    for name in ("repeat", "zero", "one"):
        print(f"scan-shift WTM with {name}-fill: {report.wtm[name]}")
    if args.encode or args.metrics_json:
        from .core.pipeline import compress
        from .observability.recorder import (
            CompositeRecorder,
            CounterRecorder,
            SpanRecorder,
        )
        from .observability.schema import metrics_snapshot, write_metrics_json

        config = _config_from(args)
        recorder = CompositeRecorder([CounterRecorder(), SpanRecorder()])
        result = compress(test_set.to_stream(), config, recorder=recorder)
        snap = metrics_snapshot(recorder)
        print(f"instrumented encode with {config.describe()}: "
              f"{result.ratio_percent:.2f}% ratio")
        print("counters:")
        for name, value in snap["counters"].items():
            print(f"  {name}: {value}")
        for name, bins in snap["histograms"].items():
            total = sum(bins.values())
            weighted = sum(int(v) * c for v, c in bins.items())
            mean = weighted / total if total else 0.0
            values = [int(v) for v in bins]
            print(f"histogram {name}: n={total} mean={mean:.2f} "
                  f"min={min(values)} max={max(values)}")
        print("spans:")
        for entry in snap["spans"]:
            print(f"  {entry['name']}: {entry['seconds'] * 1e3:.2f} ms")
        if args.metrics_json:
            write_metrics_json(recorder, args.metrics_json)
            print(f"wrote {args.metrics_json}")
    return 0


def _cmd_rtl(args: argparse.Namespace) -> int:
    from .hardware import generate_decompressor, generate_testbench

    config = _config_from(args)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    rtl_path = out_dir / "lzw_decompressor.v"
    rtl_path.write_text(generate_decompressor(config))
    print(f"wrote {rtl_path} ({config.describe()})")
    if args.testbench:
        from .core.pipeline import compress
        from .testfile import read_test_file

        test_set = read_test_file(args.testbench)
        result = compress(test_set.to_stream(), config)
        tb_path = out_dir / "tb_lzw_decompressor.v"
        tb_path.write_text(
            generate_testbench(result.compressed, clock_ratio=args.clock_ratio)
        )
        print(f"wrote {tb_path} (self-checking, {result.compressed.num_codes} codes)")
    return 0


def _cmd_atpg(args: argparse.Namespace) -> int:
    from .atpg import generate_tests
    from .circuit import BUILTIN_CIRCUITS, load_bench, load_builtin, random_circuit
    from .testfile import write_test_file

    if args.builtin:
        if args.builtin not in BUILTIN_CIRCUITS:
            raise ConfigError(
                f"unknown builtin circuit {args.builtin!r}; one of "
                f"{', '.join(BUILTIN_CIRCUITS)}",
                field="builtin",
                value=args.builtin,
            )
        circuit = load_builtin(args.builtin)
    elif args.random:
        circuit = random_circuit(
            "random", n_inputs=16, n_flops=24, n_gates=args.random, seed=args.seed
        )
    elif args.file:
        circuit = load_bench(args.file)
    else:
        print("atpg: give FILE.bench, --builtin NAME or --random GATES")
        return 2
    print(circuit)
    result = generate_tests(circuit)
    print(
        f"coverage {result.coverage_percent:.1f}% "
        f"({result.detected}/{result.total_faults} faults, "
        f"{result.untestable} untestable, {result.aborted} aborted)"
    )
    print(result.test_set.summary())
    if args.output:
        write_test_file(result.test_set, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .testfile import write_test_file
    from .workloads import build_testset

    test_set = build_testset(args.benchmark, scale=args.scale)
    print(test_set.summary())
    if args.output:
        write_test_file(test_set, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from .experiments import ALL_TABLES, Lab

    runner = ALL_TABLES.get(args.name)
    if runner is None:
        print(f"unknown table {args.name!r}; known: {', '.join(sorted(ALL_TABLES))}")
        return 2
    lab = Lab(scale=args.scale)
    print(runner(lab).render())
    return 0


def _serve_until_drained(server, banner: str, metrics_json: Optional[str]) -> int:
    """Shared serve/fleet run loop: signals, banner, drain, exit code.

    First SIGTERM/SIGINT triggers the graceful drain; a second one
    forces an immediate exit with the documented status.
    """
    from .service import FORCED_EXIT_CODE

    signals_seen = {"count": 0}

    def _on_signal(signum, frame):
        signals_seen["count"] += 1
        if signals_seen["count"] > 1:
            # Second SIGTERM/SIGINT: the operator means *now*.  Skip the
            # drain and die loudly with a distinct status.
            os._exit(FORCED_EXIT_CODE)
        server.request_drain()

    # Handlers go in *before* the banner: once the address is printed a
    # supervisor may signal us at any moment, and the default disposition
    # would skip the drain entirely.
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _on_signal)
        except (ValueError, OSError):  # non-main thread (in-process tests)
            pass
    try:
        server.start()
        print(f"serving on {server.address_str} {banner}", flush=True)
        code = server.serve_forever()
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
    if metrics_json:
        print(f"wrote {metrics_json}")
    print("drained, exiting")
    return code


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import CompressionServer, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_payload=args.max_payload,
        io_timeout=args.io_timeout,
        default_deadline=args.default_deadline,
        max_deadline=args.max_deadline,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        retry_attempts=args.max_retries + 1,
        drain_grace=args.drain_grace,
        metrics_json=args.metrics_json,
        debug_ops=args.debug_ops,
    )
    server = CompressionServer(config)
    banner = f"({config.workers} workers, queue depth {config.queue_depth})"
    return _serve_until_drained(server, banner, args.metrics_json)


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .fleet import FleetConfig, FleetDispatcher, spawn_backend, stop_backend

    spawned = []
    backends = list(args.backend or ())
    try:
        if args.spawn:
            spawn_args = ["--workers", str(args.backend_workers)]
            if args.debug_ops:
                spawn_args.append("--debug-ops")
            for _ in range(args.spawn):
                child = spawn_backend(spawn_args)
                spawned.append(child)
                backends.append(child.address)
                print(f"spawned backend {child.address} (pid {child.pid})")
        config = FleetConfig(
            host=args.host,
            port=args.port,
            socket_path=args.socket,
            workers=args.workers,
            queue_depth=args.queue_depth,
            max_payload=args.max_payload,
            io_timeout=args.io_timeout,
            default_deadline=args.default_deadline,
            max_deadline=args.max_deadline,
            rate_limit=args.rate_limit,
            rate_burst=args.rate_burst,
            drain_grace=args.drain_grace,
            metrics_json=args.metrics_json,
            debug_ops=args.debug_ops,
            backends=tuple(backends),
            probe_interval=args.probe_interval,
            probe_timeout=args.probe_timeout,
            backend_timeout=args.backend_timeout,
            failover_attempts=args.failover_attempts,
            hedge_after_ms=args.hedge_after_ms,
            cache_dir=args.cache_dir,
            cache_entries=args.cache_entries,
        )
        dispatcher = FleetDispatcher(config)
        banner = (
            f"({len(backends)} backends, {config.workers} relay workers, "
            f"cache {'at ' + config.cache_dir if config.cache_dir else 'off'})"
        )
        return _serve_until_drained(dispatcher, banner, args.metrics_json)
    finally:
        for child in spawned:
            code = stop_backend(child)
            if code not in (0, None):
                print(
                    f"backend {child.address} exited {code} on drain",
                    file=sys.stderr,
                )


def _cmd_list(args: argparse.Namespace) -> int:
    from .circuit import BUILTIN_CIRCUITS
    from .experiments import ALL_TABLES
    from .workloads import available_workloads

    del args
    print("workloads: " + " ".join(available_workloads()))
    print("tables:    " + " ".join(sorted(ALL_TABLES)))
    print("builtin circuits: " + " ".join(BUILTIN_CIRCUITS))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Don't-care-aware LZW scan test compression (DATE 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a test-vector file")
    p.add_argument(
        "file",
        help="vector file (one 01X cube per line); with --stream, raw "
        "bytes (or '-' for stdin)",
    )
    _add_lzw_options(p)
    p.add_argument(
        "--stream",
        action="store_true",
        help="bounded-memory mode: read FILE (or stdin) as raw bytes in "
        "--chunk-bytes pieces and append a crash-safe v5 frame journal "
        "to -o (or stdout); peak memory is flat no matter the input size",
    )
    p.add_argument(
        "--chunk-bytes",
        type=int,
        default=1 << 16,
        help="streaming read granularity in bytes (default 65536)",
    )
    p.add_argument(
        "--codes-per-frame",
        type=int,
        default=4096,
        help="codes per durable v5 frame; smaller frames bound crash "
        "loss tighter at more fsync cost (default 4096)",
    )
    p.add_argument(
        "--clock-ratio",
        type=int,
        nargs="*",
        default=[10],
        help="decompressor clock ratios to report (default: 10)",
    )
    p.add_argument(
        "--compare", action="store_true", help="also run the LZ77/RLE baselines"
    )
    p.add_argument("-o", "--output", help="write a .lzwt container here")
    p.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="record counters/histograms/spans and write the "
        "repro.metrics/1 envelope here",
    )
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser(
        "batch",
        help="compress many vector files in parallel (multi-segment containers)",
    )
    p.add_argument("files", nargs="+", help="vector files (one 01X cube per line)")
    _add_lzw_options(p)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: all cores; output is identical "
        "for any value)",
    )
    p.add_argument(
        "--seed-mode",
        choices=("cold", "preamble", "wave"),
        default="cold",
        help="shard dictionary seeding: 'cold' starts every shard "
        "empty, 'preamble' trains a shared snapshot on each workload's "
        "leading bits, 'wave' chains each shard from its predecessor's "
        "final dictionary (serial ratio at pipelined speedup)",
    )
    p.add_argument(
        "--preamble-bits",
        type=int,
        default=0,
        help="training-prefix length for --seed-mode preamble "
        "(default 0: one shard's worth)",
    )
    p.add_argument(
        "--shard-bits",
        type=int,
        default=0,
        help="target shard size in bits, aligned to pattern boundaries "
        "(default 0: one segment per file)",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="re-attempts per failed/hung/crashed shard before the "
        "--on-failure policy applies (default 2)",
    )
    p.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard attempt timeout; a slower shard counts as hung "
        "and is retried (default: no timeout)",
    )
    p.add_argument(
        "--on-failure",
        choices=("fail", "degrade", "skip"),
        default="fail",
        help="shard exhausted its retries: 'fail' aborts the batch "
        "(exit 5), 'degrade' re-runs it inline without a timeout, "
        "'skip' drops the workload's container and exits 5 after "
        "finishing the rest (default fail)",
    )
    p.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="append completed shards to this journal so an interrupted "
        "batch can be resumed",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="replay completed shards from the --checkpoint journal "
        "(must match this batch's inputs; output bytes are identical "
        "to an uninterrupted run)",
    )
    p.add_argument(
        "-o",
        "--output-dir",
        help="write one .lzwt container per input file here",
    )
    p.add_argument("--json", help="write a machine-readable batch summary here")
    p.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="record merged per-shard counters/histograms/spans and write "
        "the repro.metrics/1 envelope here (counters identical for any "
        "--workers value)",
    )
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("decompress", help="expand a .lzwt container")
    p.add_argument(
        "file",
        help="container written by `repro compress -o` ('-' reads a v5 "
        "stream from stdin); v5 journals are expanded frame by frame",
    )
    p.add_argument(
        "-o", "--output", required=True,
        help="output file ('-' streams raw bytes to stdout for v5 input)",
    )
    p.add_argument(
        "--width",
        type=int,
        default=0,
        help="vector width: write a cube file instead of one bit string",
    )
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser(
        "verify",
        help="check a .lzwt container's integrity (exit 0 ok / 3 not a "
        "container / 4 integrity failure)",
    )
    p.add_argument("file", help="container written by `repro compress -o`")
    p.add_argument(
        "--against",
        metavar="VECTORS",
        help="also check the decoded stream covers this cube file",
    )
    p.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="record verification-stage spans and decode counters and "
        "write the repro.metrics/1 envelope here",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "fsck",
        help="deep-scan (and with --repair fix) any on-disk artefact: "
        "containers v1-v5, checkpoint journals, snapshot blobs, fleet "
        "cache entries, stale *.tmp.* files (exit 0 clean or repaired / "
        "3 unrecognised paths only / 4 faults remain)",
    )
    p.add_argument(
        "paths",
        nargs="+",
        help="files or directories to scan (directories are walked "
        "recursively)",
    )
    p.add_argument(
        "--repair",
        action="store_true",
        help="rewrite salvageable artefacts atomically (original kept "
        "as <name>.quarantine), quarantine corrupt cache entries and "
        "sweep stale tmp files; clean artefacts are never touched",
    )
    p.add_argument(
        "--scrub",
        action="store_true",
        help="treat directories as fleet result-cache roots and sweep "
        "every entry through the read-side verifier (the background-"
        "scrubber entry point; with --repair corrupt entries are "
        "quarantined)",
    )
    p.add_argument(
        "--json",
        metavar="PATH",
        help="write the repro.fsck/1 report here ('-' for stdout)",
    )
    p.set_defaults(func=_cmd_fsck)

    p = sub.add_parser("stats", help="analyse a test-vector file")
    p.add_argument(
        "file",
        help="vector file (one 01X cube per line); with --raw, any "
        "bytes (or '-' for stdin)",
    )
    _add_lzw_options(p)
    p.add_argument(
        "--raw",
        action="store_true",
        help="X-density-0 degenerate mode: treat FILE as opaque bytes, "
        "round-trip it through the streaming codec and report the v5 "
        "ratio against zlib/lzma",
    )
    p.add_argument(
        "--chunk-bytes",
        type=int,
        default=1 << 16,
        help="streaming feed granularity for --raw (default 65536)",
    )
    p.add_argument(
        "--encode",
        action="store_true",
        help="also run an instrumented compression pass and print its "
        "counters, histogram summaries and stage spans",
    )
    p.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="write the instrumented pass's repro.metrics/1 envelope "
        "here (implies --encode)",
    )
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("rtl", help="generate decompressor Verilog")
    _add_lzw_options(p)
    p.add_argument("-o", "--output", default="rtl", help="output directory")
    p.add_argument(
        "--testbench",
        metavar="VECTORS",
        help="also emit a self-checking bench for this vector file",
    )
    p.add_argument("--clock-ratio", type=int, default=4)
    p.set_defaults(func=_cmd_rtl)

    p = sub.add_parser("atpg", help="run ATPG on a .bench circuit")
    p.add_argument("file", nargs="?", help=".bench netlist")
    p.add_argument(
        "--builtin", metavar="NAME", help="shipped netlist (see `repro list`)"
    )
    p.add_argument("--random", type=int, metavar="GATES", help="random circuit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="write the cube file here")
    p.set_defaults(func=_cmd_atpg)

    p = sub.add_parser("synth", help="synthesize a paper-matched test set")
    p.add_argument("benchmark", help="benchmark name (see `repro list`)")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("-o", "--output", help="write the cube file here")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("name", help="table1..table6 or an ablation (see `repro list`)")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser(
        "serve",
        help="run the hardened compression service (NDJSON over TCP or a "
        "unix socket; SIGTERM drains gracefully, a second forces exit)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port",
        type=int,
        default=7878,
        help="TCP port (0 picks an ephemeral port, printed at startup)",
    )
    p.add_argument(
        "--socket",
        metavar="PATH",
        help="serve a unix domain socket here instead of TCP",
    )
    p.add_argument(
        "--workers", type=int, default=2, help="request worker threads"
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="admission queue capacity; a full queue sheds with a typed "
        "429-style reply (default 16)",
    )
    p.add_argument(
        "--max-payload",
        type=int,
        default=16 * 1024 * 1024,
        help="per-request payload cap in bytes (oversized: 413 reply)",
    )
    p.add_argument(
        "--io-timeout",
        type=float,
        default=10.0,
        help="seconds a message may take to arrive once started "
        "(slow-loris defence)",
    )
    p.add_argument(
        "--default-deadline",
        type=float,
        default=30.0,
        help="deadline for requests that set no deadline_ms",
    )
    p.add_argument(
        "--max-deadline",
        type=float,
        default=300.0,
        help="cap on client-requested deadlines",
    )
    p.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        help="per-client sustained requests/second (default: unlimited)",
    )
    p.add_argument(
        "--rate-burst", type=int, default=None, help="per-client burst size"
    )
    p.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive worker failures that open the circuit breaker",
    )
    p.add_argument(
        "--breaker-cooldown",
        type=float,
        default=5.0,
        help="seconds the breaker stays open before its half-open probe",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=1,
        help="supervised re-attempts per request before it fails 500",
    )
    p.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        help="seconds in-flight requests get to finish during drain "
        "before their deadlines are cancelled",
    )
    p.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="write the final repro.metrics/1 snapshot here on drain",
    )
    p.add_argument(
        "--debug-ops",
        action="store_true",
        help=argparse.SUPPRESS,  # sleep/fail ops for tests and the soak
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "fleet",
        help="run the dispatcher tier: route the serve protocol across "
        "N backends with health-checked failover and a verified result "
        "cache (SIGTERM drains the whole tier gracefully)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port",
        type=int,
        default=7800,
        help="TCP port (0 picks an ephemeral port, printed at startup)",
    )
    p.add_argument(
        "--socket",
        metavar="PATH",
        help="serve a unix domain socket here instead of TCP",
    )
    p.add_argument(
        "--backend",
        action="append",
        metavar="ADDR",
        help="backend address (HOST:PORT or unix:/path); repeatable",
    )
    p.add_argument(
        "--spawn",
        type=int,
        default=0,
        metavar="N",
        help="also spawn N local repro-serve backends on ephemeral ports "
        "(drained when the dispatcher exits)",
    )
    p.add_argument(
        "--backend-workers",
        type=int,
        default=2,
        help="worker threads per --spawn backend (default 2)",
    )
    p.add_argument(
        "--workers", type=int, default=4, help="concurrent relay threads"
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=32,
        help="admission queue capacity; a full queue sheds with a typed "
        "429-style reply (default 32)",
    )
    p.add_argument(
        "--max-payload",
        type=int,
        default=16 * 1024 * 1024,
        help="per-request payload cap in bytes (oversized: 413 reply)",
    )
    p.add_argument(
        "--io-timeout",
        type=float,
        default=10.0,
        help="seconds a message may take to arrive once started",
    )
    p.add_argument(
        "--default-deadline",
        type=float,
        default=30.0,
        help="deadline for requests that set no deadline_ms",
    )
    p.add_argument(
        "--max-deadline",
        type=float,
        default=300.0,
        help="cap on client-requested deadlines",
    )
    p.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        help="per-client sustained requests/second (default: unlimited)",
    )
    p.add_argument(
        "--rate-burst", type=int, default=None, help="per-client burst size"
    )
    p.add_argument(
        "--probe-interval",
        type=float,
        default=1.0,
        help="seconds between backend health probes (default 1)",
    )
    p.add_argument(
        "--probe-timeout",
        type=float,
        default=2.0,
        help="per-probe reply budget (default 2)",
    )
    p.add_argument(
        "--backend-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for a backend reply before failing over",
    )
    p.add_argument(
        "--failover-attempts",
        type=int,
        default=2,
        help="extra backends tried after an infrastructure failure "
        "(client errors are never retried; default 2)",
    )
    p.add_argument(
        "--hedge-after-ms",
        type=float,
        default=None,
        help="launch a tail-latency hedge on a second backend after this "
        "many ms without a reply (default: off)",
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="content-addressed result cache directory (default: off); "
        "entries are CRC-verified on every hit",
    )
    p.add_argument(
        "--cache-entries",
        type=int,
        default=1024,
        help="result-cache entry bound; oldest entries are evicted",
    )
    p.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        help="seconds in-flight requests get to finish during drain",
    )
    p.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="write the final repro.metrics/1 snapshot here on drain",
    )
    p.add_argument(
        "--debug-ops",
        action="store_true",
        help=argparse.SUPPRESS,  # relay sleep/fail for tests and the soak
    )
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser("list", help="list workloads, tables and circuits")
    p.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (``repro`` console script).

    Converts every typed library error and ``OSError`` into a one-line
    stderr message with a documented exit code (2 usage, 3 bad input,
    4 integrity failure, 5 unrecoverable batch shard) — no traceback
    ever reaches the operator.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
