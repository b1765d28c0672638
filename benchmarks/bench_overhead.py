"""NullRecorder overhead smoke — the observability tax must stay <= 5%.

The instrumented seams of the one encode loop
(:class:`repro.core.stream.StreamEncoder`, which
:meth:`repro.core.encoder.LZWEncoder.encode` drives) promise that with
the default :data:`~repro.observability.NULL_RECORDER` the whole encode
pays one attribute read plus one local-bool branch per event site.
This benchmark holds that promise to a number.  It derives the no-hooks
baseline from the shipped source itself: every ``if recording:``
statement and every bare recorder call of ``StreamEncoder`` is removed
with :mod:`ast`, and ``LZWEncoder`` is recompiled against the stripped
class.  It then cross-checks that both encoders emit the exact same
codes, times both in alternating pairs and fails (exit 1) if the
instrumented encode is more than ``--max-overhead-percent`` slower.
The overhead is the median of the per-pair time ratios: a shared VM's
CPU speed drifts by tens of percent between phases, and a ratio of two
adjacent runs cancels that drift where a ratio of two best-of minima,
each caught in whatever phase was fastest for it, does not.

Both sides run the same driver and the same matcher, so the baseline
cannot drift from the code it measures: a recorder call added to the
loop outside its ``if recording:`` guards shows up on the timed side
only.

Two same-run speed floors ride along, timed the same way on the paper
corpus (the seven ``DEFAULT_CORPUS`` circuits at full scale):

* the oracle matcher's encode (inside ``reference_engine()``) must take
  at least :data:`MIN_ENGINE_SPEEDUP` times the packed matcher's;
* a reference serial ``compress`` must take at least
  :data:`MIN_WAVE_SPEEDUP` times an inline wave-seeded batch.

Both are ratios of two runs on one machine, so no committed baseline
goes stale; cross-commit timing is ``benchmarks/perf_gate.py``'s job.

Run it as CI does::

    PYTHONPATH=src python benchmarks/bench_overhead.py
"""

import __future__

import argparse
import ast
import gc
import inspect
import statistics
import sys
import textwrap
import time

from repro.core import LZWConfig, LZWEncoder, compress, compress_batch
from repro.core import encoder as encoder_module
from repro.core import stream as stream_module
from repro.core.dontcare import reference_engine
from repro.workloads import DEFAULT_CORPUS, build_corpus, build_testset

CONFIG = LZWConfig(char_bits=7, dict_size=1024, entry_bits=63)

#: Timing pairs; the median pair ratio keeps scheduler noise out.
DEFAULT_ROUNDS = 5

#: Oracle encode over packed encode, paper corpus: floor on the median.
MIN_ENGINE_SPEEDUP = 5.0
#: Reference serial compress over inline wave batch: floor on the median.
MIN_WAVE_SPEEDUP = 2.0
#: Timing pairs of each speed floor.  Both read about twice their floor,
#: and an oracle pass takes seconds, so three pairs are enough.
SPEED_ROUNDS = 3


def _is_recorder(node: ast.expr) -> bool:
    """``rec`` or ``self.recorder``: the names the driver calls hooks on."""
    if isinstance(node, ast.Name):
        return node.id == "rec"
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "recorder"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


class _StripHooks(ast.NodeTransformer):
    """Delete every observability hook statement.

    A hook is an ``if recording:`` statement (with its whole body) or a
    bare recorder call such as ``rec.incr(...)`` that sits outside any
    guard; the flag reads ``recording = rec.enabled`` stay, since they
    are part of the promised cost.
    """

    def __init__(self) -> None:
        self.stripped = 0

    # Hooks become ``pass`` (compiled away) so no block is left empty.
    def visit_If(self, node: ast.If):
        test = node.test
        if isinstance(test, ast.Name) and test.id == "recording":
            if node.orelse:
                raise ValueError("an `if recording:` guard has an else branch")
            self.stripped += 1
            return ast.Pass()
        return self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr):
        call = node.value
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and _is_recorder(call.func.value)
        ):
            self.stripped += 1
            return ast.Pass()
        return node


def _recompile(obj, namespace: dict, transformer=None) -> None:
    """Compile ``obj``'s source (optionally transformed) into ``namespace``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
    if transformer is not None:
        tree = ast.fix_missing_locations(transformer.visit(tree))
    flags = __future__.annotations.compiler_flag
    code = compile(tree, inspect.getsourcefile(obj), "exec", flags, dont_inherit=True)
    exec(code, namespace)


def no_hooks_encoder():
    """``(LZWEncoder without recorder hooks, number of hooks stripped)``."""
    strip = _StripHooks()
    driver_ns = dict(vars(stream_module))
    _recompile(stream_module.StreamEncoder, driver_ns, strip)
    encoder_ns = dict(vars(encoder_module))
    encoder_ns["StreamEncoder"] = driver_ns["StreamEncoder"]
    _recompile(encoder_module.LZWEncoder, encoder_ns)
    return encoder_ns["LZWEncoder"], strip.stripped


def _timed(fn) -> float:
    """Wall seconds of one call, with the cyclic GC held off (as timeit does)."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        gc.enable()


def _paired_ratios(rounds: int, fn_a, fn_b):
    """``(best A seconds, best B seconds, [B/A per pair])``.

    Each pair times A and B back to back, in A-B order on even pairs and
    B-A on odd ones, so warm-up and drift are not billed to one side.
    """
    best_a = best_b = float("inf")
    ratios = []
    for index in range(rounds):
        if index % 2:
            seconds_b = _timed(fn_b)
            seconds_a = _timed(fn_a)
        else:
            seconds_a = _timed(fn_a)
            seconds_b = _timed(fn_b)
        best_a = min(best_a, seconds_a)
        best_b = min(best_b, seconds_b)
        ratios.append(seconds_b / seconds_a)
    return best_a, best_b, ratios


def _on_oracle(fn):
    def run():
        with reference_engine():
            fn()

    return run


def speed_floors():
    """``[(label, median ratio, floor)]`` of the same-run speed floors."""
    sets = [test_set for _, test_set in build_corpus(DEFAULT_CORPUS, scale=1.0)]
    streams = [test_set.to_stream() for test_set in sets]

    def encode():
        for stream in streams:
            LZWEncoder(CONFIG).encode(stream)

    def serial():
        for stream in streams:
            compress(stream, CONFIG)

    def wave():
        compress_batch(
            CONFIG,
            streams,
            workers=1,
            shard_bits=4096,
            pattern_bits=[test_set.width for test_set in sets],
            seed_plan="wave",
        )

    floors = []
    for label, fast, slow, floor in (
        ("engine speedup (oracle / packed encode)", encode, _on_oracle(encode),
         MIN_ENGINE_SPEEDUP),
        ("wave speedup (reference serial / inline wave)", wave, _on_oracle(serial),
         MIN_WAVE_SPEEDUP),
    ):
        _, _, ratios = _paired_ratios(SPEED_ROUNDS, fast, slow)
        floors.append((label, statistics.median(ratios), floor))
    return floors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Assert the NullRecorder overhead budget and the same-run "
        "engine and wave speed floors."
    )
    parser.add_argument(
        "--max-overhead-percent",
        type=float,
        default=5.0,
        help="fail if the hooked encode is more than this much slower "
        "than the no-hooks baseline (default: 5)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=DEFAULT_ROUNDS,
        help=f"timing pairs of the overhead check (default: {DEFAULT_ROUNDS})",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.5,
        help="workload vector-count multiplier (default: 0.5)",
    )
    args = parser.parse_args(argv)

    stream = build_testset("s13207f", scale=args.scale).to_stream()
    baseline_encoder, stripped = no_hooks_encoder()
    if not stripped:
        print(
            "bench_overhead: no recorder hook found in StreamEncoder — "
            "the baseline would equal the timed encoder",
            file=sys.stderr,
        )
        return 2

    # Semantic guard first: if the stripped baseline and the
    # instrumented encoder disagree on a single code, a guard held more
    # than recording and the timing comparison below is meaningless.
    hooked = LZWEncoder(CONFIG).encode(stream)
    baseline = baseline_encoder(CONFIG).encode(stream)
    if hooked.codes != baseline.codes:
        print(
            "bench_overhead: the no-hooks baseline emits different codes — "
            "a recorder hook changes encoder state",
            file=sys.stderr,
        )
        return 2

    ref_seconds, hook_seconds, ratios = _paired_ratios(
        args.rounds,
        lambda: baseline_encoder(CONFIG).encode(stream),
        lambda: LZWEncoder(CONFIG).encode(stream),
    )
    overhead = 100.0 * (statistics.median(ratios) - 1.0)

    print(f"workload: s13207f scale={args.scale} ({len(stream)} bits)")
    print(
        f"no-hooks baseline ({stripped} hooks stripped): "
        f"{ref_seconds * 1e3:.2f} ms (best of {args.rounds})"
    )
    print(f"NullRecorder encode: {hook_seconds * 1e3:.2f} ms (best of {args.rounds})")
    print(
        f"overhead: {overhead:+.2f}% median of {args.rounds} paired ratios "
        f"(budget {args.max_overhead_percent}%)"
    )
    failed = overhead > args.max_overhead_percent
    if failed:
        print("bench_overhead: FAIL — overhead budget exceeded", file=sys.stderr)

    for label, ratio, floor in speed_floors():
        print(
            f"{label}: {ratio:.2f}x median of {SPEED_ROUNDS} paired ratios "
            f"(floor {floor}x)"
        )
        if ratio < floor:
            print(f"bench_overhead: FAIL — {label} below {floor}x", file=sys.stderr)
            failed = True
    if failed:
        return 1
    print("bench_overhead: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
