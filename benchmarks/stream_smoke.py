"""Streaming-codec smoke: bounded memory, capped-RSS pipe round-trip.

The streaming codec's promise is that peak memory is a function of the
chunk size and the dictionary, never of the input length.  This smoke
proves it two ways, fast enough for CI:

1. **Allocation flatness** — stream a corpus and a 10x larger corpus
   through :func:`repro.streamio.write_stream` (sink: ``os.devnull``)
   under :mod:`tracemalloc` and assert the traced peak for the 10x
   input stays within 2x of the base peak.  ``tracemalloc``
   sees only Python allocations, so the baseline is tiny and a
   buffer-the-world regression (a retained character list costs ~28
   bytes/char) shows up as an order-of-magnitude blowup, not noise.
   Two corpora take the check: X-free text, where every character
   takes the fully-specified shortcut, and ternary test cubes, where
   the lookahead matcher's memo and candidate caches fill and must stay
   capped.

2. **Capped pipe round-trip** — run the real CLI as two subprocesses,
   ``repro compress --stream | repro decompress --stream``, each under
   a hard ``RLIMIT_DATA`` ceiling (``--rss-cap-mb``, default 256).  The
   kernel kills any stage that tries to buffer past the cap; the smoke
   then byte-compares the restored output against the corpus.

Exits non-zero on any violation.  Usage::

    PYTHONPATH=src python benchmarks/stream_smoke.py [--base-kb 48]
        [--rss-cap-mb 256] [--chunk-bytes 65536]
"""

import argparse
import io
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bitstream import TernaryVector  # noqa: E402
from repro.core import LZWConfig  # noqa: E402
from repro.streamio import raw_chunks, write_stream  # noqa: E402
from repro.workloads import build_testset  # noqa: E402

#: Base size of the ternary cube corpus (10x for flatness): about one
#: full-scale s13207f test set, long enough for the matcher's caches to
#: fill and be cleared in the 10x run.
CUBE_BASE_BITS = 200_000


def make_corpus(size: int) -> bytes:
    line = (
        b"streaming smoke corpus: repeated structure, repeated structure, "
        b"line %06d\n"
    )
    out = bytearray()
    i = 0
    while len(out) < size:
        out += line % i
        i += 1
    return bytes(out[:size])


def make_cube_corpus(bits: int) -> TernaryVector:
    """Ternary test cubes: full-scale s13207f test sets, one per seed."""
    parts = []
    total = 0
    seed = 0
    while total < bits:
        part = build_testset("s13207f", seed=seed).to_stream()
        parts.append(part)
        total += len(part)
        seed += 1
    return TernaryVector.concat_all(parts)[:bits]


def cube_chunks(stream: TernaryVector, chunk_bytes: int):
    step = chunk_bytes * 8
    for off in range(0, len(stream), step):
        yield stream[off : off + step]


def traced_stream_peak(chunks) -> int:
    """Peak traced allocation while streaming ``chunks`` to /dev/null."""
    with open(os.devnull, "wb") as sink:
        tracemalloc.start()
        try:
            write_stream(LZWConfig(), chunks, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak


def check_flatness(name: str, base_chunks, big_chunks, unit: str) -> bool:
    """Stream both corpora; the 10x peak must stay within 2x of the base."""
    peak_base = traced_stream_peak(base_chunks)
    peak_big = traced_stream_peak(big_chunks)
    ratio = peak_big / max(peak_base, 1)
    flat = ratio <= 2.0
    print(
        f"allocation flatness ({name}): base {unit} -> peak {peak_base} B; "
        f"10x -> peak {peak_big} B; ratio {ratio:.2f}x "
        f"({'OK' if flat else 'FAIL: peak tracks input size'})"
    )
    return flat


def check_allocation_flatness(base_kb: int, chunk_bytes: int) -> bool:
    base = make_corpus(base_kb * 1024)
    big = make_corpus(base_kb * 1024 * 10)
    ok = check_flatness(
        "text",
        raw_chunks(base, chunk_bytes),
        raw_chunks(big, chunk_bytes),
        f"{len(base)} B",
    )
    cubes = make_cube_corpus(CUBE_BASE_BITS * 10)
    return check_flatness(
        "ternary cubes",
        cube_chunks(cubes[:CUBE_BASE_BITS], chunk_bytes),
        cube_chunks(cubes, chunk_bytes),
        f"{CUBE_BASE_BITS} bits",
    ) and ok


def rlimit_preexec(cap_bytes: int):
    def apply() -> None:
        resource.setrlimit(resource.RLIMIT_DATA, (cap_bytes, cap_bytes))

    return apply


def check_capped_pipe(base_kb: int, cap_mb: int, chunk_bytes: int) -> bool:
    corpus = make_corpus(base_kb * 1024 * 4)
    cap = cap_mb * 1024 * 1024
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = Path(tmp) / "corpus.bin"
        corpus_path.write_bytes(corpus)
        compress = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "compress", str(corpus_path),
             "--stream", "--chunk-bytes", str(chunk_bytes), "-o", "-"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, preexec_fn=rlimit_preexec(cap),
        )
        restored_path = Path(tmp) / "restored.bin"
        decompress = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "decompress", "-",
             "-o", str(restored_path)],
            stdin=compress.stdout, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env,
            preexec_fn=rlimit_preexec(cap),
        )
        compress.stdout.close()  # let decompress see EOF
        _, comp_err = compress.communicate()
        _, dec_err = decompress.communicate()
        if compress.returncode != 0:
            print(f"capped pipe: compress stage failed rc={compress.returncode} "
                  f"under {cap_mb} MiB RLIMIT_DATA:\n{comp_err.decode()}")
            return False
        if decompress.returncode != 0:
            print(f"capped pipe: decompress stage failed "
                  f"rc={decompress.returncode} under {cap_mb} MiB "
                  f"RLIMIT_DATA:\n{dec_err.decode()}")
            return False
        restored = restored_path.read_bytes()
    ok = restored == corpus
    print(
        f"capped pipe round-trip: {len(corpus)} B through compress|decompress "
        f"under {cap_mb} MiB RLIMIT_DATA -> "
        f"{'byte-identical OK' if ok else 'FAIL: output differs'}"
    )
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base-kb", type=int, default=24,
                        help="base corpus size in KiB (10x for flatness)")
    parser.add_argument("--rss-cap-mb", type=int, default=256,
                        help="RLIMIT_DATA cap for each pipe stage")
    # Each base corpus must span several chunks, otherwise the base
    # run's effective chunk (and so its per-chunk allocation peak) is
    # smaller than the 10x run's and the comparison is meaningless.
    parser.add_argument("--chunk-bytes", type=int, default=8192)
    args = parser.parse_args(argv)
    if args.base_kb * 1024 < 3 * args.chunk_bytes:
        parser.error("--base-kb must cover at least 3 chunks")
    if CUBE_BASE_BITS < 3 * 8 * args.chunk_bytes:
        parser.error("--chunk-bytes is too large for the cube corpus "
                     f"({CUBE_BASE_BITS} bits must cover at least 3 chunks)")

    ok = check_allocation_flatness(args.base_kb, args.chunk_bytes)
    ok = check_capped_pipe(args.base_kb, args.rss_cap_mb,
                           args.chunk_bytes) and ok
    print("stream smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
