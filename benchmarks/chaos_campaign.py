"""Process-fault chaos campaign — the CI chaos smoke job's driver.

Runs the full process-fault grid (worker exception, SIGKILL, hang,
corrupt-result) for a range of seeds against a small supervised batch
and asserts the zero-silent-corruption guarantee: every trial must end
``CORRECT`` (containers byte-identical to the unfaulted serial run) or
``DETECTED`` (a loud, typed failure) — never ``SILENT`` or ``ESCAPED``.

The grid runs twice: once under the cold seed plan (the report's
top-level ``trials``/``counts``) and once under the ``wave`` plan (the
report's ``wave`` section), where the batch runs in four rounds that
share one pool — so a fault in one round hits a pool the next round
reuses.  Each section's oracle is the unfaulted run under its own plan.

Usage::

    PYTHONPATH=src python benchmarks/chaos_campaign.py --seeds 10 \
        -o CHAOS_report.json

Exit status 0 when the guarantee holds, 1 otherwise; the JSON report is
written either way (it is the CI artifact).  The ``kill`` fault needs a
real process pool, so the campaign runs with ``--workers 2`` by
default; every fault and corruption is a pure function of its
``(fault, seed)`` pair, so a red trial reproduces exactly.
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.bitstream import TernaryVector
from repro.core import LZWConfig
from repro.parallel import RetryPolicy
from repro.reliability.campaign import run_process_campaign
from repro.reliability.chaos import PROCESS_FAULTS

CONFIG = LZWConfig(char_bits=4, dict_size=64, entry_bits=20)


def build_streams():
    """The campaign workloads: two small deterministic cube streams."""
    rng = random.Random(20030306)
    return [
        TernaryVector.random(500, x_density=0.7, rng=rng),
        TernaryVector.random(350, x_density=0.4, rng=rng),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seeds", type=int, default=10, help="seeds per fault class (default 10)"
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="pool size ('kill' is bumped to >= 2 regardless; default 2)",
    )
    parser.add_argument(
        "--faults", nargs="*", default=list(PROCESS_FAULTS),
        choices=PROCESS_FAULTS, help="fault classes to run (default: all)",
    )
    parser.add_argument(
        "--shard-timeout", type=float, default=2.0,
        help="per-shard timeout so 'hang' trials converge (default 2.0s)",
    )
    parser.add_argument(
        "-o", "--output", default="CHAOS_report.json",
        help="report path (default CHAOS_report.json)",
    )
    args = parser.parse_args(argv)

    streams = build_streams()
    started = time.perf_counter()
    cold, wave = (
        run_process_campaign(
            CONFIG,
            streams,
            faults=tuple(args.faults),
            seeds=range(args.seeds),
            workers=args.workers,
            shard_bits=150,
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0),
            shard_timeout=args.shard_timeout,
            on_failure="degrade",
            seed_plan=plan,
        )
        for plan in ("cold", "wave")
    )
    elapsed = time.perf_counter() - started

    report = cold.to_json()
    report["wave"] = wave.to_json()
    report["ok"] = cold.ok and wave.ok
    report["faults"] = list(args.faults)
    report["seeds"] = args.seeds
    report["workers"] = args.workers
    report["seconds"] = round(elapsed, 3)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    print(f"cold: {cold.summary()}")
    print(f"wave: {wave.summary()}")
    print(f"{elapsed:.1f}s, report written to {args.output}")
    if not report["ok"]:
        print("CHAOS CAMPAIGN FAILED: silent corruption or escaped exception",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
