"""Fault campaigns — the CI chaos, durability and fleet jobs' one driver.

Runs one section per fault source and classifies every trial through
:mod:`repro.reliability.campaign` (correct / detected / silent /
escaped):

``process-cold`` / ``process-wave``
    the process-fault grid (worker exception, SIGKILL, hang,
    corrupt-result × 10 seeds) against a small supervised batch, under
    the cold seed plan and under the ``wave`` plan, whose four rounds
    share one pool.  Each oracle is the unfaulted run under its plan.
``crash``
    a simulated power cut at every I/O boundary of the nine artefact
    writers in ``durability_campaign.py``, plus an ``ENOSPC`` at every
    write and fsync; each point's outcome comes from the writer's
    contract label.
``fleet``
    the dispatcher-tier faults (backend kill, hang, partition, cache
    tamper × 3 seeds × 12 requests) against a live three-backend
    fleet; every reply is checked against the serial oracle.

Usage::

    PYTHONPATH=src python benchmarks/fault_campaign.py \
        process-cold process-wave -o CHAOS_report.json
    PYTHONPATH=src python benchmarks/fault_campaign.py crash \
        -o DURABILITY_report.json

The report (schema ``repro.campaign/1``) is written either way.  An
exception that kills a background thread during a section is recorded
as an escaped trial of that section, with its traceback.  Exit status
0 when every section has zero silent and zero escaped trials, 1
otherwise.  Every fault is a pure function of its coordinates, so a
red trial reproduces exactly.
"""

import argparse
import json
import random
import shutil
import sys
import tempfile
import textwrap
import threading
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.reliability.campaign import (  # noqa: E402
    CampaignResult,
    Trial,
    TrialOutcome,
)

#: Process grid: pool size ('kill' is bumped to >= 2 regardless), seeds
#: per fault, and a per-shard timeout so 'hang' trials converge.
PROCESS_WORKERS = 2
PROCESS_SEEDS = 10
PROCESS_SHARD_TIMEOUT = 2.0

#: Fleet grid: seeds per fault and requests per trial.
FLEET_SEEDS = 3
FLEET_REQUESTS = 12


def _process_section(seed_plan):
    from repro.bitstream import TernaryVector
    from repro.core import LZWConfig
    from repro.parallel import RetryPolicy
    from repro.reliability.campaign import run_process_campaign

    rng = random.Random(20030306)
    streams = [
        TernaryVector.random(500, x_density=0.7, rng=rng),
        TernaryVector.random(350, x_density=0.4, rng=rng),
    ]
    result = run_process_campaign(
        LZWConfig(char_bits=4, dict_size=64, entry_bits=20),
        streams,
        seeds=range(PROCESS_SEEDS),
        workers=PROCESS_WORKERS,
        shard_bits=150,
        retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0),
        shard_timeout=PROCESS_SHARD_TIMEOUT,
        on_failure="degrade",
        seed_plan=seed_plan,
    )
    grid = {"seeds": PROCESS_SEEDS, "workers": PROCESS_WORKERS, "seed_plan": seed_plan}
    return CampaignResult(result.trials, grid)


def _crash_section():
    from durability_campaign import build_specs
    from repro.reliability.crashsim import run_crash_campaign

    results = []
    with tempfile.TemporaryDirectory(prefix="durability-") as tmp:
        for spec in build_specs():
            workdir = Path(tmp) / spec.name
            workdir.mkdir()
            results.append(run_crash_campaign(spec, workdir))
    writers = [result.info for result in results]
    for writer in writers:
        labels = ", ".join(f"{k}={n}" for k, n in sorted(writer["labels"].items()))
        print(
            f"  {writer['writer']}: {writer['points_enumerated']} crash points, "
            f"{writer['unique_states']} unique states, {labels}"
        )
    info = {
        "points": sum(w["points_enumerated"] for w in writers),
        "unique_states": sum(w["unique_states"] for w in writers),
        "writers": writers,
    }
    return CampaignResult(tuple(t for r in results for t in r.trials), info)


def _fleet_section():
    from repro.fleet.chaos import run_campaign

    work_dir = Path(tempfile.mkdtemp(prefix="fleet-chaos-"))
    try:
        result = run_campaign(range(FLEET_SEEDS), work_dir, requests=FLEET_REQUESTS)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"  replies: {result.info['replies']}")
    grid = {"seeds": FLEET_SEEDS, "requests": FLEET_REQUESTS}
    return CampaignResult(result.trials, {**result.info, **grid})


SECTIONS = {
    "process-cold": lambda: _process_section("cold"),
    "process-wave": lambda: _process_section("wave"),
    "crash": _crash_section,
    "fleet": _fleet_section,
}


def _run_section(name):
    """Run one section; a background thread's death is an escape of it."""
    escapes = []

    def hook(args):
        escapes.append(
            Trial(
                "thread-exception",
                args.thread.name if args.thread is not None else "?",
                TrialOutcome.ESCAPED,
                args.exc_value,
                detail="".join(
                    traceback.format_exception(
                        args.exc_type, args.exc_value, args.exc_traceback
                    )
                ),
            )
        )

    previous, threading.excepthook = threading.excepthook, hook
    try:
        result = SECTIONS[name]()
    finally:
        threading.excepthook = previous
    return CampaignResult(result.trials + tuple(escapes), result.info)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sections", nargs="+", choices=list(SECTIONS))
    parser.add_argument("-o", "--output", required=True, help="report path")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    report = {"schema": "repro.campaign/1", "ok": True, "sections": {}}
    for name in dict.fromkeys(args.sections):
        section_started = time.perf_counter()
        print(f"{name}:")
        result = _run_section(name)
        report["sections"][name] = {
            **result.to_json(),
            "seconds": round(time.perf_counter() - section_started, 3),
        }
        report["ok"] = report["ok"] and result.ok
        print(textwrap.indent(result.summary(), "  "))
    report["seconds"] = round(time.perf_counter() - started, 3)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"{report['seconds']:.1f}s, report written to {args.output}")
    if not report["ok"]:
        print(
            "FAULT CAMPAIGN FAILED: silent corruption or escaped exception",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
