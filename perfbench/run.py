"""The repository's benchmark: four workloads, end-to-end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload corpus_roundtrip --seed 1 --seconds 15 --trace 0

The metric names, units and workloads are the ones listed in
``BENCHMARK.json`` beside ``perfbench/``.  ``--trace 0`` prints every
end-to-end metric; ``--trace 1`` runs the same untraced phase, then a
traced phase with the library's recorders attached and the bench timing
each layer call, and prints every per-layer metric.  All lines but the
last describe the run (machine, config, inputs, percentiles); the last
line is the result object.  Any op whose output fails its check makes
the result ``correct: false`` and the exit status 1.

The benchmark imports the program from ``src/`` of the checkout it sits
in, and refuses to run (exit 2, no result) when that is missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def _load_program() -> bool:
    """Put the checkout's ``src/`` first on the path; False if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _workloads() -> Dict[str, type]:
    from fleetload import ServiceFleet
    from library import CorpusBatch, CorpusRoundtrip, StreamTernary

    return {
        cls.name: cls
        for cls in (CorpusRoundtrip, StreamTernary, CorpusBatch, ServiceFleet)
    }


def _end_to_end(phase, ratios, peak_rss_mb: float, setup_s: float,
                speed: float = 1.0) -> Dict[str, float]:
    """The end-to-end metrics of a phase; every time is multiplied by
    ``speed`` (1.0 gives the values as measured)."""
    from measure import BITS_PER_MB, percentile

    megabytes = phase.tally.bits / BITS_PER_MB
    return {
        "throughput_mb_s": megabytes / (phase.wall * speed),
        "latency_p50_ms": 1000.0 * percentile(phase.tally.latencies, 50) * speed,
        "cpu_s_per_mb": sum(phase.cpu) * speed / megabytes,
        "ratio_percent": ratios[0],
        "stored_ratio_percent": ratios[1],
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def _percentiles(latencies: List[float], speed: float) -> Dict[str, object]:
    """Latency percentiles at reference speed, with their support."""
    from measure import MIN_TAIL_SAMPLES, percentile

    p90 = percentile(latencies, 90)
    return {
        "samples": len(latencies),
        "p50_ms": 1000.0 * percentile(latencies, 50) * speed,
        "p90_ms": None if p90 is None else 1000.0 * p90 * speed,
        "p90_samples_beyond": 0 if p90 is None else sum(x > p90 for x in latencies),
        "p90_rule": f"reported only with >= {MIN_TAIL_SAMPLES} samples beyond it",
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        scale: Optional[float] = None) -> tuple:
    """Run one workload; returns (record, result) as printed.

    ``scale`` overrides the workload's input size (the smoke test uses a
    tiny one); the benchmark itself always runs the defaults.
    """
    from inputs import CONFIG
    from measure import PROBE_REFERENCE_S, Tracer, median_setup, run_phase

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = _workloads()
    if workload_name not in workloads:
        raise SystemExit(f"unknown workload {workload_name!r}; one of {sorted(workloads)}")
    workload = workloads[workload_name](seed, scale)
    state, setup_s, setup_speed = median_setup(
        workload.build, workload.teardown, workload.pids
    )
    try:
        untraced = run_phase(workload, state, seconds, Tracer(False))
        phases = [untraced]
        if trace:
            traced = run_phase(workload, state, seconds, Tracer(True))
            phases.append(traced)
            layers = workload.layer_metrics(state, traced, untraced)
        ratios = workload.ratios(state)
        peak_rss_mb = workload.peak_rss_mb(state)
    finally:
        workload.close(state)

    measured = _end_to_end(untraced, ratios, peak_rss_mb, setup_s)
    end_to_end = _end_to_end(
        untraced, ratios, peak_rss_mb, setup_s * setup_speed, untraced.speed
    )
    if trace:
        traced_e2e = _end_to_end(traced, ratios, peak_rss_mb, setup_s, traced.speed)
        values = {item["name"]: 0.0 for item in spec["per_layer"]}
        values.update(layers)
        values["trace.overhead_percent"] = 100.0 * (
            end_to_end["throughput_mb_s"] / traced_e2e["throughput_mb_s"] - 1.0
        )
        values["trace.coverage_percent"] = (
            100.0 * workload.covered_s(traced) / traced.wall
        )
        catalogue = spec["per_layer"]
    else:
        values = end_to_end
        catalogue = spec["end_to_end"]
    missing = [item["name"] for item in catalogue if item["name"] not in values]
    if missing or len(values) != len(catalogue):
        raise RuntimeError(f"metric set does not match BENCHMARK.json: {missing}")

    attempted = sum(phase.tally.attempted for phase in phases)
    failed = sum(phase.tally.failed for phase in phases)
    errors = [error for phase in phases for error in phase.tally.errors]
    record = {
        "workload": workload_name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload_name),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "config": dataclasses.asdict(CONFIG),
        "load": "one process, closed loop, at most 2 workers/connections",
        "ops": untraced.tally.attempted,
        "passes": untraced.passes,
        "timed_wall_s": untraced.wall,
        "percentiles": _percentiles(untraced.tally.latencies, untraced.speed),
        "failed_ops_percent": 100.0 * failed / attempted,
        "errors": errors,
        "end_to_end": end_to_end,
        "as_measured": measured,
        "speed": {
            "reference_probe_s": PROBE_REFERENCE_S,
            "setup": setup_speed,
            "untraced": untraced.speed,
            "traced": traced.speed if trace else None,
        },
        "inputs": workload.inputs(state),
    }
    units = {item["name"]: item["unit"] for item in catalogue}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    return record, result


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not _load_program():
        print(
            f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
