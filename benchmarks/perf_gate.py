"""Cross-commit perf gate: this checkout against a parent, on perfbench.

Run from anywhere, naming a checkout of the parent commit::

    python3 benchmarks/perf_gate.py PARENT_CHECKOUT

For every workload in ``BENCHMARK.json`` the gate runs ``perfbench/run.py
--trace 1`` in both checkouts, :data:`PAIRS` times each, alternating
which goes first so drift is not billed to one side.  It reads the
end-to-end metrics from each run's record line and the per-layer metrics
from its result line, and compares medians:

* any run that exits non-zero or reports ``correct: false`` fails (a
  run reports ``correct: false`` when any op failed, so a change cannot
  raise the failed-op share and pass);
* an end-to-end metric fails when its median is worse than the parent's
  by more than the metric's ``BENCHMARK.json`` bound;
* a per-layer time (unit ``s/pass`` or ``ms``) fails by the same rule
  with bound :data:`LAYER_BOUND`.

A gap past the bound that is no larger than the spread between the
parent's own quartiles is reported *unresolved*, not failed: the runs
cannot tell it from noise.  Every run's values and every verdict go to
``PERF_gate.json`` in the current directory.  Exit 0 when nothing
fails, 1 otherwise.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAIRS = 5
SECONDS = 5
SEED = 3
#: Allowed relative slowdown of a per-layer time.
LAYER_BOUND = 0.25
LAYER_UNITS = ("s/pass", "ms")
REPORT = Path("PERF_gate.json")


def run_once(checkout: Path, workload: str) -> dict:
    """One traced perfbench run: exit status, correctness and metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        cwd=checkout, capture_output=True, text=True,
    )
    run = {"exit": proc.returncode, "correct": False}
    try:
        *_, record_line, result_line = proc.stdout.splitlines()
        record = json.loads(record_line)["record"]
        result = json.loads(result_line)
    except (ValueError, KeyError):
        run["stderr"] = proc.stderr[-2000:]
        return run
    run.update(
        correct=result["correct"],
        attempted=result["attempted"],
        failed=result["failed"],
        metrics=dict(
            record["end_to_end"],
            **{name: m["value"] for name, m in result["metrics"].items()},
        ),
    )
    return run


def judge(name, better, bound, parent, change):
    """The verdict on one metric from both sides' per-run values."""
    base, now = statistics.median(parent), statistics.median(change)
    quartiles = statistics.quantiles(parent, n=4, method="inclusive")
    worse = now - base if better == "lower" else base - now
    if base:
        relative = worse / abs(base)
    else:
        relative = float("inf") if worse > 0 else 0.0
    if relative <= bound:
        verdict = "pass"
    elif worse <= quartiles[2] - quartiles[0]:
        verdict = "unresolved"
    else:
        verdict = "fail"
    return {"metric": name, "parent": base, "change": now,
            "worse_by": None if relative == float("inf") else relative,
            "bound": bound, "verdict": verdict}


def gate_workload(runs, spec) -> list:
    """Verdicts for one workload; ``runs`` maps side -> list of runs."""
    verdicts = []
    for side, side_runs in runs.items():
        bad = [r for r in side_runs if r["exit"] or not r["correct"]]
        if bad:
            verdicts.append({"metric": f"{side} runs", "verdict": "fail",
                             "detail": f"{len(bad)} run(s) failed or were incorrect"})
    if verdicts:
        return verdicts
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics += [(m["name"], m["better"], LAYER_BOUND) for m in spec["per_layer"]
                if m["unit"] in LAYER_UNITS]
    for metric, better, bound in metrics:
        values = {side: [r["metrics"][metric] for r in runs[side]] for side in runs}
        verdicts.append(judge(metric, better, bound, values["parent"],
                              values["change"]))
    return verdicts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0].startswith("-"):
        print("usage: perf_gate.py PARENT_CHECKOUT", file=sys.stderr)
        return 2
    sides = {"parent": Path(args[0]).resolve(), "change": ROOT}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"pairs": PAIRS, "seconds": SECONDS, "seed": SEED,
              "layer_bound": LAYER_BOUND, "workloads": {}}
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {side: [] for side in sides}
        for pair in range(PAIRS):
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            for side in order:
                runs[side].append(run_once(sides[side], workload))
        verdicts = gate_workload(runs, spec)
        report["workloads"][workload] = {"runs": runs, "verdicts": verdicts}
        for v in verdicts:
            if v["verdict"] == "pass":
                continue
            failed |= v["verdict"] == "fail"
            values = (f": {v['parent']:.6g} -> {v['change']:.6g}"
                      if "parent" in v else f": {v.get('detail', '')}")
            print(f"{workload} {v['metric']} {v['verdict'].upper()}{values}")
        print(f"{workload}: {sum(v['verdict'] == 'pass' for v in verdicts)}"
              f"/{len(verdicts)} metrics pass")
    REPORT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"perf_gate: {'FAIL' if failed else 'PASS'} (report in {REPORT})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
