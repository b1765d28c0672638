"""Partial ``--metrics-json`` flushes on SIGINT/SIGTERM (satellite).

An interrupted ``repro compress``/``repro batch`` must still leave a
*valid* ``repro.metrics/1`` envelope on disk, marked ``"partial": true``
so consumers never mistake it for a complete run — and then die with
the conventional 128+signum status.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.observability import CounterRecorder, metrics_snapshot, write_metrics_json

SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_partial_envelope_marked_and_complete_one_unmarked(tmp_path):
    recorder = CounterRecorder()
    recorder.incr("encode.codes", 3)
    complete = metrics_snapshot(recorder)
    assert "partial" not in complete  # goldens/consumers see no new key
    flushed = write_metrics_json(recorder, tmp_path / "m.json", partial=True)
    assert flushed["partial"] is True
    on_disk = json.loads((tmp_path / "m.json").read_text())
    assert on_disk["partial"] is True
    assert on_disk["schema"] == "repro.metrics/1"
    assert on_disk["counters"]["encode.codes"] == 3


def _big_workload(tmp_path, lines=36000, width=64):
    rng = random.Random(7)
    path = tmp_path / "big.test"
    path.write_text(
        "\n".join("".join(rng.choices("01X", k=width)) for _ in range(lines))
        + "\n"
    )
    return path


def _run_and_interrupt(tmp_path, command, signum, sync):
    """Start a long CLI run, signal it mid-compress, reap it.

    ``sync`` is how we know the run is inside the guarded section:
    ``"readline"`` waits for the first output line (``compress`` prints
    the workload summary before encoding), ``float`` seconds sleep
    (``batch`` prints nothing until the work is done; the 36k-line
    workload runs for ~4s on a 2-CPU x86-64 VM, so a 1.5s
    delay lands mid-encode with a wide margin on both sides).
    """
    metrics = tmp_path / "metrics.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *command, "--metrics-json", str(metrics)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    if sync == "readline":
        # The summary line prints just *before* the guarded section; a
        # short pause after it puts the signal well inside the ~3s
        # encode rather than in the to_stream() gap ahead of the guard.
        proc.stdout.readline()
        time.sleep(0.8)
    else:
        time.sleep(sync)
    proc.send_signal(signum)
    proc.communicate(timeout=30)
    return proc.returncode, metrics


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_interrupted_compress_flushes_partial_envelope(tmp_path, signum):
    workload = _big_workload(tmp_path)
    code, metrics = _run_and_interrupt(
        tmp_path, ["compress", str(workload)], signum, sync="readline"
    )
    assert code == -signum  # default disposition after the flush
    snapshot = json.loads(metrics.read_text())
    assert snapshot["partial"] is True
    assert snapshot["schema"] == "repro.metrics/1"


def test_interrupted_batch_flushes_partial_envelope(tmp_path):
    workload = _big_workload(tmp_path)
    code, metrics = _run_and_interrupt(
        tmp_path,
        ["batch", str(workload), "--workers", "1"],
        signal.SIGTERM,
        sync=1.5,
    )
    assert code == -signal.SIGTERM
    snapshot = json.loads(metrics.read_text())
    assert snapshot["partial"] is True
    assert snapshot["schema"] == "repro.metrics/1"
