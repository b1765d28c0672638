"""The fault-campaign driver's report, end to end on its fastest section.

``benchmarks/fault_campaign.py crash`` replays every crash point of the
nine artefact writers in well under a second, so tier-1 pins its whole
classification: the ``repro.campaign/1`` envelope, the point and state
counts, and the outcome split.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture(scope="module")
def driver():
    # The driver puts its own directory on sys.path to import its
    # sibling writer specs; take it off again afterwards.
    spec = importlib.util.spec_from_file_location(
        "fault_campaign", BENCHMARKS / "fault_campaign.py"
    )
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        while str(BENCHMARKS) in sys.path:
            sys.path.remove(str(BENCHMARKS))


def test_crash_section_report(driver, tmp_path, capsys):
    output = tmp_path / "report.json"
    assert driver.main(["crash", "-o", str(output)]) == 0
    report = json.loads(output.read_text())
    assert report["schema"] == "repro.campaign/1"
    assert report["ok"] is True
    crash = report["sections"]["crash"]
    assert crash["counts"] == {"correct": 508, "detected": 52, "silent": 0, "escaped": 0}
    assert crash["points"] == len(crash["trials"]) == 560
    assert crash["unique_states"] == 101
    assert len(crash["writers"]) == 9
    assert "560 trials" in capsys.readouterr().out


def test_background_thread_exception_is_an_escape(driver, monkeypatch):
    import threading

    def section():
        thread = threading.Thread(target=lambda: {}.pop("missing"), name="doomed")
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        return driver.CampaignResult(())

    monkeypatch.setitem(driver.SECTIONS, "crash", section)
    before = threading.excepthook
    result = driver._run_section("crash")
    assert not result.ok
    (trial,) = result.failures
    assert trial.case == "doomed"
    assert "KeyError" in trial.detail
    assert threading.excepthook is before
