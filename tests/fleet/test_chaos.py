"""Fleet fault plans are deterministic; one live trial stays honest."""

import pytest

from repro.fleet.chaos import run_trial
from repro.reliability.campaign import TrialOutcome
from repro.reliability.chaos import FLEET_FAULTS, FleetFaultPlan


def test_plan_validates_its_inputs():
    with pytest.raises(ValueError):
        FleetFaultPlan("meteor_strike")
    with pytest.raises(ValueError):
        FleetFaultPlan("backend_kill", requests=1)
    with pytest.raises(ValueError):
        FleetFaultPlan("backend_kill", backends=0)


@pytest.mark.parametrize("fault", FLEET_FAULTS)
def test_plan_is_a_pure_function_of_fault_and_seed(fault):
    for seed in range(5):
        a = FleetFaultPlan(fault, seed=seed)
        b = FleetFaultPlan(fault, seed=seed)
        assert a.trigger_index == b.trigger_index
        assert a.target_backend == b.target_backend
        assert a.tamper(b"0123456789") == b.tamper(b"0123456789")


def test_trigger_index_stays_strictly_inside_the_run():
    for seed in range(50):
        plan = FleetFaultPlan("backend_kill", seed=seed, requests=10)
        assert 1 <= plan.trigger_index <= 8
        assert 0 <= plan.target_backend < plan.backends


def test_tamper_flips_exactly_one_bit():
    plan = FleetFaultPlan("cache_tamper", seed=3)
    data = bytes(range(64))
    tampered = plan.tamper(data)
    assert len(tampered) == len(data)
    diff = [(a, b) for a, b in zip(data, tampered) if a != b]
    assert len(diff) == 1
    assert bin(diff[0][0] ^ diff[0][1]).count("1") == 1
    assert plan.tamper(b"") == b""


def test_backend_kill_trial_has_no_silent_corruption(tmp_path):
    # One real trial: three backend subprocesses, one SIGKILLed mid-run.
    # Every request must come back byte-identical to the serial oracle
    # or as a typed error -- never corrupted, never untyped.
    plan = FleetFaultPlan("backend_kill", seed=1, requests=6)
    trial = run_trial(plan, tmp_path)
    replies = trial.facts["replies"]
    assert replies["silent"] == 0
    assert replies["escaped"] == 0
    assert sum(replies.values()) == 6
    assert replies["correct"] >= 1
    assert trial.outcome in (TrialOutcome.CORRECT, TrialOutcome.DETECTED), trial
