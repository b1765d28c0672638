"""The fault-injection campaign: the repo's no-silent-corruption proof.

Every injector class is run for at least 50 seeds against a known-good
container.  Each corrupted container must either be rejected with a
typed ``ReproError`` subclass or decode to a stream that still covers
the original cubes — zero silent corruptions, zero escaped exceptions.

The classifier tables pin the one rule every campaign reports through:
calls (:func:`judge`), crash contract labels (:func:`label_outcome`)
and service replies (:func:`classify_reply`).
"""

import pytest

from repro.reliability.campaign import (
    CampaignResult,
    Trial,
    TrialOutcome,
    classify_reply,
    judge,
    label_outcome,
    run_campaign,
    run_trial,
)
from repro.reliability.crashsim import SimulatedCrash
from repro.reliability.errors import ContainerError, DecodeError, ShardError
from repro.reliability.inject import INJECTORS

SEEDS = range(50)

CORRECT = TrialOutcome.CORRECT
DETECTED = TrialOutcome.DETECTED
SILENT = TrialOutcome.SILENT
ESCAPED = TrialOutcome.ESCAPED


class TestCampaign:
    def test_no_silent_corruption_full_grid(
        self, campaign_container, campaign_original
    ):
        result = run_campaign(campaign_container, campaign_original, seeds=SEEDS)
        assert len(result.trials) == len(INJECTORS) * len(SEEDS)
        assert result.ok, result.summary()
        assert result.counts[TrialOutcome.SILENT] == 0
        assert result.counts[TrialOutcome.ESCAPED] == 0

    @pytest.mark.parametrize("name", sorted(INJECTORS))
    def test_per_injector_detection(
        self, campaign_container, campaign_original, name
    ):
        result = run_campaign(
            campaign_container, campaign_original, injectors=[name], seeds=SEEDS
        )
        assert result.ok, result.summary()
        # Overwhelmingly these corruptions must be *detected*, not lucky.
        assert result.counts[TrialOutcome.DETECTED] >= len(SEEDS) * 0.8

    def test_crc_tamper_relies_on_stream_digest(
        self, campaign_container, campaign_original
    ):
        # The adversarial injector defeats both CRCs; every trial must
        # still come back detected or provably-correct.
        result = run_campaign(
            campaign_container,
            campaign_original,
            injectors=["crc_tamper"],
            seeds=SEEDS,
        )
        assert result.ok, result.summary()
        assert result.counts[TrialOutcome.DETECTED] > 0


class TestTrialClassification:
    def test_detected_trial(self, campaign_container, campaign_original):
        trial = run_trial(campaign_container, campaign_original, "truncate", 0)
        assert trial.outcome is TrialOutcome.DETECTED
        assert trial.error is not None
        assert "truncate" in trial.describe()

    def test_uncorrupted_container_is_correct(
        self, campaign_container, campaign_original
    ):
        # Bypass the injector: classification of a clean decode.
        from repro.container import load_bytes
        from repro.core import decode

        stream = decode(load_bytes(campaign_container))
        assert stream.covers(campaign_original)

    def test_result_summary_mentions_counts(
        self, campaign_container, campaign_original
    ):
        result = run_campaign(
            campaign_container, campaign_original, injectors=["bit_flip"],
            seeds=range(5),
        )
        assert "detected=" in result.summary()

    def test_failures_surface_in_summary(self):
        bad = Trial("fake", "seed=1", TrialOutcome.SILENT)
        result = CampaignResult((bad,))
        assert not result.ok
        assert result.failures == (bad,)
        assert "fake/seed=1" in result.summary()


def _raise(exc):
    def attempt():
        raise exc

    return attempt


class TestOneRule:
    @pytest.mark.parametrize(
        "exc, outcome",
        [
            (ContainerError("bad header"), DETECTED),
            (DecodeError("bad code"), DETECTED),
            (ShardError("shard lost"), DETECTED),
            (ValueError("untyped"), ESCAPED),
            (RuntimeError("untyped"), ESCAPED),
            (OSError(28, "No space left on device"), ESCAPED),
        ],
    )
    def test_raised_exception(self, exc, outcome):
        got, error = judge(_raise(exc), lambda result: True)
        assert got is outcome
        assert error is exc

    @pytest.mark.parametrize("passes, outcome", [(True, CORRECT), (False, SILENT)])
    def test_oracle(self, passes, outcome):
        assert judge(lambda: "result", lambda result: passes) == (outcome, None)

    @pytest.mark.parametrize(
        "exc", [SimulatedCrash("power cut"), KeyboardInterrupt()]
    )
    def test_base_exceptions_propagate(self, exc):
        with pytest.raises(type(exc)):
            judge(_raise(exc), lambda result: True)

    @pytest.mark.parametrize(
        "label, outcome",
        [
            ("escaped:typed-from-recover", ESCAPED),
            ("escaped:untyped-oserror", ESCAPED),
            ("detected+old", DETECTED),
            ("detected:header-unusable", DETECTED),
            ("completed+miss", CORRECT),
            ("completed+detected:header-unusable", DETECTED),
            ("detected+detected:header-unusable", DETECTED),
            ("silent:torn", SILENT),
            ("old", CORRECT),
            ("prefix", CORRECT),
            ("replayed-2", CORRECT),
        ],
    )
    def test_crash_label(self, label, outcome):
        assert label_outcome(label) is outcome

    @pytest.mark.parametrize(
        "header, payload, outcome",
        [
            ({"ok": True, "code": 0}, b"oracle", CORRECT),
            ({"ok": True, "code": 0}, b"other", SILENT),
            ({"ok": False, "code": 429, "error": {"type": "OverloadError"}}, b"", DETECTED),
            ({"ok": False, "code": 408, "error": {"type": "DeadlineError"}}, b"", DETECTED),
            ({"ok": False, "code": 999, "error": {"type": "OverloadError"}}, b"", ESCAPED),
            ({"ok": False, "code": 400, "error": {"type": "ProtocolError"}}, b"", ESCAPED),
            ({"ok": False, "code": 503, "error": {"message": "no type"}}, b"", ESCAPED),
            ({"ok": False, "code": 503, "error": "busy"}, b"", ESCAPED),
            ({"ok": False, "code": 500}, b"", ESCAPED),
        ],
    )
    def test_fleet_reply(self, header, payload, outcome):
        assert classify_reply(header, payload, expected=b"oracle") is outcome

    def test_failing_outcomes(self):
        trials = tuple(
            Trial("table", f"case={o.value}", o) for o in TrialOutcome
        )
        result = CampaignResult(trials)
        assert {t.outcome for t in result.failures} == {SILENT, ESCAPED}
        assert result.to_json()["counts"] == {o.value: 1 for o in TrialOutcome}
