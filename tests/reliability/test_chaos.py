"""Chaos drills: injected process faults against the supervised batch.

The contract under test is the engine's zero-silent-corruption
guarantee: under worker exceptions, SIGKILL, hangs and corrupt results,
a batch either completes with containers **byte-identical to the
unfaulted serial run** (the retry / degrade paths healed it) or fails
loudly with a typed :class:`ShardError` — never silently different
bytes.  Faults are deterministic functions of ``(fault, seed)`` so any
failure here reproduces exactly.
"""

import multiprocessing
import random

import pytest

from repro.bitstream import TernaryVector
from repro.core import LZWConfig
from repro.observability import (
    CompositeRecorder,
    CounterRecorder,
    SpanRecorder,
    metrics_snapshot,
)
from repro.observability import schema as ev
from repro.parallel import RetryPolicy, compress_batch, supervisor
from repro.reliability import ShardError
from repro.reliability.campaign import (
    TrialOutcome,
    run_process_campaign,
    run_process_trial,
)
from repro.reliability.chaos import PROCESS_FAULTS, ChaosPlan, InjectedWorkerError

CONFIG = LZWConfig(char_bits=4, dict_size=64, entry_bits=20)

#: Retries with no real waiting, so drills stay fast.
FAST_RETRIES = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def streams():
    rng = random.Random(20030306)
    return [
        TernaryVector.random(500, x_density=0.7, rng=rng),
        TernaryVector.random(350, x_density=0.4, rng=rng),
    ]


@pytest.fixture(scope="module")
def reference(streams):
    """The unfaulted serial run — the byte oracle for every drill."""
    return [
        item.container
        for item in compress_batch(CONFIG, streams, workers=1, shard_bits=150)
    ]


@pytest.fixture(scope="module")
def wave_reference(streams):
    """The unfaulted inline wave run: four rounds (4 and 3 shards)."""
    items = compress_batch(
        CONFIG, streams, workers=1, shard_bits=150, seed_plan="wave"
    )
    assert [item.num_shards for item in items] == [4, 3]
    return [item.container for item in items]


def counters(rec):
    return metrics_snapshot(rec)["counters"]


class TestChaosPlan:
    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            ChaosPlan("meteor")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ChaosPlan("exception", rate=1.5)

    def test_targeting_is_deterministic(self):
        plan = ChaosPlan("exception", seed=3, rate=0.5)
        first = [plan.targets(w, s) for w in range(4) for s in range(4)]
        second = [plan.targets(w, s) for w in range(4) for s in range(4)]
        assert first == second
        assert any(first) and not all(first)

    def test_fault_clears_after_attempts(self, streams):
        plan = ChaosPlan("exception", seed=0, rate=1.0, attempts=1)
        with pytest.raises(InjectedWorkerError):
            plan.apply(0, 0, 0, streams[0])
        assert plan.apply(0, 0, 1, streams[0]) == streams[0]

    def test_corrupt_flips_exactly_one_care_bit(self, streams):
        plan = ChaosPlan("corrupt", seed=5, rate=1.0)
        stream = streams[0]
        corrupted = plan.apply(0, 0, 0, stream)
        diffs = [
            i
            for i in range(len(stream))
            if stream[i] is not None and corrupted[i] != stream[i]
        ]
        assert len(diffs) == 1
        assert len(corrupted) == len(stream)
        # Deterministic: same (fault, seed, key) -> same corruption.
        assert plan.apply(0, 0, 0, stream) == corrupted

    def test_corrupt_leaves_all_x_stream_alone(self):
        all_x = TernaryVector("X" * 32)
        plan = ChaosPlan("corrupt", seed=1, rate=1.0)
        assert plan.apply(0, 0, 0, all_x) == all_x


class TestInlineFaultRecovery:
    def test_worker_exception_healed_by_retry(self, streams, reference):
        rec = CompositeRecorder([CounterRecorder(), SpanRecorder()])
        items = compress_batch(
            CONFIG,
            streams,
            workers=1,
            shard_bits=150,
            chaos=ChaosPlan("exception", seed=1, rate=1.0),
            retry_policy=FAST_RETRIES,
            recorder=rec,
        )
        assert [item.container for item in items] == reference
        assert counters(rec)[ev.BATCH_RETRIES] > 0

    def test_corrupt_result_caught_by_validation_and_healed(
        self, streams, reference
    ):
        # The poisoned result is well-formed; only the supervisor's
        # covers-the-input validation can notice.  It must, and the
        # clean retry must win.
        rec = CompositeRecorder([CounterRecorder(), SpanRecorder()])
        items = compress_batch(
            CONFIG,
            streams,
            workers=1,
            shard_bits=150,
            chaos=ChaosPlan("corrupt", seed=2, rate=1.0),
            retry_policy=FAST_RETRIES,
            recorder=rec,
        )
        assert [item.container for item in items] == reference
        assert counters(rec)[ev.BATCH_RETRIES] > 0

    def test_hang_healed_by_shard_timeout(self, streams, reference):
        rec = CompositeRecorder([CounterRecorder(), SpanRecorder()])
        items = compress_batch(
            CONFIG,
            streams,
            workers=1,
            shard_bits=150,
            chaos=ChaosPlan("hang", seed=3, rate=0.4, hang_seconds=30.0),
            retry_policy=FAST_RETRIES,
            shard_timeout=0.5,
            recorder=rec,
        )
        assert [item.container for item in items] == reference
        assert counters(rec)[ev.BATCH_TIMEOUTS] > 0

    def test_persistent_fault_fail_policy_raises_typed(self, streams):
        with pytest.raises(ShardError) as excinfo:
            compress_batch(
                CONFIG,
                streams,
                workers=1,
                shard_bits=150,
                chaos=ChaosPlan("exception", seed=4, rate=1.0, attempts=99),
                retry_policy=RetryPolicy(
                    max_attempts=2, backoff_base=0.0, jitter=0.0
                ),
            )
        assert excinfo.value.exit_code == 5

    def test_persistent_fault_skip_policy_surfaces_errors(self, streams):
        items = compress_batch(
            CONFIG,
            streams,
            workers=1,
            shard_bits=150,
            chaos=ChaosPlan("exception", seed=4, rate=1.0, attempts=99),
            retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0),
            on_failure="skip",
        )
        for item in items:
            assert not item.ok
            assert item.container is None
            assert all(isinstance(e, ShardError) for e in item.errors)

    def test_skip_policy_keeps_untargeted_workloads_intact(
        self, streams, reference
    ):
        # Find a seed whose 40% targeting rate hits some shards of one
        # workload but none of the other — deterministic scan, no clock.
        plan = None
        for seed in range(64):
            candidate = ChaosPlan("exception", seed=seed, rate=0.4, attempts=99)
            hit = [
                any(candidate.targets(w, s) for s in range(4)) for w in range(2)
            ]
            if hit == [True, False]:
                plan = candidate
                break
        assert plan is not None, "no seed with the needed targeting in 64 tries"
        items = compress_batch(
            CONFIG,
            streams,
            workers=1,
            shard_bits=150,
            chaos=plan,
            retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0),
            on_failure="skip",
        )
        assert not items[0].ok
        assert items[1].ok
        assert items[1].container == reference[1]

    def test_persistent_corrupt_never_silent(self, streams):
        # Even when every retry is poisoned, the result must be a typed
        # failure — a corrupted container must never be returned as ok.
        items = compress_batch(
            CONFIG,
            streams,
            workers=1,
            shard_bits=150,
            chaos=ChaosPlan("corrupt", seed=6, rate=1.0, attempts=99),
            retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0),
            on_failure="skip",
        )
        for item in items:
            assert not item.ok
            assert item.container is None
            assert all(e.diagnostics.get("kind") == "invalid" for e in item.errors)


class TestPooledFaultRecovery:
    def test_sigkill_healed_by_pool_respawn(self, streams, reference):
        rec = CompositeRecorder([CounterRecorder(), SpanRecorder()])
        items = compress_batch(
            CONFIG,
            streams,
            workers=2,
            shard_bits=150,
            chaos=ChaosPlan("kill", seed=5, rate=0.5),
            retry_policy=FAST_RETRIES,
            recorder=rec,
        )
        assert [item.container for item in items] == reference
        assert counters(rec)[ev.BATCH_WORKER_CRASHES] >= 1

    def test_pooled_hang_healed_by_worker_alarm(self, streams, reference):
        rec = CompositeRecorder([CounterRecorder(), SpanRecorder()])
        items = compress_batch(
            CONFIG,
            streams,
            workers=2,
            shard_bits=150,
            chaos=ChaosPlan("hang", seed=6, rate=0.4, hang_seconds=30.0),
            retry_policy=FAST_RETRIES,
            shard_timeout=1.0,
            recorder=rec,
        )
        assert [item.container for item in items] == reference
        assert counters(rec)[ev.BATCH_TIMEOUTS] > 0


class TestFaultsAcrossWaveRounds:
    """Wave rounds share one pool, so a fault in round r hits a pool
    that round r+1 reuses (or respawns)."""

    def test_every_round_kills_its_pool_once(
        self, pools_built, streams, wave_reference
    ):
        rec = CompositeRecorder([CounterRecorder(), SpanRecorder()])
        items = compress_batch(
            CONFIG,
            streams,
            workers=2,
            shard_bits=150,
            seed_plan="wave",
            chaos=ChaosPlan("kill", seed=5, rate=1.0),
            retry_policy=FAST_RETRIES,
            recorder=rec,
        )
        assert [item.container for item in items] == wave_reference
        assert counters(rec)[ev.BATCH_WORKER_CRASHES] == 4
        # The first pool, then one respawn per crash; each respawned
        # pool carries on into the next round.
        assert pools_built == [2] * 5

    def test_pooled_hang_healed_in_every_round(self, streams, wave_reference):
        rec = CompositeRecorder([CounterRecorder(), SpanRecorder()])
        items = compress_batch(
            CONFIG,
            streams,
            workers=2,
            shard_bits=150,
            seed_plan="wave",
            chaos=ChaosPlan("hang", seed=6, rate=1.0, hang_seconds=30.0),
            retry_policy=FAST_RETRIES,
            shard_timeout=0.5,
            recorder=rec,
        )
        assert [item.container for item in items] == wave_reference
        # Each of the 7 shards hangs once; the in-worker alarm heals it
        # without costing the shared pool.
        assert counters(rec)[ev.BATCH_TIMEOUTS] == 7
        assert counters(rec).get(ev.BATCH_WORKER_CRASHES, 0) == 0

    def test_watchdog_kill_in_one_round_respawns_for_the_next(
        self, monkeypatch, pools_built, streams
    ):
        # Two rounds; only round 0's shards hang.  A negative grace puts
        # the parent watchdog (3 s) ahead of the in-worker alarm (10 s),
        # which is how an alarm-proof hang looks from the parent.
        plan = None
        for seed in range(256):
            candidate = ChaosPlan("hang", seed=seed, rate=0.5, hang_seconds=30.0)
            if [candidate.targets(w, s) for s in range(2) for w in range(2)] == [
                True, True, False, False
            ]:
                plan = candidate
                break
        assert plan is not None, "no seed with the needed targeting"
        reference = [
            item.container
            for item in compress_batch(
                CONFIG, streams, workers=1, shard_bits=250, seed_plan="wave"
            )
        ]
        monkeypatch.setattr(supervisor, "_WATCHDOG_GRACE", -7.0)
        rec = CompositeRecorder([CounterRecorder(), SpanRecorder()])
        items = compress_batch(
            CONFIG,
            streams,
            workers=2,
            shard_bits=250,
            seed_plan="wave",
            chaos=plan,
            retry_policy=FAST_RETRIES,
            shard_timeout=10.0,
            recorder=rec,
        )
        assert [item.num_shards for item in items] == [2, 2]
        assert [item.container for item in items] == reference
        assert counters(rec)[ev.BATCH_TIMEOUTS] == 2
        # The watchdog killed the first pool; its replacement ran round
        # 0's retries and then all of round 1.
        assert pools_built == [2, 2]
        assert multiprocessing.active_children() == []


class TestCheckpointUnderFaults:
    def test_aborted_batch_resumes_to_identical_bytes(
        self, tmp_path, streams, reference
    ):
        # A persistent fault aborts the run partway; completed shards
        # are already journaled.  The resumed clean run must reproduce
        # the uninterrupted run's bytes exactly.
        path = tmp_path / "ck.jsonl"
        plan = None
        for seed in range(64):
            candidate = ChaosPlan("exception", seed=seed, rate=0.3, attempts=99)
            hits = [
                candidate.targets(w, s) for w in range(2) for s in range(3)
            ]
            if any(hits) and not hits[0]:
                plan = candidate
                break
        assert plan is not None
        with pytest.raises(ShardError):
            compress_batch(
                CONFIG,
                streams,
                workers=1,
                shard_bits=150,
                chaos=plan,
                retry_policy=RetryPolicy(
                    max_attempts=1, backoff_base=0.0, jitter=0.0
                ),
                checkpoint=path,
            )
        journaled = len(path.read_text().splitlines()) - 1  # minus header
        assert journaled >= 1
        rec = CompositeRecorder([CounterRecorder(), SpanRecorder()])
        items = compress_batch(
            CONFIG,
            streams,
            workers=1,
            shard_bits=150,
            checkpoint=path,
            resume=True,
            recorder=rec,
        )
        assert [item.container for item in items] == reference
        assert counters(rec)[ev.BATCH_JOURNAL_HITS] == journaled

    def test_kill_run_with_checkpoint_then_resume(
        self, tmp_path, streams, reference
    ):
        path = tmp_path / "ck.jsonl"
        items = compress_batch(
            CONFIG,
            streams,
            workers=2,
            shard_bits=150,
            chaos=ChaosPlan("kill", seed=7, rate=0.5),
            retry_policy=FAST_RETRIES,
            checkpoint=path,
        )
        assert [item.container for item in items] == reference
        resumed = compress_batch(
            CONFIG,
            streams,
            workers=1,
            shard_bits=150,
            checkpoint=path,
            resume=True,
        )
        assert [item.container for item in resumed] == reference


class TestProcessCampaign:
    def test_inline_faults_all_heal(self, streams):
        result = run_process_campaign(
            CONFIG,
            streams,
            faults=("exception", "corrupt"),
            seeds=range(3),
            shard_bits=150,
            retry_policy=FAST_RETRIES,
        )
        assert result.ok, result.summary()
        assert all(t.outcome is TrialOutcome.CORRECT for t in result.trials)

    def test_wave_campaign_heals_against_the_wave_oracle(self, streams):
        result = run_process_campaign(
            CONFIG,
            streams,
            faults=("exception", "kill"),
            seeds=range(2),
            workers=2,
            shard_bits=150,
            retry_policy=FAST_RETRIES,
            seed_plan="wave",
        )
        assert result.ok, result.summary()
        assert all(t.outcome is TrialOutcome.CORRECT for t in result.trials)

    def test_exhausted_retries_classified_detected(self, streams, reference):
        trial = run_process_trial(
            CONFIG,
            streams,
            reference,
            "exception",
            0,
            shard_bits=150,
            rate=1.0,
            retry_policy=RetryPolicy(max_attempts=1, backoff_base=0.0, jitter=0.0),
            on_failure="skip",
        )
        assert trial.outcome is TrialOutcome.DETECTED

    def test_fail_policy_abort_classified_detected(self, streams, reference):
        trial = run_process_trial(
            CONFIG,
            streams,
            reference,
            "exception",
            0,
            shard_bits=150,
            rate=1.0,
            retry_policy=RetryPolicy(max_attempts=1, backoff_base=0.0, jitter=0.0),
            on_failure="fail",
        )
        assert trial.outcome is TrialOutcome.DETECTED

    def test_report_is_json_serializable(self, streams):
        import json

        result = run_process_campaign(
            CONFIG,
            streams,
            faults=("exception",),
            seeds=range(2),
            shard_bits=150,
            retry_policy=FAST_RETRIES,
        )
        report = json.loads(json.dumps(result.to_json()))
        assert report["ok"] is True
        assert len(report["trials"]) == 2

    def test_all_fault_classes_registered(self):
        assert PROCESS_FAULTS == ("exception", "kill", "hang", "corrupt")
