"""Unit tests of the fault-tolerant supervisor.

The pooled fault paths (real spawn workers, SIGKILL, watchdog) are
exercised end-to-end in ``tests/reliability/test_chaos.py``; here the
supervisor's retry / policy / validation logic is pinned down with plain
in-process worker functions and an injected sleep, and
:class:`TestSharedPool` checks the pool's lifetime: one pool per batch
job, sized once, with no worker left behind.
"""

import multiprocessing
import random
import time
from concurrent.futures.process import BrokenProcessPool

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
from repro.parallel import (
    ON_FAILURE_POLICIES,
    RetryPolicy,
    compress_batch,
    run_supervised,
)
from repro.parallel import supervisor as supervisor_module
from repro.parallel.supervisor import Supervisor
from repro.reliability import ConfigError, ShardError
from repro.reliability.chaos import ChaosPlan

KEYS = [(0, 0), (0, 1), (1, 0)]

NO_BACKOFF = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


def make_args(key, attempt):
    return (key, attempt)


def flaky_below(threshold):
    """A worker that fails while ``attempt < threshold``, then succeeds."""

    def worker(args):
        key, attempt = args
        if attempt < threshold:
            raise RuntimeError(f"transient failure on {key} attempt {attempt}")
        return ("ok", key, attempt)

    return worker


def no_sleep(_seconds):
    return None


def recording_sink():
    return CompositeRecorder([CounterRecorder(), SpanRecorder()])


def counters(rec):
    return metrics_snapshot(rec)["counters"]


class TestRetryPolicy:
    def test_defaults_valid(self):
        RetryPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base": -0.1},
            {"backoff_factor": -1.0},
            {"backoff_max": -1.0},
            {"jitter": -0.5},
        ],
    )
    def test_invalid_values_raise_typed_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)

    def test_delay_is_deterministic(self):
        policy = RetryPolicy(seed=7)
        first = [policy.delay((0, 3), n) for n in range(1, 5)]
        second = [policy.delay((0, 3), n) for n in range(1, 5)]
        assert first == second

    def test_delay_varies_by_key_and_attempt(self):
        policy = RetryPolicy(seed=7)
        assert policy.delay((0, 0), 1) != policy.delay((0, 1), 1)
        assert policy.delay((0, 0), 1) != policy.delay((0, 0), 2)

    def test_delay_bounded_by_backoff_max(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_max=0.5, jitter=0.0)
        assert policy.delay((0, 0), 10) == pytest.approx(0.5)

    def test_no_wall_clock_in_the_decision_path(self, monkeypatch):
        # The deterministic contract: the schedule may not read a clock.
        policy = RetryPolicy(seed=3)
        expected = policy.delay((1, 2), 2)
        monkeypatch.setattr(time, "time", lambda: 1e9)
        monkeypatch.setattr(time, "monotonic", lambda: 1e9)
        assert policy.delay((1, 2), 2) == expected


class TestRunSupervised:
    def test_all_succeed_first_attempt(self):
        results = run_supervised(flaky_below(0), KEYS, make_args, workers=1)
        assert set(results) == set(KEYS)
        assert all(results[k] == ("ok", k, 0) for k in KEYS)

    def test_transient_failures_healed_by_retry(self):
        rec = recording_sink()
        results = run_supervised(
            flaky_below(2),
            KEYS,
            make_args,
            workers=1,
            retry_policy=NO_BACKOFF,
            recorder=rec,
            sleep=no_sleep,
        )
        assert all(results[k] == ("ok", k, 2) for k in KEYS)
        assert counters(rec)[ev.BATCH_RETRIES] == 2 * len(KEYS)

    def test_fail_policy_raises_shard_error_with_diagnostics(self):
        with pytest.raises(ShardError) as excinfo:
            run_supervised(
                flaky_below(99),
                KEYS,
                make_args,
                workers=1,
                retry_policy=NO_BACKOFF,
                sleep=no_sleep,
            )
        error = excinfo.value
        assert error.exit_code == 5
        assert error.diagnostics["attempts"] == NO_BACKOFF.max_attempts
        assert error.diagnostics["kind"] == "error"
        assert (error.diagnostics["workload"], error.diagnostics["shard"]) in KEYS

    def test_skip_policy_stores_typed_errors_and_continues(self):
        rec = recording_sink()

        def worker(args):
            key, attempt = args
            if key == (0, 1):
                raise RuntimeError("persistent failure")
            return key

        results = run_supervised(
            worker,
            KEYS,
            make_args,
            workers=1,
            retry_policy=NO_BACKOFF,
            on_failure="skip",
            recorder=rec,
            sleep=no_sleep,
        )
        assert isinstance(results[(0, 1)], ShardError)
        assert results[(0, 0)] == (0, 0)
        assert results[(1, 0)] == (1, 0)
        assert counters(rec)[ev.BATCH_SKIPPED_SHARDS] == 1

    def test_degrade_policy_reruns_inline(self):
        rec = recording_sink()
        # Fails every pooled attempt; the degrade fallback runs attempt
        # number == max_attempts, which this worker finally accepts.
        results = run_supervised(
            flaky_below(NO_BACKOFF.max_attempts),
            KEYS[:1],
            make_args,
            workers=1,
            retry_policy=NO_BACKOFF,
            on_failure="degrade",
            recorder=rec,
            sleep=no_sleep,
        )
        assert results[KEYS[0]] == ("ok", KEYS[0], NO_BACKOFF.max_attempts)
        assert counters(rec)[ev.BATCH_DEGRADED_SHARDS] == 1

    def test_degrade_fallback_failure_raises_shard_error(self):
        with pytest.raises(ShardError):
            run_supervised(
                flaky_below(99),
                KEYS[:1],
                make_args,
                workers=1,
                retry_policy=NO_BACKOFF,
                on_failure="degrade",
                sleep=no_sleep,
            )

    def test_validate_hook_turns_bad_results_into_retries(self):
        def worker(args):
            key, attempt = args
            return "bad" if attempt == 0 else "good"

        def validate(key, result):
            return None if result == "good" else f"{key} returned {result}"

        rec = recording_sink()
        results = run_supervised(
            worker,
            KEYS,
            make_args,
            workers=1,
            retry_policy=NO_BACKOFF,
            validate=validate,
            recorder=rec,
            sleep=no_sleep,
        )
        assert all(results[k] == "good" for k in KEYS)
        assert counters(rec)[ev.BATCH_RETRIES] == len(KEYS)

    def test_validate_exhaustion_reports_invalid_kind(self):
        with pytest.raises(ShardError) as excinfo:
            run_supervised(
                lambda args: "bad",
                KEYS[:1],
                make_args,
                workers=1,
                retry_policy=NO_BACKOFF,
                validate=lambda key, result: "always wrong",
                sleep=no_sleep,
            )
        assert excinfo.value.diagnostics["kind"] == "invalid"

    def test_shard_timeout_inline_retries_hung_attempt(self):
        def worker(args):
            key, attempt = args
            if attempt == 0:
                time.sleep(30.0)
            return ("ok", key, attempt)

        rec = recording_sink()
        results = run_supervised(
            worker,
            KEYS[:1],
            make_args,
            workers=1,
            retry_policy=NO_BACKOFF,
            shard_timeout=0.2,
            recorder=rec,
            sleep=no_sleep,
        )
        assert results[KEYS[0]] == ("ok", KEYS[0], 1)
        assert counters(rec)[ev.BATCH_TIMEOUTS] == 1

    def test_on_result_fires_per_accepted_shard(self):
        seen = []
        run_supervised(
            flaky_below(0),
            KEYS,
            make_args,
            workers=1,
            on_result=lambda key, result: seen.append(key),
        )
        assert sorted(seen) == sorted(KEYS)

    def test_on_result_not_fired_for_skipped_shards(self):
        seen = []
        run_supervised(
            flaky_below(99),
            KEYS[:1],
            make_args,
            workers=1,
            retry_policy=NO_BACKOFF,
            on_failure="skip",
            sleep=no_sleep,
            on_result=lambda key, result: seen.append(key),
        )
        assert seen == []

    def test_backoff_sleeps_are_the_policy_delays(self):
        slept = []
        policy = RetryPolicy(max_attempts=3, backoff_base=0.1, jitter=0.5, seed=11)
        run_supervised(
            flaky_below(2),
            KEYS[:1],
            make_args,
            workers=1,
            retry_policy=policy,
            sleep=slept.append,
        )
        assert slept == [policy.delay(KEYS[0], 1), policy.delay(KEYS[0], 2)]

    def test_invalid_on_failure_rejected(self):
        assert "fail" in ON_FAILURE_POLICIES
        with pytest.raises(ConfigError):
            run_supervised(
                flaky_below(0), KEYS, make_args, workers=1, on_failure="retry"
            )

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ConfigError):
            run_supervised(
                flaky_below(0), KEYS, make_args, workers=1, shard_timeout=0.0
            )


class TestTimeoutDegradation:
    """The SIGALRM in-worker timeout must degrade, never crash.

    ``signal.signal`` only works on the main thread (and SIGALRM only
    exists on POSIX); a supervised run driven from a service worker
    thread — exactly what ``repro serve`` does — must fall back to an
    un-alarmed call and leave the hang to the parent wave watchdog.
    """

    def test_call_with_timeout_works_off_the_main_thread(self):
        import threading

        from repro.parallel.supervisor import _call_with_timeout

        outcome = []

        def run():
            outcome.append(_call_with_timeout(lambda x: x + 1, 41, timeout=5.0))

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=10)
        assert outcome == [42]

    def test_supervised_run_with_timeout_off_the_main_thread(self):
        import threading

        results = {}

        def run():
            results.update(
                run_supervised(
                    flaky_below(1),
                    KEYS[:1],
                    make_args,
                    workers=1,
                    retry_policy=NO_BACKOFF,
                    shard_timeout=5.0,
                    sleep=no_sleep,
                )
            )

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert results[KEYS[0]] == ("ok", KEYS[0], 1)

    def test_unarmable_timer_falls_back_and_restores_handler(self, monkeypatch):
        import signal as signal_module

        from repro.parallel.supervisor import _call_with_timeout

        before = signal_module.getsignal(signal_module.SIGALRM)

        def refuse(which, seconds):
            raise OSError("timer unavailable")

        monkeypatch.setattr(signal_module, "setitimer", refuse)
        assert _call_with_timeout(lambda x: x * 2, 21, timeout=5.0) == 42
        assert signal_module.getsignal(signal_module.SIGALRM) is before

    def test_alarm_still_fires_on_the_main_thread(self):
        from repro.parallel.supervisor import _call_with_timeout, _WorkerTimeout

        def hang(_args):
            time.sleep(30.0)

        with pytest.raises(_WorkerTimeout):
            _call_with_timeout(hang, None, timeout=0.2)


# -- one pool per batch job ---------------------------------------------

WAVE_CONFIG = LZWConfig(char_bits=4, dict_size=64, entry_bits=20)

#: 500 and 350 bits at 150 bits a shard: 4 and 3 shards, so a wave job
#: runs four rounds.
WAVE_SHARD_BITS = 150


@pytest.fixture(scope="module")
def wave_streams():
    rng = random.Random(20030306)
    return [
        TernaryVector.random(500, x_density=0.7, rng=rng),
        TernaryVector.random(350, x_density=0.4, rng=rng),
    ]


@pytest.fixture(scope="module")
def wave_reference(wave_streams):
    """The inline wave run: the bytes every pooled wave job must match."""
    items = compress_batch(
        WAVE_CONFIG, wave_streams, workers=1,
        shard_bits=WAVE_SHARD_BITS, seed_plan="wave",
    )
    assert [item.num_shards for item in items] == [4, 3]
    return [item.container for item in items]


def wave_batch(streams, **kwargs):
    return compress_batch(
        WAVE_CONFIG, streams, shard_bits=WAVE_SHARD_BITS, seed_plan="wave",
        **kwargs,
    )


def exception_plan(hit):
    """A persistent exception plan whose first-round targeting is ``hit``."""
    for seed in range(64):
        plan = ChaosPlan("exception", seed=seed, rate=0.5, attempts=99)
        if [plan.targets(w, 0) for w in range(2)] == hit and (
            any(plan.targets(w, s) for w in range(2) for s in range(1, 4))
        ):
            return plan
    raise AssertionError(f"no seed with first-round targeting {hit} in 64 tries")


class TestSharedPool:
    def test_wave_job_builds_one_pool_and_leaves_no_children(
        self, pools_built, wave_streams, wave_reference
    ):
        items = wave_batch(wave_streams, workers=2)
        assert pools_built == [2]
        assert [item.container for item in items] == wave_reference
        assert multiprocessing.active_children() == []

    def test_shard_error_mid_wave_leaves_no_children(
        self, pools_built, wave_streams
    ):
        # Round 0 runs clean in the pool; a later round fails for good.
        with pytest.raises(ShardError) as excinfo:
            wave_batch(
                wave_streams,
                workers=2,
                chaos=exception_plan([False, False]),
                retry_policy=RetryPolicy(max_attempts=1, backoff_base=0.0),
                on_failure="fail",
            )
        assert excinfo.value.diagnostics["shard"] >= 1
        assert pools_built == [2]
        assert multiprocessing.active_children() == []

    def test_resumed_job_sizes_the_pool_by_its_widest_round(
        self, tmp_path, pools_built, wave_streams, wave_reference
    ):
        # Abort after shard (0, 0) is journaled, so the resumed job's
        # first round holds one shard and every later round two.
        path = tmp_path / "ck.jsonl"
        with pytest.raises(ShardError):
            wave_batch(
                wave_streams,
                workers=1,
                chaos=exception_plan([False, True]),
                retry_policy=RetryPolicy(max_attempts=1, backoff_base=0.0),
                checkpoint=path,
            )
        items = wave_batch(wave_streams, workers=2, checkpoint=path, resume=True)
        assert pools_built == [2]
        assert [item.container for item in items] == wave_reference
        assert multiprocessing.active_children() == []

    def test_watchdog_budget_uses_the_pool_size(self, monkeypatch, pools_built):
        budgets = []
        real_wait = supervisor_module.wait

        def recording_wait(futures, timeout=None):
            budgets.append(timeout)
            return real_wait(futures, timeout=timeout)

        monkeypatch.setattr(supervisor_module, "wait", recording_wait)
        # ``str`` is a picklable stand-in worker: it returns its args.
        with Supervisor(str, make_args, workers=2, shard_timeout=1.0) as sup:
            assert sup.run(KEYS[:1]) == {KEYS[0]: str((KEYS[0], 0))}
            assert set(sup.run(KEYS)) == set(KEYS)
        assert pools_built == [2]
        grace = supervisor_module._WATCHDOG_GRACE
        # One shard on a 2-worker pool is one slot deep; three are two.
        assert budgets == [1.0 + grace, 2.0 + grace]
        assert multiprocessing.active_children() == []

    def test_pool_broken_mid_submission_is_one_crash(self, monkeypatch):
        # A warm pool's idle worker can take the first shard of a wave
        # and die before the second is submitted; ``submit`` then raises.
        built = []

        class BreaksOnSecondSubmit(supervisor_module.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)
                self.submits = 0

            def submit(self, *args, **kwargs):
                self.submits += 1
                if len(built) == 1 and self.submits == 2:
                    raise BrokenProcessPool("worker died mid-submission")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(
            supervisor_module, "ProcessPoolExecutor", BreaksOnSecondSubmit
        )
        rec = recording_sink()
        with Supervisor(
            str, make_args, workers=2, retry_policy=NO_BACKOFF,
            recorder=rec, sleep=no_sleep,
        ) as sup:
            results = sup.run(KEYS)
        # The submitted shard finished; the two unsubmitted ones were
        # charged the crash and retried on a respawned pool.
        assert results == {
            KEYS[0]: str((KEYS[0], 0)),
            KEYS[1]: str((KEYS[1], 1)),
            KEYS[2]: str((KEYS[2], 1)),
        }
        assert len(built) == 2
        assert counters(rec)[ev.BATCH_WORKER_CRASHES] == 1
        assert multiprocessing.active_children() == []
