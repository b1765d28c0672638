"""Behavioural tests of the batch engine (single process paths)."""

import pytest

from repro.bitstream import TernaryVector
from repro.container import container_version, load_seeded
from repro.core import LZWConfig, compress, compress_batch
from repro.parallel import ShardPlan


@pytest.fixture
def streams(rng):
    return [
        TernaryVector.random(1500, x_density=0.8, rng=rng),
        TernaryVector.random(900, x_density=0.5, rng=rng),
        TernaryVector.random(400, x_density=0.0, rng=rng),
    ]


def test_one_result_per_stream_in_input_order(small_config, streams):
    results = compress_batch(small_config, streams, workers=1)
    assert [r.original_bits for r in results] == [len(s) for s in streams]


def test_unsharded_batch_matches_serial_container(small_config, streams):
    from repro.container import dump_bytes

    results = compress_batch(small_config, streams, workers=1)
    for stream, item in zip(streams, results):
        assert item.num_shards == 1
        serial = compress(stream, small_config)
        assert item.container == dump_bytes(
            serial.compressed, serial.assigned_stream
        )
        assert container_version(item.container) == 2


def test_sharded_batch_produces_v3_container(small_config, streams):
    results = compress_batch(small_config, streams, workers=1, shard_bits=300)
    for stream, item in zip(streams, results):
        assert item.num_shards > 1
        assert container_version(item.container) == 3
        assert len(load_seeded(item.container)) == item.num_shards
        assert item.verify(stream)


def test_each_shard_is_bit_identical_to_serial_compress(small_config, streams):
    results = compress_batch(small_config, streams, workers=1, shard_bits=300)
    for stream, item in zip(streams, results):
        for part, shard in zip(item.plan.split(stream), item.shards):
            serial = compress(part, small_config)
            assert shard.compressed.codes == serial.compressed.codes
            assert shard.assigned_stream == serial.assigned_stream


def test_per_stream_configs(streams):
    configs = [
        LZWConfig(char_bits=3, dict_size=32, entry_bits=12),
        LZWConfig(char_bits=4, dict_size=64, entry_bits=20),
        None,  # defaults
    ]
    results = compress_batch(configs, streams, workers=1)
    assert results[0].shards[0].compressed.config.char_bits == 3
    assert results[1].shards[0].compressed.config.char_bits == 4
    assert results[2].shards[0].compressed.config == LZWConfig()


def test_explicit_plans_override_shard_bits(small_config, streams):
    plans = [ShardPlan(len(s), (len(s) // 2,)) for s in streams]
    results = compress_batch(
        small_config, streams, workers=1, shard_bits=100, plans=plans
    )
    assert all(item.num_shards == 2 for item in results)


def test_mismatched_lengths_rejected(small_config, streams):
    with pytest.raises(ValueError):
        compress_batch([small_config], streams, workers=1)
    with pytest.raises(ValueError):
        compress_batch(
            small_config, streams, workers=1, plans=[ShardPlan(len(streams[0]))]
        )


def test_mismatched_lengths_raise_typed_config_error(small_config, streams):
    # The errors double as ValueError (above) for API compatibility, but
    # must be the typed ConfigError so the CLI maps them to exit 2.
    from repro.reliability import ConfigError

    with pytest.raises(ConfigError):
        compress_batch([small_config], streams, workers=1)
    with pytest.raises(ConfigError):
        compress_batch(
            small_config, streams, workers=1, plans=[ShardPlan(len(streams[0]))]
        )


def test_empty_batch(small_config):
    assert compress_batch(small_config, [], workers=1) == []


def test_empty_batch_with_supervision_options(small_config, tmp_path):
    # No streams is a clean no-op even with the full fault-tolerance
    # machinery switched on — not an error.
    assert (
        compress_batch(
            small_config,
            [],
            workers=1,
            on_failure="degrade",
            shard_timeout=1.0,
            checkpoint=tmp_path / "ck.jsonl",
        )
        == []
    )


def test_empty_batch_still_validates_policies(small_config):
    # ...but a genuinely invalid knob is typed ConfigError even when
    # there is no work to do.
    from repro.reliability import ConfigError

    with pytest.raises(ConfigError):
        compress_batch(small_config, [], workers=1, on_failure="explode")
    with pytest.raises(ConfigError):
        compress_batch(small_config, [], workers=1, shard_timeout=-1.0)


def test_empty_stream_roundtrips(small_config):
    item = compress_batch(small_config, [TernaryVector()], workers=1)[0]
    assert item.original_bits == 0
    assert item.ratio == 0.0
    assert item.verify(TernaryVector())


def test_empty_stream_with_retries_and_checkpoint(small_config, tmp_path):
    from repro.parallel import RetryPolicy

    item = compress_batch(
        small_config,
        [TernaryVector()],
        workers=1,
        retry_policy=RetryPolicy(max_attempts=2),
        checkpoint=tmp_path / "ck.jsonl",
    )[0]
    assert item.ok
    assert item.original_bits == 0
    assert item.verify(TernaryVector())


def test_pattern_alignment_keeps_vectors_whole(small_config, rng):
    width = 60
    stream = TernaryVector.random(width * 20, x_density=0.7, rng=rng)
    item = compress_batch(
        small_config, [stream], workers=1, shard_bits=500, pattern_bits=width
    )[0]
    assert item.num_shards > 1
    assert all(start % width == 0 for start, _stop in item.plan.bounds)


def test_ratio_aggregates_over_shards(small_config, streams):
    item = compress_batch(small_config, streams[:1], workers=1, shard_bits=300)[0]
    assert item.compressed_bits == sum(
        s.compressed.compressed_bits for s in item.shards
    )
    assert item.ratio == pytest.approx(
        1.0 - item.compressed_bits / item.original_bits
    )
