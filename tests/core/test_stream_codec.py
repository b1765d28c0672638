"""Incremental codec vs one-shot: the byte-identity contract.

``StreamEncoder`` must emit *exactly* the code sequence of the one-shot
``compress()`` for the same input and config, no matter how the input
is chunked — including the adversarial chunkings: one bit at a time,
a boundary splitting a phrase mid-match, an empty final chunk.  The
suite runs the comparison on both engines — the packed matcher
(``"fast"``) and the oracle inside ``reference_engine()``
(``"reference"``) — on both sides: the engine decides streaming and
one-shot alike, so each engine's streaming output must equal the
other's one-shot output.
"""

import random
from contextlib import nullcontext

import pytest

from repro.bitstream import TernaryVector
from repro.core import (
    DecodeError,
    LZWConfig,
    StreamDecoder,
    StreamEncoder,
    compress,
    compress_batch,
    fastpath,
    stream as stream_module,
)
from repro.core.decoder import derive_final_snapshot, iter_decode
from repro.core.dontcare import ChildSelector, reference_engine
from repro.core.fastpath import CACHE_LIMIT
from repro.core.stream import chars_to_vector
from repro.hardware import DecompressorModel
from repro.observability import CounterRecorder
from repro.observability import schema as ev
from repro.workloads import build_testset

CFG = LZWConfig(char_bits=4, dict_size=64, entry_bits=32)

ENGINES = ("reference", "fast")


def other(engine):
    return "fast" if engine == "reference" else "reference"


def on(engine):
    """Encoders built in this block decide on ``engine``."""
    return reference_engine() if engine == "reference" else nullcontext()


def one_shot_codes(stream, config, engine):
    with on(engine):
        return list(compress(stream, config).compressed.codes)


def stream_codes(stream, config, chunk_bits, engine="fast"):
    with on(engine):
        enc = StreamEncoder(config)
    codes = []
    if chunk_bits == 0:
        chunks = [stream]
    else:
        chunks = [
            stream[i : i + chunk_bits] for i in range(0, len(stream), chunk_bits)
        ]
    for chunk in chunks:
        codes.extend(enc.feed(chunk))
    codes.extend(enc.finalize())
    assert enc.original_bits == len(stream)
    return codes


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_input(engine):
    enc = StreamEncoder(CFG)
    assert enc.feed(TernaryVector.xs(0)) == []
    assert enc.finalize() == []
    assert enc.original_bits == 0
    assert one_shot_codes(TernaryVector.xs(0), CFG, engine) == []


@pytest.mark.parametrize("engine", ENGINES)
def test_input_smaller_than_one_chunk(engine):
    stream = TernaryVector("01X")
    assert stream_codes(stream, CFG, 4096, engine) == one_shot_codes(
        stream, CFG, other(engine)
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("chunk_bits", [1, 2, 3, 7, 64, 0])
def test_chunk_boundary_splits_phrase_mid_match(engine, chunk_bits):
    # A highly repetitive stream grows long dictionary phrases, so any
    # small chunking is guaranteed to cut through matches in progress.
    stream = TernaryVector("0110X01X" * 40)
    assert stream_codes(stream, CFG, chunk_bits, engine) == one_shot_codes(
        stream, CFG, other(engine)
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "policy,lookahead", [("first", 4), ("popular", 4), ("lookahead", 2),
                         ("lookahead", 4)]
)
def test_differential_random_streams(engine, policy, lookahead):
    rng = random.Random(hash((engine, policy, lookahead)) & 0xFFFF)
    for reset in (False, True):
        config = LZWConfig(
            char_bits=4,
            dict_size=48,
            entry_bits=32,
            policy=policy,
            lookahead=lookahead,
            reset_on_full=reset,
        )
        for _ in range(6):
            n = rng.randrange(0, 700)
            stream = TernaryVector.random(
                n, x_density=rng.choice([0.0, 0.25, 0.6]), rng=rng
            )
            chunk = rng.choice([1, 5, 37, 128, 0])
            assert stream_codes(stream, config, chunk, engine) == one_shot_codes(
                stream, config, other(engine)
            ), (n, chunk, reset)


def test_final_partial_character_padding():
    # A length that is not a multiple of char_bits exercises the
    # X-padded partial character on the finalize path.
    stream = TernaryVector("0110X01X0110X01X011")
    assert len(stream) % CFG.char_bits != 0
    for engine in ENGINES:
        assert stream_codes(stream, CFG, 3, engine) == one_shot_codes(
            stream, CFG, other(engine)
        )


def test_stream_decoder_matches_iter_decode():
    rng = random.Random(7)
    stream = TernaryVector.random(900, x_density=0.3, rng=rng)
    result = compress(stream, CFG)
    dec = StreamDecoder(CFG)
    pushed = []
    for code in result.compressed.codes:
        pushed.extend(dec.push(code))
    expected = []
    for _index, chars in iter_decode(result.compressed.codes, CFG):
        expected.extend(chars)
    assert pushed == expected


def test_stream_decoder_snapshot_equals_derived():
    rng = random.Random(8)
    stream = TernaryVector.random(600, x_density=0.2, rng=rng)
    codes = compress(stream, CFG).compressed.codes
    dec = StreamDecoder(CFG)
    for code in codes:
        dec.push(code)
    derived = derive_final_snapshot(codes, CFG)
    assert dec.snapshot().digest == derived.digest


def test_resume_from_boundary_is_byte_identical():
    """The crash-resume contract: seed+link from a code boundary, then
    refeed the remaining bits — the continuation emits exactly the codes
    the uninterrupted encode would have."""
    rng = random.Random(9)
    stream = TernaryVector.random(800, x_density=0.3, rng=rng)
    full = stream_codes(stream, CFG, 64)

    # Split the *code* sequence at an arbitrary prefix, derive the
    # boundary dictionary + link, and count the bits that prefix covers.
    cut = len(full) // 2
    prefix_codes = full[:cut]
    dec = StreamDecoder(CFG)
    chars = []
    for code in prefix_codes:
        chars.extend(dec.push(code))
    consumed_bits = len(chars) * CFG.char_bits
    snapshot = dec.snapshot()

    resumed = StreamEncoder(CFG, seed=snapshot, link=prefix_codes[-1])
    tail_codes = []
    remaining = stream[consumed_bits:]
    for i in range(0, len(remaining), 50):
        tail_codes.extend(resumed.feed(remaining[i : i + 50]))
    tail_codes.extend(resumed.finalize())
    assert prefix_codes + tail_codes == full


def test_encoder_retention_is_bounded():
    """Deterministic memory-flatness proxy: the encoder's retained
    character buffer must stay bounded by the longest dictionary entry
    plus the lookahead window plus one chunk, and every matcher cache by
    CACHE_LIMIT, however long the input grows — under both engines (the
    RSS assertion under setrlimit lives in the CI smoke)."""
    for engine in ENGINES:
        config = LZWConfig(char_bits=4, dict_size=64, entry_bits=32,
                           policy="lookahead", lookahead=4)
        with on(engine):
            enc = StreamEncoder(config)
        rng = random.Random(10)
        chunk_chars = 32
        bound = config.max_entry_chars + config.lookahead + chunk_chars + 2
        high_water = 0
        cache_high_water = 0
        for _ in range(200):
            enc.feed(TernaryVector.random(
                chunk_chars * config.char_bits, x_density=0.3, rng=rng
            ))
            high_water = max(high_water, enc.buffered_chars)
            cache_high_water = max(
                cache_high_water, *enc.cache_sizes().values(), 0
            )
        assert high_water <= bound, (engine, high_water, bound)
        assert cache_high_water <= CACHE_LIMIT, (engine, cache_high_water)


def test_cache_cap_never_changes_output(monkeypatch):
    """The matcher's caches are pure: clearing them at a tiny cap keeps
    every cache under it and leaves the codes byte-identical."""
    rng = random.Random(11)
    stream = TernaryVector.random(6000, x_density=0.5, rng=rng)
    config = LZWConfig(char_bits=4, dict_size=256, entry_bits=32)
    uncapped = stream_codes(stream, config, 64, "fast")
    monkeypatch.setattr(fastpath, "CACHE_LIMIT", 16)
    enc = StreamEncoder(config)
    codes = []
    high_water = {}
    for i in range(0, len(stream), 64):
        codes.extend(enc.feed(stream[i : i + 64]))
        for name, size in enc.cache_sizes().items():
            high_water[name] = max(high_water.get(name, 0), size)
    codes.extend(enc.finalize())
    assert codes == uncapped
    assert high_water and max(high_water.values()) <= 16, high_water
    assert high_water["decision_memo"] == 16  # the cap was reached


def test_cache_cap_with_in_place_growth_at_paper_config(monkeypatch):
    """At the paper config a cap of 32 clears the node candidate caches
    between the in-place appends that extend their tuples; the codes
    still equal the uncapped run and the oracle.  (Small nodes decide
    without the candidate caches, so they fill slowly: a cap of 64
    clears them only four times on this input.)"""
    stream = build_testset("s9234f", scale=0.3, seed=1).to_stream()
    config = LZWConfig()
    uncapped = stream_codes(stream, config, 512, "fast")
    assert uncapped == one_shot_codes(stream, config, "reference")
    monkeypatch.setattr(fastpath, "CACHE_LIMIT", 32)
    enc = StreamEncoder(config)
    codes = []
    cached = [0]
    for i in range(0, len(stream), 512):
        codes.extend(enc.feed(stream[i : i + 512]))
        sizes = enc.cache_sizes()
        assert max(sizes.values()) <= 32, sizes
        cached.append(sizes["candidates"])
    codes.extend(enc.finalize())
    assert codes == uncapped
    # Only a cap clear shrinks the node caches: it fired many times.
    assert sum(b < a for a, b in zip(cached, cached[1:])) >= 5, cached


# ----------------------------------------------------------------------
# Engine selection: reference_engine() reaches every encode path
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine,expect_calls", [("fast", False),
                                                 ("reference", True)])
def test_engine_picks_the_streaming_matcher(monkeypatch, engine, expect_calls):
    """Inside ``reference_engine()`` a one-shot ``compress``, a
    ``workers=1`` batch and a chunked ``StreamEncoder`` each take their
    decisions from the oracle; outside it none of them does."""
    stream = TernaryVector("0110X01X" * 40)

    def batch_container(on_engine):
        with on(on_engine):
            return compress_batch(CFG, [stream], workers=1)[0].container

    paths = {
        "compress": (lambda: one_shot_codes(stream, CFG, engine),
                     one_shot_codes(stream, CFG, other(engine))),
        "batch": (lambda: batch_container(engine),
                  batch_container(other(engine))),
        "stream": (lambda: stream_codes(stream, CFG, 7, engine),
                   one_shot_codes(stream, CFG, other(engine))),
    }
    calls = []
    original = ChildSelector.choose_child

    def counting(self, *args):
        calls.append(args[0])
        return original(self, *args)

    monkeypatch.setattr(ChildSelector, "choose_child", counting)
    for path, (run, expected) in paths.items():
        calls.clear()
        assert run() == expected, path
        assert bool(calls) == expect_calls, path
    assert stream_module._new_matcher is fastpath.packed_matcher


def test_reference_engine_restores_the_packed_matcher_on_error():
    with pytest.raises(RuntimeError):
        with reference_engine():
            assert stream_module._new_matcher is not fastpath.packed_matcher
            raise RuntimeError("boom")
    assert stream_module._new_matcher is fastpath.packed_matcher


# ----------------------------------------------------------------------
# Long streams that cycle the dictionary through full/reset many times
# ----------------------------------------------------------------------


def _random_chunks(stream, rng, one_bit_share):
    """Split ``stream`` at random points, ``one_bit_share`` of them 1 bit."""
    out = []
    pos = 0
    while pos < len(stream):
        size = 1 if rng.random() < one_bit_share else rng.randrange(1, 200)
        out.append(stream[pos : pos + size])
        pos += size
    return out


@pytest.mark.parametrize("engine", ENGINES)
def test_reset_cycling_long_stream(engine):
    """A cube stream that fills and flushes a small dictionary >= 50
    times: streamed codes equal one-shot under any chunking, the decode
    matches the cycle-accurate hardware model, and the decoder's final
    dictionary equals the encoder's."""
    config = LZWConfig(char_bits=3, dict_size=16, entry_bits=9,
                       reset_on_full=True)
    stream = build_testset("s9234f", scale=0.2).to_stream()
    rng = random.Random(12)

    expected = one_shot_codes(stream, config, other(engine))
    for one_bit_share in (1.0, 0.3, 0.05):
        rec = CounterRecorder()
        with on(engine):
            enc = StreamEncoder(config, recorder=rec)
        codes = []
        for chunk in _random_chunks(stream, rng, one_bit_share):
            codes.extend(enc.feed(chunk))
        codes.extend(enc.finalize())
        assert codes == expected, one_bit_share
        assert rec.counters[ev.DICT_RESETS] >= 50, rec.counters

    dec = StreamDecoder(config)
    chars = []
    for code in codes:
        chars.extend(dec.push(code))
    decoded = chars_to_vector(tuple(chars), config.char_bits)[: len(stream)]
    bits = compress(stream, config).compressed.to_bits()
    hardware = DecompressorModel(config).run(bits, len(stream))
    assert decoded == hardware.scan_stream
    assert decoded.covers(stream)
    assert dec.snapshot() == enc.dictionary.snapshot()


# ----------------------------------------------------------------------
# Error parity: one decode loop, one diagnosis
# ----------------------------------------------------------------------

_DIAGNOSTICS = ("code_index", "code", "dict_next_code", "bit_offset",
                "chars_decoded")
#: Large enough that the dictionary never fills, so the top code is
#: always past the next free one.
ERR_CFG = LZWConfig(char_bits=4, dict_size=1024, entry_bits=32)


def _segment(kind):
    """``(codes, seed, link)`` of a cold, seeded or linked segment."""
    rng = random.Random(13)
    stream = TernaryVector.random(1200, x_density=0.3, rng=rng)
    codes = list(compress(stream, ERR_CFG).compressed.codes)
    if kind == "cold":
        return codes, None, None
    cut = len(codes) // 3
    seed = derive_final_snapshot(codes[:cut], ERR_CFG)
    return codes[cut:], seed, codes[cut - 1] if kind == "linked" else None


def _diagnosis(decode):
    with pytest.raises(DecodeError) as info:
        decode()
    return {key: info.value.diagnostics.get(key) for key in _DIAGNOSTICS}


def _push_all(codes, seed, link):
    dec = StreamDecoder(ERR_CFG, seed=seed, link=link)
    for code in codes:
        dec.push(code)


@pytest.mark.parametrize("kind", ["cold", "seeded", "linked"])
@pytest.mark.parametrize("where", ["first", "middle"])
def test_decode_errors_agree_across_entry_points(kind, where):
    codes, seed, link = _segment(kind)
    bad = list(codes)
    index = 0 if where == "first" else len(codes) // 2
    bad[index] = ERR_CFG.dict_size - 1  # past the next free code at both points
    diagnoses = [
        _diagnosis(lambda: list(iter_decode(bad, ERR_CFG, seed=seed, link=link))),
        _diagnosis(lambda: _push_all(bad, seed, link)),
        _diagnosis(lambda: derive_final_snapshot(bad, ERR_CFG, seed=seed, link=link)),
    ]
    assert diagnoses[0] == diagnoses[1] == diagnoses[2]
    assert diagnoses[0]["code_index"] == index
    assert diagnoses[0]["bit_offset"] == index * ERR_CFG.code_bits
