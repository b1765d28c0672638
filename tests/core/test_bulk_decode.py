"""The bulk decode loop equals a per-code decode over the encoder's trie.

:meth:`StreamDecoder.decode_into` decodes a whole code sequence over a
:class:`~repro.core.stream.CodeTable`.  :class:`PerCodeDecoder` below
is the reference it replaced: one method call per code, the state in a
full :class:`~repro.core.dictionary.LZWDictionary`, the counters
recorded per code.  For valid and corrupted code streams, cold, seeded
and linked starts, long adaptive streams that reset many times and
``C_MDATA`` at the phrase bound, both must give the same characters,
the same :class:`DecodeError` (message and every diagnostic), the same
``codes_decoded``/``chars_decoded``, the same ``decode.*`` counters and
the same snapshot bytes.

The last block pins the bit-field pair the decoder's output assembly
and the encoder's character split run on
(:func:`~repro.bitstream.packing.split_fields` /
:func:`~repro.bitstream.packing.join_fields`) against per-field shifts.
"""

import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bitstream import TernaryVector
from repro.bitstream.packing import join_fields, split_fields
from repro.core import LZWConfig, compress
from repro.core.dictionary import DictionarySnapshot, LZWDictionary
from repro.core.stream import CodeTable, StreamDecoder, chars_to_vector
from repro.observability import CounterRecorder
from repro.observability import events as ev
from repro.reliability.errors import DecodeError, SnapshotError

# ----------------------------------------------------------------------
# The per-code reference
# ----------------------------------------------------------------------


class PerCodeDecoder:
    """One code per call over an :class:`LZWDictionary`, counters per code."""

    def __init__(self, config, recorder, seed=None, link=None):
        self.config = config
        self.dictionary = LZWDictionary(config)
        self.seeded = seed is not None
        if seed is not None:
            self.dictionary.restore(seed)
        self.recorder = recorder
        self.prev = None
        self.prev_code = -1
        self.index = 0
        self.chars_decoded = 0
        if link is not None:
            if not 0 <= link < self.dictionary.next_code:
                raise self.error(
                    f"seed link {link} is not a live code in the seeded "
                    f"dictionary (next free {self.dictionary.next_code})",
                    link,
                )
            self.prev = self.dictionary.string(link)
            self.prev_code = link

    def error(self, message, code):
        return DecodeError(
            message,
            code_index=self.index,
            code=code,
            bit_offset=self.index * self.config.code_bits,
            dict_next_code=self.dictionary.next_code,
            chars_decoded=self.chars_decoded,
        )

    def push(self, code):
        rec = self.recorder
        dictionary = self.dictionary
        next_code = dictionary.next_code
        prev = self.prev
        if prev is None:
            if not 0 <= code < next_code:
                raise self.error(
                    f"first code {code} not in seeded dictionary "
                    f"(next free {next_code})"
                    if self.seeded
                    else f"first code {code} must be a base code (< {next_code})",
                    code,
                )
            current = dictionary.string(code)
        else:
            capacity = self.config.dict_size
            will_add = (
                next_code < capacity and len(prev) < self.config.max_entry_chars
            )
            if will_add and next_code == capacity - 1 and self.config.reset_on_full:
                dictionary.reset()
                will_add = False
                next_code = dictionary.next_code
                rec.incr(ev.DECODE_RESETS)
            if 0 <= code < next_code:
                current = dictionary.string(code)
            elif (
                code == next_code
                and will_add
                and dictionary.lookup_child(self.prev_code, prev[0]) is None
            ):
                current = prev + (prev[0],)
            else:
                raise self.error(
                    f"code {code} not yet in dictionary (next free {next_code})",
                    code,
                )
            if will_add and dictionary.add(self.prev_code, current[0]) is not None:
                rec.incr(ev.DECODE_DICT_ENTRIES)
        rec.incr(ev.DECODE_CODES)
        rec.incr(ev.DECODE_CHARS, len(current))
        self.prev = current
        self.prev_code = code
        self.index += 1
        self.chars_decoded += len(current)
        return current


def _error_fields(exc):
    if exc is None:
        return None
    return type(exc), exc.message, exc.diagnostics


def _reference(config, codes, seed=None, link=None):
    rec = CounterRecorder()
    error = None
    chars = []
    try:
        decoder = PerCodeDecoder(config, rec, seed=seed, link=link)
    except DecodeError as exc:  # a link that is not a live code
        return {"error": _error_fields(exc)}
    try:
        for code in codes:
            chars.extend(decoder.push(code))
    except DecodeError as exc:
        error = exc
    return {
        "chars": chars,
        "error": _error_fields(error),
        "codes_decoded": decoder.index,
        "chars_decoded": decoder.chars_decoded,
        "counters": rec.counters,
        "snapshot": decoder.dictionary.snapshot().to_bytes(),
    }


def _bulk(config, codes, seed=None, link=None, cuts=()):
    """Decode through ``decode_into``, one call per piece between ``cuts``."""
    rec = CounterRecorder()
    try:
        decoder = StreamDecoder(config, rec, seed=seed, link=link)
    except DecodeError as exc:
        return {"error": _error_fields(exc)}
    chars = []
    error = None
    bounds = [0, *sorted(cuts), len(codes)]
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            decoder.decode_into(codes[lo:hi], chars)
    except DecodeError as exc:
        error = exc
    return {
        "chars": chars,
        "error": _error_fields(error),
        "codes_decoded": decoder.codes_decoded,
        "chars_decoded": decoder.chars_decoded,
        "counters": rec.counters,
        "snapshot": decoder.snapshot().to_bytes(),
    }


def assert_bulk_equals_per_code(config, codes, seed=None, link=None, cuts=()):
    expected = _reference(config, codes, seed, link)
    assert _bulk(config, codes, seed, link) == expected
    if cuts:
        assert _bulk(config, codes, seed, link, cuts) == expected
    return expected


# ----------------------------------------------------------------------
# Hypothesis: valid and corrupted streams, cold / seeded / linked
# ----------------------------------------------------------------------

@st.composite
def configs(draw):
    char_bits = draw(st.integers(min_value=1, max_value=4))
    return LZWConfig(
        char_bits=char_bits,
        dict_size=draw(st.sampled_from([8, 16, 32, 64])) << (char_bits > 2),
        # From one character per entry up to well past the phrase bound.
        entry_bits=char_bits * draw(st.integers(min_value=1, max_value=8)),
        reset_on_full=draw(st.booleans()),
    )


@st.composite
def cases(draw):
    config = draw(configs())
    bits = draw(st.integers(min_value=1, max_value=300))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    x_density = draw(st.sampled_from([0, 0.5]))
    stream = TernaryVector.random(bits, x_density=x_density, rng=rng)
    codes = list(compress(stream, config).compressed.codes)
    corruption = draw(st.sampled_from(["none", "replace", "append", "truncate"]))
    if corruption == "replace":
        codes[draw(st.integers(0, len(codes) - 1))] = draw(
            st.integers(-2, config.dict_size + 2)
        )
    elif corruption == "append":
        codes += draw(st.lists(st.integers(0, config.dict_size), max_size=6))
    elif corruption == "truncate":
        codes = codes[: draw(st.integers(0, len(codes)))]
    start = draw(st.sampled_from(["cold", "seeded", "linked"]))
    seed = link = None
    if start != "cold" and len(codes) >= 2:
        cut = draw(st.integers(1, len(codes) - 1))
        try:
            seed = _reference_seed(config, codes[:cut])
        except DecodeError:
            seed = None
        else:
            link = codes[cut - 1] if start == "linked" else None
            codes = codes[cut:]
    cuts = draw(st.lists(st.integers(0, len(codes)), max_size=4))
    return config, codes, seed, link, cuts


def _reference_seed(config, codes):
    decoder = PerCodeDecoder(config, CounterRecorder())
    for code in codes:
        decoder.push(code)
    return decoder.dictionary.snapshot()


@given(case=cases())
@settings(max_examples=300, deadline=None)
def test_bulk_equals_per_code_on_random_streams(case):
    config, codes, seed, link, cuts = case
    assert_bulk_equals_per_code(config, codes, seed, link, cuts)


@given(case=cases())
@settings(max_examples=100, deadline=None)
def test_push_equals_per_code(case):
    config, codes, seed, link, _cuts = case
    expected = _reference(config, codes, seed, link)
    rec = CounterRecorder()
    decoder = StreamDecoder(config, rec, seed=seed, link=link)  # a live link
    chars, error = [], None
    try:
        for code in codes:
            chars.extend(decoder.push(code))
    except DecodeError as exc:
        error = exc
    assert chars == expected["chars"]
    assert _error_fields(error) == expected["error"]
    assert decoder.codes_decoded == expected["codes_decoded"]
    assert rec.counters == expected["counters"]
    assert decoder.snapshot().to_bytes() == expected["snapshot"]


# ----------------------------------------------------------------------
# Exhaustive small cases: every code sequence up to length 5
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "config",
    [
        LZWConfig(char_bits=1, dict_size=6, entry_bits=3),
        LZWConfig(char_bits=1, dict_size=6, entry_bits=2),  # C_MDATA = 2 chars
        LZWConfig(char_bits=1, dict_size=5, entry_bits=8, reset_on_full=True),
    ],
    ids=["frozen", "phrase-bound", "adaptive"],
)
def test_every_short_sequence(config):
    outcomes = set()
    for length in range(1, 6):
        for codes in itertools.product(range(-1, config.dict_size + 1), repeat=length):
            result = assert_bulk_equals_per_code(config, list(codes))
            outcomes.add(result["error"] is None)
    assert outcomes == {True, False}


def test_every_short_sequence_after_a_link():
    config = LZWConfig(char_bits=1, dict_size=8, entry_bits=4)
    seed = _reference_seed(config, [0, 1, 2])
    for length in range(1, 4):
        for codes in itertools.product(range(config.dict_size), repeat=length):
            for link in range(-1, 6):  # 4 and up are not live
                assert_bulk_equals_per_code(config, list(codes), seed, link)


# ----------------------------------------------------------------------
# Long adaptive streams, the phrase bound, the paper configuration
# ----------------------------------------------------------------------


def _codes(config, bits, x_density, seed):
    stream = TernaryVector.random(bits, x_density=x_density, rng=random.Random(seed))
    return list(compress(stream, config).compressed.codes)


def test_adaptive_stream_with_many_resets():
    config = LZWConfig(char_bits=3, dict_size=16, entry_bits=12, reset_on_full=True)
    codes = _codes(config, 6000, 0.4, 7)
    result = assert_bulk_equals_per_code(config, codes, cuts=(1, 100, 999, 1000))
    assert result["error"] is None
    assert result["counters"][ev.DECODE_RESETS] >= 50
    # A code past the reset's next free code fails after the reset.
    rec = CounterRecorder()
    decoder = PerCodeDecoder(config, rec)
    for reset_at, code in enumerate(codes):
        decoder.push(code)
        if rec.counters.get(ev.DECODE_RESETS):
            break
    bad = codes[:reset_at] + [config.dict_size - 2] + codes[reset_at + 1 :]
    failed = assert_bulk_equals_per_code(config, bad)
    assert failed["error"][2]["code_index"] == reset_at
    assert failed["error"][2]["dict_next_code"] == config.base_codes


def test_phrase_bound_stream():
    config = LZWConfig(char_bits=4, dict_size=128, entry_bits=8)
    assert config.max_entry_chars == 2
    codes = _codes(config, 4000, 0.5, 11)
    result = assert_bulk_equals_per_code(config, codes, cuts=(3, 500))
    assert result["error"] is None
    decoder = StreamDecoder(config)
    decoder.decode_into(codes, [])
    assert max(len(s) for s in decoder.table.strings) == config.max_entry_chars
    assert result["counters"][ev.DECODE_DICT_ENTRIES] > 0


@pytest.mark.parametrize("start", ["cold", "seeded", "linked"])
def test_paper_config_segments(start):
    config = LZWConfig()
    codes = _codes(config, 30000, 0.7, 3)
    seed = link = None
    if start != "cold":
        cut = len(codes) // 2
        seed = _reference_seed(config, codes[:cut])
        link = codes[cut - 1] if start == "linked" else None
        codes = codes[cut:]
    result = assert_bulk_equals_per_code(config, codes, seed, link, cuts=(17,))
    assert result["error"] is None
    bad = list(codes)
    bad[len(bad) // 2] = config.dict_size + 5
    assert assert_bulk_equals_per_code(config, bad, seed, link)["error"] is not None


# ----------------------------------------------------------------------
# Seeds that cannot be replayed fail as LZWDictionary.restore does
# ----------------------------------------------------------------------

SEED_CONFIG = LZWConfig(char_bits=2, dict_size=8, entry_bits=4)


@pytest.mark.parametrize(
    "entries",
    [
        ((0, 1), (0, 1)),  # duplicate child
        ((0, 1), (4, 2)),  # wider than C_MDATA (three characters)
        ((0, 1), (6, 2)),  # parent is not an earlier code
        ((0, 4),),  # character out of range
        ((0, 1), (1, 1), (2, 1), (3, 1), (0, 2)),  # past capacity
    ],
    ids=["duplicate", "width", "parent", "char", "capacity"],
)
def test_unreplayable_seed_fails_like_restore(entries):
    seed = DictionarySnapshot(2, 8, 4, entries)
    with pytest.raises(SnapshotError) as expected:
        LZWDictionary(SEED_CONFIG).restore(seed)
    with pytest.raises(SnapshotError) as actual:
        StreamDecoder(SEED_CONFIG, seed=seed)
    assert _error_fields(actual.value) == _error_fields(expected.value)


def test_seed_under_another_config_fails_like_restore():
    seed = DictionarySnapshot(2, 16, 4, ())
    with pytest.raises(SnapshotError) as expected:
        LZWDictionary(SEED_CONFIG).restore(seed)
    with pytest.raises(SnapshotError) as actual:
        CodeTable(SEED_CONFIG, seed)
    assert _error_fields(actual.value) == _error_fields(expected.value)


# ----------------------------------------------------------------------
# Split / assembly round trips
# ----------------------------------------------------------------------


def _split_by_shifts(mask, count, width):
    return [(mask >> (j * width)) & ((1 << width) - 1) for j in range(count)]


def _join_by_shifts(fields, width):
    value = 0
    for j, field in enumerate(fields):
        value |= field << (j * width)
    return value


@pytest.mark.parametrize("width", range(1, 17))
@pytest.mark.parametrize("count", [0, 1, 255, 256, 257])
def test_split_join_round_trip(width, count):
    rng = random.Random(width * 1000 + count)
    fields = [rng.getrandbits(width) for _ in range(count)]
    mask = _join_by_shifts(fields, width)
    assert join_fields(fields, width) == mask
    assert join_fields(tuple(fields), width) == mask
    # Bits above the last field are not part of any field.
    noisy = mask | rng.getrandbits(64) << (count * width)
    assert split_fields(noisy, count, width) == fields
    assert split_fields(mask, count, width) == _split_by_shifts(mask, count, width)
    vector = chars_to_vector(fields, width)
    assert len(vector) == count * width
    assert vector.value_mask == mask and vector.care_count == count * width


@given(
    width=st.integers(min_value=1, max_value=16),
    count=st.integers(min_value=0, max_value=700),
    salt=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=150, deadline=None)
def test_split_join_random(width, count, salt):
    mask = random.Random(salt).getrandbits(count * width + 17)
    fields = split_fields(mask, count, width)
    assert fields == _split_by_shifts(mask, count, width)
    assert join_fields(fields, width) == mask & ((1 << count * width) - 1)


def test_field_width_out_of_range():
    with pytest.raises(ValueError):
        split_fields(0, 1, 17)
    with pytest.raises(ValueError):
        join_fields([0], 0)
