"""TernaryVector text and per-position conversions against per-bit oracles.

The vector converts to and from 0/1/X text with C-level string and
big-integer operations, and iterates and fills by walking digit
strings.  The oracles below are the straightforward per-position
versions — one ``1 << i`` test or update per position — and every
conversion must agree with them exactly: same masks, same text, same
iteration, same fills (one ``rng.random()`` draw per position, in
ascending order) and the same error naming the first bad character.
"""

import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bitstream import TernaryVector, X
from repro.reliability.errors import TestFileError
from repro.testfile import parse_test_text

_CHAR_TO_BIT = {"0": 0, "1": 1, "x": X, "X": X, "-": X}
_BIT_TO_CHAR = {0: "0", 1: "1", X: "X"}


# -- per-bit oracles -------------------------------------------------------


def oracle_parse(text):
    """(value, care, length) of ``text``, one position at a time."""
    value = care = 0
    for i, ch in enumerate(text):
        try:
            bit = _CHAR_TO_BIT[ch]
        except KeyError:
            raise ValueError(f"invalid ternary character {ch!r}") from None
        if bit is not X:
            care |= 1 << i
            if bit:
                value |= 1 << i
    return value, care, len(text)


def oracle_bits(v):
    out = []
    for i in range(len(v)):
        bit = 1 << i
        if v.care_mask & bit:
            out.append(1 if v.value_mask & bit else 0)
        else:
            out.append(X)
    return out


def oracle_str(v):
    return "".join(_BIT_TO_CHAR[b] for b in oracle_bits(v))


def oracle_fill_repeat_last(v, initial):
    out, last = 0, initial
    for i in range(len(v)):
        bit = 1 << i
        if v.care_mask & bit:
            last = 1 if v.value_mask & bit else 0
        if last:
            out |= bit
    return out


def oracle_fill_random(v, rng):
    value = v.value_mask
    for i in range(len(v)):
        bit = 1 << i
        if not v.care_mask & bit and rng.random() < 0.5:
            value |= bit
    return value


def oracle_random(length, x_density, rng):
    value = care = 0
    for i in range(length):
        if rng.random() >= x_density:
            care |= 1 << i
            if rng.random() < 0.5:
                value |= 1 << i
    return value, care


def masks(v):
    return v.value_mask, v.care_mask, len(v)


# -- inputs ----------------------------------------------------------------


@st.composite
def ternary_text(draw):
    """0/1/X text (all three X aliases) of length 0-300, X density 0-1."""
    length = draw(st.integers(min_value=0, max_value=300))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return "".join(
        rng.choice("xX-") if rng.random() < density else rng.choice("01")
        for _ in range(length)
    )


def _check(text, seed=0):
    v = TernaryVector(text)
    assert masks(v) == oracle_parse(text)
    assert str(v) == oracle_str(v)
    assert list(v) == oracle_bits(v)
    assert TernaryVector(list(v)) == v
    for initial in (0, 1):
        filled = v.fill_repeat_last(initial)
        assert filled.value_mask == oracle_fill_repeat_last(v, initial)
        assert filled.is_fully_specified
    filled = v.fill_random(random.Random(seed))
    assert filled.value_mask == oracle_fill_random(v, random.Random(seed))
    assert filled.is_fully_specified


@settings(max_examples=300, deadline=None)
@given(text=ternary_text(), seed=st.integers(min_value=0, max_value=2**16))
def test_conversions_match_oracle(text, seed):
    _check(text, seed)


def test_every_short_string_matches_oracle():
    for length in range(6):
        for chars in itertools.product("01xX-", repeat=length):
            _check("".join(chars))


@settings(max_examples=100, deadline=None)
@given(
    length=st.integers(min_value=0, max_value=300),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_draws_match_oracle(length, density, seed):
    v = TernaryVector.random(length, density, random.Random(seed))
    assert (v.value_mask, v.care_mask) == oracle_random(
        length, density, random.Random(seed)
    )


@settings(max_examples=100, deadline=None)
@given(parts=st.lists(ternary_text().map(TernaryVector), max_size=40),
       width=st.integers(min_value=1, max_value=70))
def test_concat_and_chunks_match_text(parts, width):
    joined = TernaryVector.concat_all(parts)
    text = "".join(oracle_str(p) for p in parts)
    assert oracle_str(joined) == text
    chunks = joined.chunks(width)
    assert [oracle_str(c) for c in chunks] == [
        text[i : i + width] for i in range(0, len(text), width)
    ]


@pytest.mark.parametrize(
    "text, bad",
    [("01 a", " "), ("0é1", "é"), ("01\tX", "\t"), ("1x_", "_"),
     ("0b1", "b"), ("+1", "+"), ("a é", "a")],
)
def test_invalid_text_names_first_bad_character(text, bad):
    with pytest.raises(ValueError) as new:
        TernaryVector(text)
    with pytest.raises(ValueError) as old:
        oracle_parse(text)
    assert str(new.value) == str(old.value) == f"invalid ternary character {bad!r}"


def test_parse_test_text_keeps_line_numbered_errors():
    with pytest.raises(TestFileError) as err:
        parse_test_text("# header\n01X\n\n0a1\n", name="cubes")
    assert err.value.line == 4
    assert str(err.value).startswith("cubes:4: invalid ternary character 'a'")
    with pytest.raises(TestFileError, match="cubes:2: invalid ternary character 'é'"):
        parse_test_text("01X\n0é1\n", name="cubes")


def test_mebibit_vector_round_trips():
    n = 1 << 20
    v = TernaryVector.random(n, 0.6, random.Random(11))
    text = str(v)
    assert len(text) == n
    assert TernaryVector(text) == v
    bits = list(v)
    assert bits == [_CHAR_TO_BIT[ch] for ch in text]
    assert TernaryVector(bits) == v
    # Linear references for the fills, walking the text once.
    last, expected = "0", []
    for ch in text:
        if ch != "X":
            last = ch
        expected.append(last)
    assert str(v.fill_repeat_last()) == "".join(expected)
    rng = random.Random(3)
    expected = [
        ("1" if rng.random() < 0.5 else "0") if ch == "X" else ch for ch in text
    ]
    assert str(v.fill_random(random.Random(3))) == "".join(expected)
