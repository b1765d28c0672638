"""Differential conformance: the packed matcher vs the reference oracle.

The paper's contract makes byte-identity non-negotiable: the emitted
codes *are* the X-assignment channel (no side information), so a fast
path that diverges in any tie-break silently changes the decompressed
test set.  These tests drive random and exhaustive inputs through both
engines — the packed matcher (``"fast"``) and the oracle inside
``reference_engine()`` (``"reference"``) — and assert equality of
everything observable: code sequences, container bytes, expansion
accounting, encoder stats and the metrics counter/histogram snapshots.
"""

import itertools
from contextlib import nullcontext

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bitstream import TernaryVector
from repro.core import LZWConfig, LZWEncoder
from repro.core.dontcare import reference_engine
from repro.observability import CounterRecorder

# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def on(engine):
    """Encoders built in this block decide on ``engine``."""
    return reference_engine() if engine == "reference" else nullcontext()


def _run(config, stream, engine, cancel=None):
    """Encode ``stream`` with ``engine``; return (compressed, stats, rec)."""
    rec = CounterRecorder()
    with on(engine):
        encoder = LZWEncoder(config, recorder=rec, cancel=cancel)
    compressed = encoder.encode(stream)
    return compressed, encoder.stats(), rec


def assert_engines_identical(config, stream):
    """Both engines must agree on every observable output."""
    ref, ref_stats, ref_rec = _run(config, stream, "reference")
    fast, fast_stats, fast_rec = _run(config, stream, "fast")
    assert fast.codes == ref.codes
    assert fast.expansion_chars == ref.expansion_chars
    assert fast.to_bits() == ref.to_bits()  # the container byte stream
    assert fast_stats == ref_stats
    assert fast_rec.counters == ref_rec.counters
    assert fast_rec.histograms == ref_rec.histograms
    return ref


# ----------------------------------------------------------------------
# Hypothesis properties: random streams x random configs
# ----------------------------------------------------------------------

ternary_streams = st.text(alphabet="01X", min_size=0, max_size=400).map(
    TernaryVector
)

configs = st.builds(
    LZWConfig,
    char_bits=st.integers(min_value=1, max_value=5),
    dict_size=st.sampled_from([32, 64, 256]),
    entry_bits=st.integers(min_value=5, max_value=40),
    policy=st.sampled_from(["first", "popular", "lookahead"]),
    lookahead=st.integers(min_value=1, max_value=5),
    lookahead_budget=st.sampled_from([1, 2, 3, 8, 32, 128]),
    reset_on_full=st.booleans(),
).filter(lambda c: c.dict_size >= c.base_codes and c.entry_bits >= c.char_bits)


@given(stream=ternary_streams, config=configs)
@settings(max_examples=200, deadline=None)
def test_engines_agree_on_random_streams(stream, config):
    """Codes, container bytes, stats and counters all match (>=200 runs)."""
    assert_engines_identical(config, stream)


@given(
    stream=st.text(alphabet="01X", min_size=1, max_size=200).map(TernaryVector),
    config=configs,
)
@settings(max_examples=60, deadline=None)
def test_swap_never_changes_output(stream, config):
    """An encoder built outside ``reference_engine()`` matches one built
    inside it byte-for-byte."""
    default = LZWEncoder(config).encode(stream)
    ref, _, _ = _run(config, stream, "reference")
    assert default.to_bits() == ref.to_bits()


# ----------------------------------------------------------------------
# Exhaustive small-alphabet enumeration: dict-full / reset / tie-breaks
# ----------------------------------------------------------------------

_EXHAUSTIVE_CONFIGS = [
    # Tight dictionary: hits the dict-full and C_MDATA truncation
    # boundaries within a handful of characters.
    LZWConfig(char_bits=1, dict_size=4, entry_bits=4, lookahead=3),
    # Adaptive variant: the reset trigger fires mid-enumeration.
    LZWConfig(
        char_bits=1, dict_size=8, entry_bits=6, lookahead=3, reset_on_full=True
    ),
    # Budget of 1: the lookahead search dies immediately, exercising the
    # spent-budget guards and the (weight, -code) tie-break everywhere.
    LZWConfig(
        char_bits=1, dict_size=8, entry_bits=8, lookahead=4, lookahead_budget=1
    ),
]


@pytest.mark.parametrize(
    "config", _EXHAUSTIVE_CONFIGS, ids=["tight-dict", "reset-on-full", "budget-1"]
)
def test_engines_agree_exhaustively_on_small_alphabet(config):
    """Every ternary string up to length 7 at C_C=1 — no sampling gaps."""
    for length in range(8):
        for symbols in itertools.product("01X", repeat=length):
            assert_engines_identical(config, TernaryVector("".join(symbols)))


# ----------------------------------------------------------------------
# Deadline semantics on the fast path
# ----------------------------------------------------------------------


class _CountingToken:
    """Duck-typed cancellation token: counts checks, optionally fires."""

    def __init__(self, fail_after=None):
        self.checks = 0
        self.fail_after = fail_after

    def check(self):
        self.checks += 1
        if self.fail_after is not None and self.checks > self.fail_after:
            raise TimeoutError("deadline exceeded")


def _long_stream(n_chars, char_bits=2):
    # Mixed specified/X content long enough to cross several 1024-char
    # checkpoints without ever terminating a phrase trivially.
    pattern = "01X10XX1" * ((n_chars * char_bits) // 8 + 1)
    return TernaryVector(pattern[: n_chars * char_bits])


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_live_token_cancels_within_checkpoint_budget(engine):
    """A firing token stops the encode at the *next* 1024-char check."""
    config = LZWConfig(char_bits=2, dict_size=32, entry_bits=16)
    stream = _long_stream(5000)
    token = _CountingToken(fail_after=1)  # pass the entry check only
    with pytest.raises(TimeoutError):
        _run(config, stream, engine, cancel=token)
    # Entry check + the first in-loop checkpoint (i == 1024) fired: the
    # cancellation latency never exceeds the 1024-symbol budget.
    assert token.checks == 2


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_checkpoint_cadence_is_identical(engine):
    """Both engines poll the token once per 1024 consumed characters."""
    config = LZWConfig(char_bits=2, dict_size=32, entry_bits=16)
    n_chars = 5000
    token = _CountingToken()
    _run(config, _long_stream(n_chars), engine, cancel=token)
    expected = 1 + (n_chars - 1) // 1024  # entry check + in-loop checks
    assert token.checks == expected


def test_non_firing_token_cannot_change_bytes():
    """With a token attached but silent, output is byte-identical."""
    config = LZWConfig(char_bits=2, dict_size=32, entry_bits=16)
    stream = _long_stream(3000)
    for engine in ("reference", "fast"):
        plain, _, _ = _run(config, stream, engine)
        tokened, _, _ = _run(config, stream, engine, cancel=_CountingToken())
        assert tokened.to_bits() == plain.to_bits()
        assert tokened.codes == plain.codes
