"""Seeded-state conformance: warm-dictionary encode/decode vs serial.

The warm-dictionary sharding design rests on one invariant: a
dictionary snapshot plus a link code fully determine the encoder's
future.  Concretely, for any stream and any split point ``k`` of its
serial code sequence, encoding the stream suffix from
``derive_final_snapshot(codes[:k])`` with ``link=codes[k-1]`` must emit
**exactly** ``codes[k:]`` — byte-identical, on both engines (the
packed matcher, ``"fast"``, and the oracle inside ``reference_engine()``,
``"reference"``) — and
the seeded decoder must reproduce exactly the characters the serial
decode produces past the split.  Anything less silently corrupts a
pipelined-wave shard plan.

These tests lock that contract with Hypothesis properties (every split
point of every generated example) and with exhaustive enumeration of
all ternary strings up to 6 characters under tight-dictionary and
reset-on-full configurations, where resets, KwKwK codes and capacity
edges all land within reach.
"""

import itertools
from contextlib import nullcontext

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bitstream import TernaryVector
from repro.core import (
    DictionarySnapshot,
    LZWConfig,
    LZWDictionary,
    LZWEncoder,
    decode,
    decode_codes,
    derive_final_snapshot,
)
from repro.core.dontcare import reference_engine
from repro.reliability.errors import SnapshotError

# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def on(engine):
    """Encoders built in this block decide on ``engine``."""
    return reference_engine() if engine == "reference" else nullcontext()


def _encode(config, stream, engine, seed=None, link=None):
    with on(engine):
        encoder = LZWEncoder(config, seed=seed, link=link)
    return encoder.encode(stream)


def assert_split_identity(config, stream, engine):
    """Seeded continuation == uninterrupted serial, at every split point."""
    serial = _encode(config, stream, engine)
    codes, exps = serial.codes, serial.expansion_chars
    serial_chars = decode_codes(codes, config)
    for k in range(1, len(codes)):
        chars_before = sum(exps[:k])
        bit_pos = chars_before * config.char_bits
        seed = derive_final_snapshot(codes[:k], config)
        link = codes[k - 1]

        # Snapshot -> serialized bytes -> restore must be lossless.
        restored = DictionarySnapshot.from_bytes(seed.to_bytes())
        assert restored == seed
        assert restored.digest == seed.digest

        tail = _encode(config, stream[bit_pos:], engine, seed=seed, link=link)
        assert tail.codes == codes[k:], (
            f"seeded encode diverged at split {k} (engine={engine})"
        )
        assert tail.expansion_chars == exps[k:]

        # The seeded decoder must agree with the serial decode's tail.
        tail_chars = decode_codes(codes[k:], config, seed=seed, link=link)
        assert tail_chars == serial_chars[chars_before:]

        # Chain composition: the suffix's final state derived through
        # (seed, link) equals the serial stream's final state.
        assert derive_final_snapshot(
            codes[k:], config, seed=seed, link=link
        ) == derive_final_snapshot(codes, config)
    return serial


# ----------------------------------------------------------------------
# Hypothesis properties: random streams x random configs, both engines
# ----------------------------------------------------------------------

ternary_streams = st.text(alphabet="01X", min_size=1, max_size=220).map(
    TernaryVector
)

@st.composite
def _configs(draw):
    # Draw char_bits first so dict_size/entry_bits can stay valid by
    # construction (the dataclass validates in __post_init__).
    char_bits = draw(st.integers(min_value=1, max_value=4))
    base = 1 << char_bits
    dict_size = draw(st.sampled_from([base + 2, base * 2, base * 4, 64]))
    entry_bits = draw(st.integers(min_value=2 * char_bits, max_value=24))
    return LZWConfig(
        char_bits=char_bits,
        dict_size=dict_size,
        entry_bits=entry_bits,
        policy=draw(st.sampled_from(["first", "popular", "lookahead"])),
        lookahead=draw(st.integers(min_value=1, max_value=4)),
        lookahead_budget=draw(st.sampled_from([1, 3, 8, 64])),
        reset_on_full=draw(st.booleans()),
    )


configs = _configs()


@given(stream=ternary_streams, config=configs)
@settings(max_examples=200, deadline=None)
def test_seeded_encode_identity_reference(stream, config):
    """Reference engine: snapshot→restore→encode == serial (>=200 runs)."""
    assert_split_identity(config, stream, "reference")


@given(stream=ternary_streams, config=configs)
@settings(max_examples=200, deadline=None)
def test_seeded_encode_identity_fast(stream, config):
    """Fast engine: snapshot→restore→encode == serial (>=200 runs)."""
    assert_split_identity(config, stream, "fast")


@given(stream=ternary_streams, config=configs)
@settings(max_examples=200, deadline=None)
def test_seeded_engines_agree(stream, config):
    """Both engines seeded from the same snapshot emit identical bytes."""
    serial = _encode(config, stream, "reference")
    codes, exps = serial.codes, serial.expansion_chars
    for k in range(1, len(codes)):
        bit_pos = sum(exps[:k]) * config.char_bits
        seed = derive_final_snapshot(codes[:k], config)
        link = codes[k - 1]
        ref = _encode(config, stream[bit_pos:], "reference", seed=seed, link=link)
        fast = _encode(config, stream[bit_pos:], "fast", seed=seed, link=link)
        assert fast.codes == ref.codes
        assert fast.expansion_chars == ref.expansion_chars


@given(stream=ternary_streams, config=configs)
@settings(max_examples=100, deadline=None)
def test_snapshot_roundtrip_and_replay(stream, config):
    """to_bytes/from_bytes/restore reproduce the live dictionary exactly."""
    with reference_engine():
        encoder = LZWEncoder(config)
    encoder.encode(stream)
    snap = encoder.dictionary.snapshot()
    wire = snap.to_bytes()
    parsed = DictionarySnapshot.from_bytes(wire)
    assert parsed == snap
    restored = LZWDictionary(config)
    restored.restore(parsed)
    original = encoder.dictionary
    assert restored._parent == original._parent
    assert restored._char == original._char
    assert restored._nchars == original._nchars
    assert restored._weight == original._weight
    assert restored._strings == original._strings
    # Children *insertion order* and the active-base insertion history
    # are part of the byte-identity contract, not just membership.
    assert [list(c.items()) for c in restored._children] == [
        list(c.items()) for c in original._children
    ]
    assert list(restored._active_bases) == list(original._active_bases)
    # The decoder-facing view matches the trie's allocated strings.
    n_base = config.base_codes
    assert parsed.strings() == original._strings[n_base:]


# ----------------------------------------------------------------------
# Exhaustive enumeration: every ternary string <= 6 chars, tight dicts
# ----------------------------------------------------------------------

#: Tiny capacities so resets, KwKwK and full-dictionary edges are all
#: reachable within six characters.
TIGHT_CONFIGS = {
    "tight": LZWConfig(char_bits=1, dict_size=4, entry_bits=4, lookahead=3),
    "tight-reset": LZWConfig(
        char_bits=1, dict_size=4, entry_bits=4, lookahead=3, reset_on_full=True
    ),
    "narrow-entry-reset": LZWConfig(
        char_bits=1, dict_size=8, entry_bits=2, reset_on_full=True
    ),
}


@pytest.mark.parametrize("config_name", sorted(TIGHT_CONFIGS))
@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_exhaustive_ternary_strings(config_name, engine):
    """All 1092 ternary strings of length 1..6, every split point."""
    config = TIGHT_CONFIGS[config_name]
    for length in range(1, 7):
        for symbols in itertools.product("01X", repeat=length):
            assert_split_identity(config, TernaryVector("".join(symbols)), engine)


# ----------------------------------------------------------------------
# Forced shard cuts: pipelined-wave boundaries land mid-match
# ----------------------------------------------------------------------


def assert_forced_cut_roundtrip(config, stream, cut_chars, engine):
    """Chained continuation across an arbitrary character cut round-trips.

    Unlike ``assert_split_identity`` — which splits at *serial phrase
    boundaries* — a shard plan cuts the stream at arbitrary character
    positions, forcing the prefix encoder to end its final phrase
    mid-match.  The boundary pair ``(link, head)`` can then already be
    a dictionary child, which the encoders' ``add`` silently dedups;
    the seeded decoder and ``derive_final_snapshot`` must mirror that
    skip exactly or the dictionaries diverge one code later.
    """
    bit_pos = cut_chars * config.char_bits
    if not 0 < bit_pos < len(stream):
        return
    head_part, tail_part = stream[:bit_pos], stream[bit_pos:]
    with on(engine):
        enc0 = LZWEncoder(config)
    c0 = enc0.encode(head_part)
    seed = enc0.dictionary.snapshot()
    link = c0.codes[-1]
    # The derived chain seed equals the prefix encoder's live state.
    assert derive_final_snapshot(c0.codes, config) == seed

    with on(engine):
        enc1 = LZWEncoder(config, seed=seed, link=link)
    c1 = enc1.encode(tail_part)
    # Seeded decode reproduces the suffix (bit count and all cared bits).
    decoded = decode(c1, seed=seed, link=link)
    assert len(decoded) == len(tail_part)
    assert decoded.covers(tail_part)
    # Decoder-side dictionary evolution matches the encoder's exactly.
    assert (
        derive_final_snapshot(c1.codes, config, seed=seed, link=link)
        == enc1.dictionary.snapshot()
    )
    return c1


def test_duplicate_boundary_pair_regression():
    """A cut mid-match makes ``(link, head)`` an *existing* child.

    Minimal deterministic case: all-zero bits under ``char_bits=1``.
    The prefix ``00000`` encodes as ``[0, 2, 2]`` — the final phrase
    ``00`` matched entry 2 and was cut short by the shard boundary, so
    the trie already holds child ``(2, 0)``.  The suffix's boundary
    allocation is then a dedup no-op in the encoder; a decoder that
    appends a phantom entry instead mis-expands every later code that
    lands on the shifted codes (silent corruption caught only by bit
    counts).
    """
    config = LZWConfig(char_bits=1, dict_size=8, entry_bits=4)
    stream = TernaryVector("0" * 12)
    for engine in ("reference", "fast"):
        with on(engine):
            enc0 = LZWEncoder(config)
        c0 = enc0.encode(stream[:5])
        assert c0.codes == (0, 2, 2)
        seed = enc0.dictionary.snapshot()
        link = c0.codes[-1]
        # The collision is real: (link=2, head=0) is already child 3.
        assert enc0.dictionary.lookup_child(link, 0) == 3
        c1 = assert_forced_cut_roundtrip(config, stream, 5, engine)
        assert c1 is not None


@given(
    stream=ternary_streams,
    config=configs,
    cut=st.integers(min_value=1, max_value=219),
)
@settings(max_examples=200, deadline=None)
def test_forced_cut_roundtrip_reference(stream, config, cut):
    """Reference engine: chained continuation at arbitrary cuts (>=200)."""
    assert_forced_cut_roundtrip(config, stream, cut, "reference")


@given(
    stream=ternary_streams,
    config=configs,
    cut=st.integers(min_value=1, max_value=219),
)
@settings(max_examples=200, deadline=None)
def test_forced_cut_roundtrip_fast(stream, config, cut):
    """Fast engine: chained continuation at arbitrary cuts (>=200)."""
    assert_forced_cut_roundtrip(config, stream, cut, "fast")


def test_exhaustive_forced_cuts():
    """All ternary strings <= 6 chars x every cut x tight configs."""
    for config in TIGHT_CONFIGS.values():
        for length in range(2, 7):
            for symbols in itertools.product("01X", repeat=length):
                stream = TernaryVector("".join(symbols))
                for cut in range(1, length):
                    for engine in ("reference", "fast"):
                        assert_forced_cut_roundtrip(config, stream, cut, engine)


# ----------------------------------------------------------------------
# Typed-failure edges: mismatches must never pass silently
# ----------------------------------------------------------------------


def test_snapshot_config_mismatch_is_typed():
    config = LZWConfig(char_bits=2, dict_size=16, entry_bits=8)
    encoder = LZWEncoder(config)
    encoder.encode(TernaryVector("01X0110X01"))
    snap = encoder.dictionary.snapshot()
    other = LZWConfig(char_bits=2, dict_size=32, entry_bits=8)
    with pytest.raises(SnapshotError):
        LZWEncoder(other, seed=snap)
    with pytest.raises(SnapshotError):
        decode_codes((0, 1), other, seed=snap)


def test_dead_link_is_typed():
    config = LZWConfig(char_bits=2, dict_size=16, entry_bits=8)
    with pytest.raises(SnapshotError):
        LZWEncoder(config, link=config.dict_size - 1)  # never allocated
