"""Small-node decisions: the packed matcher's direct scan vs the oracle.

A child decision at a node with fewer than
:data:`~repro.core.fastpath.SMALL_NODE` children scans the children
directly and enters the memo, candidate table and lookahead only when
two or more of them are compatible with the ternary character.  These
cases start the encoder from a hand-built trie whose nodes have 0–5
children, feed every ternary character after every phrase head, and
assert that the packed matcher and the oracle (``reference_engine()``)
agree on codes, stats, counters and histograms — under every policy
and at lookahead budgets of 8 and 2, with a dictionary that is already
full (a static trie) and with one that still grows.  A coverage check
proves the inputs reach each (children, compatible) case the scan
distinguishes.
"""

import itertools
from contextlib import nullcontext

import pytest

from repro.bitstream import TernaryVector
from repro.core import DictionarySnapshot, LZWConfig, LZWEncoder
from repro.core import stream as stream_module
from repro.core.dontcare import reference_engine
from repro.core.fastpath import SMALL_NODE, packed_matcher
from repro.observability import CounterRecorder

CHAR_BITS = 3

#: ``(parent, char)`` in allocation order; codes start at 8.  Base 0 has
#: no children, bases 1–5 have 1, 2, 3, 4 and 5, and grandchildren
#: below some of them give the lookahead and the weights something to
#: tell apart.
TRIE = (
    (1, 5),                                  # 8
    (2, 0), (2, 3),                          # 9, 10
    (3, 0), (3, 1), (3, 6),                  # 11, 12, 13
    (4, 0), (4, 1), (4, 2), (4, 3),          # 14 .. 17
    (5, 0), (5, 2), (5, 4), (5, 6), (5, 7),  # 18 .. 22
    (12, 2), (12, 5),                        # 23, 24
    (13, 2),                                 # 25
    (9, 7),                                  # 26
    (15, 4), (15, 5),                        # 27, 28
    (16, 4),                                 # 29
    (23, 0), (23, 1),                        # 30, 31
)

TERNARY_CHARS = [
    "".join(bits) for bits in itertools.product("01X", repeat=CHAR_BITS)
]


def head(code):
    """The fully specified stream character of base ``code`` (LSB first)."""
    return "".join(str(code >> bit & 1) for bit in range(CHAR_BITS))


def small_node_stream():
    """Every phrase head 0..5, then every ternary character, then a
    fully-X or a fixed character for the lookahead window."""
    parts = []
    for base in range(6):
        for char in TERNARY_CHARS:
            for tail in ("XXX", "010"):
                parts.append(head(base) + char + tail)
    return TernaryVector("".join(parts))


def seed_for(config):
    return DictionarySnapshot(
        config.char_bits, config.dict_size, config.entry_bits, TRIE
    )


def on(engine):
    return reference_engine() if engine == "reference" else nullcontext()


def run(config, stream, engine):
    rec = CounterRecorder()
    with on(engine):
        encoder = LZWEncoder(config, recorder=rec, seed=seed_for(config))
    compressed = encoder.encode(stream)
    return compressed, encoder.stats(), rec


FULL = 8 + len(TRIE)  # the seeded dictionary is already full

CONFIGS = {
    f"{policy}-{size}{suffix}": LZWConfig(
        char_bits=CHAR_BITS,
        dict_size=size,
        entry_bits=6 * CHAR_BITS,
        policy=policy,
        **extra,
    )
    for policy, suffix, extra in (
        ("first", "", {}),
        ("popular", "", {}),
        ("lookahead", "", {}),
        ("lookahead", "-budget8", {"lookahead_budget": 8}),
        # A budget this small binds on most ties, so the exact scan and
        # its cone tests (depth 1 from the node tables) run as well.
        ("lookahead", "-budget2", {"lookahead_budget": 2}),
    )
    for size in (FULL, 64)
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_small_nodes_match_the_oracle(name):
    config = CONFIGS[name]
    stream = small_node_stream()
    ref, ref_stats, ref_rec = run(config, stream, "reference")
    fast, fast_stats, fast_rec = run(config, stream, "fast")
    assert fast.codes == ref.codes
    assert fast.expansion_chars == ref.expansion_chars
    assert fast_stats == ref_stats
    assert fast_rec.counters == ref_rec.counters
    assert fast_rec.histograms == ref_rec.histograms


@pytest.mark.parametrize("size", [FULL, 64])
def test_inputs_reach_every_small_node_case(monkeypatch, size):
    """Record ``(children, compatible)`` at every X-carrying child
    decision: each node size 0..SMALL_NODE meets 0, 1 and (where it
    has two children) >= 2 compatible ones."""
    seen = set()

    def recording_matcher(dictionary, config, values, cares):
        matcher = packed_matcher(dictionary, config, values, cares)
        full = (1 << config.char_bits) - 1

        def child(code, i):
            care = cares[i]
            if care != full:
                kids = dictionary.children(code)
                hits = sum(1 for key in kids if not (key ^ values[i]) & care)
                seen.add((min(len(kids), SMALL_NODE), min(hits, 2)))
            return matcher.child(code, i)

        return matcher._replace(child=child)

    monkeypatch.setattr(stream_module, "_new_matcher", recording_matcher)
    config = CONFIGS[f"lookahead-{size}"]
    LZWEncoder(config, seed=seed_for(config)).encode(small_node_stream())
    wanted = {
        (children, compatible)
        for children in range(SMALL_NODE + 1)
        for compatible in range(min(children, 2) + 1)
    }
    assert wanted <= seen, sorted(wanted - seen)
