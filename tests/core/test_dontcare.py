"""Unit tests for don't-care assignment: static fills and the selector."""

import ast
from pathlib import Path

import pytest

from repro.bitstream import TernaryVector, to_characters
from repro.core import LZWConfig, LZWDictionary, static_fill
from repro.core.dontcare import STATIC_FILLS, ChildSelector


class TestStaticFill:
    def test_zero_one(self):
        v = TernaryVector("1XX0")
        assert str(static_fill(v, "zero")) == "1000"
        assert str(static_fill(v, "one")) == "1110"

    def test_repeat(self):
        assert str(static_fill(TernaryVector("1XX0X"), "repeat")) == "11100"

    def test_random_seeded(self):
        v = TernaryVector.xs(32)
        assert static_fill(v, "random", seed=3) == static_fill(v, "random", seed=3)

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown static fill"):
            static_fill(TernaryVector("X"), "magic")

    def test_all_rules_cover(self):
        v = TernaryVector("01XX10XX")
        for rule in STATIC_FILLS:
            filled = static_fill(v, rule, seed=0)
            assert filled.is_fully_specified
            assert filled.covers(v)


def _setup(policy, lookahead=4):
    config = LZWConfig(
        char_bits=2, dict_size=32, entry_bits=12, policy=policy, lookahead=lookahead
    )
    d = LZWDictionary(config)
    return config, d


class TestChildSelector:
    def test_no_compatible_child_returns_none(self):
        config, d = _setup("first")
        sel = ChildSelector(d, config)
        chars = to_characters(TernaryVector("0101"), 2)
        assert sel.choose_child(0, chars, 0) is None

    def test_single_candidate_shortcut(self):
        config, d = _setup("lookahead")
        child = d.add(0, 3)
        sel = ChildSelector(d, config)
        chars = to_characters(TernaryVector("11XX"), 2)  # char 0 = 0b11
        assert sel.choose_child(0, chars, 0) == (3, child)

    def test_first_policy_picks_lowest_code(self):
        config, d = _setup("first")
        c1 = d.add(0, 1)
        d.add(0, 3)
        sel = ChildSelector(d, config)
        chars = [TernaryVector.xs(2)]
        assert sel.choose_child(0, chars, 0) == (1, c1)

    def test_popular_policy_picks_heaviest_subtree(self):
        config, d = _setup("popular")
        c1 = d.add(0, 1)
        c3 = d.add(0, 3)
        d.add(c3, 2)  # subtree of c3 is heavier
        sel = ChildSelector(d, config)
        chars = [TernaryVector.xs(2)]
        assert sel.choose_child(0, chars, 0) == (3, c3)

    def test_lookahead_prefers_longer_continuation(self):
        config, d = _setup("lookahead")
        c1 = d.add(0, 1)  # dead end
        c3 = d.add(0, 3)
        c32 = d.add(c3, 2)  # c3 continues deeper
        d.add(c32, 2)
        sel = ChildSelector(d, config)
        chars = [TernaryVector.xs(2)] * 4
        assert sel.choose_child(0, chars, 0) == (3, c3)

    def test_lookahead_respects_care_bits_downstream(self):
        config, d = _setup("lookahead")
        c1 = d.add(0, 1)
        d.add(c1, 2)  # path 1 -> 2
        c3 = d.add(0, 3)
        d.add(c3, 0)  # path 3 -> 0
        sel = ChildSelector(d, config)
        # Next char is X, the one after demands 0b00: only 3->0 survives.
        chars = [TernaryVector.xs(2), TernaryVector.from_int(0, 2)]
        assert sel.choose_child(0, chars, 0) == (3, c3)

    def test_choose_base_zero_fill_fallback(self):
        config, d = _setup("lookahead")
        sel = ChildSelector(d, config)
        # bit0 = 1, bit1 = X -> zero fill 0b01 = 1.
        chars = [TernaryVector.from_masks(0b01, 0b01, 2)]
        assert sel.choose_base(chars, 0) == 1

    def test_choose_base_prefers_active_subtree(self):
        config, d = _setup("lookahead")
        d.add(3, 1)
        sel = ChildSelector(d, config)
        chars = [TernaryVector.xs(2), TernaryVector.from_masks(0b01, 0b11, 2)]
        assert sel.choose_base(chars, 0) == 3

    def test_deterministic_tie_break(self):
        config, d = _setup("lookahead")
        d.add(0, 1)
        d.add(0, 3)
        sel = ChildSelector(d, config)
        chars = [TernaryVector.xs(2)]
        first = sel.choose_child(0, chars, 0)
        again = sel.choose_child(0, chars, 0)
        assert first == again


class TestTieBreakDeterminism:
    """Equal-scoring candidates must resolve identically on every run.

    The determinism contract (identical batch bytes at any worker
    count) rests on these tie-breaks: depth, then subtree weight, then
    the lowest code.
    """

    def test_popular_tie_falls_to_lowest_code(self):
        config, d = _setup("popular")
        c1 = d.add(0, 1)
        d.add(0, 3)  # equal weight (both leaves)
        sel = ChildSelector(d, config)
        assert sel.choose_child(0, [TernaryVector.xs(2)], 0) == (1, c1)

    def test_lookahead_tie_falls_to_lowest_code(self):
        config, d = _setup("lookahead")
        c1 = d.add(0, 1)
        c3 = d.add(0, 3)
        # Symmetric continuations: both children go one deeper.
        d.add(c1, 2)
        d.add(c3, 2)
        sel = ChildSelector(d, config)
        chars = [TernaryVector.xs(2)] * 3
        assert sel.choose_child(0, chars, 0) == (1, c1)

    def test_choose_base_popular_tie_falls_to_lowest_base(self):
        config, d = _setup("popular")
        d.add(1, 0)
        d.add(3, 0)  # bases 1 and 3, equal weights
        sel = ChildSelector(d, config)
        chars = [TernaryVector.xs(2)]
        assert sel.choose_base(chars, 0) == 1

    def test_same_choice_from_identically_built_dictionaries(self):
        def build():
            config, d = _setup("lookahead")
            for base, char in ((0, 1), (0, 3), (2, 2)):
                d.add(base, char)
            return ChildSelector(d, config)

        chars = [TernaryVector.xs(2)] * 4
        picks = {build().choose_child(0, chars, 0) for _ in range(5)}
        assert len(picks) == 1

    def test_insertion_order_does_not_break_lowest_code_rule(self):
        # Children registered high-code-first still tie-break to the
        # lowest code, not to dict iteration order.
        config, d = _setup("first")
        d.add(0, 3)  # code 4
        c_low = d.add(0, 1)  # code 5
        sel = ChildSelector(d, config)
        assert sel.choose_child(0, [TernaryVector.xs(2)], 0) == (3, 4)
        del c_low

    def test_exhausted_budget_is_still_deterministic(self):
        config = LZWConfig(
            char_bits=2,
            dict_size=32,
            entry_bits=12,
            policy="lookahead",
            lookahead=4,
            lookahead_budget=1,
        )
        d = LZWDictionary(config)
        c1 = d.add(0, 1)
        c3 = d.add(0, 3)
        d.add(c1, 2)
        d.add(c3, 2)
        chars = [TernaryVector.xs(2)] * 4
        picks = {
            ChildSelector(d, config).choose_child(0, chars, 0) for _ in range(5)
        }
        assert len(picks) == 1


ORACLE_NAMES = {"ChildSelector", "reference_matcher"}


def _oracle_references(path):
    """Names of the oracle that ``path`` imports, reads as an attribute or
    lists as a string (a lazy-export table entry)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            found += [alias.name for alias in node.names if alias.name in ORACLE_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in ORACLE_NAMES:
            found.append(node.attr)
        elif isinstance(node, ast.Constant) and node.value in ORACLE_NAMES:
            found.append(node.value)
    return found


def test_only_dontcare_reaches_the_oracle():
    """The oracle is for tests: no shipped module but its own names it,
    so ``reference_engine()`` stays the one way to encode with it."""
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    offenders = {
        str(path.relative_to(src)): names
        for path in sorted(src.rglob("*.py"))
        if path != src / "core" / "dontcare.py"
        for names in [_oracle_references(path)]
        if names
    }
    assert offenders == {}
