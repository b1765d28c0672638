"""Don't-care assignment strategies.

The paper reports (Section 5) that every *pre-processing* assignment of
the X bits it tried — filling before running LZW — topped out at 40–60%
compression, and that the published results required assigning the X
bits *while* the LZW encoder runs ("dynamic sliding window").  This
module provides both families:

* **static fills** (:func:`static_fill`) — resolve every X up front with
  a simple rule; used as the ablation strawmen;
* **dynamic selection heuristics** — called by the encoder at each step
  to pick, among dictionary children compatible with the next ternary
  character, the concrete assignment to commit to.  The ``"lookahead"``
  heuristic is the paper's sliding window: a bounded search over the
  next ``W`` characters choosing the child with the longest compatible
  continuation.

The encode driver (:class:`repro.core.stream.StreamEncoder`) asks a
:class:`Matcher` for each decision, built by
:func:`repro.core.fastpath.packed_matcher`.  :class:`ChildSelector`
decides the same way one candidate at a time; it is the test oracle the
packed matcher is locked byte-identical to, and :func:`reference_engine`
is the one way to make the encoder use it.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..bitstream.ternary import TernaryVector
from .config import LZWConfig
from .dictionary import LZWDictionary

__all__ = [
    "STATIC_FILLS",
    "ChildSelector",
    "Matcher",
    "reference_engine",
    "reference_matcher",
    "static_fill",
]

#: Static pre-assignment rules accepted by :func:`static_fill`.
STATIC_FILLS = ("zero", "one", "repeat", "random")


def static_fill(
    stream: TernaryVector,
    rule: str = "zero",
    seed: Optional[int] = None,
) -> TernaryVector:
    """Resolve every X bit of ``stream`` up front with a fixed rule.

    ``"zero"``/``"one"`` fill with a constant, ``"repeat"`` extends the
    most recent specified bit (minimising transitions, the natural
    pre-fill for run-length coders) and ``"random"`` flips a seeded coin
    per X bit.
    """
    if rule == "zero":
        return stream.fill(0)
    if rule == "one":
        return stream.fill(1)
    if rule == "repeat":
        return stream.fill_repeat_last(0)
    if rule == "random":
        return stream.fill_random(random.Random(seed))
    raise ValueError(f"unknown static fill rule {rule!r}; pick from {STATIC_FILLS}")


class ChildSelector:
    """Dynamic (in-loop) don't-care assignment for the LZW encoder.

    One instance is created per encoding run; it owns the lookahead node
    budget bookkeeping.  The two entry points mirror the two decision
    sites of the encoder:

    * :meth:`choose_child` — the current phrase ``code`` may extend by
      the next ternary character; pick which compatible child to follow
      (committing that child's concrete character as the X assignment),
      or return ``None`` to signal a dictionary miss.
    * :meth:`choose_base` — a new phrase starts at a ternary character;
      pick the concrete single-character base code to restart from.
    """

    def __init__(self, dictionary: LZWDictionary, config: LZWConfig) -> None:
        self._dict = dictionary
        self._config = config
        self._policy = config.policy
        self._window = config.lookahead
        self._budget_limit = config.lookahead_budget
        self._budget = 0

    # ------------------------------------------------------------------
    # Decision sites
    # ------------------------------------------------------------------
    def choose_child(
        self,
        code: int,
        chars: Sequence[TernaryVector],
        index: int,
    ) -> Optional[Tuple[int, int]]:
        """Pick a compatible child of ``code`` for character ``chars[index]``.

        Returns ``(concrete_char, child_code)`` or ``None`` when no child
        is compatible (an LZW phrase boundary).
        """
        candidates = self._dict.compatible_children(code, chars[index])
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        if self._policy == "first":
            return min(candidates, key=lambda kc: kc[1])
        if self._policy == "popular":
            return max(candidates, key=self._popularity_key)
        return self._lookahead_best(candidates, chars, index)

    def choose_base(
        self,
        chars: Sequence[TernaryVector],
        index: int,
    ) -> int:
        """Pick the concrete base code to restart a phrase at ``chars[index]``.

        Any concrete fill of the ternary character is a legal base code;
        the heuristics prefer one whose subtree promises the longest
        continuation through the following characters.
        """
        bases = self._dict.compatible_bases(chars[index])
        if len(bases) == 1:
            return bases[0]
        if self._policy == "first":
            return min(bases)
        if self._policy == "popular":
            return max(bases, key=lambda b: (self._dict.weight(b), -b))
        candidates = [(b, b) for b in bases]
        return self._lookahead_best(candidates, chars, index)[1]

    # ------------------------------------------------------------------
    # Heuristics
    # ------------------------------------------------------------------
    def _popularity_key(self, cand: Tuple[int, int]):
        char, child = cand
        return (self._dict.weight(child), -child)

    def _lookahead_best(
        self,
        candidates: List[Tuple[int, int]],
        chars: Sequence[TernaryVector],
        index: int,
    ) -> Tuple[int, int]:
        """Sliding-window choice: deepest compatible continuation wins.

        Each candidate child consumes ``chars[index]``; its score is how
        many of the following ``W - 1`` characters a descent through the
        trie can still absorb.  The search shares a per-decision node
        budget so worst-case cost stays bounded; ties fall back to
        subtree weight, then the lowest code (deterministic output).
        """
        self._budget = self._budget_limit
        best = None
        best_key = None
        limit = self._window - 1
        for char, child in candidates:
            depth = self._continuation(child, chars, index + 1, limit)
            key = (depth, self._dict.weight(child), -child)
            if best_key is None or key > best_key:
                best_key = key
                best = (char, child)
            if depth >= limit and self._budget <= 0:
                break
        assert best is not None
        return best

    def _continuation(
        self,
        code: int,
        chars: Sequence[TernaryVector],
        index: int,
        limit: int,
    ) -> int:
        """Longest match depth from ``code`` through ``chars[index:]``.

        Depth-first search over compatible children, heaviest subtree
        first, clipped at ``limit`` characters and by the node budget.
        """
        if limit <= 0 or index >= len(chars) or self._budget <= 0:
            return 0
        self._budget -= 1
        kids = self._dict.compatible_children(code, chars[index])
        if not kids:
            return 0
        kids.sort(key=self._popularity_key, reverse=True)
        best = 0
        for _char, child in kids:
            depth = 1 + self._continuation(child, chars, index + 1, limit - 1)
            if depth > best:
                best = depth
                if best >= limit:
                    break
            if self._budget <= 0:
                break
        return best


class Matcher(NamedTuple):
    """The decision step the encode driver delegates to, one per run.

    A matcher is bound to the run's dictionary and to the driver's
    retained characters, given as two parallel lists of ints —
    ``values[i]``/``cares[i]`` are the masks of the ``i``-th retained
    character (index 0 is the oldest one still held).  The driver
    appends to and trims those lists and reports each change, and each
    dictionary mutation, through the hooks below.
    """

    #: ``base(i)`` — the base code that restarts a phrase at ``i``.
    base: Callable[[int], int]
    #: ``child(code, i)`` — the child extending ``code`` by character
    #: ``i``, or -1 when no child is compatible (a phrase boundary).
    child: Callable[[int, int], int]
    #: ``extend(lo)`` — characters ``lo ..`` were appended.
    extend: Callable[[int], None]
    #: ``trim(count)`` — the first ``count`` characters were dropped.
    trim: Callable[[int], None]
    #: ``added(code, char, new)`` — ``dictionary.add`` allocated ``new``.
    added: Callable[[int, int, int], None]
    #: ``reset()`` — ``dictionary.reset()`` ran.
    reset: Callable[[], None]
    #: ``cache_sizes()`` — entries per internal cache (diagnostics).
    cache_sizes: Callable[[], Dict[str, int]]


def reference_matcher(
    dictionary: LZWDictionary,
    config: LZWConfig,
    values: List[int],
    cares: List[int],
) -> Matcher:
    """The oracle :class:`Matcher`: a plain :class:`ChildSelector` over
    the retained characters as vectors."""
    selector = ChildSelector(dictionary, config)
    char_bits = config.char_bits
    chars: List[TernaryVector] = []

    def base(index: int) -> int:
        return selector.choose_base(chars, index)

    def child(code: int, index: int) -> int:
        choice = selector.choose_child(code, chars, index)
        return -1 if choice is None else choice[1]

    def extend(lo: int) -> None:
        chars.extend(
            TernaryVector.from_masks(values[j], cares[j], char_bits)
            for j in range(lo, len(values))
        )

    def trim(count: int) -> None:
        del chars[:count]

    def ignore(*_args: int) -> None:
        return None

    return Matcher(base, child, extend, trim, ignore, ignore, dict)


@contextmanager
def reference_engine():
    """Encode with :func:`reference_matcher` inside the ``with`` block.

    Every encoder this process builds in the block — ``compress``, a
    ``workers=1`` ``compress_batch``, a :class:`StreamEncoder` — takes
    its decisions from the oracle; the packed matcher is restored on
    exit.  Spawned batch workers are other processes and keep the
    packed matcher.
    """
    from . import stream

    previous = stream._new_matcher
    stream._new_matcher = reference_matcher
    try:
        yield
    finally:
        stream._new_matcher = previous
