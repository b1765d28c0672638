"""The packed matcher: word-packed two-mask ternary matching.

The encode driver (:class:`repro.core.stream.StreamEncoder`) runs the
paper's loop and takes its decision step from a
:class:`~repro.core.dontcare.Matcher`; :func:`packed_matcher` is that
step.  The test oracle, :class:`~repro.core.dontcare.ChildSelector`,
walks the dictionary trie one candidate child at a time; profiling
shows >90% of its encode time inside that walk (the
``compatible_children`` scans and the lookahead DFS around them).  The
packed matcher keeps the *decision procedure* — the paper's dynamic
don't-care assignment with its exact tie-break and budget semantics —
and replaces the per-candidate Python work with word-wide integer
operations over packed match arrays, the same idiom
:mod:`repro.atpg.ppsfp` uses for bit-parallel fault simulation:

* every dictionary node keeps its children packed into one big integer,
  one ``C_C + 1``-bit lane per child (the extra guard bit makes
  zero-lane detection exact); the X-aware compatibility test
  ``(key ^ value) & care == 0`` runs for *all* candidates of a node in
  a handful of int ops: replicate the character's two masks across the
  lanes with a multiply, XOR/AND, and read the compatible lanes out of
  ``(HIGH - t) & HIGH``.  A node that gains a child grows its table in
  place — the new lane goes last, and every cached candidate tuple the
  new character matches gains it — so an add never forces a rebuild;
* a first-symbol index does the same over the active base codes for
  phrase restarts; a fully specified character skips it, because its
  only compatible base is itself;
* a child decision with no choice to make skips the tables and every
  cache: a fully specified character is one exact ``dict.get``, and a
  node with fewer than :data:`SMALL_NODE` children is scanned
  directly — no compatible child is a phrase boundary, a single one
  wins under every policy, and only two or more go on to the memo,
  the table and the lookahead;
* for the lookahead policy, every node additionally keeps *suffix
  packs*: for each depth ``k`` from 2 up to the window, one packed
  integer whose lanes are the concatenated ``k``-character strings of
  all its depth-``k`` descendants (depth 1 would be the node's table
  above, lane for lane, so the table serves as it).  A candidate's
  unbudgeted window depth is the largest ``k`` whose pack has a lane
  compatible with the first ``k`` window characters (one masked
  compare per depth), and the lane popcounts give the candidate's
  exact unbudgeted DFS node consumption — which is how the
  reference's shared node budget is replicated without walking the
  trie (see ``lookahead_best``).  Each pack also
  maps every first-step candidate to the guard bits of its lanes, so
  the winner comes from one pass over the candidates, one AND against
  the compatible-lane bitmap for each that would beat the best so far,
  instead of extracting the bitmap's lanes one bit at a time.

Around that matching core, the matcher amortises everything it can:

* the decision character and its lookahead window are pre-packed into
  rolling ``RV``/``RC`` arrays over the driver's retained characters
  (entry ``i`` holds the ``K + 1`` characters from ``i`` in ascending
  bit order), so every scan pattern is one mask of ``RV[i]`` and the
  pair doubles as a ready-made memoisation key;
* decisions memoise on ``(node, trailing chars, RV, RC, stamp)`` where
  the *stamp* is the cheapest value that changes whenever the answer
  could — the allocation counter for base restarts, the node's own
  weight for child decisions (adds elsewhere in the trie cannot change
  a node's candidate set or their weights);
* once the dictionary is full under ``reset_on_full=False`` nothing
  mutates again, so child decisions enter a *frozen phase* that sheds
  the weight stamp — on long streams most characters encode there;
* every cache is a pure function of its key and is cleared past
  :data:`CACHE_LIMIT` entries, so the driver's memory bound holds on
  streams of any length.

Equivalence contract
--------------------
The packed matcher is **byte-identical** to the oracle: same
code sequence, same dictionary evolution, same recorder counters and
histograms, same cancellation checkpoints (the last two live in the
shared driver).  That holds because the packed matcher is a faithful
interpreter of the same decision, not a different one:

* candidate sets are produced in the reference's order — dictionary
  children in insertion order (ascending code, because codes allocate
  monotonically) and base codes in the live ``_active_bases`` set
  order, snapshotted only between mutations (set iteration is stable
  while the set is unmodified);
* the fully-specified shortcut (``care == (1 << len(char)) - 1`` →
  exact ``dict.get``) is reproduced, and a single compatible child is
  returned before any policy runs, as ``ChildSelector.choose_child``
  does;
* the lookahead policy's shared node budget is replicated exactly: a
  failing candidate's DFS visits its whole compatible cone, so its
  consumption equals the pack popcount; a full-depth candidate's
  consumption is order-dependent, so those are re-run through a
  literal budget-metered DFS replica whenever the budget could bind
  (``continuation``), with the same heaviest-subtree-first ordering
  and the same decrement/break points.

``tests/core/test_engine_differential.py`` locks the contract with
Hypothesis differential properties and exhaustive small-alphabet
enumeration (``tests/core/test_small_node_differential.py`` adds a
hand-built trie for the small-node scan), selecting the oracle with
:func:`~repro.core.dontcare.reference_engine`; ``tests/golden``
re-verifies every golden digest through both.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .config import LZWConfig
from .dictionary import LZWDictionary
from .dontcare import Matcher

__all__ = [
    "CACHE_LIMIT",
    "PackedCandidateIndex",
    "packed_matcher",
]

#: Entries any one of the packed matcher's caches may hold before it is
#: cleared.  Every cache is a pure function of its key (the stamps make a
#: stale hit impossible), so clearing costs only recomputation and never
#: changes a decision; the cap keeps memory flat on unbounded streams.
#: It sits above the largest cache any one full-scale paper-corpus test
#: set fills (about 10.9k memo entries, s38417f), so one-shot encodes of
#: those never clear; only longer streams do.
CACHE_LIMIT = 1 << 14

#: A child decision at a node with fewer children than this scans them
#: directly and needs the decision machinery (memo, candidate table,
#: lookahead) only when two or more are compatible.  On the perfbench
#: corpus nearly half the X-carrying child decisions sit at nodes with
#: at most three children, and three quarters of those have no choice
#: to make.  It is a speed constant, not a setting: every cutoff gives
#: the same codes.
SMALL_NODE = 4

#: Population count for the wide match bitmaps.  ``int.bit_count`` is a
#: single C call on Python >= 3.10; the ``bin`` fallback keeps the
#: declared 3.9 floor working (it allocates a string proportional to the
#: bitmap width, so the native path matters on wide candidate packs).
if hasattr(int, "bit_count"):  # pragma: no branch
    _popcount = int.bit_count
else:  # pragma: no cover - exercised only on Python 3.9

    def _popcount(x: int) -> int:
        return bin(x).count("1")


class PackedCandidateIndex:
    """Word-packed two-mask ternary match tables over one dictionary.

    Lanes are ``C_C + 1`` bits wide: the low ``C_C`` bits hold a
    concrete child character (or base code), the top *guard* bit stays
    zero so per-lane zero detection ``(HIGH - t) & HIGH`` cannot borrow
    across lanes.  Tables build lazily per node.  A node that gains a
    child grows its table and cached candidate tuples in place
    (:meth:`grow`); only ``reset`` drops tables (:meth:`clear`), and
    only an active-base set that grew rebuilds the first-symbol index.
    """

    __slots__ = (
        "_dict",
        "_lane",
        "_ones",
        "_nodes",
        "_bases_list",
        "_bases_packed",
        "_bases_n",
        "_bases_cache",
        "_bases_stale",
        "_cached",
    )

    def __init__(self, dictionary: LZWDictionary, char_bits: int) -> None:
        self._dict = dictionary
        self._lane = char_bits + 1
        # _ones[n] replicates a 1 in the LSB of each of n lanes.
        self._ones: List[int] = [0]
        # code -> [packed_keys, keys, codes, {(value, care): candidates}]
        self._nodes: Dict[int, list] = {}
        self._bases_list: List[int] = []
        self._bases_packed = 0
        self._bases_n = 0
        self._bases_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._bases_stale = True
        # Candidate tuples cached across all nodes: tables are never
        # dropped singly, so this is exact between the whole-index
        # clears (reset, or the CACHE_LIMIT cap) that zero it.
        self._cached = 0

    # ------------------------------------------------------------------
    # Maintenance (called by the matcher at its mutation sites)
    # ------------------------------------------------------------------
    def grow(self, code: int, char: int, child: int) -> None:
        """Append ``code``'s new ``child``, reached by ``char``, in place.

        Codes allocate monotonically, so the new lane goes last and the
        table stays in ascending code order (the reference's order);
        each cached tuple whose masks ``char`` matches gains the pair.
        """
        entry = self._nodes.get(code)
        if entry is None:
            return
        keys = entry[1]
        entry[0] |= char << (len(keys) * self._lane)
        keys.append(char)
        entry[2].append(child)
        cache = entry[3]
        for mask_key, cands in cache.items():
            if not (char ^ mask_key[0]) & mask_key[1]:
                cache[mask_key] = cands + (char, child)

    def invalidate_bases(self) -> None:
        """Drop the first-symbol index after the active-base set grew."""
        self._bases_stale = True

    def clear(self) -> None:
        """Drop everything (after ``dictionary.reset()``)."""
        self._nodes.clear()
        self._cached = 0
        self._bases_stale = True

    def cached_candidates(self) -> int:
        """Candidate tuples currently cached across all nodes."""
        return self._cached

    # ------------------------------------------------------------------
    # Packed scans
    # ------------------------------------------------------------------
    def _ones_for(self, lanes: int) -> int:
        ones = self._ones
        if lanes >= len(ones):
            width = self._lane
            value = ones[-1]
            for _ in range(len(ones), lanes + 1):
                value = (value << width) | 1
                ones.append(value)
        return ones[lanes]

    def table(self, code: int) -> list:
        """``code``'s node table, built on first use.

        ``[packed_keys, keys, codes, {(value, care): candidates}]``:
        one lane per child in insertion order, kept current by
        :meth:`grow`.  The matcher's lookahead reads it as the depth-1
        suffix pack.
        """
        entry = self._nodes.get(code)
        if entry is None:
            kids = self._dict.children(code)
            keys = list(kids)
            packed = 0
            width = self._lane
            shift = 0
            for key in keys:
                packed |= key << shift
                shift += width
            entry = self._nodes[code] = [packed, keys, list(kids.values()), {}]
        return entry

    def candidates(self, code: int, value: int, care: int) -> Tuple[int, ...]:
        """Children of ``code`` compatible with the ternary char masks.

        Returns ``(char, child, char, child, ...)`` pairs flattened into
        one tuple, in the reference's candidate order (dictionary
        insertion order = ascending child code).  The fully-specified
        shortcut lives in the caller — this is the generic X-aware scan.
        """
        entry = self._nodes.get(code)
        if entry is None:
            entry = self.table(code)
        cache = entry[3]
        mask_key = (value, care)
        hit = cache.get(mask_key)
        if hit is not None:
            return hit
        keys = entry[1]
        lanes = len(keys)
        width = self._lane
        ones = self._ones_for(lanes)
        high = ones << (width - 1)
        t = (entry[0] ^ (value * ones)) & (care * ones)
        z = (high - t) & high
        codes = entry[2]
        out: List[int] = []
        while z:
            low = z & -z
            lane = low.bit_length() // width - 1
            out.append(keys[lane])
            out.append(codes[lane])
            z &= z - 1
        result = tuple(out)
        if self._cached >= CACHE_LIMIT:
            for stale in self._nodes.values():
                stale[3].clear()
            self._cached = 0
        cache[mask_key] = result
        self._cached += 1
        return result

    def base_candidates(self, value: int, care: int) -> Tuple[int, ...]:
        """Base codes compatible with the char masks, reference order.

        Mirrors :meth:`LZWDictionary.compatible_bases`: every compatible
        *active* base in live-set iteration order, then the canonical
        zero-fill appended when not already present.  The snapshot is
        refreshed after every mutation of the active set, and set
        iteration order is stable between mutations, so the order is
        exactly what the reference would iterate.
        """
        if self._bases_stale:
            actives = list(self._dict._active_bases)
            packed = 0
            width = self._lane
            shift = 0
            for base in actives:
                packed |= base << shift
                shift += width
            self._bases_list = actives
            self._bases_packed = packed
            self._bases_n = len(actives)
            self._bases_cache = {}
            self._bases_stale = False
        mask_key = (value, care)
        hit = self._bases_cache.get(mask_key)
        if hit is not None:
            return hit
        out: List[int] = []
        lanes = self._bases_n
        if lanes:
            width = self._lane
            ones = self._ones_for(lanes)
            high = ones << (width - 1)
            t = (self._bases_packed ^ (value * ones)) & (care * ones)
            z = (high - t) & high
            bases = self._bases_list
            while z:
                low = z & -z
                out.append(bases[low.bit_length() // width - 1])
                z &= z - 1
        if value not in out:  # zero-fill fallback, as in the reference
            out.append(value)
        result = tuple(out)
        if len(self._bases_cache) >= CACHE_LIMIT:
            self._bases_cache.clear()
        self._bases_cache[mask_key] = result
        return result


def packed_matcher(
    dictionary: LZWDictionary,
    config: LZWConfig,
    values: List[int],
    cares: List[int],
) -> Matcher:
    """The packed decision step — the encoder's :class:`Matcher`.

    ``values``/``cares`` are the driver's retained character masks (see
    :class:`~repro.core.dontcare.Matcher`).  The candidate index, the
    suffix packs, the rolling ``RV``/``RC`` windows, the memos and the
    frozen-phase flag are this matcher's own state, kept in closures so
    the per-decision calls read them as fast local cells.
    """
    cfg = config
    char_bits = cfg.char_bits
    fullchar = (1 << char_bits) - 1
    n = 0  # retained characters, kept equal to len(values) by extend/trim

    index = PackedCandidateIndex(dictionary, char_bits)
    # Hot read-only views of the dictionary arrays.  reset() rebinds
    # _weight and _children on the instance, so both are re-fetched
    # after every reset; add() and reset() mutate the rest in place.
    weight = dictionary._weight
    children = dictionary._children
    active_bases = dictionary._active_bases
    parent = dictionary._parent
    charr = dictionary._char

    policy = cfg.policy
    lookahead_policy = policy == "lookahead"
    window = cfg.lookahead
    budget_limit = cfg.lookahead_budget
    budget = 0
    allocs = dictionary.allocated  # base-decision memo stamp
    reset_on_full = cfg.reset_on_full
    last_alloc_code = cfg.dict_size - 1
    # Frozen phase: once a non-resetting dictionary is full nothing
    # mutates again — ``allocs``, every weight and every pack are
    # constants — so child decisions drop the weight stamp from their
    # memo key.  Most of a long stream encodes in this phase.
    frozen = not reset_on_full and dictionary.is_full
    index_candidates = index.candidates
    index_grow = index.grow
    # Inlined cache hit paths for the two hottest lookups: the memo
    # misses hit these caches far more often than the packed scans
    # behind them.
    index_nodes = index._nodes
    index_table = index.table
    index_base_candidates = index.base_candidates
    popcount = _popcount
    small_node = SMALL_NODE

    # ------------------------------------------------------------------
    # Lookahead: packed suffix tables + an exact budget replica
    # ------------------------------------------------------------------
    # K = window depth beyond the candidate itself.  packs[k][node] is
    # [pack, nlanes, lane_cands, cand_masks]: one lane per depth-k
    # descendant of node, each lane the concatenation of the k
    # characters on the path (first consumed character in the low
    # bits), k*C_C + 1 bits wide (guard bit on top).  lane_cands[j] is
    # lane j's first-step child from node (the candidate it scores
    # for), and cand_masks maps each such candidate to the guard bits
    # of all its lanes, so a compatible-lane bitmap tells whether a
    # candidate matched with one AND.  Node -1 is the virtual trie root
    # (parent of the base codes): its depth-k descendants are every
    # allocated entry of length k, which lets one pack test cover all
    # candidates of a *base* decision too.  Levels run to K + 1 because
    # a decision consumes one character before the window: candidate
    # depth d corresponds to level d + 1 of the candidates' common
    # parent.  Maintained append-only at the add site, cleared on
    # reset — no other invalidation exists because lanes are never
    # rewritten.  The packs start at depth 2: depth 1 (a node's
    # children, one C_C + 1-bit lane each) is exactly the candidate
    # index's node table, which ``grow`` already keeps current, so
    # ``ztest`` reads that table at k = 1 and packs[1] stays empty.
    K = window - 1 if policy == "lookahead" else 0
    KP = K + 1
    packs: List[Dict[int, list]] = [dict() for _ in range(KP + 1)]
    lane_w = [k * char_bits + 1 for k in range(KP + 1)]
    guard = [k * char_bits for k in range(KP + 1)]  # guard bit in a lane
    # ones_tabs[k][m] replicates 1 across m lanes of width lane_w[k].
    ones_tabs: List[List[int]] = [[0] for _ in range(KP + 1)]
    # Rolling lookahead windows: RV[i]/RC[i] pack the retained decision
    # character at position i plus the (up to) K window characters after
    # it, first character in the low bits — characters not yet fed
    # contribute nothing, so a short window at the true stream end is
    # the same integer as its explicit build.  ``extend`` keeps them
    # current with one backward pass over each new chunk plus the K
    # positions before it whose windows it completes (the driver never
    # decides on an incomplete window before the end).  ``rv & pmask[k]``
    # is then exactly the level-k scan pattern (decision char + k-1
    # window chars), and ``rv >> char_bits`` recovers the pure window
    # for the per-candidate cone tests.
    pmask = [(1 << (k * char_bits)) - 1 for k in range(K + 2)]
    RV: List[int] = []
    RC: List[int] = []

    def ones_for(k: int, lanes: int) -> int:
        tab = ones_tabs[k]
        if lanes >= len(tab):
            width = lane_w[k]
            value = tab[-1]
            for _ in range(len(tab), lanes + 1):
                value = (value << width) | 1
                tab.append(value)
        return tab[lanes]

    def continuation(code: int, i: int, limit: int, recurse) -> int:
        """Literal replica of ``ChildSelector._continuation``.

        Shares the decision's node budget via ``budget``; only runs
        when the budget could bind (see ``lookahead_best``), so its
        per-node cost is off the common path.  It recurses through the
        ``recurse`` argument (itself) rather than its own closure cell:
        a self-referencing closure is a reference cycle, which would
        keep this matcher's caches alive after the encode until the
        cyclic garbage collector happens to run.
        """
        nonlocal budget
        if limit <= 0 or i >= n or budget <= 0:
            return 0
        budget -= 1
        if cares[i] == fullchar:
            child = children[code].get(values[i])
            if child is None:
                return 0
            return 1 + recurse(child, i + 1, limit - 1, recurse)
        cands = index_candidates(code, values[i], cares[i])
        if not cands:
            return 0
        if len(cands) > 2:
            order = sorted(
                range(1, len(cands), 2),
                key=lambda p: (weight[cands[p]], -cands[p]),
                reverse=True,
            )
        else:
            order = (1,)
        best = 0
        for p in order:
            depth = 1 + recurse(cands[p], i + 1, limit - 1, recurse)
            if depth > best:
                best = depth
                if best >= limit:
                    break
            if budget <= 0:
                break
        return best

    # Decision memo: the winner of a lookahead decision is a pure
    # function of (candidate tuple, window depth, window masks, the sum
    # of the candidates' subtree weights).  The weight sum is a valid
    # monotone stamp: weights only ever increase within a run, and any
    # allocation in or under a candidate's subtree — the only dictionary
    # change that can alter depths, cone counts, sim orderings or argmax
    # keys — walks the weight increment through that candidate, so an
    # equal sum at two different times implies identical per-candidate
    # weights *and* untouched subtrees.  Sibling allocations leave the
    # sum (and the decision) unchanged, which is exactly when a hit is
    # wanted.  Cleared on reset (weights restart, codes reallocate).
    decision_memo: Dict[tuple, int] = {}
    # Per-candidate cache under the decision memo: a candidate's
    # unbudgeted window depth and compatible cone node count are pure
    # functions of (candidate, window, structure <= K below it).
    # ``sver[c]`` is that structure's version: the pack-maintenance
    # walk bumps it for every ancestor within K+1 of a new entry, so
    # it moves exactly when the cone can — allocations elsewhere (or
    # deeper) leave cached cones valid, unlike a weight stamp.
    sver: Dict[int, int] = {}
    cone_cache: Dict[tuple, tuple] = {}
    # Successful full-depth replays: the DFS visits nodes in a fixed
    # (weight-sorted) order and stops at the first full-depth path, so
    # its node consumption nf is deterministic and independent of the
    # remaining budget whenever nf fits (the budget can't reorder a
    # search it never interrupts).  weight[child] stamps the key: every
    # allocation under the candidate bumps it, and both the cone's
    # shape and the DFS's sort keys only change through such adds.
    fullsim_cache: Dict[tuple, int] = {}

    sver_get = sver.get

    def append_lanes(anc: int, sfx: int, prev: int) -> None:
        """Append a new entry's path suffix to its ancestors' packs.

        ``anc`` is the entry's parent, ``sfx`` its last character and
        ``prev`` the entry itself.  The ancestor at distance k gains a
        depth-k descendant whose lane is the last k characters of the
        new string (first consumed lowest) and whose candidate is
        ``prev``, the path's first step below that ancestor.  The walk
        ends at the virtual root (-1), whose lane is the entry's whole
        string.  The parent (k = 1) keeps no pack of its own, only its
        structure version moves: its depth-1 lanes are the index table.
        """
        sver[anc] = sver_get(anc, 0) + 1
        k = 2
        while k <= KP:
            sfx = charr[anc] | (sfx << char_bits)
            prev = anc
            anc = parent[anc]
            pk = packs[k]
            entry = pk.get(anc)
            if entry is None:
                pk[anc] = [sfx, 1, [prev], {prev: 1 << guard[k]}]
            else:
                pos = entry[1] * lane_w[k]
                entry[0] |= sfx << pos
                entry[1] += 1
                entry[2].append(prev)
                masks = entry[3]
                masks[prev] = masks.get(prev, 0) | 1 << (pos + guard[k])
            sver[anc] = sver_get(anc, 0) + 1
            if anc == -1:
                break
            k += 1

    # Seeded dictionary: the suffix packs are maintained append-only at
    # the add site, so a dictionary restored from a snapshot arrives
    # with *empty* packs — the lookahead would silently degrade to the
    # weight argmax and diverge from the seeded reference.  Replay the
    # pack-maintenance walk for every pre-allocated entry in code order
    # (allocation order), which reproduces the exact pack lanes, lane
    # order, candidate masks and ``sver`` counters an uninterrupted run
    # would hold.
    if K and dictionary.allocated:
        for code in range(cfg.base_codes, dictionary.next_code):
            append_lanes(parent[code], charr[code], code)

    def ztest(child: int, k: int, wv: int, wc: int) -> int:
        """Compatible-lane bitmap of ``child``'s depth-``k`` pack (0 = none)."""
        if k == 1:
            # Depth 1 is the index's node table (same lane layout).
            if not children[child]:
                return 0
            e = index_nodes.get(child)
            if e is None:
                e = index_table(child)
            pack = e[0]
            lanes = len(e[1])
        else:
            e = packs[k].get(child)
            if e is None:
                return 0
            pack = e[0]
            lanes = e[1]
        tab = ones_tabs[k]
        ones = tab[lanes] if lanes < len(tab) else ones_for(k, lanes)
        t = (pack ^ wv * ones) & (wc * ones)
        high = ones << (k * char_bits)
        return (high - t) & high

    def cone_counts(child: int, te: int, wv_te: int, wc_te: int) -> tuple:
        """``(full, depth, cnt)`` of ``child``'s compatible window cone.

        ``full`` — reaches the whole ``K``-deep window (DFS consumption
        then depends on visit order); ``depth`` — deepest compatible
        window level; ``cnt`` — nodes the unbudgeted DFS consumes (an
        upper bound for any budgeted one).  Bottom-up over the packs;
        prefix closure means a compatible level implies all shallower
        ones, so the loop stops at the first empty level.
        """
        ckey = (child, te, wv_te, wc_te, sver_get(child, 0))
        hit = cone_cache.get(ckey)
        if hit is None:
            zfull = ztest(child, te, wv_te, wc_te)
            depth = 0
            cnt = 1
            for k in range(1, te):
                pm = pmask[k]
                z = ztest(child, k, wv_te & pm, wc_te & pm)
                if not z:
                    break
                depth = k
                cnt += popcount(z)
            else:
                if zfull:
                    depth = te
            hit = (bool(zfull) and te == K, depth, cnt)
            if len(cone_cache) >= CACHE_LIMIT:
                cone_cache.clear()
            cone_cache[ckey] = hit
        return hit

    def lookahead_best(
        cands: Tuple[int, ...],
        i: int,
        start: int,
        step: int,
        node: int,
    ) -> int:
        """Replica of ``ChildSelector._lookahead_best``; returns the child.

        ``cands[start::step]`` are the candidate codes — ``(0, 1)`` for
        a base tuple, ``(1, 2)`` for a flattened ``(char, child, ...)``
        children tuple.  Memoisation is the *callers'* job (both have
        O(1) stamped keys); this evaluates the decision in up to three
        stages over the suffix packs:

        * a level scan over the common parent's packs finds the
          unbudgeted winner and the total unbudgeted consumption with
          one masked compare per *level*, not per candidate;
        * if the total proves the reference's shared node budget cannot
          run out — or a conservative per-candidate consumption sum
          proves it survives at least through the winner's cone — that
          winner is returned as-is (later candidates only ever lose
          depth to budget death, so they cannot overtake);
        * otherwise an exact scan replays the budget: failing
          candidates deduct their cone's exact node count (the DFS
          visits the whole compatible cone, so the pack popcounts *are*
          its consumption); full-depth candidates (order-dependent
          consumption) and the cone the budget dies inside re-run the
          literal DFS replica with the exact remaining budget; spent
          budget returns depth 0 without consuming, as the guards do.
        """
        nonlocal budget
        limit = K
        idx = i + 1
        rem = n - idx
        te = limit if rem > limit else rem  # deepest *entered* level
        m = len(cands)
        if te == 0:
            # No window left (stream end) or W == 1: the reference's
            # guards return depth 0 for everyone without consuming
            # budget — argmax of (weight, -code).
            best = cands[start]
            best_w = weight[best]
            for p in range(start + step, m, step):
                child = cands[p]
                child_w = weight[child]
                if child_w > best_w or (child_w == best_w and child < best):
                    best_w = child_w
                    best = child
            return best
        rv = RV[i]
        rc = RC[i]
        # Level scan over the candidates' common parent: level k of
        # node's packs covers every candidate's depth-(k-1) subtree at
        # once (the lane's first character names the candidate), so
        # the exact total unbudgeted consumption — ncand nodes for the
        # candidates themselves plus one per compatible lane at the
        # consuming levels — costs one masked compare and popcount per
        # *level*, not per candidate.  Levels are prefix-closed (a
        # compatible length-k path has a compatible length-(k-1)
        # prefix entry), so the scan stops at the first empty level.
        ncand = (m - start + step - 1) // step
        total = ncand
        ktop = 1  # deepest level with a compatible lane
        ztop = 0
        etop = None
        k = 2
        while k <= te + 1:
            e = packs[k].get(node)
            if e is None:
                break
            # ztest inlined: the scan is the hottest SWAR site.  The
            # level-k pattern — decision char + k-1 window chars — is
            # one mask of the rolling window.
            pm = pmask[k]
            lanes = e[1]
            tab = ones_tabs[k]
            ones = tab[lanes] if lanes < len(tab) else ones_for(k, lanes)
            t = (e[0] ^ (rv & pm) * ones) & (rc & pm) * ones
            high = ones << (k * char_bits)
            zk = (high - t) & high
            if not zk:
                break
            ktop = k
            ztop = zk
            etop = e
            if k <= te:  # consuming levels are 2..te
                total += popcount(zk)
            k += 1
        if ktop == 1:
            # Nobody matches even one window character: every depth is
            # 0 whether or not the budget dies mid-list (spent-budget
            # guards also score 0), so the argmax of (weight, -code)
            # stands unconditionally.
            best = cands[start]
            best_w = weight[best]
            for p in range(start + step, m, step):
                child = cands[p]
                child_w = weight[child]
                if child_w > best_w or (child_w == best_w and child < best):
                    best_w = child_w
                    best = child
            return best
        # Unbudgeted winner: every candidate reaching the deepest
        # compatible level shares depth ktop-1 and beats all shallower
        # ones, so only candidates with a lane in ztop enter the
        # (weight, -code) tie-break.  Every such lane's first-step
        # child is a compatible candidate (it matched the decision
        # character), so one pass over the candidates finds the winner;
        # a candidate's lane mask is ANDed with ztop only when it would
        # beat the best so far.  A single surviving lane (the common
        # case at the deepest level) names its candidate directly.
        if not ztop & (ztop - 1):
            lane = (ztop.bit_length() - 1 - guard[ktop]) // lane_w[ktop]
            best = etop[2][lane]
        else:
            masks = etop[3]
            best = -1
            best_w = -1
            for p in range(start, m, step):
                cand = cands[p]
                w = weight[cand]
                if (w > best_w or (w == best_w and cand < best)) and (
                    masks.get(cand, 0) & ztop
                ):
                    best_w = w
                    best = cand
        if total < budget_limit:
            # The shared budget provably cannot run out.
            return best
        # The budget *may* bind — but death only truncates depths, so
        # later candidates can never overtake the unbudgeted winner.
        # If a conservative consumption sum (full cone counts, an upper
        # bound on any DFS's spend) over the winner and everyone before
        # it stays within the budget, the winner's own cone completes
        # and the unbudgeted answer stands.  The pure window masks are
        # only needed from here on, so the common win path never pays
        # for them.
        wv_te = (rv >> char_bits) & pmask[te]
        wc_te = (rc >> char_bits) & pmask[te]
        s = 0
        for p in range(start, m, step):
            child = cands[p]
            s += cone_counts(child, te, wv_te, wc_te)[2]
            if child == best or s > budget_limit:
                break
        if s <= budget_limit:
            return best
        # The budget binds (or cannot be proven not to): exact scan
        # with the shared budget, replicating the reference's
        # candidate-order consumption.
        best = -1
        best_key = None
        r = budget_limit
        for p in range(start, m, step):
            child = cands[p]
            if r <= 0:
                # Spent budget: every remaining candidate scores depth
                # 0 without consuming (the reference's guards), so the
                # rest of the scan degenerates to a (weight, -code)
                # argmax — which cannot win at all once any candidate
                # scored a positive depth.
                if best_key[0] > 0:
                    break
                bw = best_key[1]
                for q in range(p, m, step):
                    ch = cands[q]
                    w = weight[ch]
                    if w > bw or (w == bw and ch < best):
                        bw = w
                        best = ch
                break
            full, depth, cnt = cone_counts(child, te, wv_te, wc_te)
            if full:
                fkey = (child, wv_te, wc_te, weight[child])
                nf = fullsim_cache.get(fkey)
                if nf is not None and nf <= r:
                    r -= nf
                    depth = limit
                else:
                    # Replay the literal DFS with the exact remaining
                    # budget; on success the consumption is budget-
                    # independent, so remember it.
                    budget = r
                    depth = continuation(child, idx, limit, continuation)
                    if depth >= limit:
                        if len(fullsim_cache) >= CACHE_LIMIT:
                            fullsim_cache.clear()
                        fullsim_cache[fkey] = r - budget
                    r = budget
            elif cnt > r:
                # The cone the budget dies inside: replay with the
                # exact remaining budget.
                budget = r
                depth = continuation(child, idx, limit, continuation)
                r = budget
            else:
                r -= cnt  # failing cone fits: exact deduction
            key = (depth, weight[child], -child)
            if best_key is None or key > best_key:
                best_key = key
                best = child
            if depth >= limit and r <= 0:
                break
        return best

    def base(i: int) -> int:
        value = values[i]
        care = cares[i]
        if care == fullchar:
            # The only compatible base is the character itself, active
            # or as the zero-fill fallback (compatible_bases), and a
            # single candidate wins under every policy.
            return value
        if lookahead_policy:
            # Base decisions have up to 2**C_C candidates, so the
            # generic candidate-tuple memo key is expensive even on a
            # hit.  An O(1) key works here: the rolling window packs
            # the decision char and lookahead, and the allocation
            # counter determines the base candidate tuple (the
            # active-base set only changes on add/reset) *and* every
            # base subtree (each allocation's weight walk ends in
            # exactly one base), so together they pin the whole
            # decision.  Once the dictionary freezes, every repeated
            # (char, window) restart is a pure dict hit.
            rem = n - i - 1
            te = K if rem > K else rem
            key = (-1, te, RV[i], RC[i], allocs)
            hit = decision_memo.get(key)
            if hit is not None:
                return hit
            if index._bases_stale:
                bases = index_base_candidates(value, care)
            else:
                bases = index._bases_cache.get((value, care))
                if bases is None:
                    bases = index_base_candidates(value, care)
            if len(bases) == 1:
                best = bases[0]
            else:
                best = lookahead_best(bases, i, 0, 1, -1)
            if len(decision_memo) >= CACHE_LIMIT:
                decision_memo.clear()
            decision_memo[key] = best
            return best
        bases = index.base_candidates(value, care)
        if len(bases) == 1:
            return bases[0]
        if policy == "first":
            return min(bases)
        best = bases[0]
        best_w = weight[best]
        for base in bases[1:]:
            base_w = weight[base]
            if base_w > best_w or (base_w == best_w and base < best):
                best_w = base_w
                best = base
        return best

    def child(buffer: int, i: int) -> int:
        value = values[i]
        care = cares[i]
        if care == fullchar:
            # The fully-specified shortcut: an exact child lookup, as
            # in LZWDictionary.compatible_children.
            nxt = children[buffer].get(value)
            return -1 if nxt is None else nxt
        kids = children[buffer]
        if len(kids) < small_node:
            # No choice to make unless two children are compatible: none
            # is a phrase boundary and a single one wins under every
            # policy, so only a tie falls through to the decision below.
            found = -1
            for key, nxt in kids.items():
                if not (key ^ value) & care:
                    if found >= 0:
                        break
                    found = nxt
            else:
                return found
        if lookahead_policy:
            # O(1) memo for the whole child decision, same trick as
            # base(): (node, char, window) plus ``weight[node]`` pin
            # it.  The candidate set and every candidate subtree live
            # under ``node``, and any allocation below ``node`` walks
            # its weight, so a stale hit is impossible.  A hit skips
            # candidate materialisation entirely; the sentinel -1
            # records "no compatible child" (phrase boundary).
            rem = n - i - 1
            te = K if rem > K else rem
            if frozen:
                mkey = (buffer, te, RV[i], RC[i])
            else:
                mkey = (buffer, te, RV[i], RC[i], weight[buffer])
            hit = decision_memo.get(mkey)
            if hit is not None:
                return hit
            e = index_nodes.get(buffer)
            if e is None:
                cands = index_candidates(buffer, value, care)
            else:
                cands = e[3].get((value, care))
                if cands is None:
                    cands = index_candidates(buffer, value, care)
            if not cands:
                best = -1
            elif len(cands) == 2:
                best = cands[1]
            else:
                best = lookahead_best(cands, i, 1, 2, buffer)
            if len(decision_memo) >= CACHE_LIMIT:
                decision_memo.clear()
            decision_memo[mkey] = best
            return best
        cands = index_candidates(buffer, value, care)
        if not cands:
            return -1
        if len(cands) == 2 or policy == "first":
            # single candidate, or lowest child code — candidates are
            # stored in ascending-code order, so lane 0 wins
            return cands[1]
        best = cands[1]  # popular
        best_w = weight[best]
        for p in range(3, len(cands), 2):
            cand = cands[p]
            cand_w = weight[cand]
            if cand_w > best_w or (cand_w == best_w and cand < best):
                best_w = cand_w
                best = cand
        return best

    def extend(lo: int) -> None:
        nonlocal n
        n = len(values)
        if not lookahead_policy:
            return
        grow = n - len(RV)
        RV.extend([0] * grow)
        RC.extend([0] * grow)
        kmask = pmask[K]
        rv = rc = 0
        j = n - 1
        stop = lo - K if lo > K else 0
        while j >= stop:
            rv = values[j] | ((rv & kmask) << char_bits)
            rc = cares[j] | ((rc & kmask) << char_bits)
            RV[j] = rv
            RC[j] = rc
            j -= 1

    def trim(count: int) -> None:
        nonlocal n
        n = len(values)
        del RV[:count]
        del RC[:count]

    def added(bcode: int, head: int, new: int) -> None:
        nonlocal allocs, frozen
        allocs += 1
        index_grow(bcode, head, new)
        if len(active_bases) != index._bases_n:
            index.invalidate_bases()
        if new == last_alloc_code and not reset_on_full:
            frozen = True
        if K:
            append_lanes(bcode, head, new)

    def reset() -> None:
        nonlocal allocs, weight, children
        index.clear()
        for pk in packs:
            pk.clear()
        decision_memo.clear()
        sver.clear()
        cone_cache.clear()
        fullsim_cache.clear()
        allocs = dictionary.allocated
        weight = dictionary._weight
        children = dictionary._children

    def cache_sizes() -> Dict[str, int]:
        return {
            "decision_memo": len(decision_memo),
            "cone_cache": len(cone_cache),
            "fullsim_cache": len(fullsim_cache),
            "candidates": index.cached_candidates(),
            "base_candidates": len(index._bases_cache),
        }

    return Matcher(base, child, extend, trim, added, reset, cache_sizes)
