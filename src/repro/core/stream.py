"""The LZW codec's one encode loop and one decode loop.

Both are incremental state machines that consume and emit bounded
chunks; the one-shot API is a thin layer over them:

* :class:`StreamEncoder` — feed ternary chunks, collect codes as they
  are committed, ``finalize()`` to flush the tail.
  :meth:`repro.core.encoder.LZWEncoder.encode` is feed-all plus
  finalize, so streaming and one-shot output are the same code sequence
  by construction.  The decision step is a
  :class:`~repro.core.dontcare.Matcher` built by the module-level
  ``_new_matcher`` factory: :func:`~repro.core.fastpath.packed_matcher`.
  Tests swap in the oracle with
  :func:`~repro.core.dontcare.reference_engine`.
* :class:`StreamDecoder` — :meth:`~StreamDecoder.decode_into` decodes
  a whole code sequence into a character list over a
  :class:`CodeTable`, the decoder's own dictionary (expansions and
  allocation history, none of the encoder's matching state);
  :meth:`~StreamDecoder.push` is the same loop over one code.
  :func:`repro.core.decoder.iter_decode` yields per code through
  ``push``; :func:`~repro.core.decoder.decode_codes`,
  :func:`~repro.core.decoder.derive_final_snapshot`, the container
  segment walk and the v5 frame walk and writer call ``decode_into``.

Byte-identity under chunking
----------------------------
The only part of the encoder whose decision at character ``i`` depends
on characters *after* ``i`` is the ``"lookahead"`` policy: a decision
at index ``i`` inspects at most ``chars[i .. i+W-1]`` (window ``W``,
per-decision node budget reset in ``ChildSelector._lookahead_best``),
**and** returns shallower continuation depths when the buffer ends
early.  The encoder therefore only commits the decision at index ``i``
once at least ``W`` characters from ``i`` are buffered — or the input
is finalized, at which point the buffer end *is* the true end of the
stream.  With that single rule every decision sees exactly the window
it would see with the whole input buffered, so the emitted codes do not
depend on the chunking.

Memory bounds
-------------
The encoder retains only the characters of the current (uncommitted)
phrase plus the ``W``-character slack; a phrase never exceeds
``max_entry_chars`` (trie depth is capped by ``C_MDATA``), so peak
retention is ``O(max_entry_chars + W + chunk)`` characters regardless
of input length.  The dictionary is capped at ``N`` codes as always,
and the packed matcher's caches at
:data:`~repro.core.fastpath.CACHE_LIMIT` entries each.  The decoder
retains only its code table and the previous expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..bitstream.packing import join_fields, split_fields
from ..bitstream.ternary import TernaryVector
from ..observability import events as ev
from ..observability.recorder import NULL_RECORDER, Recorder
from ..reliability.errors import DecodeError, SnapshotError
from .config import LZWConfig
from .dictionary import DictionarySnapshot, LZWDictionary
from .fastpath import _popcount, packed_matcher

__all__ = [
    "CodeTable",
    "EncodeStats",
    "StreamDecoder",
    "StreamEncoder",
    "chars_to_vector",
]

#: Builds every encoder's :class:`~repro.core.dontcare.Matcher`.  Only
#: :func:`~repro.core.dontcare.reference_engine` rebinds it.
_new_matcher = packed_matcher


@dataclass(frozen=True)
class EncodeStats:
    """Dictionary and phrase statistics gathered during one encoding run."""

    entries_allocated: int
    dictionary_full: bool
    longest_entry_chars: int
    longest_phrase_chars: int
    total_chars: int


def chars_to_vector(chars: Sequence[int], char_bits: int) -> TernaryVector:
    """Concatenate decoded character values into a fully specified vector."""
    length = len(chars) * char_bits
    return TernaryVector.from_masks(
        join_fields(chars, char_bits), (1 << length) - 1, length
    )


class StreamEncoder:
    """Incremental don't-care-aware LZW encoder — the one encode loop.

    Usage::

        enc = StreamEncoder(config)
        for chunk in chunks:          # TernaryVector pieces, any sizes
            codes.extend(enc.feed(chunk))
        codes.extend(enc.finalize())

    ``codes`` then equals ``compress(concat(chunks), config)``'s code
    sequence exactly.  ``seed``/``link`` start from a warm dictionary:
    ``link`` replays the phrase boundary between the previous segment's
    last code and this one (the pipelined-wave shards and the resume of
    a crashed streaming session both continue byte-identically to the
    uninterrupted encode this way).

    ``recorder`` receives the ``encode.*``/``dict.*`` counters and
    histograms; ``cancel`` (any object with a raising ``check()``, see
    :class:`repro.service.cancel.CancellationToken`) is checked once
    when the first phrase starts and then at every character whose
    absolute index is a multiple of 1024.
    """

    def __init__(
        self,
        config: Optional[LZWConfig] = None,
        recorder: Optional[Recorder] = None,
        cancel: Optional[object] = None,
        seed: Optional[DictionarySnapshot] = None,
        link: Optional[int] = None,
    ) -> None:
        self.config = config or LZWConfig()
        self.dictionary = LZWDictionary(self.config)
        if seed is not None:
            self.dictionary.restore(seed)
        if link is not None and not 0 <= link < self.dictionary.next_code:
            raise SnapshotError(
                f"seed link {link} is not a live code in the seeded "
                f"dictionary (next free {self.dictionary.next_code})",
                actual=link,
                expected=self.dictionary.next_code,
            )
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.cancel = cancel
        self._link = link
        # Retained characters as parallel mask lists; index 0 is the
        # character at absolute index ``_trimmed``.
        self._values: List[int] = []
        self._cares: List[int] = []
        self._matcher = _new_matcher(
            self.dictionary, self.config, self._values, self._cares
        )
        # How many characters from the decision index must be visible
        # before a decision is safe to commit pre-finalize (see module
        # docstring).  Non-lookahead policies read only chars[i].
        self._slack = (
            self.config.lookahead if self.config.policy == "lookahead" else 1
        )
        self._pending: TernaryVector = TernaryVector.xs(0)
        self._pos = 0
        self._phrase_start = 0
        self._trimmed = 0
        self._buffer = -1
        self._started = False
        self._finished = False
        self._original_bits = 0
        self._total_chars = 0
        self._codes_emitted = 0
        self._longest_phrase = 0
        #: When a list, each emitted code's dictionary string is appended
        #: (the one-shot encoder's assigned stream and, by length,
        #: ``CompressedStream.expansion_chars``).
        self.expansions: Optional[List[Tuple[int, ...]]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def original_bits(self) -> int:
        """Total bits fed so far (the stream's ``original_bits``)."""
        return self._original_bits

    @property
    def finished(self) -> bool:
        """True once :meth:`finalize` has run."""
        return self._finished

    @property
    def buffered_chars(self) -> int:
        """Characters currently retained (memory-bound diagnostics)."""
        return len(self._values)

    def cache_sizes(self) -> dict:
        """Entries held by each of the matcher's caches (diagnostics)."""
        return self._matcher.cache_sizes()

    def stats(self) -> EncodeStats:
        """Statistics of the completed run (call after :meth:`finalize`)."""
        if not self._finished:
            raise RuntimeError("finalize() has not been called yet")
        return EncodeStats(
            entries_allocated=self.dictionary.allocated,
            dictionary_full=self.dictionary.is_full,
            longest_entry_chars=self.dictionary.longest_entry_chars(),
            longest_phrase_chars=self._longest_phrase,
            total_chars=self._total_chars,
        )

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def feed(self, chunk: TernaryVector) -> List[int]:
        """Consume one input chunk; return the codes committed by it."""
        if self._finished:
            raise RuntimeError("feed() after finalize()")
        if not len(chunk):
            return []
        self._original_bits += len(chunk)
        combined = self._pending + chunk if len(self._pending) else chunk
        count = len(combined) // self.config.char_bits
        if not count:
            self._pending = combined
            return []
        self._append(combined, count)
        self._pending = combined[count * self.config.char_bits :]
        return self._drain(final=False)

    def finalize(self) -> List[int]:
        """Flush the tail (padding the final partial character with X).

        Returns the remaining codes; after this the concatenation of
        every ``feed()`` return value plus this one is the one-shot
        code sequence.
        """
        if self._finished:
            raise RuntimeError("finalize() called twice")
        self._finished = True
        if len(self._pending):
            # X padding contributes absent bits to both masks.
            self._append(self._pending, 1)
            self._pending = TernaryVector.xs(0)
        codes = self._drain(final=True)
        if self._started:
            self._emit(codes, self._buffer, self._phrase_start, len(self._values))
        rec = self.recorder
        recording = rec.enabled
        if recording:
            if self._total_chars:
                rec.incr(ev.ENCODE_CODES, self._codes_emitted)
                rec.observe(
                    ev.HIST_CODES_PER_WIDTH,
                    self.config.code_bits,
                    self._codes_emitted,
                )
        retained = len(self._values)
        del self._values[:]
        del self._cares[:]
        self._matcher.trim(retained)
        return codes

    def _append(self, vector: TernaryVector, count: int) -> None:
        """Split ``count`` characters off the front of ``vector``."""
        char_bits = self.config.char_bits
        lo = len(self._values)
        self._values.extend(split_fields(vector.value_mask, count, char_bits))
        self._cares.extend(split_fields(vector.care_mask, count, char_bits))
        self._total_chars += count
        self._matcher.extend(lo)
        rec = self.recorder
        recording = rec.enabled
        if recording:
            rec.incr(ev.ENCODE_CHARS, count)

    # ------------------------------------------------------------------
    # The committed-decision loop
    # ------------------------------------------------------------------
    def _drain(self, final: bool) -> List[int]:
        """Commit every decision the buffered characters allow."""
        codes: List[int] = []
        values = self._values
        navail = len(values)
        matcher = self._matcher
        cancel = self.cancel
        if not self._started:
            if not navail or (navail < self._slack and not final):
                return codes
            if cancel is not None:
                cancel.check()
            self._buffer = matcher.base(0)
            if self._link is not None:
                # Warm continuation: the boundary between the previous
                # segment's last phrase and this one runs after the
                # head is chosen, before any character is consumed.
                self._boundary(self._link, self._buffer)
                self._link = None
            self._started = True
            self._pos = 1

        limit = navail if final else navail - self._slack + 1
        pos = self._pos
        buffer = self._buffer
        phrase_start = self._phrase_start
        offset = self._trimmed
        cancelling = cancel is not None
        child = matcher.child
        while pos < limit:
            if cancelling and not ((pos + offset) & 1023):
                cancel.check()
            nxt = child(buffer, pos)
            if nxt >= 0:
                buffer = nxt
                pos += 1
                continue
            # Phrase boundary: emit the buffer code, allocate
            # string(buffer) + head(next phrase) if the memory allows,
            # and restart the phrase at a concrete fill of chars[pos].
            self._emit(codes, buffer, phrase_start, pos)
            head = matcher.base(pos)
            self._boundary(buffer, head)
            buffer = head
            phrase_start = pos
            pos += 1
        self._buffer = buffer

        # Trim the committed prefix: decisions only ever read forward
        # from the current index, and phrase recording reads back only
        # to phrase_start, so everything before it is dead.  Phrase
        # length is capped by max_entry_chars, which bounds retention.
        if phrase_start:
            del values[:phrase_start]
            del self._cares[:phrase_start]
            matcher.trim(phrase_start)
            self._trimmed = offset + phrase_start
            pos -= phrase_start
        self._pos = pos
        self._phrase_start = 0
        return codes

    def _emit(self, codes: List[int], code: int, start: int, end: int) -> None:
        """Emit ``code`` for the phrase of retained characters ``start:end``."""
        codes.append(code)
        self._codes_emitted += 1
        if self.expansions is not None:
            self.expansions.append(self.dictionary.string(code))
        if end - start > self._longest_phrase:
            self._longest_phrase = end - start
        recording = self.recorder.enabled
        if recording:
            self._record_phrase(start, end)

    def _record_phrase(self, start: int, end: int) -> None:
        """Record one completed phrase ``chars[start:end]`` (recording only).

        Every character is ``char_bits`` wide (the final one X-padded,
        padding bits absent from the care mask), so a character's X
        count is ``char_bits`` minus the popcount of its care mask.
        """
        cares = self._cares
        xbits = (end - start) * self.config.char_bits
        for j in range(start, end):
            xbits -= _popcount(cares[j])
        rec = self.recorder
        rec.observe(ev.HIST_PHRASE_LEN, end - start)
        rec.observe(ev.HIST_XBITS_PER_PHRASE, xbits)
        rec.incr(ev.ENCODE_XBITS, xbits)

    def _boundary(self, tail_code: int, head: int) -> None:
        """The maybe-reset-or-allocate step at a phrase boundary."""
        cfg = self.config
        dictionary = self.dictionary
        rec = self.recorder
        recording = rec.enabled
        if (
            cfg.reset_on_full
            and dictionary.next_code == cfg.dict_size - 1
            and dictionary.can_extend(tail_code)
        ):
            # Adaptive variant: the allocation that would freeze the
            # dictionary flushes it instead.  The decoder derives the
            # same trigger from its allocation counter, so no clear
            # code is needed in the stream.
            dictionary.reset()
            self._matcher.reset()
            if recording:
                rec.incr(ev.DICT_RESETS)
            return
        added = dictionary.add(tail_code, head)
        if added is not None:
            self._matcher.added(tail_code, head, added)
        if recording:
            if added is not None:
                rec.incr(ev.DICT_ALLOCS)
            elif dictionary.is_full:
                rec.incr(ev.DICT_FULL_SKIPS)
            elif not dictionary.can_extend(tail_code):
                rec.incr(ev.DICT_CMDATA_TRUNCATIONS)


class CodeTable:
    """The decoder's dictionary: what the Figure 5 memory holds, no more.

    ``strings[code]`` is each live code's expansion (the memory word,
    bounded by ``C_MDATA``).  ``entries`` maps each allocated code's
    ``(parent, char)`` key to the code, in allocation order: its keys
    answer the duplicate-child and KwKwK checks, and their order is the
    history a :class:`DictionarySnapshot` records.  The encoder's
    matching state (subtree weights, child maps, active bases) has no
    place here; :class:`LZWDictionary` keeps it.
    """

    __slots__ = ("config", "strings", "entries")

    def __init__(
        self, config: LZWConfig, seed: Optional[DictionarySnapshot] = None
    ) -> None:
        self.config = config
        self.strings: List[Tuple[int, ...]] = [
            (c,) for c in range(config.base_codes)
        ]
        self.entries: Dict[Tuple[int, int], int] = {}
        if seed is not None:
            seed.replay(config, self.add)

    @property
    def next_code(self) -> int:
        """Code the next allocation would receive."""
        return len(self.strings)

    def add(self, parent: int, char: int) -> Optional[int]:
        """Allocate ``string(parent) + char`` under the same rules as
        :meth:`LZWDictionary.add`: ``None`` when full, too wide or a
        duplicate child."""
        strings = self.strings
        code = len(strings)
        prefix = strings[parent]
        if (
            code >= self.config.dict_size
            or len(prefix) >= self.config.max_entry_chars
            or self.entries.setdefault((parent, char), code) != code
        ):
            return None
        strings.append(prefix + (char,))
        return code

    def snapshot(self) -> DictionarySnapshot:
        """The allocation history as a :class:`DictionarySnapshot`."""
        config = self.config
        return DictionarySnapshot(
            config.char_bits, config.dict_size, config.entry_bits, tuple(self.entries)
        )


class StreamDecoder:
    """Incremental LZW decoder — the one decode loop.

    :meth:`decode_into` consumes a whole code sequence and extends an
    output list with its characters, updating a :class:`CodeTable`
    exactly as the hardware decompressor would, including the adaptive
    reset and the KwKwK case; :meth:`push` is that loop over one code.
    It raises :class:`~repro.reliability.errors.DecodeError` *before*
    the offending code changes any output, so a consumer that stops at
    the first error holds precisely the longest decodable prefix, and
    :attr:`codes_decoded`/:attr:`chars_decoded` count it.  The
    ``decode.*`` counters are recorded once per call, with the totals
    of the codes that decoded.  :meth:`snapshot` returns at any code
    boundary the :class:`DictionarySnapshot` a resumed session or a
    pipelined-wave successor seeds from.

    ``seed`` pre-fills the table (the first code may then be any live
    code, not just a base code).  ``link`` names the previous segment's
    last code: the boundary allocation ``string(link) +
    first_char(next code)`` is replayed before the first code, exactly
    as an uninterrupted serial decode would have done.
    """

    def __init__(
        self,
        config: LZWConfig,
        recorder: Optional[Recorder] = None,
        seed: Optional[DictionarySnapshot] = None,
        link: Optional[int] = None,
    ) -> None:
        self.config = config
        self.table = CodeTable(config, seed)
        self._seeded = seed is not None
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._prev: Optional[Tuple[int, ...]] = None
        self._prev_code = -1
        self._index = 0
        self._chars_decoded = 0
        if link is not None:
            next_code = self.table.next_code
            if not 0 <= link < next_code:
                raise self._error(
                    f"seed link {link} is not a live code in the seeded "
                    f"dictionary (next free {next_code})",
                    link,
                )
            self._prev = self.table.strings[link]
            self._prev_code = link

    @property
    def codes_decoded(self) -> int:
        """Number of codes decoded so far."""
        return self._index

    @property
    def chars_decoded(self) -> int:
        """Number of characters produced so far."""
        return self._chars_decoded

    def snapshot(self) -> DictionarySnapshot:
        """Dictionary state at the current code boundary (seed/digest)."""
        return self.table.snapshot()

    def _error(self, message: str, code: int) -> DecodeError:
        """A DecodeError locating ``code`` at the current code index."""
        return DecodeError(
            message,
            code_index=self._index,
            code=code,
            bit_offset=self._index * self.config.code_bits,
            dict_next_code=self.table.next_code,
            chars_decoded=self._chars_decoded,
        )

    def push(self, code: int) -> Tuple[int, ...]:
        """Decode one code; returns its expansion, raises DecodeError."""
        self.decode_into((code,), [])
        return self._prev  # type: ignore[return-value]

    def decode_into(self, codes: Sequence[int], out: List[int]) -> None:
        """Decode ``codes`` in order, extending ``out`` with their characters.

        On a :class:`DecodeError` ``out`` holds the characters of every
        code before the failing one, and the decoder stands just after
        the last of them.
        """
        table = self.table
        strings = table.strings
        entries = table.entries
        config = self.config
        capacity = config.dict_size
        max_chars = config.max_entry_chars
        # The allocation that would take the last free code resets the
        # table instead (adaptive variant); -1 never matches.
        reset_at = capacity - 1 if config.reset_on_full else -1
        n_base = config.base_codes
        next_code = len(strings)
        prev = self._prev
        prev_code = self._prev_code
        start = len(out)
        extend = out.extend
        allocs = resets = decoded = 0
        error: Optional[str] = None
        if prev is None and codes:
            # First code of a cold or blob-seeded stream: no boundary
            # allocation precedes it.
            code = codes[0]
            if 0 <= code < next_code:
                prev = strings[code]
                prev_code = code
                extend(prev)
                decoded = 1
                codes = codes[1:]
            elif self._seeded:
                error = (
                    f"first code {code} not in seeded dictionary "
                    f"(next free {next_code})"
                )
            else:
                error = f"first code {code} must be a base code (< {next_code})"
        if error is None:
            skipped = decoded
            end = skipped + len(codes)
            setdefault = entries.setdefault
            for decoded, code in enumerate(codes, skipped):
                # Will the encoder have allocated string(prev)+head
                # after emitting prev?  (Arithmetic on the expansion,
                # not the key set: prev_code may predate an adaptive
                # reset, when its entry is gone.)
                if next_code < capacity and len(prev) < max_chars:
                    if next_code == reset_at:
                        del strings[n_base:]
                        entries.clear()
                        next_code = n_base
                        resets += 1
                        if not 0 <= code < next_code:
                            break
                        current = strings[code]
                    else:
                        if 0 <= code < next_code:
                            current = strings[code]
                        elif code == next_code and (prev_code, prev[0]) not in entries:
                            # KwKwK (Figure 4f): the code names the
                            # entry being created.
                            current = prev + prev[:1]
                        else:
                            break
                        # An existing child is not allocated again: at a
                        # link boundary whose shard cut truncated a
                        # phrase mid-match the encoder skipped the same
                        # allocation.
                        head = current[0]
                        if setdefault((prev_code, head), next_code) == next_code:
                            strings.append(prev + (head,))
                            next_code += 1
                            allocs += 1
                elif 0 <= code < next_code:
                    current = strings[code]
                else:
                    break
                extend(current)
                prev = current
                prev_code = code
            else:
                decoded = end
            if decoded < end:  # the loop stopped at an undecodable code
                error = f"code {code} not yet in dictionary (next free {next_code})"
        chars = len(out) - start
        self._prev = prev
        self._prev_code = prev_code
        rec = self.recorder
        if rec.enabled:
            if allocs:
                rec.incr(ev.DECODE_DICT_ENTRIES, allocs)
            if resets:
                rec.incr(ev.DECODE_RESETS, resets)
            if decoded:
                rec.incr(ev.DECODE_CODES, decoded)
                rec.incr(ev.DECODE_CHARS, chars)
        self._index += decoded
        self._chars_decoded += chars
        if error is not None:
            raise self._error(error, code)
