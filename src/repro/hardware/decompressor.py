"""Cycle-accurate model of the Figure 5 hardware decompressor.

The model is *bit-accurate* (it maintains the dictionary in an
:class:`~repro.hardware.memory.EmbeddedMemory` and reproduces the exact
scan stream — the tests cross-check it against the software decoder)
and *cycle-counted* under the paper's two-clock-domain regime:

* the ATE shifts one compressed bit per **tester** cycle;
* the engine (FSM, memory, output shifter) runs on the **internal**
  clock, ``clock_ratio`` times faster.

The baseline architecture is **serial**, matching the paper's Table 2
numbers: the input shifter must fill with all ``C_E`` bits before the
FSM decodes, and the tester stalls while the engine emits — so the
download-time improvement approaches the compression ratio minus
``1/clock_ratio``.  Setting ``double_buffered=True`` models the natural
extension where the next code downloads while the current one decodes.

Per-code internal-cycle cost:

* ``lookup_cycles`` — one memory read (or the base-code pass-through),
* one cycle per emitted scan bit (the output shifter feeds the chain),
* ``write_cycles`` — storing the newly created entry, when one is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..bitstream import BitReader, TernaryVector
from ..core import LZWConfig
from .memory import EmbeddedMemory, MemoryMode, MemoryRequirements

__all__ = ["HardwareRunResult", "DecompressorModel"]


@dataclass(frozen=True)
class HardwareRunResult:
    """Outcome of one hardware decompression run."""

    scan_stream: TernaryVector
    codes_processed: int
    internal_cycles: int
    tester_cycles: int
    clock_ratio: int
    memory_reads: int
    memory_writes: int

    def improvement_percent(self, baseline_tester_cycles: int) -> float:
        """Download-time improvement vs shifting the test uncompressed.

        ``baseline_tester_cycles`` is the uncompressed download time —
        one tester cycle per scan bit.
        """
        if baseline_tester_cycles <= 0:
            raise ValueError("baseline_tester_cycles must be positive")
        return 100.0 * (1.0 - self.tester_cycles / baseline_tester_cycles)


class DecompressorModel:
    """Executable model of the LZW decompression engine."""

    def __init__(
        self,
        config: LZWConfig,
        clock_ratio: int = 10,
        lookup_cycles: int = 1,
        write_cycles: int = 1,
        double_buffered: bool = False,
        memory: Optional[EmbeddedMemory] = None,
    ) -> None:
        if clock_ratio < 1:
            raise ValueError("clock_ratio must be >= 1")
        if lookup_cycles < 0 or write_cycles < 0:
            raise ValueError("cycle costs must be non-negative")
        self.config = config
        self.clock_ratio = clock_ratio
        self.lookup_cycles = lookup_cycles
        self.write_cycles = write_cycles
        self.double_buffered = double_buffered
        self.memory = memory or EmbeddedMemory(MemoryRequirements.for_config(config))

    # ------------------------------------------------------------------
    def run(self, bits: List[int], original_bits: int) -> HardwareRunResult:
        """Decompress a serialised code stream, counting cycles.

        ``bits`` is the output of :meth:`CompressedStream.to_bits`;
        ``original_bits`` truncates the final padded character exactly as
        the real chain would stop its scan clock.
        """
        cfg = self.config
        k = self.clock_ratio
        self.memory.grant(MemoryMode.LZW)

        reader = BitReader(bits)
        codes: List[int] = []
        while reader.remaining >= cfg.code_bits:
            codes.append(reader.read(cfg.code_bits))
        if reader.remaining:
            raise ValueError("compressed stream is not a whole number of codes")

        n_base = cfg.base_codes
        max_chars = cfg.max_entry_chars
        char_bits = cfg.char_bits
        next_code = n_base
        out_bits: List[int] = []
        prev: Optional[Tuple[int, ...]] = None

        download_done = 0  # internal time the current code is fully loaded
        engine_free = 0  # internal time the engine finishes the previous code
        shifter_free = 0  # internal time the input shifter can start refilling

        for index, code in enumerate(codes):
            # --- input shifter -----------------------------------------
            if self.double_buffered:
                # The shifter refills while the engine works; it empties
                # into the engine as soon as both are ready.
                load_start = -(-shifter_free // k) * k
                download_done = load_start + cfg.code_bits * k
                start = max(download_done, engine_free)
                shifter_free = start
            else:
                # Serial: downloading resumes only once the engine idles,
                # aligned to the next tester edge.
                resume = max(download_done, engine_free)
                aligned = -(-resume // k) * k
                download_done = aligned + cfg.code_bits * k
                start = download_done

            # --- FSM decode ---------------------------------------------
            will_add = prev is not None and (
                next_code < cfg.dict_size and len(prev) + 1 <= max_chars
            )
            if cfg.reset_on_full and will_add and next_code == cfg.dict_size - 1:
                # Adaptive variant: flush by resetting the allocation
                # pointer; stale memory words are never addressed again.
                next_code = n_base
                will_add = False
            if code < n_base:
                current = (code,)
                cycles = self.lookup_cycles  # pass-through mux decision
            elif code < next_code:
                length_bits, data = self.memory.read(code)
                current = _unpack_chars(data, length_bits, char_bits)
                cycles = self.lookup_cycles
            elif code == next_code and will_add:
                # Figure 4f: the code names the entry being created.
                assert prev is not None
                current = prev + (prev[0],)
                cycles = self.lookup_cycles
            else:
                raise ValueError(
                    f"code {code} (position {index}) not decodable: "
                    f"next free entry is {next_code}"
                )

            # --- dictionary write (mirrors the encoder's allocation) ----
            if will_add:
                assert prev is not None
                entry = prev + (current[0],)
                self.memory.write(
                    next_code,
                    len(entry) * char_bits,
                    _pack_chars(entry, char_bits),
                )
                next_code += 1
                cycles += self.write_cycles

            # --- output shifter: one scan bit per internal cycle --------
            cycles += len(current) * char_bits
            for char in current:
                for b in range(char_bits):
                    out_bits.append((char >> b) & 1)

            engine_free = start + cycles
            prev = current

        total_internal = max(engine_free, download_done)
        tester_cycles = -(-total_internal // k)
        stream = TernaryVector(out_bits)[:original_bits]
        if len(stream) < original_bits:
            raise ValueError(
                f"decompressed only {len(stream)} of {original_bits} scan bits"
            )
        return HardwareRunResult(
            scan_stream=stream,
            codes_processed=len(codes),
            internal_cycles=total_internal,
            tester_cycles=tester_cycles,
            clock_ratio=k,
            memory_reads=self.memory.reads,
            memory_writes=self.memory.writes,
        )


def _pack_chars(chars: Tuple[int, ...], char_bits: int) -> int:
    data = 0
    for i, c in enumerate(chars):
        data |= c << (i * char_bits)
    return data


def _unpack_chars(data: int, length_bits: int, char_bits: int) -> Tuple[int, ...]:
    if length_bits % char_bits:
        raise ValueError("stored entry length is not a whole number of characters")
    mask = (1 << char_bits) - 1
    return tuple(
        (data >> (i * char_bits)) & mask for i in range(length_bits // char_bits)
    )
