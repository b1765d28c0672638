"""Reproduction of Knieser et al., "A Technique for High Ratio LZW
Compression" (DATE 2003): don't-care-aware LZW scan test compression,
its baselines, a hardware decompressor model and an ATPG substrate.

Quick use::

    from repro import LZWConfig, TernaryVector, compress

    cubes = TernaryVector("01XX10XXX1" * 100)
    result = compress(cubes, LZWConfig(char_bits=7, dict_size=1024))
    print(result.ratio_percent)

The names below load on first use (PEP 562): ``import repro`` imports
none of the subpackages, so a process pays only for what it touches.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "BatchItemResult": ".parallel.engine",
    "CompositeRecorder": ".observability.recorder",
    "CompressedStream": ".core.encoder",
    "CompressionResult": ".core.pipeline",
    "CounterRecorder": ".observability.recorder",
    "LZWConfig": ".core.config",
    "NullRecorder": ".observability.recorder",
    "Recorder": ".observability.recorder",
    "ReproError": ".reliability.errors",
    "ShardPlan": ".parallel.shard",
    "SpanRecorder": ".observability.recorder",
    "TernaryVector": ".bitstream.ternary",
    "X": ".bitstream.ternary",
    "compress": ".core.pipeline",
    "compress_batch": ".core.pipeline",
    "decompress": ".core.pipeline",
    "plan_shards": ".parallel.shard",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
