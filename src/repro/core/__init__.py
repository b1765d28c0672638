"""The paper's contribution: don't-care-aware LZW test compression.

Public names load on first use (PEP 562), so importing one module of
the package — the encoder, say — does not pull in the others.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "LZWConfig": ".config",
    "POLICIES": ".config",
    "ConfigError": "..reliability.errors",
    "DecodeError": "..reliability.errors",
    "decode": ".decoder",
    "decode_codes": ".decoder",
    "derive_final_snapshot": ".decoder",
    "iter_decode": ".decoder",
    "DictionarySnapshot": ".dictionary",
    "LZWDictionary": ".dictionary",
    "STATIC_FILLS": ".dontcare",
    "static_fill": ".dontcare",
    "CompressedStream": ".encoder",
    "LZWEncoder": ".encoder",
    "EncodeStats": ".stream",
    "StreamDecoder": ".stream",
    "StreamEncoder": ".stream",
    "chars_to_vector": ".stream",
    "PackedCandidateIndex": ".fastpath",
    "compression_percent": ".metrics",
    "compression_ratio": ".metrics",
    "geometric_mean": ".metrics",
    "x_density_percent": ".metrics",
    "MultiChainResult": ".multichain",
    "chain_streams": ".multichain",
    "compress_interleaved": ".multichain",
    "compress_per_chain": ".multichain",
    "deinterleave_stream": ".multichain",
    "interleave_stream": ".multichain",
    "partition_chains": ".multichain",
    "CompressionResult": ".pipeline",
    "compress": ".pipeline",
    "compress_batch": ".pipeline",
    "decompress": ".pipeline",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
