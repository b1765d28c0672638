"""Regenerate the committed container fixtures in ``containers/``.

Run from the repo root::

    PYTHONPATH=src python tests/fixtures/gen_containers.py

Every fixture is a fully-deterministic artefact of the codec (fixed
seeds, no timestamps), so regeneration is byte-identical until the
container format itself changes — which is exactly what the fixtures
exist to catch: ``repro fsck`` must classify each one ``clean`` and a
``--repair`` pass must not churn a byte (see
``tests/reliability/test_fsck.py``).

``tests/test_fixtures.py`` asserts that :func:`build` still reproduces
every committed file, so a writer change that alters a byte fails the
tier-1 suite instead of waiting for someone to rerun this script.

``v1.lzwt`` is hand-packed: the v1 format is read-only legacy, so the
generator wraps a modern payload in the historical 34-byte header.
"""

import random
import struct
import sys
import zlib
from pathlib import Path

from repro.bitstream import TernaryVector
from repro.container import (
    COLD_SEED,
    SEED_BLOB,
    SegmentSeed,
    dump_bytes,
    dump_segments,
)
from repro.core import LZWConfig, compress
from repro.core.decoder import derive_final_snapshot
from repro.streamio import write_stream

CONFIG = LZWConfig(char_bits=4, dict_size=64, entry_bits=20)
_HEADER_V1 = struct.Struct(">4sBBIIQQI")


def v1_bytes(v2: bytes) -> bytes:
    """Wrap a v2 container's payload in the legacy v1 header."""
    magic, _version, char_bits, dict_size, entry_bits, original_bits, \
        payload_bits, payload_crc, _stream_crc, _header_crc = struct.unpack_from(
            ">4sBBIIQQIII", v2
        )
    payload = v2[struct.calcsize(">4sBBIIQQIII"):]
    assert payload_crc == zlib.crc32(payload)
    return _HEADER_V1.pack(
        magic, 1, char_bits, dict_size, entry_bits,
        original_bits, payload_bits, payload_crc,
    ) + payload


def build() -> dict:
    """Every fixture as ``file name -> bytes``, built from the codec."""
    rng = random.Random(20030309)
    stream_a = TernaryVector.random(480, x_density=0.6, rng=rng)
    stream_b = TernaryVector.random(320, x_density=0.4, rng=rng)

    result_a = compress(stream_a, CONFIG)
    result_b = compress(stream_b, CONFIG)

    v2 = dump_bytes(result_a.compressed, result_a.assigned_stream)
    v3 = dump_segments(
        [result_a.compressed, result_b.compressed],
        streams=[result_a.assigned_stream, result_b.assigned_stream],
    )

    snapshot = derive_final_snapshot(result_a.compressed.codes, CONFIG)
    seeded = compress(stream_b, CONFIG, seed=snapshot)
    v4 = dump_segments(
        [result_a.compressed, seeded.compressed],
        streams=[result_a.assigned_stream, seeded.assigned_stream],
        seeds=[COLD_SEED, SegmentSeed(SEED_BLOB, snapshot, None)],
    )

    import io

    sink = io.BytesIO()
    write_stream(CONFIG, [stream_a], sink, codes_per_frame=16)
    v5 = sink.getvalue()

    return {
        "v1.lzwt": v1_bytes(v2),
        "v2.lzwt": v2,
        "v3.lzwt": v3,
        "v4.lzwt": v4,
        "v5.lzwt": v5,
        "dict.lzws": snapshot.to_bytes(),
    }


def main() -> int:
    out = Path(__file__).parent / "containers"
    out.mkdir(exist_ok=True)
    for name, data in build().items():
        path = out / name
        changed = not path.exists() or path.read_bytes() != data
        path.write_bytes(data)
        print(f"{'wrote' if changed else 'kept '} {path} ({len(data)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
