"""Differential conformance: sharded output ≡ serial output, always.

For random ternary cube streams and *random shard plans*, the batch
engine must produce containers that

* decode — via strict :func:`decode` and incremental
  :func:`iter_decode` — to a stream covering the input, and
* are bit-identical to what the serial pipeline produces: every
  segment's codes equal ``compress`` on that shard's slice, and the
  whole container equals ``dump_segments`` over the per-shard serial
  results (the single-shard case collapses to the serial v2 container
  byte-for-byte).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.bitstream import TernaryVector
from repro.container import (
    decode_container,
    dump_bytes,
    dump_segments,
    load_seeded,
)
from repro.core import LZWConfig, compress, compress_batch, iter_decode
from repro.parallel import ShardPlan

_CONFIG = LZWConfig(char_bits=3, dict_size=32, entry_bits=12)


@st.composite
def stream_and_plan(draw):
    """A random ternary stream with a random valid shard plan over it."""
    text = draw(st.text(alphabet="01X", min_size=1, max_size=240))
    stream = TernaryVector(text)
    cuts = draw(
        st.lists(
            st.integers(min_value=1, max_value=max(1, len(stream) - 1)),
            max_size=6,
            unique=True,
        )
    )
    cuts = tuple(sorted(c for c in cuts if 0 < c < len(stream)))
    return stream, ShardPlan(len(stream), cuts)


@given(data=stream_and_plan())
@settings(max_examples=150, deadline=None)
def test_batch_decodes_and_matches_serial(data):
    stream, plan = data
    item = compress_batch(_CONFIG, [stream], workers=1, plans=[plan])[0]

    # Strict decode of every segment, concatenated, covers the input.
    segments = [seg.compressed for seg in load_seeded(item.container)]
    assert len(segments) == plan.num_shards
    decoded = decode_container(item.container)
    assert decoded.covers(stream)
    assert len(decoded) == len(stream)

    # Incremental decode consumes every segment completely.
    for segment in segments:
        steps = list(iter_decode(segment.codes, segment.config))
        assert len(steps) == segment.num_codes

    # Differential: each segment is bit-identical to serial compress on
    # its slice of the stream, and so is the assembled container.
    serial = [compress(part, _CONFIG) for part in plan.split(stream)]
    for segment, reference in zip(segments, serial):
        assert segment.codes == reference.compressed.codes
        assert segment.original_bits == reference.compressed.original_bits
    assert item.container == dump_segments(
        [r.compressed for r in serial], [r.assigned_stream for r in serial]
    )

    # And the concatenated decode equals the concatenated serial decodes.
    assert decoded == TernaryVector.concat_all(
        [r.assigned_stream for r in serial]
    )


@given(text=st.text(alphabet="01X", min_size=0, max_size=200))
@settings(max_examples=100, deadline=None)
def test_single_shard_batch_equals_serial_container(text):
    stream = TernaryVector(text)
    item = compress_batch(
        _CONFIG, [stream], workers=1, plans=[ShardPlan(len(stream))]
    )[0]
    reference = compress(stream, _CONFIG)
    assert item.container == dump_bytes(
        reference.compressed, reference.assigned_stream
    )


@given(data=stream_and_plan())
@settings(max_examples=60, deadline=None)
def test_container_roundtrip_preserves_segment_structure(data):
    stream, plan = data
    item = compress_batch(_CONFIG, [stream], workers=1, plans=[plan])[0]
    segments = [seg.compressed for seg in load_seeded(item.container)]
    assert [s.num_codes for s in segments] == [
        shard.compressed.num_codes for shard in item.shards
    ]
    assert sum(s.original_bits for s in segments) == len(stream)
