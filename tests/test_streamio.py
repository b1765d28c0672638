"""The v5 streaming frame journal: format, round-trip, typed failures."""

import hashlib
import io
import random
import struct
import zlib

import pytest

from repro.bitstream import TernaryVector
from repro.container import container_version, decode_container, load_seeded
from repro.core import LZWConfig, StreamEncoder, compress
from repro.reliability.errors import ContainerError, DecodeError
from repro.streamio import (
    DEFAULT_CODES_PER_FRAME,
    FRAME_DATA,
    FRAME_DATA_HEADER_SIZE,
    StreamContainerReader,
    StreamContainerWriter,
    VERSION_STREAM,
    decode_stream_bytes,
    frame_seal,
    iter_decode_stream,
    pack_chars,
    pack_frame_payload,
    read_stream_header,
    scan_stream,
    stream_header_bytes,
)

CFG = LZWConfig(char_bits=4, dict_size=64, entry_bits=32)


def build_stream_container(stream, config=CFG, codes_per_frame=32,
                           chunk_bits=500):
    enc = StreamEncoder(config)
    sink = io.BytesIO()
    writer = StreamContainerWriter(config, sink, codes_per_frame=codes_per_frame)
    for i in range(0, len(stream), chunk_bits):
        writer.write_codes(enc.feed(stream[i : i + chunk_bits]))
    writer.finalize(enc.finalize(), enc.original_bits)
    return sink.getvalue()


def random_stream(n=3000, seed=1, x_density=0.3):
    return TernaryVector.random(n, x_density=x_density, rng=random.Random(seed))


class TestHeader:
    def test_round_trip(self):
        config = LZWConfig(char_bits=5, dict_size=256, entry_bits=40,
                           reset_on_full=True)
        parsed = read_stream_header(stream_header_bytes(config))
        assert parsed.char_bits == 5
        assert parsed.dict_size == 256
        assert parsed.entry_bits == 40
        assert parsed.reset_on_full is True

    def test_version_is_5(self):
        data = stream_header_bytes(CFG)
        assert data[:4] == b"LZWT" and data[4] == VERSION_STREAM == 5
        assert container_version(build_stream_container(random_stream(200))) == 5

    def test_header_crc_detected(self):
        data = bytearray(stream_header_bytes(CFG))
        data[6] ^= 0x01
        with pytest.raises(ContainerError):
            read_stream_header(bytes(data))


class TestRoundTrip:
    def test_equals_one_shot(self):
        stream = random_stream()
        data = build_stream_container(stream)
        assert decode_stream_bytes(data) == compress(stream, CFG).assigned_stream

    def test_decode_container_dispatches_v5(self):
        stream = random_stream(1500, seed=2)
        data = build_stream_container(stream)
        assert decode_container(data) == compress(stream, CFG).assigned_stream

    def test_load_seeded_refuses_v5_with_typed_error(self):
        data = build_stream_container(random_stream(400, seed=3))
        with pytest.raises(ContainerError):
            load_seeded(data)

    def test_empty_input(self):
        data = build_stream_container(TernaryVector.xs(0))
        scan = scan_stream(data)
        assert scan.error is None
        assert scan.terminal is not None and scan.terminal.frame_count == 0
        assert len(decode_stream_bytes(data)) == 0

    def test_codes_split_across_frames_exactly(self):
        stream = random_stream(2000, seed=4)
        data = build_stream_container(stream, codes_per_frame=7)
        scan = scan_stream(data)
        codes = [c for f in scan.frames for c in f.codes]
        assert codes == list(compress(stream, CFG).compressed.codes)
        assert all(f.num_codes <= 7 for f in scan.frames)

    def test_single_code_frames(self):
        stream = random_stream(600, seed=5)
        data = build_stream_container(stream, codes_per_frame=1)
        assert decode_stream_bytes(data) == compress(stream, CFG).assigned_stream


class TestZeroLengthFinalFrame:
    def test_reader_accepts_empty_data_frame(self):
        """The writer never emits empty frames, but the format tolerates
        a zero-code frame (payload_len 0, seal unchanged) — hand-craft
        one between the last data frame and the terminal."""
        stream = random_stream(800, seed=6)
        data = build_stream_container(stream, codes_per_frame=32)
        scan = scan_stream(data)
        last = scan.frames[-1]
        terminal = scan.terminal

        # Recompute the running chars CRC at the end of the data frames
        # to seal the empty frame with (identical to the terminal seal's
        # CRC input, since no characters are added).
        chars_crc = 0
        from repro.core import StreamDecoder

        dec = StreamDecoder(CFG)
        for frame in scan.frames:
            chars = []
            for code in frame.codes:
                chars.extend(dec.push(code))
            chars_crc = zlib.crc32(pack_chars(chars), chars_crc)
        seal = frame_seal(dec.snapshot(), chars_crc)

        empty_wo_crc = struct.pack(
            ">BIIIQII8s",
            FRAME_DATA,
            last.index + 1,
            0,                       # num_codes
            0,                       # payload_len
            terminal.total_original_bits,
            zlib.crc32(b""),
            last.chain_crc,          # unchanged running CRC
            seal,
        )
        empty = empty_wo_crc + struct.pack(">I", zlib.crc32(empty_wo_crc))
        assert len(empty) == FRAME_DATA_HEADER_SIZE

        terminal_bytes = data[terminal.header_offset : terminal.end_offset]
        # Patch the terminal's frame_count (+1) and re-sign its CRC.
        patched = bytearray(terminal_bytes)
        patched[1:5] = struct.pack(">I", terminal.frame_count + 1)
        patched[-4:] = struct.pack(">I", zlib.crc32(bytes(patched[:-4])))
        doctored = (
            data[: terminal.header_offset] + empty + bytes(patched)
        )
        assert decode_stream_bytes(doctored) == decode_stream_bytes(data)


class TestTypedErrors:
    def test_torn_tail(self):
        data = build_stream_container(random_stream(1000, seed=7))
        scan = scan_stream(data[:-10])
        assert scan.error is not None
        assert getattr(scan.error, "reason", None) in (
            "torn_tail", "missing_terminal"
        )
        with pytest.raises(ContainerError):
            decode_stream_bytes(data[:-10])

    def test_missing_terminal(self):
        data = build_stream_container(random_stream(1000, seed=8))
        scan = scan_stream(data)
        cut = scan.terminal.header_offset
        headless = data[:cut]
        scan2 = scan_stream(headless)
        assert getattr(scan2.error, "reason", None) == "missing_terminal"
        assert len(scan2.frames) == len(scan.frames)

    def test_payload_crc_mismatch(self):
        data = build_stream_container(random_stream(1000, seed=9))
        scan = scan_stream(data)
        frame = scan.frames[0]
        bad = bytearray(data)
        bad[frame.end_offset - 1] ^= 0x40  # flip a payload bit
        with pytest.raises(ContainerError) as err:
            decode_stream_bytes(bytes(bad))
        assert getattr(err.value, "reason", None) in (
            "payload_crc", "header_crc"
        )

    def test_trailing_data_rejected(self):
        data = build_stream_container(random_stream(500, seed=10))
        with pytest.raises(ContainerError) as err:
            decode_stream_bytes(data + b"junk")
        assert getattr(err.value, "reason", None) == "trailing_data"

    def test_reader_on_stdin_like_filehandle(self):
        data = build_stream_container(random_stream(700, seed=11))
        reader = StreamContainerReader(io.BytesIO(data))
        chars_total = 0
        for chars, _frame in iter_decode_stream(reader):
            chars_total += len(chars)
        assert chars_total * CFG.char_bits >= reader.terminal.total_original_bits


class TestGolden:
    def test_golden_container_digest(self):
        """Lock the v5 format bytes: any change to the header layout,
        frame packing, chain CRC or seal definition must show up here
        as a deliberate golden update."""
        stream = TernaryVector("0110X01X" * 64)
        data = build_stream_container(stream, codes_per_frame=16,
                                      chunk_bits=100)
        assert len(data) == 156
        assert hashlib.sha256(data).hexdigest() == (
            "c06c9b08dcaaf3ccf4be3e189030abc4a0500ad1279cb7fb72591e7fa125ede2"
        )

    def test_default_codes_per_frame(self):
        assert DEFAULT_CODES_PER_FRAME == 4096


def test_writer_refuses_after_finalize():
    sink = io.BytesIO()
    writer = StreamContainerWriter(CFG, sink, codes_per_frame=4)
    enc = StreamEncoder(CFG)
    writer.write_codes(enc.feed(random_stream(100, seed=12)))
    writer.finalize(enc.finalize(), enc.original_bits)
    with pytest.raises(RuntimeError):
        writer.write_codes([0])
    with pytest.raises(RuntimeError):
        writer.finalize([], 0)


def test_writer_rejects_an_undecodable_code():
    """The shadow decoder refuses a code the encoder could not have
    emitted; the frame is not written and the error is typed."""
    sink = io.BytesIO()
    writer = StreamContainerWriter(CFG, sink, codes_per_frame=2)
    header_len = len(sink.getvalue())
    with pytest.raises(ContainerError, match="undecodable code") as info:
        writer.write_codes([3, CFG.dict_size + 5])
    assert isinstance(info.value.__cause__, DecodeError)
    assert len(sink.getvalue()) == header_len
