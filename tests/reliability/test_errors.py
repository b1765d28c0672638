"""Unit tests for the unified exception taxonomy."""

import pytest

from repro.reliability.errors import (
    ConfigError,
    ContainerError,
    DecodeError,
    ReproError,
    StreamError,
    TestFileError,
)


class TestHierarchy:
    def test_everything_is_a_repro_error(self):
        for cls in (StreamError, DecodeError, ContainerError, ConfigError,
                    TestFileError):
            assert issubclass(cls, ReproError)

    def test_builtin_compatibility(self):
        # Pre-taxonomy except clauses must keep working.
        assert issubclass(StreamError, EOFError)
        for cls in (DecodeError, ContainerError, ConfigError, TestFileError):
            assert issubclass(cls, ValueError)

    def test_exit_codes(self):
        assert ConfigError.exit_code == 2
        assert TestFileError.exit_code == 3
        assert StreamError.exit_code == 4
        assert DecodeError.exit_code == 4
        assert ContainerError.exit_code == 4


class TestDiagnostics:
    def test_kwargs_become_attributes(self):
        exc = DecodeError("bad code", code_index=7, code=99, bit_offset=42)
        assert exc.code_index == 7
        assert exc.code == 99
        assert exc.bit_offset == 42
        assert exc.diagnostics == {"code_index": 7, "code": 99, "bit_offset": 42}

    def test_none_values_dropped(self):
        exc = StreamError("eof", bit_offset=3, requested_bits=None)
        assert exc.diagnostics == {"bit_offset": 3}
        assert not hasattr(exc, "requested_bits")

    def test_str_includes_diagnostics(self):
        exc = ContainerError("mismatch", byte_offset=30)
        assert "mismatch" in str(exc)
        assert "byte_offset=30" in str(exc)

    def test_str_without_diagnostics_is_plain(self):
        assert str(ReproError("plain message")) == "plain message"

    def test_message_attribute(self):
        exc = ContainerError("mismatch", byte_offset=30)
        assert exc.message == "mismatch"


class TestLibraryIntegration:
    def test_container_reexport(self):
        from repro.container import ContainerError as reexported

        assert reexported is ContainerError

    def test_config_error_raised(self):
        from repro.core import LZWConfig

        with pytest.raises(ConfigError) as info:
            LZWConfig(char_bits=0)
        assert info.value.field == "char_bits"

    def test_testfile_error_raised(self):
        from repro.testfile import parse_test_text

        with pytest.raises(TestFileError) as info:
            parse_test_text("01X\n01Z\n", name="bad")
        assert info.value.line == 2

    def test_stream_error_has_position(self):
        from repro.bitstream import BitReader

        reader = BitReader([1, 0])
        reader.read(1)
        with pytest.raises(StreamError) as info:
            reader.read(8)
        assert info.value.bit_offset == 1
        assert info.value.requested_bits == 8
        assert info.value.available_bits == 1

    def test_unterminated_unary_is_stream_error(self):
        from repro.bitstream import BitReader

        reader = BitReader([1, 1, 1])
        with pytest.raises(StreamError) as info:
            reader.read_unary()
        assert info.value.bit_offset == 0
        assert info.value.run_length == 3
