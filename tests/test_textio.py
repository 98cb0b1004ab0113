import pytest

from pmean.textio import read_lines, read_text


def write(tmp_path, data: bytes):
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    return path


class TestLineEndings:
    @pytest.mark.parametrize("data, lines", [
        (b"a 1.0 2.0\rb 3.0 4.0\n", [(1, "a 1.0 2.0\rb 3.0 4.0")]),  # a lone CR is text
        (b"a\r\nb\r\n", [(1, "a"), (2, "b")]),  # CRLF reads as LF
        (b"a\nb", [(1, "a"), (2, "b")]),  # no final terminator
        (b"a\r\r\nb\n", [(1, "a\r"), (2, "b")]),  # only one CR is dropped
        (b"\r\n\n\rx\n", [(3, "\rx")]),  # blank lines skipped, numbers kept
    ])
    def test_read_lines_ends_lines_at_lf_only(self, tmp_path, data, lines):
        assert list(read_lines(write(tmp_path, data))) == lines

    @pytest.mark.parametrize("data, text", [
        (b"alpha\rbeta\n", "alpha\rbeta\n"),
        (b"alpha\r\nbeta\r\n", "alpha\nbeta\n"),
        (b"a\r\r\nb", "a\r\nb"),
    ])
    def test_read_text_reads_crlf_as_lf_and_keeps_a_lone_cr(self, tmp_path, data, text):
        assert read_text(write(tmp_path, data)) == text
