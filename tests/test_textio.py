import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmean.textio import float_row_text, read_lines, read_text


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

    def test_one_leading_byte_order_mark_is_skipped(self, tmp_path):
        bom = b"\xef\xbb\xbf"  # U+FEFF in UTF-8
        path = write(tmp_path, bom + b"a\r\n" + bom + b"b\n")  # only the first one is a mark
        assert read_text(path) == "a\n\ufeffb\n"
        assert list(read_lines(path)) == [(1, "a"), (2, "\ufeffb")]
        assert read_text(write(tmp_path, bom * 2 + b"a\n")) == "\ufeffa\n"


def repr_row(row, sep):
    return sep.join(map(repr, row.tolist()))


# any float64 bit pattern (subnormals, huge magnitudes, -0.0, NaN payloads),
# plus hypothesis' own floats and values inside repr's positional band
bit_patterns = st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))
in_band = st.floats(1e-4, 1e16, exclude_max=True).flatmap(
    lambda v: st.sampled_from([v, -v]))
float_rows = st.lists(st.one_of(bit_patterns, st.floats(), in_band), max_size=24).map(
    lambda values: np.array(values, dtype=np.float64))


class TestFloatRowText:
    @settings(max_examples=400, deadline=None)
    @given(float_rows, st.sampled_from(["\t", " "]))
    def test_equals_repr_joined(self, row, sep):
        assert float_row_text(row, sep) == repr_row(row, sep)

    @pytest.mark.parametrize("value, text", [
        (np.nextafter(1e-4, 0), "9.999999999999999e-05"),
        (1e-4, "0.0001"),
        (np.nextafter(1e16, 0), "9999999999999998.0"),
        (1e16, "1e+16"),
        (2.0**53 + 2, "9007199254740994.0"),
        (-0.0, "-0.0"),
        (5e-324, "5e-324"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
    ])
    @pytest.mark.parametrize("sep", ["\t", " "])
    def test_band_edges_and_extremes(self, value, text, sep):
        row = np.array([0.5, value, -value])
        assert float_row_text(row, sep) == sep.join(["0.5", text, repr(-float(value))])

    def test_a_row_wholly_outside_the_band(self):
        row = np.array([1e-05, -2.5e-07, 1e16, -1e300, 5e-324, np.inf, -np.inf, np.nan])
        assert float_row_text(row, "\t") == (
            "1e-05\t-2.5e-07\t1e+16\t-1e+300\t5e-324\tinf\t-inf\tnan")

    def test_strided_and_float32_rows_are_written_as_their_float64_values(self):
        X = np.asfortranarray([[0.1, 2.5e-07, -3.0], [1e16, 0.0, 7.25]])
        for row in [*X, *X.astype(np.float32)]:
            assert float_row_text(row, " ") == repr_row(row, " ")

    def test_an_empty_row_is_empty(self):
        assert float_row_text(np.array([]), "\t") == ""
