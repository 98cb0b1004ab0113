import ast
import hashlib
import json
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmean.textio
from pmean.embeddings import load_text_embeddings
from pmean.errors import FormatError
from pmean.textio import (float_row_text, json_document, json_float_array, json_text, read_input,
                          read_lines, read_text)

MIB = 2**20


# numpy asks for huge pages from 4 MiB, so read_input's buffer is one of either kind
@pytest.mark.parametrize("size", [0, 1, MIB - 1, MIB, MIB + 1, 4 * MIB - 1, 4 * MIB, 4 * MIB + 1])
def test_read_input_gives_the_whole_bytes_and_their_sha256(tmp_path, size):
    data = np.random.default_rng(size).bytes(size)
    (tmp_path / "f.bin").write_bytes(data)
    assert read_input(tmp_path / "f.bin") == (data, hashlib.sha256(data).hexdigest())


def test_read_input_gives_a_read_only_buffer(tmp_path):
    (tmp_path / "f.bin").write_bytes(b"abc")
    view, _ = read_input(tmp_path / "f.bin")
    assert isinstance(view, memoryview) and view.readonly
    with pytest.raises(TypeError):
        view[0] = 0


@pytest.mark.parametrize("reported", [0, 1, 4095, 4 * MIB - 1, 4 * MIB + 5, 4 * MIB + 4096],
                         ids=lambda n: f"fstat-{n}")
def test_read_input_reads_to_eof_whatever_fstat_reported(tmp_path, monkeypatch, reported):
    # a file that grew after fstat is read to its end, one that shrank as it is
    data = np.random.default_rng(reported).bytes(4 * MIB + 5)
    (tmp_path / "f.bin").write_bytes(data)
    real = os.fstat
    monkeypatch.setattr(os, "fstat",
                        lambda fd: SimpleNamespace(st_mode=real(fd).st_mode, st_size=reported))
    got = read_input(tmp_path / "f.bin")
    monkeypatch.undo()
    assert got == (data, hashlib.sha256(data).hexdigest())


@pytest.mark.parametrize("line", [0, -1], ids=["first line", "last line"])
def test_a_large_file_that_is_not_utf8_names_its_byte(tmp_path, line):
    # over 4 MiB, so read into a huge-page buffer; the error text is the one a bytes read gave
    rows = [f"w{i} " + " ".join(["0.5"] * 300) + "\n" for i in range(4 * MIB // 1200 + 1)]
    rows[line] = "caf\udce9" + rows[line][rows[line].index(" "):]
    path = tmp_path / "big.txt"
    path.write_bytes("".join(rows).encode("utf-8", "surrogateescape"))
    assert path.stat().st_size > 4 * MIB
    with pytest.raises(FormatError) as exc:
        load_text_embeddings(path)
    assert str(exc.value) == f"{path}: not UTF-8: cannot decode byte 0xe9"
    with pytest.raises(FormatError) as exc:
        read_text(read_input(path)[0], path)
    assert str(exc.value) == f"{path}: not UTF-8: cannot decode byte 0xe9"


# the only function that opens a file to read it, which no FIFO or device blocks;
# read_input, whose digest is of the bytes a command parses, and the parse cache's
# reader of its entries both open through it
READERS = {("textio.py", "open_regular")}
# the only functions that open a file to write it: the one writer, which makes
# each file pmean writes appear whole or not at all
WRITERS = {("manifest.py", "atomic_open"), ("manifest.py", "temp_beside")}
# the os.open flags that let a file be written, made or cut short
WRITE_FLAGS = ("O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC")
# json's writers, which only json_text calls: one function spells every JSON file;
# and its readers, which only json_document calls: one function decodes every JSON file
JSON_WRITES = ("dump", "dumps")
JSON_READS = ("load", "loads")


def called(call: ast.Call) -> tuple[str | None, str | None]:
    """The name ``call`` calls and the name it is looked up on: ``open(p)`` is
    ``("open", None)``, ``os.open(p)`` is ``("open", "os")``, ``p.open()``
    is ``("open", "p")`` and ``f()(p)`` is ``(None, None)``."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    owner = getattr(func, "value", None)
    return name, owner.id if isinstance(owner, ast.Name) else None


def open_mode(call: ast.Call) -> ast.expr:
    """The mode argument of an ``open`` that is not ``os.open``: builtin, ``io``
    or a Path's; ``"r"`` when none is given."""
    func = call.func
    at = 1 if isinstance(func, ast.Name) or called(call)[1] == "io" else 0  # Path.open(mode)
    return next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[at] if len(call.args) > at else ast.Constant("r"))


def opens_for_reading(call: ast.Call) -> bool:
    """Whether ``call`` opens a file to read it: ``open`` (builtin, ``io`` or a
    Path's) in a mode that reads or is not a literal, ``os.open`` without
    ``O_WRONLY``, or ``Path.read_text``/``read_bytes``."""
    name, owner = called(call)
    if name in ("read_text", "read_bytes"):
        return isinstance(call.func, ast.Attribute)
    if name != "open":
        return False
    if owner == "os":
        return "O_WRONLY" not in ast.unparse(call.args[1])
    mode = open_mode(call)
    return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("r+"))


def opens_for_writing(call: ast.Call) -> bool:
    """Whether ``call`` opens a file to write it: ``open`` (builtin, ``io`` or a
    Path's) in a mode that writes or is not a literal, ``os.open`` with a flag
    that writes, ``Path.write_text``/``write_bytes``, or ``tempfile.mkstemp``."""
    name, owner = called(call)
    if name in ("write_text", "write_bytes"):
        return isinstance(call.func, ast.Attribute)
    if name == "mkstemp":
        return True
    if name != "open":
        return False
    if owner == "os":
        return any(flag in ast.unparse(call.args[1]) for flag in WRITE_FLAGS)
    mode = open_mode(call)
    return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+"))


def calls_that(predicate, src: Path, per_module: bool = False) -> set[tuple[str, str]]:
    """(file, outermost function) of every call in ``src/*.py`` for which ``predicate``
    holds; with ``per_module``, ``predicate(module)`` is each file's predicate, for
    a scan that reads the file's imports."""
    found = set()
    for path in sorted(src.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        holds = predicate(module) if per_module else predicate
        for top in module.body:
            found |= {(path.name, getattr(top, "name", "<module>")) for node in ast.walk(top)
                      if isinstance(node, ast.Call) and holds(node)}
    return found


def calls_json(names: tuple[str, ...]):
    """A per-module predicate for ``calls_that``: whether a call in ``module`` calls
    one of json's functions ``names``, however ``module`` imports them:
    ``json.dumps``, ``import json as j; j.load``, ``from json import dumps as d; d``."""
    def calls_in(module: ast.Module):
        modules, functions = set(), set()
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                modules |= {alias.asname or alias.name for alias in node.names
                            if alias.name == "json"}
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                functions |= {alias.asname or alias.name for alias in node.names
                              if alias.name in names}

        def holds(call: ast.Call) -> bool:
            name, owner = called(call)
            return (owner in modules and name in names
                    or isinstance(call.func, ast.Name) and name in functions)
        return holds
    return calls_in


def imports_json(module: ast.Module) -> bool:
    """Whether ``module`` imports ``json`` or a module in it, by an import statement
    in any spelling or by ``__import__``/``importlib.import_module`` of a literal."""
    def is_json(name) -> bool:
        return isinstance(name, str) and (name == "json" or name.startswith("json."))

    for node in ast.walk(module):
        if isinstance(node, ast.Import) and any(is_json(alias.name) for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and is_json(node.module):
            return True
        if (isinstance(node, ast.Call) and called(node)[0] in ("__import__", "import_module")
                and node.args and isinstance(node.args[0], ast.Constant)
                and is_json(node.args[0].value)):
            return True
    return False


def calls_to(name: str):
    """Whether a call calls ``name``, directly or as an attribute (``pooling._reduce``)."""
    return lambda call: called(call)[0] == name


SRC = Path(pmean.textio.__file__).parent


def test_read_input_is_the_only_reader_of_an_input():
    assert calls_that(opens_for_reading, SRC) <= READERS


def test_the_reader_scan_sees_each_kind_of_read(tmp_path):
    (tmp_path / "m.py").write_text(
        "def a(p): return open(p)\n"
        "def b(p): return open(p, 'r+b')\n"
        "def c(p, m): return open(p, m)\n"
        "def d(p): return os.open(p, os.O_RDONLY | os.O_NONBLOCK)\n"
        "def e(p): return p.read_bytes()\n"
        "def f(p): return p.open()\n"
        "def g(p): return io.open(p, mode='rb')\n"
        "def w(p): return open(p, 'wb'), os.open(p, os.O_WRONLY), p.open('w'), read_text(p)\n")
    assert calls_that(opens_for_reading, tmp_path) == {("m.py", name) for name in "abcdefg"}


# each step from word vectors to a written M_p entry has one caller, the per-p step
# that power_mean and embed_corpus share, so a change to a step changes both alike
M_P_STEPS = ("_powers", "_reduce", "_root")


@pytest.mark.parametrize("step", M_P_STEPS)
def test_pool_p_is_the_only_caller_of_each_m_p_step(step):
    assert calls_that(calls_to(step), SRC) == {("pooling.py", "_pool_p")}


def test_the_step_scan_sees_direct_and_attribute_calls(tmp_path):
    (tmp_path / "m.py").write_text(
        "def a(W, p): return _reduce(W, p)\n"
        "def b(W, p): return pooling._reduce(W, p)\n"
        "class C:\n"
        "    def c(self, W, p): return self.k(_reduce(W, p))\n"
        "def d(W, p): return _reduce_all(W, p), reduce(W, p), _reduce\n")
    assert calls_that(calls_to("_reduce"), tmp_path) == {("m.py", "a"), ("m.py", "b"),
                                                         ("m.py", "C")}


def test_manifest_is_the_only_writer_of_a_file():
    assert calls_that(opens_for_writing, SRC) == WRITERS


def test_the_writer_scan_sees_each_kind_of_write(tmp_path):
    (tmp_path / "m.py").write_text(
        "def a(p): return open(p, 'w')\n"
        "def b(p): return open(p, 'ab')\n"
        "def c(p): return open(p, 'xb')\n"
        "def d(p): return open(p, 'r+b')\n"
        "def e(p, m): return open(p, m)\n"
        "def f(p): return p.open('w', encoding='utf-8')\n"
        "def g(p): return io.open(p, mode='wb')\n"
        "def h(p): return os.open(p, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)\n"
        "def i(p): return os.open(p, os.O_RDWR)\n"
        "def j(p): return os.open(p, os.O_APPEND | os.O_TRUNC)\n"
        "def k(p): return p.write_text('x')\n"
        "def l(p): return p.write_bytes(b'x')\n"
        "def m(d): return tempfile.mkstemp(dir=d)\n"
        "def n(d): return mkstemp(dir=d)\n"
        "class O:\n"
        "    def save(self, p):\n"
        "        with open(p, 'w') as fh: fh.write('x')\n"
        "def r(p): return open(p), open(p, 'rb'), os.open(p, os.O_RDONLY), p.read_text(), "
        "p.open(), write_text(p), os.open(p, flags | os.O_NONBLOCK)\n")
    assert calls_that(opens_for_writing, tmp_path) == {("m.py", name) for name in "abcdefghijklmnO"}


def test_json_text_is_the_only_caller_of_json_writers():
    assert calls_that(calls_json(JSON_WRITES), SRC, per_module=True) == {
        ("textio.py", "json_text")}
    assert calls_that(calls_json(JSON_READS), SRC, per_module=True) == {
        ("textio.py", "json_document")}


def test_the_json_scan_sees_each_spelling(tmp_path):
    (tmp_path / "m.py").write_text(
        "import json\n"
        "import json as j\n"
        "from json import dumps as d, dump, loads as l\n"
        "def a(x): return json.dumps(x)\n"
        "def b(x, f): return json.dump(x, f)\n"
        "def c(x): return j.dumps(x)\n"
        "def e(x): return d(x)\n"
        "def f(x, fh): return dump(x, fh)\n"
        "class G:\n"
        "    def g(self, x): return json.dumps(x, indent=2)\n"
        "def h(x): return json.loads(x)\n"
        "def i(fh): return j.load(fh)\n"
        "def k(x): return l(x)\n"
        "def r(x): return dumps(x), orjson.dumps(x), self.d(x), orjson.loads(x), load(x)\n")
    assert calls_that(calls_json(JSON_WRITES + JSON_READS), tmp_path, per_module=True) == {
        ("m.py", name) for name in "abcefGhik"}
    assert calls_that(calls_json(JSON_READS), tmp_path, per_module=True) == {
        ("m.py", name) for name in "hik"}


def test_textio_alone_imports_json():
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if imports_json(ast.parse(path.read_text(encoding="utf-8")))] == ["textio.py"]


@pytest.mark.parametrize("source, imports", [
    ("import json", True),
    ("import os, json as j", True),
    ("import json.decoder", True),
    ("from json import loads", True),
    ("from json.decoder import JSONDecodeError", True),
    ("def f():\n    from json import *", True),
    ("m = __import__('json')", True),
    ("m = importlib.import_module('json.encoder')", True),
    ("import orjson, jsonschema", False),
    ("from .textio import json_text, json_document", False),
    ("from . import json_helpers", False),
    ("m = importlib.import_module('jsonlines')", False),
])
def test_the_json_import_scan_sees_each_spelling(source, imports):
    assert imports_json(ast.parse(source)) is imports


@pytest.mark.parametrize("text, message", [
    ('{"v": 1', "doc.json: not valid JSON: Expecting ',' delimiter"),
    ('[{"v": 1}]', "doc.json: expected a JSON object, got list"),
    ('"v"', "doc.json: expected a JSON object, got str"),
    ('{"v": 2}', "doc.json: unsupported v 2"),
    ('{"v": "1"}', "doc.json: unsupported v '1'"),
    ('{"w": 1}', "doc.json: unsupported v None"),
])
def test_json_document_raises_format_error_naming_its_source(text, message):
    with pytest.raises(FormatError) as exc:
        json_document(text, "doc.json", "v", 1)
    assert str(exc.value).startswith(message)


def test_json_document_gives_the_object():
    assert json_document('{"v": 1, "x": [0.5, 2]}', "doc.json", "v", 1) == {"v": 1, "x": [0.5, 2]}


class TestLineEndings:
    @pytest.mark.parametrize("data, lines", [
        (b"a 1.0 2.0\rb 3.0 4.0\n", [(1, "a 1.0 2.0\rb 3.0 4.0")]),  # a lone CR is text
        (b"a\r\nb\r\n", [(1, "a"), (2, "b")]),  # CRLF reads as LF
        (b"a\nb", [(1, "a"), (2, "b")]),  # no final terminator
        (b"a\r\r\nb\n", [(1, "a\r"), (2, "b")]),  # only one CR is dropped
        (b"\r\n\n\rx\n", [(3, "\rx")]),  # blank lines skipped, numbers kept
    ])
    def test_read_lines_ends_lines_at_lf_only(self, data, lines):
        assert list(read_lines(data, "in.txt")) == lines

    @pytest.mark.parametrize("data, text", [
        (b"alpha\rbeta\n", "alpha\rbeta\n"),
        (b"alpha\r\nbeta\r\n", "alpha\nbeta\n"),
        (b"a\r\r\nb", "a\r\nb"),
    ])
    def test_read_text_reads_crlf_as_lf_and_keeps_a_lone_cr(self, data, text):
        assert read_text(data, "in.txt") == text

    def test_one_leading_byte_order_mark_is_skipped(self):
        bom = b"\xef\xbb\xbf"  # U+FEFF in UTF-8
        data = bom + b"a\r\n" + bom + b"b\n"  # only the first one is a mark
        assert read_text(data, "in.txt") == "a\n\ufeffb\n"
        assert list(read_lines(data, "in.txt")) == [(1, "a"), (2, "\ufeffb")]
        assert read_text(bom * 2 + b"a\n", "in.txt") == "\ufeffa\n"


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


class TestJsonFloatArray:
    """``json_float_array`` and ``json_text`` against ``json.dumps`` of the array's list."""

    @staticmethod
    def check(arr, indent):
        for level in range(3):
            want = json.dumps(arr.tolist(), indent=indent).replace("\n", "\n" + " " * indent * level)
            assert json_float_array(arr, indent, level) == want
        # nested two deep in a document, as a manifest's znorm_params are
        nested = json.dumps({"a": {"b": arr.tolist()}}, indent=indent)
        assert json_float_array(arr, indent, 2) in nested
        # and through json_text, two dicts deep beside what json.dumps writes itself
        doc = {"z": {"path": Path("d/m.json"), "arr": arr, "empty": {}},
               "list": [1, "two", None], "none": None, "text": 'a "quoted"\nline'}
        listed = {**doc, "z": {**doc["z"], "arr": arr.tolist()}}
        for sort_keys in (False, True):
            assert json_text(doc, indent, sort_keys=sort_keys, default=str) == json.dumps(
                listed, indent=indent, sort_keys=sort_keys, default=str) + "\n"

    @pytest.mark.parametrize("arr", [
        np.array([1e-05, 1e-08, 1e16, 5e-324, -0.0, 0.5]),
        np.array([[1e-05, -0.0], [5e-324, 1e16], [-1e-08, 0.0]]),
        np.array([]), np.empty((0, 3)), np.empty((2, 0)), np.empty((2, 3, 0)),
    ], ids=["outside the band", "2-D", "empty", "no rows", "empty rows", "empty rows 3-D"])
    @pytest.mark.parametrize("indent", [1, 2])
    def test_equals_json_dumps(self, arr, indent):
        self.check(arr, indent)

    @settings(max_examples=200, deadline=None)
    @given(float_rows.map(lambda row: row[np.isfinite(row)]), st.integers(1, 3),
           st.sampled_from([1, 2]))
    def test_equals_json_dumps_for_any_finite_floats(self, row, rows, indent):
        self.check(row, indent)
        self.check(np.tile(row, (rows, 1)), indent)
