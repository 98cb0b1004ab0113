"""The library's readers raise only pmean.errors types, whatever they are given.

Each property feeds a reader mutated or arbitrary input and lets any other
exception fail the test. The JSON readers get a valid document with one
field replaced by an arbitrary JSON value or removed; the line-based readers
get lines assembled from their grammar's pieces, or arbitrary bytes.
"""
import copy
import json
from contextlib import suppress

from hypothesis import given, settings
from hypothesis import strategies as st

from pmean.embeddings import load_text_embeddings
from pmean.errors import InputError, NumericalPolicyError
from pmean.evaluation import EvalReport, ReportRow, TaskResult, emit_report, load_task, parse_report
from pmean.pooling import parse_config_text
from pmean.projection import init_projection, load_projection, projection_json

TYPED = (InputError, NumericalPolicyError)  # the roots of pmean.errors

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=5,
)


def _paths(node, prefix=()):
    """The key path of every value in a parsed JSON document, the root's () included."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(value, prefix + (key,))


@st.composite
def one_field_mutations(draw, doc):
    """``doc`` as JSON text with one value replaced by an arbitrary one, or one key removed."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(JSON_VALUES)
    if not path:
        return json.dumps(value)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


def line_files(pieces):
    """File bytes: lines joined from the grammar's ``pieces``, or arbitrary bytes."""
    lines = st.lists(st.sampled_from(pieces) | st.text(max_size=3), max_size=5).map("".join)
    text = st.lists(lines, max_size=5).map("\n".join)
    return text.map(str.encode) | st.binary(max_size=40)


REPORT = json.loads(emit_report(EvalReport([
    ReportRow("m1", [TaskResult("t1", "accuracy", 0.7, 0.05, in_language=0.8),
                     TaskResult("t2", "macro_f1", 0.5, 0.01)]),
    ReportRow("m2", [TaskResult("t1", "accuracy", 0.9, 0.0, in_language=0.95),
                     TaskResult("t2", "macro_f1", 0.6, 0.02)]),
]), "json"))
MODEL = json.loads(projection_json(init_projection(2, 3, 2, seed=0)))


@settings(max_examples=120, deadline=None)
@given(text=one_field_mutations(REPORT) | st.text(max_size=20))
def test_parse_report_raises_only_typed_errors_and_what_it_parses_emits(text):
    try:
        report = parse_report(text)
    except TYPED:
        return
    emit_report(report, "json")
    emit_report(report, "markdown")


@settings(max_examples=100, deadline=None)
@given(text=one_field_mutations(MODEL))
def test_load_projection_raises_only_typed_errors(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("model") / "m.json"
    path.write_text(text, encoding="utf-8")
    with suppress(*TYPED):
        load_projection(path)


@settings(max_examples=100, deadline=None)
@given(text=st.lists(st.sampled_from(["space=a", "p=", "1", ",", "inf", "-inf", "nan", "1e999",
                                      "0.5", "path=", "lang=en", "=", "#", " ", "\t", "\r", "\n"])
                     | st.text(max_size=3), max_size=12).map("".join))
def test_parse_config_text_raises_only_typed_errors(text):
    with suppress(*TYPED):
        parse_config_text(text, "c.cfg")


@settings(max_examples=100, deadline=None)
@given(data=line_files(["#name=t", "#metric=accuracy", "#metric=f1", "#lang=en", "#", "=",
                        "a", "b", "\t", " ", "\r", "\x85"]))
def test_load_task_raises_only_typed_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("task") / "t.tsv"
    path.write_bytes(data)
    with suppress(*TYPED):
        load_task(path)


@settings(max_examples=100, deadline=None)
@given(data=line_files(["a", "b", " ", "\t", "1.0", "-2", "1_0", "nan", "inf", "1e999", "0x1",
                        "\r", "\x00", "١"]))
def test_load_text_embeddings_raises_only_typed_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("space") / "e.txt"
    path.write_bytes(data)
    with suppress(*TYPED):
        load_text_embeddings(path)
