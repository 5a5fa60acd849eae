"""Property test of the command line's exit-code contract: a valid document
of every subcommand, with one member or item swapped for another value,
deleted or duplicated, ends in exit 0, 2 or 3, never in an internal
error, and within a stated wall-clock bound.  Each example runs in process
through `cli.main`, reading the document from stdin; the example count is
fixed and the examples are derived from the test itself (the settings of
tests/test_properties.py)."""

import contextlib
import io
import json
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unipavg import SectionTuple, cli, embed_simplex, serialize
from unipavg.fixtures import (cover_local_sections, cubic_orbit, six_point_cover, sqrt2_orbit,
                              two_point_tuple)
from unipavg.nilpotent import log_unipotent
from test_properties import SETTINGS

# every run seen takes well under a tenth of this on a shared 2-core box
WALL_BOUND_S = 2.0

# the values swapped in: zero, units, the two sides of one byte, large
# magnitudes, a fraction, 1.0 and booleans (which == takes for 1 and 0),
# null, strings and empty containers
VALUES = [0, 1, -1, 255, 256, 10 ** 6, -10 ** 6, 0.5, 1.0, True, False, None, "x", "", [],
          {}]


def _main(argv, doc):
    """cli.main on argv with the document on stdin."""
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        return cli.main(argv)
    finally:
        sys.stdin = stdin


def _sections_docs():
    span, local = cover_local_sections()
    build = {"field": serialize.field_to_json(span.field),
             "cover": serialize.cover_to_json(six_point_cover()),
             "group": serialize.span_to_json(span),
             "locals": serialize.locals_to_json(local)}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert _main(["sections", "--input", "-", "--max-q", "1"], build) == 0
    validate = json.loads(out.getvalue())
    del validate["report"]
    return build, validate


def _respelled_fixed_entries(validate):
    """A copy of a validate document whose entries on and below the
    diagonal of every datum above level 0 are spelled, in turn, in the
    valid ways the writer never uses, so the reader takes its general
    path for them."""
    doc = json.loads(json.dumps(validate))
    k = 0
    for per_point in doc["levels"].values():
        for mat in per_point.values():
            for i, row in enumerate(mat["entries"]):
                for j in range(i + 1):
                    entry = row[j]
                    if not entry["q"]:
                        continue
                    k += 1
                    zeros = [0] * entry["q"]
                    coef = [{"num": 2, "den": 2}, {"num": 1}, 1][k % 3] if i == j else 0
                    row[j] = [{"terms": entry["terms"], "params": [], "q": entry["q"]},
                              dict(entry, extra=None),
                              {"q": entry["q"], "terms": [{"exp": zeros, "coef": coef}]},
                              dict(entry, terms=entry["terms"] + [{"exp": zeros, "coef": 0}]),
                              ][k % 4]
    return doc


def _jobs():
    t = two_point_tuple()
    lifted = SectionTuple(t.group, [embed_simplex(s, 1) for s in t.sections])
    a, b = (log_unipotent(s) for s in t.sections)
    build, validate = _sections_docs()
    return {
        "wav": (["wav"], serialize.tuple_to_json(t)),
        "wsym": (["wsym"], serialize.tuple_to_json(lifted)),
        "figure-data": (["figure-data", "--resolution", "2"], serialize.tuple_to_json(t)),
        "exp": (["exp"], {"matrix": serialize.matrix_to_json(b)}),
        "log": (["log"], {"matrix": serialize.matrix_to_json(t.sections[1])}),
        "bch": (["bch"], {"a": serialize.matrix_to_json(a), "b": serialize.matrix_to_json(b)}),
        "sections-build": (["sections", "--max-q", "1"], build),
        "sections-validate": (["sections", "--max-q", "1"], validate),
        "sections-validate-respelled": (["sections", "--max-q", "1"],
                                        _respelled_fixed_entries(validate)),
        "galois-sqrt2": (["galois"], serialize.orbit_to_json(sqrt2_orbit())),
        "galois-cubic": (["galois"], serialize.orbit_to_json(cubic_orbit())),
    }


JOBS = _jobs()


def mutated(doc, path, op, value):
    """A copy of doc with one member or item, found by following path (each
    step an index into a container's members, taken modulo their number),
    replaced by value, deleted or, in a list, duplicated."""
    doc = json.loads(json.dumps(doc))      # serialize shares equal polynomials' dicts
    parent, key = None, None
    node = doc
    for step in path:
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, keys[step % len(keys)]
        node = node[key]
    if parent is None:
        return value if op == "replace" else doc
    if op == "replace":
        parent[key] = value
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, parent[key])
    return doc


@pytest.mark.parametrize("name", sorted(JOBS))
@SETTINGS
@given(path=st.lists(st.integers(0, 63), max_size=10),
       op=st.sampled_from(["replace", "delete", "duplicate"]),
       value=st.sampled_from(VALUES))
def test_a_mutated_document_exits_0_2_or_3_in_bounded_time(name, path, op, value):
    argv, doc = JOBS[name]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _main(argv + ["--input", "-"], mutated(doc, path, op, value))
    elapsed = time.perf_counter() - start
    assert code in (0, 2, 3), (code, err.getvalue())
    if err.getvalue():
        assert json.loads(err.getvalue())["error"]["kind"] != "internal-error", err.getvalue()
    assert elapsed < WALL_BOUND_S, elapsed


# a constant matrix entry with 1.0, true or a string as its coefficient,
# as its q, or in place of the whole entry, and the error the reader
# reports for it wherever the entry is (a list, since a dict would take
# the key ("coef", True) for ("coef", 1.0))
HOSTILE_ERRORS = [
    ("coef", 1.0, "FormatError", "expected an integer or a num/den object"),
    ("coef", True, "FormatError", "booleans are not numbers"),
    ("coef", "1", "FormatError", "expected an integer or a num/den object"),
    ("q", 1.0, "FormatError", "expected int for q, got float"),
    ("q", True, "FormatError", "expected int for q, got bool"),
    ("q", "1", "FormatError", "expected int for q, got str"),
    ("entry", 1.0, "FormatError", "expected dict for polynomial, got float"),
    ("entry", True, "FormatError", "expected dict for polynomial, got bool"),
    ("entry", "1", "FormatError", "expected dict for polynomial, got str"),
]


@pytest.mark.parametrize("name", ["wav", "galois-sqrt2"])
@pytest.mark.parametrize("where", ["section", "basis"])
@pytest.mark.parametrize("i, j", [(1, 1), (1, 0)], ids=["diagonal", "below"])
def test_a_hostile_constant_entry_exits_2_with_its_message(name, where, i, j):
    argv, doc = JOBS[name]
    for place, value, kind, message in HOSTILE_ERRORS:
        bad = json.loads(json.dumps(doc))
        mat = (bad["group"]["basis"][0] if where == "basis"
               else bad["sections" if name == "wav" else "points"][1])
        entry = mat["entries"][i][j]
        if place == "entry":
            mat["entries"][i][j] = value
        elif place == "q":
            entry["q"] = value
        else:
            entry["terms"] = [{"exp": [], "coef": value}]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _main(argv + ["--input", "-"], bad)
        assert code == 2, (place, value)
        error = json.loads(err.getvalue())["error"]
        assert (error["type"], error["message"]) == (kind, message), (place, value)


def test_a_respelled_validate_document_passes():
    argv, doc = JOBS["sections-validate-respelled"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert _main(argv + ["--input", "-"], doc) == 0
    assert json.loads(out.getvalue())["report"]["ok"] is True


@pytest.mark.parametrize("i, j", [(0, 0), (1, 1), (1, 0)], ids=["first", "diagonal", "below"])
def test_a_hostile_fixed_entry_of_a_validate_document_exits_2_with_its_message(i, j):
    """The same values in a fixed entry of a level-1 datum, whose upper
    entry is not constant, get the same errors."""
    argv, doc = JOBS["sections-validate"]
    for place, value, kind, message in HOSTILE_ERRORS:
        bad = json.loads(json.dumps(doc))
        mat = bad["levels"]["0.1"]["c"]
        entry = mat["entries"][i][j]
        if place == "entry":
            mat["entries"][i][j] = value
        elif place == "q":
            entry["q"] = value
        else:
            entry["terms"] = [{"exp": [0], "coef": value}]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _main(argv + ["--input", "-"], bad)
        assert code == 2, (place, value)
        error = json.loads(err.getvalue())["error"]
        assert (error["type"], error["message"]) == (kind, message), (place, value)
