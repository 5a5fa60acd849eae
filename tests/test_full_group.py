"""The full unipotent group: its integer basis, its recognised document and
the echelon store's unit pivots.

`full_unipotent_span` builds each E_ij in the integer form, and
`serialize.span_from_json` compares the writer's document of that span
instead of reading it.  Both are compared exactly with the paths they
replaced: the E_ij built entry by entry, and the group read matrix by
matrix and checked by `LieSpan`.  A document that is not exactly the
writer's, in value or in the type of a number, must take the general path
with the same outcome.  `_Echelon.add_row` keeps a row whose pivot is 1
as it is; it is compared with the normalisation it skips.
"""

import copy
import json
import random

import pytest

from unipavg import QQ, LieSpan, NilMatrix, PolyRing, full_unipotent_span, serialize
from unipavg.errors import InputError
from unipavg.fixtures import cubic_field, sqrt2_field
from unipavg.nilpotent import _axpy, _Echelon, _int_from_rows
from helpers import rand_scalar

FIELDS = {"Q": QQ, "sqrt2": sqrt2_field(), "cubic": cubic_field()}
SIZES = range(1, 8)


def old_full_span(n, field):
    """The full span with each E_ij built entry by entry."""
    ring = PolyRing(field, 0)
    return LieSpan([NilMatrix.from_entries(ring, n, {(i, j): 1})
                    for i in range(n) for j in range(i + 1, n)], n=n, field=field, check=False)


def general_read(field, obj):
    """span_from_json's general path: every basis matrix read and the span
    checked."""
    return LieSpan([serialize.nil_from_json(field, b)
                    for b in serialize._expect(obj.get("basis", []), list, "basis")],
                   n=obj["n"], field=field)


def summary(span):
    """What a span holds: its size, field, basis forms, sparse rows, and
    the solve of every basis pair's bracket."""
    rows = [{k: (x.den, x.nums) for k, x in row.items()} for row in span._rows]
    solves = [[(c.den, c.nums) for c in span.coordinates(a.bracket(b))]
              for a in span.basis for b in span.basis]
    return span.n, span.field, [b._int_form() for b in span.basis], rows, solves


def assert_same_span(got, expected):
    assert summary(got) == summary(expected)
    assert got.ring is expected.ring and got.dim == expected.dim
    for a, b in zip(got.basis, expected.basis):
        assert a == b and b == a
        assert [[(x.den, x.nums) for x in row] for row in a.rows] == \
            [[(x.den, x.nums) for x in row] for row in b.rows]
    assert got.table.struct == expected.table.struct
    assert got.table.nilpotency_class == expected.table.nilpotency_class


def cases():
    for name in FIELDS:
        for n in SIZES:
            yield pytest.param(name, n, id="%s-n%d" % (name, n))


@pytest.mark.parametrize("name,n", list(cases()))
def test_the_integer_basis_matches_the_entry_basis(name, n):
    field = FIELDS[name]
    got, expected = full_unipotent_span(n, field), old_full_span(n, field)
    for b in got.basis:
        assert b._rows is None
        assert b._int == _int_from_rows(b.rows, field.degree)
    assert_same_span(got, expected)
    assert serialize.span_to_json(got) == serialize.span_to_json(expected)


@pytest.mark.parametrize("name,n", list(cases()))
def test_the_recognised_group_matches_the_general_reader(name, n, monkeypatch):
    field = FIELDS[name]
    doc = json.loads(json.dumps(serialize.span_to_json(full_unipotent_span(n, field))))
    expected = general_read(field, doc)
    reads = []
    nil_from_json = serialize.nil_from_json
    monkeypatch.setattr(serialize, "nil_from_json",
                        lambda *args: reads.append(args) or nil_from_json(*args))
    got = serialize.span_from_json(field, doc)
    assert not reads, "the full group was read matrix by matrix"
    assert_same_span(got, expected)
    # the document compared against is the writer's, and is left unedited
    assert doc == serialize.span_to_json(got)
    assert serialize._full_span_doc(field, n) == serialize.span_to_json(got)


def outcome(read, field, doc):
    try:
        return "ok", summary(read(field, doc))
    except InputError as exc:
        return "error", type(exc).__name__, str(exc)


def entry(doc, k, i, j):
    return doc["basis"][k]["entries"][i][j]


def near_misses(n, degree):
    """(label, edit) pairs: each edit changes a copy of the full group's
    document of size n so that it is no longer exactly the writer's."""
    size = n * (n - 1) // 2

    def coef(doc, k=0):
        c = entry(doc, k, 0, 1)["terms"][0]["coef"]
        return c["coords"][0] if degree > 1 else c

    def set_coef(key, value):
        return lambda doc: coef(doc).__setitem__(key, value)

    def scale(doc):
        # 2 E_{n-2, n-1} in place of the last basis matrix
        last = doc["basis"][size - 1]["entries"][n - 2][n - 1]["terms"][0]["coef"]
        (last["coords"][0] if degree > 1 else last)["num"] = 2

    if size > 1:
        yield "permuted", lambda doc: doc["basis"].reverse()
    yield "missing", lambda doc: doc["basis"].pop(0)
    yield "extra", lambda doc: doc["basis"].append(copy.deepcopy(doc["basis"][0]))
    yield "scaled", scale
    yield "q-false", lambda doc: entry(doc, 0, 1, 0).__setitem__("q", False)
    yield "q-float", lambda doc: entry(doc, 0, 0, 1).__setitem__("q", 0.0)
    yield "n-true", lambda doc: doc["basis"][0].__setitem__("n", True)
    yield "num-float", set_coef("num", 1.0)
    yield "num-true", set_coef("num", True)
    yield "den-true", set_coef("den", True)
    yield "extra-key", lambda doc: doc.__setitem__("rank", size)
    yield "entry-key", lambda doc: entry(doc, 0, 0, 0).__setitem__("note", 0)


def miss_cases():
    for name in FIELDS:
        for n in (2, 3, 4):
            for label, _ in near_misses(n, FIELDS[name].degree):
                yield pytest.param(name, n, label, id="%s-n%d-%s" % (name, n, label))


@pytest.mark.parametrize("name,n,label", list(miss_cases()))
def test_near_misses_take_the_general_path(name, n, label, monkeypatch):
    field = FIELDS[name]
    doc = json.loads(json.dumps(serialize.span_to_json(full_unipotent_span(n, field))))
    dict(near_misses(n, field.degree))[label](doc)
    assert not serialize._is_full_span(field, n, doc)
    expected = outcome(general_read, field, doc)
    recognised = []
    monkeypatch.setattr(serialize, "full_unipotent_span",
                        lambda *args: recognised.append(args))
    assert outcome(serialize.span_from_json, field, doc) == expected
    assert not recognised


def test_the_reference_is_never_larger_than_the_input(monkeypatch):
    built = []
    monkeypatch.setattr(serialize, "_full_span_doc", lambda field, n: built.append(n))
    # a huge n with a short basis, or with none, is read without a reference
    assert serialize.span_from_json(QQ, {"n": 10 ** 6, "basis": []}).dim == 0
    assert serialize.span_from_json(QQ, {"n": 10 ** 6}).dim == 0
    with pytest.raises(InputError):
        serialize.span_from_json(QQ, {"n": 10 ** 6, "basis": {"0": []}})
    assert not built


# ---------------------------------------------------------------------------
# the echelon store
# ---------------------------------------------------------------------------

def old_add_row(ech, row):
    """`_Echelon.add_row` as it normalised every kept row."""
    comb = {len(ech.rows): ech.field.one}
    for (piv, old), old_comb in zip(ech.rows, ech.transform):
        c = row.get(piv)
        if c is not None:
            _axpy(row, -c, old)
            _axpy(comb, -c, old_comb)
    if not row:
        return False
    piv = min(row)
    inv = row[piv].inverse()
    row = {i: x * inv for i, x in row.items()}
    comb = {k: x * inv for k, x in comb.items()}
    for (_, old), old_comb in zip(ech.rows, ech.transform):
        c = old.get(piv)
        if c is not None:
            _axpy(old, -c, row)
            _axpy(old_comb, -c, comb)
    ech.rows.append((piv, row))
    ech.transform.append(comb)
    return True


def rand_row(rng, field, width, unit):
    """A sparse row whose first entry is 1 when unit."""
    row = {i: rand_scalar(rng, field, -3, 3, 3) for i in range(width) if rng.random() < 0.5}
    row = {i: x for i, x in row.items() if not x.is_zero}
    if unit and row:
        row[min(row)] = field.one
    return row


def frozen(ech):
    def sparse(m):
        return sorted((k, x.den, x.nums) for k, x in m.items())
    return ([(piv, sparse(row)) for piv, row in ech.rows], [sparse(c) for c in ech.transform])


@pytest.mark.parametrize("name", FIELDS)
def test_add_row_skips_only_a_normalisation_by_one(name):
    field = FIELDS[name]
    rng = random.Random(name)
    for trial in range(40):
        width = rng.randint(1, 8)
        new, old = _Echelon(field), _Echelon(field)
        for _ in range(rng.randint(1, 10)):
            row = rand_row(rng, field, width, unit=rng.random() < 0.5)
            assert new.add_row(dict(row)) == old_add_row(old, dict(row))
            assert frozen(new) == frozen(old)
        vec = [rand_scalar(rng, field) if rng.random() < 0.5 else field.zero
               for _ in range(width)]
        try:
            expected = old.solve(list(vec), field.zero)
        except InputError as exc:
            with pytest.raises(type(exc)):
                new.solve(list(vec), field.zero)
        else:
            assert new.solve(list(vec), field.zero) == expected
