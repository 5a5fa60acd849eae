"""Equal fields and rings are one object: a construction with equal
arguments returns the object already built, so fields and rings compare by
identity, and a rejected construction stores nothing."""

import copy
import json
import pickle
import random
from fractions import Fraction

import pytest

from unipavg import QQ, PolyRing, RingMismatch, ScalarField, full_unipotent_span, serialize
from unipavg.cli import main
from unipavg.errors import InputError
from unipavg.fixtures import sqrt2_field
from helpers import rand_tuple


def test_equal_fields_are_one_object():
    field = sqrt2_field()
    assert ScalarField.extension("r", (-2, 0, 1)) is field
    assert ScalarField.extension("r", [Fraction(-2), Fraction(0), Fraction(1)]) is field
    assert ScalarField.extension("r", (Fraction(-4, 2), 0, Fraction(3, 3))) is field
    assert ScalarField() is QQ


def test_fields_with_different_names_are_different_objects():
    field = sqrt2_field()
    other = ScalarField.extension("s", (-2, 0, 1))
    assert other is not field and other.minpoly == field.minpoly
    assert other != field
    with pytest.raises(RingMismatch):
        other.gen + field.gen


def test_equal_rings_are_one_object():
    field = sqrt2_field()
    assert PolyRing(field, 2, ["a"]) is PolyRing(field, 2, ("a",))
    assert PolyRing(ScalarField.extension("r", (-2, 0, 1)), 1) is PolyRing(field, 1)
    assert PolyRing(field, 2) is not PolyRing(QQ, 2)
    assert PolyRing(field, 2, ("a", "b")) is not PolyRing(field, 2, ("b", "a"))


def test_copies_and_unpickled_values_keep_the_one_field_and_ring():
    field = sqrt2_field()
    p = PolyRing(field, 1, ("a",)).coordinate(0) * field.gen
    for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        assert clone(QQ) is QQ and clone(field) is field
        assert clone(p.ring) is p.ring
        c = clone(p)
        assert c.ring is p.ring and c == p
    assert QQ.degree == 1 and QQ.minpoly is None


def test_a_read_document_uses_the_library_ring():
    field = sqrt2_field()
    span = full_unipotent_span(3, field)
    t = rand_tuple(random.Random(1601), span, 2)
    read = serialize.tuple_from_json(json.loads(json.dumps(serialize.tuple_to_json(t))))
    assert read.group.field is field and read.group.ring is span.ring
    for mat in read.group.basis + read.sections:
        assert all(e.ring is span.ring for row in mat.rows for e in row)


def test_a_boolean_q_is_rejected_before_and_after_a_q1_ring_exists():
    # a field of its own, so that no q = 1 ring over it exists yet
    field = ScalarField.extension("b", (-3, 0, 1))
    for q in (True, False):
        with pytest.raises(InputError, match="simplex dimension"):
            PolyRing(field, q)
    ring = PolyRing(field, 1)
    assert PolyRing(field, 1) is ring and PolyRing(field, 0) is not ring
    for base in (field, QQ):
        PolyRing(base, 1)
        for q in (True, False):
            with pytest.raises(InputError, match="simplex dimension"):
                PolyRing(base, q)
            with pytest.raises(serialize.FormatError, match="expected int for q, got bool"):
                serialize.poly_from_json(base, {"q": q, "terms": []})


def _entry(q, exp, coef):
    return {"q": q, "terms": [{"exp": exp, "coef": coef}] if coef else []}


def test_cli_rejects_a_boolean_q_in_any_entry(tmp_path, capsys):
    # a boolean q is bad input wherever it stands, not read as the q of the
    # entries around it
    for spelled in ((0, 0), (1, 1)):
        rows = [[_entry(1, [0], 1), _entry(1, [1], 1)], [_entry(1, [0], 0), _entry(1, [0], 1)]]
        i, j = spelled
        rows[i][j]["q"] = True
        path = tmp_path / "log.json"
        path.write_text(json.dumps({"matrix": {"n": 2, "entries": rows}}))
        assert main(["log", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["message"] == "expected int for q, got bool"


def test_a_rejected_construction_raises_again_and_stores_nothing():
    fields, rings = dict(ScalarField._table), dict(PolyRing._table)
    for _ in range(2):
        with pytest.raises(InputError, match="rational root"):
            ScalarField.extension("w", (-1, 0, 0, 1))
        with pytest.raises(InputError, match="nonempty string"):
            ScalarField.extension("", (-2, 0, 1))
        for q in (True, -1, 1.0, "1"):
            with pytest.raises(InputError, match="simplex dimension"):
                PolyRing(QQ, q)
        with pytest.raises(InputError, match="duplicate"):
            PolyRing(QQ, 1, ("a", "a"))
        with pytest.raises(InputError, match="ScalarField"):
            PolyRing(None, 1)
    assert ScalarField._table == fields and PolyRing._table == rings
