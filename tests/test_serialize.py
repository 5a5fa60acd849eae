"""JSON round-trips and malformed-document rejection."""

import json
import random
from fractions import Fraction

import pytest

from unipavg import QQ, PolyRing, SimplexPoly
from unipavg.serialize import (
    FormatError,
    cover_from_json,
    cover_to_json,
    field_from_json,
    field_to_json,
    fraction_from_json,
    fraction_to_json,
    locals_from_json,
    locals_to_json,
    matrix_to_json,
    nil_from_json,
    orbit_from_json,
    orbit_to_json,
    poly_from_json,
    poly_to_json,
    scalar_from_json,
    scalar_to_json,
    simplicial_from_json,
    simplicial_to_json,
    span_from_json,
    span_to_json,
    tuple_from_json,
    tuple_to_json,
    uni_from_json,
    validation_report_to_json,
)
from unipavg import build_simplicial_section, validate_simplicial_section, wav
from unipavg.fixtures import (
    cover_local_sections,
    heisenberg_span,
    six_point_cover,
    sqrt2_field,
    sqrt2_orbit,
    two_point_tuple,
)
from helpers import rand_fraction, rand_tuple


def test_fraction_roundtrip_and_rejection():
    f = Fraction(-7, 12)
    assert fraction_from_json(fraction_to_json(f)) == f
    assert fraction_from_json(5) == 5
    with pytest.raises(FormatError):
        fraction_from_json(True)
    with pytest.raises(FormatError):
        fraction_from_json({"num": 1, "den": 0})
    with pytest.raises(FormatError):
        fraction_from_json("3/4")
    with pytest.raises(FormatError):
        fraction_from_json({"num": 1.5})


def test_field_roundtrip():
    assert field_from_json(field_to_json(QQ)) is QQ
    assert field_from_json(None) is QQ
    F = sqrt2_field()
    G = field_from_json(field_to_json(F))
    assert G.var == "r" and G.degree == 2
    with pytest.raises(FormatError):
        field_from_json({"var": "x"})


def test_scalar_roundtrip():
    F = sqrt2_field()
    v = F.value([Fraction(1, 2), Fraction(-3)])
    assert scalar_from_json(F, scalar_to_json(v)) == v
    q = QQ.value(Fraction(5, 9))
    assert scalar_from_json(QQ, scalar_to_json(q)) == q


def test_poly_roundtrip():
    rng = random.Random(601)
    ring = PolyRing(QQ, 2, ("y",))
    p = ring.zero()
    for _ in range(5):
        exp = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1))
        p = p + ring.poly({exp: rand_fraction(rng)})
    doc = poly_to_json(p)
    assert poly_from_json(QQ, doc) == p
    # terms are sorted by total degree then exponent
    degs = [sum(t["exp"]) for t in doc["terms"]]
    assert degs == sorted(degs)


def test_poly_duplicate_exponents_are_summed():
    doc = {"q": 1, "terms": [{"exp": [1], "coef": 2}, {"exp": [1], "coef": 3}]}
    p = poly_from_json(QQ, doc)
    ring = PolyRing(QQ, 1)
    assert p == ring.coordinate(0).scale(QQ.value(5))


def test_poly_bad_exponent_length():
    with pytest.raises(FormatError):
        poly_from_json(QQ, {"q": 2, "terms": [{"exp": [1], "coef": 1}]})


def test_matrix_roundtrip_and_shape_errors():
    t = two_point_tuple()
    m = t.sections[1]
    doc = matrix_to_json(m)
    assert uni_from_json(QQ, doc) == m
    L = wav(t)
    assert uni_from_json(QQ, matrix_to_json(L)) == L
    with pytest.raises(FormatError):
        uni_from_json(QQ, {"n": 2, "entries": [[poly_to_json(PolyRing(QQ, 0).one())]]})
    with pytest.raises(FormatError):
        nil_from_json(QQ, {"n": 0, "entries": []})


def test_matrix_mixed_rings_rejected():
    zero0 = poly_to_json(PolyRing(QQ, 0).zero())
    zero1 = poly_to_json(PolyRing(QQ, 1).zero())
    doc = {"n": 2, "entries": [[zero0, zero1], [zero0, zero0]]}
    with pytest.raises(FormatError):
        nil_from_json(QQ, doc)


def test_span_and_tuple_roundtrip():
    heis = heisenberg_span()
    doc = span_to_json(heis)
    back = span_from_json(QQ, doc)
    assert back.same_space(heis)

    rng = random.Random(602)
    t = rand_tuple(rng, heis, 2)
    back_t = tuple_from_json(tuple_to_json(t))
    assert back_t == t
    assert back_t.group.same_space(t.group)


def test_cover_and_locals_roundtrip():
    cover = six_point_cover()
    assert cover_from_json(cover_to_json(cover)).opens == cover.opens
    span, locals_ = cover_local_sections()
    back = locals_from_json(QQ, locals_to_json(locals_))
    assert [ls.open_index for ls in back] == [0, 1, 2]
    assert back[1].values == locals_[1].values
    with pytest.raises(FormatError):
        locals_from_json(QQ, {"zero": {}})


def test_simplicial_roundtrip():
    cover = six_point_cover()
    span, locals_ = cover_local_sections()
    s = build_simplicial_section(cover, locals_, span, max_q=2)
    doc = simplicial_to_json(s)
    back = simplicial_from_json(doc)
    assert back.max_q == 2
    assert back.levels[1][(0, 1)]["d"] == s.levels[1][(0, 1)]["d"]
    assert validate_simplicial_section(back).ok
    bad = dict(doc)
    bad["levels"] = dict(doc["levels"])
    bad["levels"]["0.0.0.0"] = {}
    with pytest.raises(FormatError):
        simplicial_from_json(bad)


@pytest.mark.parametrize("field", [QQ, sqrt2_field()], ids=["Q", "Q(sqrt2)"])
def test_read_document_shares_one_ring_per_simplex(field):
    span, locals_ = cover_local_sections(field)
    s = build_simplicial_section(six_point_cover(), locals_, span, max_q=2)
    text = json.dumps(simplicial_to_json(s))
    back = simplicial_from_json(json.loads(text))
    mats = list(back.group.basis)
    mats += [m for level in back.levels.values() for per_point in level.values()
             for m in per_point.values()]
    seen = {}
    for m in mats:
        assert m.ring is m.rows[0][0].ring
        for row in m.rows:
            for e in row:
                assert e.ring is seen.setdefault(e.ring.q, e.ring)
    assert sorted(seen) == [0, 1, 2]
    assert json.dumps(simplicial_to_json(back)) == text
    mat = uni_from_json(field, matrix_to_json(s.levels[2][(0, 1, 2)]["d"]))
    assert len({id(e.ring) for row in mat.rows for e in row}) == 1


def test_validation_report_serialization():
    cover = six_point_cover()
    span, locals_ = cover_local_sections()
    s = build_simplicial_section(cover, locals_, span, max_q=1)
    doc = validation_report_to_json(validate_simplicial_section(s))
    assert doc["ok"] is True
    assert doc["failures"] == []
    assert "pass" in doc["summary"]


def test_orbit_roundtrip():
    orbit = sqrt2_orbit()
    doc = orbit_to_json(orbit)
    back = orbit_from_json(doc)
    assert len(back) == 2
    assert back.points[0] == orbit.points[0]
    rational = dict(doc)
    rational["field"] = {"rationals": True}
    with pytest.raises(FormatError):
        orbit_from_json(rational)
