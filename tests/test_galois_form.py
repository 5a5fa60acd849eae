"""The Galois action and the descent on the integer form of constant matrices.

A `FieldAutomorphism` maps a constant matrix's integer form in one pass
(`FieldAutomorphism.apply_form`), so the orbit check compares forms, and
`rational_point` reads the average's form.  Each is compared exactly with
the per-entry path it replaced: the automorphism applied to every strictly
upper entry, and the descent of every entry's constant value to Q.
"""

import json
import random
from fractions import Fraction
from math import gcd

import pytest

from unipavg import (QQ, GaloisAction, GaloisOrbit, NilMatrix, PolyRing, RationalityError,
                     ScalarField, UniMatrix, full_unipotent_span, rational_point, serialize)
from unipavg import descent, nilpotent
from unipavg.fixtures import (cubic_field, cubic_orbit, point_from_coordinates, sqrt2_field,
                              sqrt2_orbit)
from unipavg.nilpotent import _int_from_rows
from helpers import rand_fraction
from test_int_form import half_field, rand_entries

# each field with one automorphism that generates its Galois group; on
# Q[x]/(x^2 + x/2 - 1) the map x -> -x - 1/2 has the matrix denominator 2,
# so only there does the image of a canonical form need its gcd taken out
ACTIONS = {"sqrt2": (sqrt2_field(), lambda f: [0, -1]),
           "cubic": (cubic_field(), lambda f: f.gen * f.gen - 2),
           "half": (half_field(), lambda f: [0, -1]),
           "shifted": (ScalarField.extension("x", (-1, Fraction(1, 2), 1)),
                       lambda f: [Fraction(-1, 2), -1])}


def sigma_of(name):
    field, image = ACTIONS[name]
    return field, GaloisAction(field, [image(field)]).generators[0]


def per_entry(mat, sigma):
    """The matrix with sigma applied to each strictly upper entry, as the
    per-entry path built it."""
    rows = mat.rows
    return type(mat).from_entries(mat.ring, mat.n, {
        (i, j): sigma(rows[i][j]) for i in range(mat.n) for j in range(i + 1, mat.n)})


def assert_form(got, expected):
    """got holds only a canonical integer form, with the values of
    expected, entry by entry."""
    assert type(got) is type(expected) and got.ring is expected.ring and got.n == expected.n
    assert got._rows is None, "the Galois action built rows"
    den, planes = got._int
    assert den > 0 and gcd(den, *(x for plane in planes for x in plane)) == 1
    assert got._int == _int_from_rows(expected.rows, got.ring.field.degree)
    for i in range(got.n):
        for j in range(got.n):
            x, y = got.rows[i][j], expected.rows[i][j]
            assert (x.den, x.nums) == (y.den, y.nums), (i, j)


@pytest.mark.parametrize("name", ACTIONS)
@pytest.mark.parametrize("kind", [NilMatrix, UniMatrix])
def test_the_action_on_forms_matches_the_per_entry_path(name, kind):
    field, sigma = sigma_of(name)
    ring = PolyRing(field, 0)
    rng = random.Random("%s-%s" % (name, kind.__name__))
    for n in range(1, 7):
        for density in (0.0, 0.3, 1.0):
            mat = kind.from_entries(ring, n, rand_entries(rng, field, n, density))
            expected = per_entry(mat, sigma)
            # from rows, converted on use, and from a form alone
            assert_form(mat.map_entries(sigma, ring), expected)
            assert_form(kind._from_int(ring, n, mat._int_form()).map_entries(sigma, ring),
                        expected)
            # the orbit check's comparison, in the form
            assert (mat.map_entries(sigma, ring) == mat) == (expected == mat)


@pytest.mark.parametrize("name", ACTIONS)
def test_the_action_keeps_the_per_entry_path_on_rings_with_variables(name):
    field, sigma = sigma_of(name)
    rng = random.Random(name)
    for ring in (PolyRing(field, 1), PolyRing(field, 0, ("a",))):
        entries = {e: ring.constant(v) for e, v in rand_entries(rng, field, 4, 0.8).items()}
        mat = NilMatrix.from_entries(ring, 4, entries)
        got = mat.map_entries(sigma, ring)
        assert got._int is None
        assert got == per_entry(mat, sigma)


def old_rational_point(orbit, averaged):
    """The per-entry descent that `rational_point` replaced."""
    rational_ring = PolyRing(QQ, 0)

    def descend(entry):
        value = entry.constant_value()
        if not value.is_rational:
            raise RationalityError("averaged point has an irrational entry")
        return rational_ring.constant(value.as_fraction())

    return averaged.map_entries(descend, rational_ring)


def rand_orbit(rng, name, n):
    field, sigma = sigma_of(name)
    span = full_unipotent_span(n, field)
    coords = [[rand_fraction(rng, -3, 3, 3) for _ in range(field.degree)]
              for _ in range(span.dim)]
    points = [point_from_coordinates(span, coords)]
    for _ in range(field.degree - 1):
        points.append(points[-1].map_entries(sigma, span.ring))
    return GaloisOrbit(span, GaloisAction(field, [sigma.image]), points)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except RationalityError as exc:
        return "error", str(exc)


def orbits():
    rng = random.Random(2207)
    yield sqrt2_orbit()
    yield cubic_orbit()
    for name in ACTIONS:
        for n in range(1, 6):
            yield rand_orbit(rng, name, n)


def test_the_form_descent_matches_the_per_entry_descent():
    for orbit in orbits():
        got = rational_point(orbit)
        averaged = descent.wav_at_weights(orbit.points,
                                          descent.WeightSeq.uniform(orbit.q, orbit.action.field),
                                          orbit.group)
        expected = old_rational_point(orbit, averaged)
        assert got.ring is expected.ring is PolyRing(QQ, 0)
        assert got._rows is None and got == expected and expected == got
        assert got._int == _int_from_rows(expected.rows, 1)
        assert [[(x.den, x.nums) for x in row] for row in got.rows] == \
            [[(x.den, x.nums) for x in row] for row in expected.rows]


@pytest.mark.parametrize("name", ACTIONS)
def test_an_irrational_average_fails_both_descents_alike(monkeypatch, name):
    field, _ = sigma_of(name)
    ring = PolyRing(field, 0)
    orbit = rand_orbit(random.Random(5), name, 3)
    rng = random.Random(name)
    for n in (2, 3, 4):
        entries = rand_entries(rng, field, n, 1.0)
        entries[(0, n - 1)] = field.gen
        # rows only, as a monkeypatched average holds them, and a form only
        moved = UniMatrix.from_entries(ring, n, entries)
        for average in (moved, UniMatrix._from_int(ring, n, moved._int_form())):
            monkeypatch.setattr(descent, "wav_at_weights", lambda *args: average)
            got = outcome(rational_point, orbit)
            assert got == outcome(old_rational_point, orbit, average)
            assert got == ("error", "averaged point has an irrational entry")


def test_the_orbit_check_and_the_descent_build_no_rows(monkeypatch):
    """Points read from JSON hold only their integer form; neither the
    closure check nor the descent turns a form into polynomial rows."""
    built, averages = [], []
    int_rows, wav_at_weights = nilpotent._int_rows, descent.wav_at_weights
    monkeypatch.setattr(nilpotent, "_int_rows",
                        lambda *args: built.append(args) or int_rows(*args))
    monkeypatch.setattr(descent, "wav_at_weights", lambda *args: averages[-1])
    rng = random.Random(31)
    for orbit in (sqrt2_orbit(), cubic_orbit(), rand_orbit(rng, "half", 4),
                  rand_orbit(rng, "cubic", 5)):
        read = serialize.orbit_from_json(json.loads(json.dumps(serialize.orbit_to_json(orbit))))
        assert all(z._rows is None for z in read.points)
        del built[:]
        read = GaloisOrbit(read.group, read.action, read.points)
        assert not built and all(z._rows is None for z in read.points)
        averages.append(wav_at_weights(
            read.points, descent.WeightSeq.uniform(read.q, read.action.field), read.group))
        averages[-1]._int_form()
        del built[:]
        point = rational_point(read)
        assert not built and point._rows is None
