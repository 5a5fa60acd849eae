"""Property tests: the commutative-ring laws of simplex polynomials, and
JSON round trips that give equal values and identical bytes, over Q and
Q(sqrt2).  The example count is fixed and the examples are derived from
the test itself, so every run checks the same inputs."""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from unipavg import QQ, PolyRing
from unipavg import serialize
from unipavg.fixtures import sqrt2_field

FIELDS = {"Q": QQ, "Q(sqrt2)": sqrt2_field()}
RINGS = [PolyRing(field, q, params) for field in FIELDS.values()
         for q, params in ((0, ()), (1, ()), (2, ("a",)))]

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


def polys(ring):
    coef = st.lists(fractions, min_size=ring.field.degree, max_size=ring.field.degree)
    exps = st.tuples(*[st.integers(0, 2)] * ring.nvars)
    return st.dictionaries(exps, coef, max_size=5).map(ring.poly)


def ring_and(n):
    """A ring and n polynomials over it."""
    return st.sampled_from(RINGS).flatmap(
        lambda ring: st.tuples(st.just(ring), *[polys(ring)] * n))


@SETTINGS
@given(ring_and(3))
def test_commutative_ring_laws(args):
    ring, a, b, c = args
    zero, one = ring.zero(), ring.one()
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + zero == a and a - a == zero and a + (-a) == zero
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * one == a and a * zero == zero
    assert a * (b + c) == a * b + a * c
    assert (a - b) * c == a * c - b * c
    assert a ** 2 == a * a
    assert hash(a * b) == hash(b * a)


@SETTINGS
@given(ring_and(1), st.lists(fractions, min_size=2, max_size=2))
def test_scaling_is_multiplication_by_a_constant(args, coords):
    ring, a = args
    s = ring.field.value(coords[:ring.field.degree])
    assert a.scale(s) == a * ring.constant(s)
    assert a.scale(s).scale(2) == a.scale(s * 2)


@SETTINGS
@given(ring_and(2))
def test_json_round_trip_gives_equal_values_and_identical_bytes(args):
    ring, a, b = args
    for p in (a, b, a * b - a):
        doc = serialize.poly_to_json(p)
        text = json.dumps(doc)
        back = serialize.poly_from_json(ring.field, json.loads(text))
        assert back == p and hash(back) == hash(p)
        assert json.dumps(serialize.poly_to_json(back)) == text
