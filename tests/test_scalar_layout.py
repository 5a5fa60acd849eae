"""ScalarValue stores an element as integer power-basis numerators over one
positive denominator.  The Fraction-coordinate scalar it replaced is
written out here as a standalone reference: d Fraction coordinates, a
product convolved in Fractions and reduced through a Fraction power table,
and an inverse by the extended Euclidean algorithm on Fraction coefficient
lists.  Over Q, Q(sqrt2), the cubic field, Q[h]/(h^2 - 1/2) and
Q[k]/(k^3 - 1/2) (whose power tables are not integral) and two quartic
fields, every operation on generated elements must agree exactly with the
reference, every value must be in canonical form, and its JSON must be
that of its Fraction coordinates.
tests/test_polykernel.py and tests/test_fused_kernel.py take ScalarValue
as their reference, so this file keeps that reference independent of the
layout."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipavg import QQ, ScalarField
from unipavg.errors import InputError
from unipavg.fixtures import cubic_field, sqrt2_field
from unipavg.serialize import fraction_to_json, scalar_from_json, scalar_to_json

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

FIELDS = {
    "Q": QQ,
    "Q(sqrt2)": sqrt2_field(),
    "cubic": cubic_field(),
    "half": ScalarField.extension("h", [Fraction(-1, 2), 0, 1]),
    # its table x^3, x^4 has denominator 2, not the recurrence's 4
    "cuberoot": ScalarField.extension("k", [Fraction(-1, 2), 0, 0, 1]),
    # 3 m(x) = 3x^4 + 2x^3 + 2x + 2 is Eisenstein at 2
    "quartic": ScalarField.extension("z", [Fraction(2, 3), Fraction(2, 3), 0,
                                           Fraction(2, 3), 1]),
    "biquadratic": ScalarField.extension("w", [1, 0, -10, 0, 1]),
}


# ---------------------------------------------------------------------------
# the reference: Fraction coordinates
# ---------------------------------------------------------------------------

def trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def upoly_str(coeffs, var):
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append("%s*%s" % (c, var) if c != 1 else var)
        else:
            parts.append("%s*%s^%d" % (c, var, k) if c != 1 else "%s^%d" % (var, k))
    return " + ".join(parts) if parts else "0"


def power_table(minpoly):
    """Fraction coordinates of x^k for k = 0 .. 2d-2, each reduced mod m(x)."""
    d = len(minpoly) - 1
    table = [tuple(Fraction(int(i == k)) for i in range(d)) for k in range(d)]
    for k in range(d, 2 * d - 1):
        prev = table[k - 1]
        shifted = [Fraction(0)] + list(prev[: d - 1])
        for i in range(d):
            shifted[i] -= prev[d - 1] * minpoly[i]
        table.append(tuple(shifted))
    return table


def euclid_inverse(a, m, var):
    """The inverse of a modulo m in Q[x], by the extended Euclidean algorithm
    on Fraction coefficient lists."""
    def mul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return trim(out)

    def sub(p, q):
        n = max(len(p), len(q))
        return trim([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0)
                     for i in range(n)])

    def divmod_(p, q):
        p = list(p)
        out = [Fraction(0)] * max(0, len(p) - len(q) + 1)
        for i in range(len(p) - len(q), -1, -1):
            c = p[i + len(q) - 1] / q[-1]
            out[i] = c
            for j, y in enumerate(q):
                p[i + j] -= c * y
        return trim(out), trim(p)

    r0, r1 = list(m), trim(list(a))
    s0, s1 = [], [Fraction(1)]
    while r1:
        quo, rem = divmod_(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, sub(s0, mul(quo, s1))
    if len(r0) != 1:
        raise InputError("defining polynomial %s is reducible: it has the factor %s"
                         % (upoly_str(m, var), upoly_str([c / r0[-1] for c in r0], var)))
    return [c / r0[0] for c in s0]


class Ref:
    """A field element as d Fraction coordinates in the power basis."""

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(Fraction(c) for c in coords)

    def __add__(self, other):
        return Ref(self.field, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return Ref(self.field, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return Ref(self.field, [-a for a in self.coords])

    def __mul__(self, other):
        d = self.field.degree
        if d == 1:
            return Ref(self.field, [self.coords[0] * other.coords[0]])
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            for j, b in enumerate(other.coords):
                conv[i + j] += a * b
        table = power_table(self.field.minpoly)
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            for i in range(d):
                out[i] += conv[k] * table[k][i]
        return Ref(self.field, out)

    def inverse(self):
        if not any(self.coords):
            raise ZeroDivisionError("division by zero field element")
        d = self.field.degree
        if d == 1:
            return Ref(self.field, [1 / self.coords[0]])
        inv = euclid_inverse(self.coords, self.field.minpoly, self.field.var)
        return Ref(self.field, (inv + [0] * d)[:d])

    def __pow__(self, k):
        base, out = self, Ref(self.field, [1] + [0] * (self.field.degree - 1))
        if k < 0:
            base, k = self.inverse(), -k
        for _ in range(k):
            out = out * base
        return out

    @property
    def is_rational(self):
        return not any(self.coords[1:])

    def as_fraction(self):
        if not self.is_rational:
            raise InputError("value has nonzero coordinates outside Q")
        return self.coords[0]

    def __repr__(self):
        if self.field.degree == 1:
            return str(self.coords[0])
        return upoly_str(self.coords, self.field.var)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (ZeroDivisionError, InputError) as exc:  # class and message are compared
        return type(exc), str(exc)


def assert_canonical(v):
    """A positive denominator, field.degree integer numerators, the gcd of
    all of them 1, and zero as den 1 over zero numerators."""
    assert type(v.den) is int and v.den > 0
    assert type(v.nums) is tuple and len(v.nums) == v.field.degree
    assert all(type(x) is int for x in v.nums)
    assert math.gcd(v.den, *v.nums) == 1
    if not any(v.nums):
        assert v.den == 1


def assert_matches(new, ref):
    """The same outcome; for values, the same element in canonical form."""
    assert new[0] is ref[0], (new, ref)
    if new[0] != "value":
        assert new[1] == ref[1]
        return
    v, r = new[1], ref[1]
    assert_canonical(v)
    assert v.coords == r.coords
    assert repr(v) == repr(r)
    assert v.is_rational == r.is_rational
    assert v.is_zero == (not any(r.coords))
    assert outcome(v.as_fraction) == outcome(r.as_fraction)
    # the JSON of the Fraction coordinates, and read back to the same form
    doc = (fraction_to_json(r.coords[0]) if v.field.is_rationals
           else {"coords": [fraction_to_json(c) for c in r.coords]})
    assert scalar_to_json(v) == doc
    back = scalar_from_json(v.field, doc)
    assert (back.den, back.nums) == (v.den, v.nums)


fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


def elements(field, n):
    """n coordinate lists for field, zero coordinates made likely."""
    coord = st.one_of(st.just(Fraction(0)), fractions)
    return st.tuples(*[st.lists(coord, min_size=field.degree, max_size=field.degree)] * n)


def field_and(n):
    return st.sampled_from(sorted(FIELDS)).flatmap(
        lambda name: st.tuples(st.just(FIELDS[name]), elements(FIELDS[name], n)))


@SETTINGS
@given(field_and(2), st.integers(-3, 4), fractions)
def test_arithmetic_matches_the_fraction_reference(args, k, c):
    field, (xs, ys) = args
    a, b = field.value(xs), field.value(ys)
    ra, rb = Ref(field, xs), Ref(field, ys)
    rc = Ref(field, [c] + [0] * (field.degree - 1))
    assert_matches(("value", a), ("value", ra))
    assert_matches(outcome(lambda: a + b), outcome(lambda: ra + rb))
    assert_matches(outcome(lambda: a - b), outcome(lambda: ra - rb))
    assert_matches(outcome(lambda: -a), outcome(lambda: -ra))
    assert_matches(outcome(lambda: a * b), outcome(lambda: ra * rb))
    assert_matches(outcome(a.inverse), outcome(ra.inverse))
    assert_matches(outcome(lambda: a / b), outcome(lambda: ra * rb.inverse()))
    assert_matches(outcome(lambda: a ** k), outcome(lambda: ra ** k))
    # mixed with rationals, on either side
    assert_matches(outcome(lambda: a + c), outcome(lambda: ra + rc))
    assert_matches(outcome(lambda: c - a), outcome(lambda: rc - ra))
    assert_matches(outcome(lambda: c * a), outcome(lambda: rc * ra))
    assert_matches(outcome(lambda: c / a), outcome(lambda: rc * ra.inverse()))
    # equality is equality of forms
    assert (a == b) == (ra.coords == rb.coords) == ((a.den, a.nums) == (b.den, b.nums))
    assert (a != b) == (ra.coords != rb.coords)
    assert (a == c) == (ra.coords == rc.coords)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_zero_one_and_generator_are_canonical(name):
    field = FIELDS[name]
    for v, coords in ((field.zero, [0]), (field.one, [1]), (field.value(Fraction(-6, 4)),
                                                          [Fraction(-3, 2)])):
        assert_matches(("value", v), ("value", Ref(field, coords + [0] * (field.degree - 1))))
    assert (field.zero.den, field.zero.nums) == (1, (0,) * field.degree)
    if field.degree > 1:
        assert_matches(("value", field.gen),
                       ("value", Ref(field, [0, 1] + [0] * (field.degree - 2))))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_power_table_is_the_fraction_table_cleared_to_integers(name):
    field = FIELDS[name]
    if field.degree == 1:
        assert (field._xden, field._ixpow) == (1, ())
        return
    rows = power_table(field.minpoly)[field.degree:]
    xden = math.lcm(*(c.denominator for row in rows for c in row))
    assert field._xden == xden
    assert field._ixpow == tuple(tuple(int(c * xden) for c in row) for row in rows)
    assert all(type(x) is int for row in field._ixpow for x in row)


def test_non_integral_power_table():
    field = FIELDS["half"]
    h = field.gen
    assert field._xden == 2
    assert h * h == Fraction(1, 2)
    assert (h * h).den == 2 and (2 * h).inverse() == h


def test_reducible_quartic_message_matches_the_reference():
    field = ScalarField.extension("y", [-1, 0, 0, 0, 1])
    for coords in ([1, 0, 1, 0], [Fraction(1, 3), 0, Fraction(1, 3), 0], [-1, 1, 0, 0]):
        new, ref = outcome(field.value(coords).inverse), outcome(Ref(field, coords).inverse)
        assert new[0] is ref[0] is InputError
        assert new[1] == ref[1]
    assert outcome(field.value([1, 0, 1, 0]).inverse)[1] == (
        "defining polynomial -1 + y^4 is reducible: it has the factor 1 + y^2")
