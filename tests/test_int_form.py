"""The integer form of constant matrices against the polynomial kernel.

Over a ring with no variables, products, inverses, exp, log, brackets,
combinations, negation and equality compute in one integer form per
matrix (`nilpotent._int_sum`).  Each operation is compared exactly with
the polynomial kernel forced on the same values: the same constant
entries over a ring with one parameter, which the integer form never
serves.  Every entry read back must be in canonical form, and every
computed form must be the one its rows convert to.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from unipavg import QQ, NilMatrix, PolyRing, ScalarField, UniMatrix, bch, embed_simplex
from unipavg.exactring import SimplexPoly
from unipavg.fixtures import cubic_field, sqrt2_field
from unipavg.nilpotent import _int_from_rows, exp_nilpotent, log_unipotent
from helpers import rand_scalar


def half_field():
    """Q[x]/(x^2 - 1/2), whose power table has the denominator 2."""
    return ScalarField.extension("x", (Fraction(-1, 2), 0, 1))


FIELDS = {"Q": QQ, "sqrt2": sqrt2_field(), "cubic": cubic_field(), "half": half_field()}
SIZES = range(1, 8)
DENSITIES = (0.25, 1.0)


def rand_entries(rng, field, n, density):
    return {(i, j): rand_scalar(rng, field, -3, 3, 4)
            for i in range(n) for j in range(i + 1, n) if rng.random() < density}


def pair(cls, field, entries, n):
    """The matrix over the constant ring and the same matrix over a ring
    with a parameter, where the polynomial kernel runs."""
    const, poly = PolyRing(field, 0), PolyRing(field, 0, ("a",))
    return (cls.from_entries(const, n, entries),
            cls.from_entries(poly, n, {e: poly.constant(v) for e, v in entries.items()}))


def assert_canonical(entry):
    assert entry.den > 0
    if not entry.nums:
        assert entry.den == 1
        return
    assert list(entry.nums) == [0]
    vec = entry.nums[0]
    assert len(vec) == entry.ring.field.degree and any(vec)
    assert gcd(entry.den, *vec) == 1


def assert_same(got, expected):
    """got, in integer form over the constant ring, has the values of the
    polynomial kernel's expected, entry by entry; its form is canonical
    and equals the one its rows convert to."""
    assert type(got) is type(expected) and got.n == expected.n
    assert got._rows is None, "a result in integer form built its rows early"
    den, planes = got._int
    assert den > 0 and gcd(den, *(x for plane in planes for x in plane)) == 1
    for i in range(got.n):
        for j in range(got.n):
            x, y = got.rows[i][j], expected.rows[i][j]
            assert_canonical(x)
            assert x.ring is got.ring
            assert (x.den, x.nums) == (y.den, y.nums), (i, j)
    assert _int_from_rows(got.rows, got.ring.field.degree) == got._int
    # equality across the two forms, both ways, and within the integer form
    rebuilt = type(got)(got.ring, got.rows, check=False)
    assert rebuilt._int is None
    assert rebuilt == got and got == rebuilt
    rebuilt._int_form()
    assert rebuilt == got


def cases():
    for name in FIELDS:
        for n in SIZES:
            for density in DENSITIES:
                yield pytest.param(name, n, density, id="%s-n%d-%g" % (name, n, density))


@pytest.mark.parametrize("name,n,density", list(cases()))
def test_every_operation_matches_the_polynomial_kernel(name, n, density):
    field = FIELDS[name]
    rng = random.Random("%s-%d-%g" % (name, n, density))
    ea, eb = rand_entries(rng, field, n, density), rand_entries(rng, field, n, density)
    (a, pa), (b, pb) = pair(NilMatrix, field, ea, n), pair(NilMatrix, field, eb, n)
    (u, pu), (v, pv) = pair(UniMatrix, field, ea, n), pair(UniMatrix, field, eb, n)

    assert_same(u * v, pu * pv)
    assert_same(u.inverse(), pu.inverse())
    assert_same(log_unipotent(u), log_unipotent(pu))
    assert_same(exp_nilpotent(a), exp_nilpotent(pa))
    assert_same(a.bracket(b), pa.bracket(pb))
    assert_same(-a, -pa)
    assert_same(bch(a, b), bch(pa, pb))

    const, poly = PolyRing(field, 0), PolyRing(field, 0, ("a",))
    scalars = [3, Fraction(-2, 5), rand_scalar(rng, field), Fraction(7, 3)]
    coefs = [s if isinstance(s, (int, Fraction)) else const.constant(s) for s in scalars]
    pcoefs = [s if isinstance(s, (int, Fraction)) else poly.constant(s) for s in scalars]
    mats = [a, b, a.bracket(b), log_unipotent(u)]
    pmats = [pa, pb, pa.bracket(pb), log_unipotent(pu)]
    assert_same(NilMatrix.combination(mats, coefs), NilMatrix.combination(pmats, pcoefs))
    # a zero coefficient, a rational constant polynomial and an empty sum
    zero_coefs = [const.zero(), const.constant(Fraction(1, 2)), 0, 1]
    assert_same(NilMatrix.combination(mats, zero_coefs),
                 NilMatrix.combination(pmats, [poly.zero(), poly.constant(Fraction(1, 2)),
                                               0, 1]))


@pytest.mark.parametrize("name", FIELDS)
def test_zero_results_and_inverses(name):
    field = FIELDS[name]
    rng = random.Random(4101)
    for n in SIZES:
        entries = rand_entries(rng, field, n, 0.7)
        (a, pa), (u, pu) = pair(NilMatrix, field, entries, n), pair(UniMatrix, field, entries, n)
        # a - a, [a, a], u u^-1 and log(exp a) - a are zero or the identity
        zero = NilMatrix.combination([a, a], [1, -1])
        assert_same(zero, NilMatrix.combination([pa, pa], [1, -1]))
        assert zero._int[0] == 1 and zero.is_zero
        assert_same(a.bracket(a), pa.bracket(pa))
        one = u * u.inverse()
        assert_same(one, pu * pu.inverse())
        assert one.is_identity and one == UniMatrix.identity(u.ring, n)
        assert log_unipotent(exp_nilpotent(a)) == a
        assert exp_nilpotent(log_unipotent(u)) == u
        # the empty combination, and a matrix with no strictly upper entry
        assert_same(NilMatrix.combination([a], [0]), NilMatrix.combination([pa], [0]))
        blank, pblank = pair(UniMatrix, field, {}, n)
        assert_same(blank * blank, pblank * pblank)
        assert_same(blank.inverse(), pblank.inverse())


def test_inequality_is_decided_in_either_form():
    field = half_field()
    ring = PolyRing(field, 0)
    x = ring.constant(field.gen)
    a = NilMatrix.from_entries(ring, 3, {(0, 1): x, (1, 2): 1})
    b = NilMatrix.from_entries(ring, 3, {(0, 1): x, (1, 2): 1, (0, 2): Fraction(1, 2)})
    # [a, a'] with a' = a + E_02 is 0, and x * x is 1/2 in this field
    assert a != b and b != a
    assert a.bracket(b).is_zero
    sq = NilMatrix.combination([a], [x])
    assert sq.rows[0][1] == ring.constant(Fraction(1, 2))
    assert sq.rows[0][1].den == 2 and sq.rows[0][1].nums == {0: (1, 0)}
    assert -sq != sq and -(-sq) == sq
    for m in (a, b, sq):
        assert isinstance(m.rows[0][1], SimplexPoly)
    assert NilMatrix.zero(ring, 3) != a and a != NilMatrix.zero(ring, 3)
    assert NilMatrix.combination([a], [0]) == NilMatrix.zero(ring, 3)


# ---------------------------------------------------------------------------
# combinations with coefficients on the q-simplex
# ---------------------------------------------------------------------------

def simplex_exponents(q, degree):
    """Every exponent vector over t_0, ..., t_{q-1} of total degree <=
    degree, in a fixed order."""
    if q == 0:
        return [()]
    return [(e,) + rest for e in range(degree + 1)
            for rest in simplex_exponents(q - 1, degree - e)]


def rand_simplex_coef(rng, ring, nterms):
    """A polynomial on ring's simplex with exactly nterms monomials, each
    coefficient a nonzero field scalar."""
    field = ring.field
    terms = {}
    for exp in rng.sample(simplex_exponents(ring.q, 4), nterms):
        c = field.zero
        while c.is_zero:
            c = rand_scalar(rng, field, -3, 3, 4)
        terms[exp] = c
    return ring.poly(terms)


def assert_canonical_poly(entry):
    assert entry.den > 0
    if not entry.nums:
        assert entry.den == 1
        return
    vecs = list(entry.nums.values())
    assert all(len(v) == entry.ring.field.degree and any(v) for v in vecs)
    assert gcd(entry.den, *(x for v in vecs for x in v)) == 1


@pytest.mark.parametrize("name", FIELDS)
def test_a_combination_on_the_simplex_matches_lift_then_combine(name):
    """Constant matrices with coefficients on the q-simplex: one integer sum
    per monomial, each entry built once, against each matrix embedded on
    the simplex and then combined by the polynomial kernel."""
    field = FIELDS[name]
    rng = random.Random("lift-" + name)
    nterms = iter(list(range(1, 16)) * 8)
    for n in (1, 2, 3, 5):
        for q in (1, 2, 3):
            const, target = PolyRing(field, 0), PolyRing(field, q)
            mats = [NilMatrix.from_entries(const, n, rand_entries(rng, field, n, density))
                    for density in (0.25, 1.0, 0.0, 0.6)]
            # results held only in integer form: a bracket, and an all-zero one
            mats += [mats[1].bracket(mats[3]), mats[1].bracket(mats[1])]
            limit = len(simplex_exponents(q, 4))
            coefs = [rand_simplex_coef(rng, target, min(next(nterms), limit)) for _ in mats]
            # a zero coefficient, and a rational scalar beside polynomials
            coefs[2 + q % 2] = target.zero()
            coefs[0] = Fraction(-3, 7)
            for pick in (slice(None), slice(0, 2), slice(2, 4), slice(4, None)):
                ms, cs = mats[pick], coefs[pick]
                got = NilMatrix.combination(ms, cs)
                want = NilMatrix.combination([embed_simplex(m, q) for m in ms], cs)
                assert want.ring is target and got.ring is target and got._int is None
                for i in range(n):
                    for j in range(n):
                        x, y = got.rows[i][j], want.rows[i][j]
                        assert_canonical_poly(x)
                        assert x.ring is target and (x.den, x.nums) == (y.den, y.nums), (i, j)
                assert got == want
