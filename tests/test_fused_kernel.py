"""Exact cross-check of the fused sum-of-products kernel
(`exactring.sum_of_products`) and of the triangular operations built on it
against the per-term sums they replaced.  The references are written out
here: a polynomial is a {exponent: ScalarValue} map with no zero
coefficient, summed term by term in ScalarValue arithmetic, and the old
loops add one `__mul__` product at a time with `__add__`.  Every kernel
result must have exactly the reference coefficients and be in canonical
form."""

import math
import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

from unipavg import (
    QQ,
    NilMatrix,
    PolyRing,
    exp_nilpotent,
    full_unipotent_span,
    log_unipotent,
    lower_central_series,
    quotient_span,
)
from unipavg.average import _MatrixLaw
from unipavg.exactring import sum_of_products
from unipavg.fixtures import cubic_field, sqrt2_field
from unipavg.nilpotent import _identity_rows, _matmul
from helpers import rand_nil_poly, rand_scalar

FIELDS = {"Q": QQ, "Q(sqrt2)": sqrt2_field(), "cubic": cubic_field()}
RINGS = [(name, PolyRing(field, q, params)) for name, field in FIELDS.items()
         for q in (0, 1, 2, 3) for params in ((), ("a",))]
IDS = ["%s-q%d%s" % (name, ring.q, "-a" if ring.params else "") for name, ring in RINGS]


# ---------------------------------------------------------------------------
# the references
# ---------------------------------------------------------------------------

def ref_add_term(out, exp, coef):
    total = coef if exp not in out else out[exp] + coef
    if total.is_zero:
        out.pop(exp, None)
    else:
        out[exp] = total


def ref_sum(field, pairs):
    """sum_k x_k y_k term by term in ScalarValue arithmetic."""
    out = {}
    for x, y in pairs:
        if isinstance(y, (int, Fraction)):
            for exp, coef in x.terms.items():
                ref_add_term(out, exp, coef * field.value(y))
            continue
        for ea, ca in x.terms.items():
            for eb, cb in y.terms.items():
                ref_add_term(out, tuple(map(add, ea, eb)), ca * cb)
    return out


def per_term_sum(ring, pairs):
    """The loop the kernel replaced: one product at a time, each added to
    the partial sum."""
    acc = ring.zero()
    for x, y in pairs:
        acc = acc + x * y
    return acc


def assert_canonical(p):
    """One positive denominator, field.degree integer numerators per
    exponent, no zero vector, and the gcd of everything equal to 1."""
    assert type(p.den) is int and p.den > 0
    flat = []
    for vec in p.nums.values():
        assert len(vec) == p.ring.field.degree
        assert all(type(x) is int for x in vec) and any(vec)
        flat.extend(vec)
    assert math.gcd(p.den, *flat) == 1
    if not p.nums:
        assert p.den == 1


def check(ring, pairs):
    got = sum_of_products(ring, pairs)
    assert_canonical(got)
    assert dict(got.terms) == ref_sum(ring.field, pairs)
    assert got == per_term_sum(ring, pairs)
    return got


def rand_poly(rng, ring, nterms):
    """A nonzero polynomial whose coefficients have mixed denominators."""
    while True:
        raw = {tuple(rng.randint(0, 2) for _ in range(ring.nvars)):
               rand_scalar(rng, ring.field, -4, 4, rng.choice([1, 2, 3, 6, 10]))
               for _ in range(nterms)}
        p = ring.poly(raw)
        if not p.is_zero:
            return p


def rand_factor(rng, ring):
    """A nonzero polynomial, or sometimes a nonzero rational weight."""
    if rng.random() < 0.3:
        return rng.choice([1, -2, 7, Fraction(3, 4), Fraction(-5, 6), Fraction(1, 9)])
    return rand_poly(rng, ring, rng.choice([1, 1, 2, 3, 5]))


# ---------------------------------------------------------------------------
# the kernel on polynomials
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,ring", RINGS, ids=IDS)
def test_sums_of_products_match_the_per_term_sum(name, ring):
    rng = random.Random("fused/%s/%d/%d" % (name, ring.q, len(ring.params)))
    for npairs in (1, 1, 2, 3, 4, 6, 9):
        pairs = [(rand_poly(rng, ring, rng.choice([1, 2, 4])), rand_factor(rng, ring))
                 for _ in range(npairs)]
        check(ring, pairs)


@pytest.mark.parametrize("name,ring", RINGS, ids=IDS)
def test_single_pairs_are_the_product(name, ring):
    rng = random.Random("single/%s/%d/%d" % (name, ring.q, len(ring.params)))
    for _ in range(6):
        x, y = rand_poly(rng, ring, 3), rand_poly(rng, ring, 2)
        assert check(ring, [(x, y)]) == x * y
        w = rng.choice([3, Fraction(-2, 7)])
        assert check(ring, [(x, w)]) == x.scale(w)


@pytest.mark.parametrize("name", FIELDS)
def test_cancelling_sums_give_the_zero_polynomial(name):
    rng = random.Random("cancel/" + name)
    ring = PolyRing(FIELDS[name], 2, ("a",))
    for _ in range(5):
        x, y, z = (rand_poly(rng, ring, 3) for _ in range(3))
        # x y - y x, and x (2/3) + x (-2/3): the whole sum cancels
        for pairs in ([(x, y), (-y, x)], [(x, Fraction(2, 3)), (x, Fraction(-2, 3))],
                      [(x, y), (z, 5), (-x, y), (-z, 5)]):
            got = check(ring, pairs)
            assert got.is_zero and got.den == 1 and got is ring.zero()
        # partial cancellation leaves the other product in canonical form
        assert check(ring, [(x, y), (x, z), (-x, y)]) == x * z


@pytest.mark.parametrize("name", FIELDS)
def test_shared_denominators_are_divided_out(name):
    # 1/6 * 3 + 1/6 * 3 = 1: the lcm denominator must not survive
    ring = PolyRing(FIELDS[name], 1)
    sixth = ring.constant(Fraction(1, 6))
    got = check(ring, [(sixth, 3), (sixth, ring.constant(3))])
    assert got == ring.one() and got.den == 1
    t0 = ring.coordinate(0)
    got = check(ring, [(t0.scale(Fraction(1, 4)), 2), (t0, Fraction(1, 2))])
    assert got == t0 and got.den == 1


def test_an_empty_sum_is_zero():
    ring = PolyRing(QQ, 2)
    assert sum_of_products(ring, []) is ring.zero()


# ---------------------------------------------------------------------------
# the triangular operations built on the kernel
# ---------------------------------------------------------------------------

def old_matmul(a, b, ring):
    """(ab)_ij summed one product at a time over i <= k <= j."""
    n = len(a)
    out = []
    for i in range(n):
        row = [ring.zero()] * n
        for k in range(i, n):
            for j in range(k, n):
                row[j] = row[j] + a[i][k] * b[k][j]
        out.append(tuple(row))
    return tuple(out)


def old_power_series(acc, x, coefs, ring):
    """acc + sum_k coefs[k - 1] x^k, one scaled power added at a time."""
    n = len(x)
    pw = x
    for k, c in enumerate(coefs):
        if k:
            pw = old_matmul(pw, x, ring)
        acc = tuple(tuple(acc[i][j] + pw[i][j] * c for j in range(n)) for i in range(n))
    return acc


def upper(rows):
    return [rows[i][j] for i in range(len(rows)) for j in range(i + 1, len(rows))]


@pytest.mark.parametrize("name", FIELDS)
def test_matmul_exp_and_log_match_the_per_term_loops(name):
    rng = random.Random("matrices/" + name)
    field = FIELDS[name]
    for n, q in ((2, 1), (3, 2), (4, 1), (4, 3), (5, 2)):
        x = rand_nil_poly(rng, field, n, q, max_deg=2)
        y = rand_nil_poly(rng, field, n, q, max_deg=2)
        ring = x.ring
        eye = _identity_rows(ring, n)
        unit = tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(eye, y.rows))
        assert _matmul(x.rows, y.rows, ring) == old_matmul(x.rows, y.rows, ring)
        assert _matmul(eye, unit, ring, unit=True) == old_matmul(eye, unit, ring)
        other = tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(eye, x.rows))
        assert _matmul(other, unit, ring, unit=True) == old_matmul(other, unit, ring)
        e = exp_nilpotent(x)
        facts = [Fraction(1, math.factorial(k)) for k in range(1, n)]
        assert upper(e.rows) == upper(old_power_series(eye, x.rows, facts, ring))
        e_minus_1 = tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(e.rows, eye))
        logs = [Fraction((-1) ** (k + 1), k) for k in range(1, n)]
        zero = tuple((ring.zero(),) * n for _ in range(n))
        assert upper(log_unipotent(e).rows) == upper(
            old_power_series(zero, e_minus_1, logs, ring))
        signs = [(-1) ** k for k in range(1, n)]
        assert upper(e.inverse().rows) == upper(old_power_series(eye, e_minus_1, signs, ring))
        for p in upper(e.rows) + upper(e.inverse().rows):
            assert_canonical(p)


@pytest.mark.parametrize("name", FIELDS)
def test_law_combinations_match_reduce_add_scale(name):
    rng = random.Random("combine/" + name)
    field = FIELDS[name]
    mats = [rand_nil_poly(rng, field, 4, 2, max_deg=2) for _ in range(3)]
    ring = mats[0].ring
    coefs = [ring.coordinate(j) for j in range(3)]
    want = reduce(add, [m.scale(c) for m, c in zip(mats, coefs)])
    assert _MatrixLaw.combine(mats, coefs) == want
    # the same sums in the Lie coordinates of a quotient floor, entry by entry
    ut4 = full_unipotent_span(4, field)
    table = quotient_span(ut4, lower_central_series(ut4)[2])[0].table
    vecs = [tuple(rand_poly(rng, ring, 2) if rng.random() < 0.7 else ring.zero()
                  for _ in range(table.dim)) for _ in range(3)]

    def vector_sum(coefs):
        return tuple(reduce(add, [a * c for a, c in zip(entries, coefs)])
                     for entries in zip(*vecs))

    assert table.combine(vecs, coefs) == vector_sum(coefs)
    assert table.combine(vecs, [1, Fraction(-1, 3), 2]) == vector_sum([1, Fraction(-1, 3), 2])


def test_bch_in_lie_coordinates_matches_the_matrix_product():
    # the truncated-BCH product now sums its brackets as one combination
    rng = random.Random("bch")
    ut4 = full_unipotent_span(4, QQ)
    ring = PolyRing(QQ, 2)
    for _ in range(3):
        xs = [tuple(rand_poly(rng, ring, 2) for _ in range(ut4.dim)) for _ in range(2)]
        mats = [ut4.from_coordinates(x, ring) for x in xs]
        prod = log_unipotent(exp_nilpotent(mats[0]) * exp_nilpotent(mats[1]))
        assert ut4.from_coordinates(ut4.table.mul(*xs), ring) == prod
        assert isinstance(prod, NilMatrix)
