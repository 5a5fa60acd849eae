"""A second exact oracle: the averaging formula iterated at a fixed weight.

Evaluation at a point of the simplex commutes with every step of the
average, so at rational weights w the average is reached by iterating

    f'_i = exp( sum_j w_j log(f_j f_i^{-1}) ) f_i

on constant matrices, every component on every pass, until they agree.
The iteration below uses dense lists of field scalars and its own
terminating series, sharing only scalar arithmetic with the package, so it
checks `wav` and its one-component passes over number fields too,
where the sympy oracle does not reach, and through every universal
polynomial Phi_{c',q} that `wav` admits, on full and non-full spans.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from unipavg import (
    QQ,
    LieSpan,
    NilMatrix,
    PolyRing,
    SectionTuple,
    WeightSeq,
    derived_series_length,
    exp_nilpotent,
    full_unipotent_span,
    wav,
)
from unipavg import average as average_module
from unipavg.average import eval_matrix_at_weights
from unipavg.fixtures import (
    abelian3_span,
    cover_local_sections,
    cubic_field,
    cubic_orbit,
    heisenberg_span,
    sqrt2_field,
    sqrt2_orbit,
    strictness_witness,
    two_point_tuple,
    u2_span,
)
from helpers import rand_scalar, rand_tuple, rand_weights


def matmul(a, b, zero):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), zero) for j in range(n)]
            for i in range(n)]


def series(x, coefs, start, field):
    """start + sum_k coefs[k - 1] x^k for k = 1 .. len(coefs)."""
    n = len(x)
    acc = [row[:] for row in start]
    power = identity(field, n)
    for c in coefs:
        power = matmul(power, x, field.zero)
        acc = [[acc[i][j] + power[i][j] * c for j in range(n)] for i in range(n)]
    return acc


def identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def minus_identity(u, field):
    n = len(u)
    return [[u[i][j] - (field.one if i == j else field.zero) for j in range(n)]
            for i in range(n)]


def exp_(x, field):
    n = len(x)
    return series(x, [Fraction(1, factorial(k)) for k in range(1, n)], identity(field, n), field)


def log_(u, field):
    n = len(u)
    zeros = [[field.zero] * n for _ in range(n)]
    return series(minus_identity(u, field), [Fraction((-1) ** (k + 1), k) for k in range(1, n)],
                  zeros, field)


def inverse_(u, field):
    n = len(u)
    return series(minus_identity(u, field), [(-1) ** k for k in range(1, n)],
                  identity(field, n), field)


def pointwise_average(points, weights, field, max_passes):
    """Iterate the full formula at the weights until all components agree,
    failing after max_passes passes; return the common value."""
    f = points
    n = len(f[0])
    for _ in range(max_passes):
        if all(g == f[0] for g in f[1:]):
            break
        new = []
        for i, fi in enumerate(f):
            inv = inverse_(fi, field)
            acc = [[field.zero] * n for _ in range(n)]
            for j, fj in enumerate(f):
                if j != i:
                    lg = log_(matmul(fj, inv, field.zero), field)
                    acc = [[acc[r][c] + lg[r][c] * weights[j] for c in range(n)]
                           for r in range(n)]
            new.append(matmul(exp_(acc, field), fi, field.zero))
        f = new
    assert all(g == f[0] for g in f[1:]), "components still disagree"
    return f[0]


def scalars(mat):
    """A constant package matrix as a list of rows of field scalars."""
    return [[mat.entry(i, j).constant_value() for j in range(mat.n)] for i in range(mat.n)]


def assert_oracle_agrees(t, rng, draws=2):
    field = t.group.field
    averaged = wav(t)
    points = [scalars(s) for s in t.sections]
    # the lift is one pass, then at most the derived length more
    passes = 1 + derived_series_length(t.group)
    for _ in range(draws):
        weights = rand_weights(rng, t.q)
        values = [field.value(w) for w in weights]
        want = pointwise_average(points, values, field, passes)
        got = eval_matrix_at_weights(averaged, WeightSeq(field, weights))
        assert scalars(got) == want, weights


def fixture_tuples(field):
    """Every shipped tuple over the field, plus random tuples on the shipped
    spans and on U_4 and U_5."""
    rng = random.Random(1101 + field.degree)
    out = [two_point_tuple(field), strictness_witness(field)]
    for span in (u2_span(field), heisenberg_span(field), abelian3_span(field)):
        out += [rand_tuple(rng, span, q) for q in (1, 2, 3)]
    out += [rand_tuple(rng, full_unipotent_span(4, field), q) for q in (1, 2)]
    out.append(rand_tuple(rng, full_unipotent_span(5, field), 1))
    return out


@pytest.mark.parametrize("field", [QQ, sqrt2_field(), cubic_field()],
                         ids=["Q", "Q(sqrt2)", "cubic"])
def test_wav_agrees_with_the_pointwise_iteration(field):
    rng = random.Random(1111 + field.degree)
    for t in fixture_tuples(field):
        assert_oracle_agrees(t, rng, draws=1)


@pytest.mark.parametrize("orbit", [sqrt2_orbit, cubic_orbit], ids=["Q(sqrt2)", "cubic"])
def test_galois_orbits_agree_with_the_pointwise_iteration(orbit):
    orbit = orbit()
    rng = random.Random(1121 + orbit.q)
    assert_oracle_agrees(SectionTuple(orbit.group, orbit.points), rng, draws=3)


def test_cover_tuples_agree_with_the_pointwise_iteration():
    """The local values over each point of the six-point cover that lies in
    more than one open, as the tuple the sections builder averages."""
    span, local = cover_local_sections()
    rng = random.Random(1131)
    shared = [p for p in "abcdef" if sum(p in s.values for s in local) > 1]
    assert shared
    for p in shared:
        values = [s.values[p] for s in local if p in s.values]
        assert_oracle_agrees(SectionTuple(span, values), rng)


def field_tuple(rng, span, q):
    """q + 1 points of span whose log coordinates use every coordinate of
    its field."""
    return SectionTuple(span, [exp_nilpotent(span.from_coordinates(
        [rand_scalar(rng, span.field, -2, 2, 2) for _ in range(span.dim)]))
        for _ in range(q + 1)])


def block_span(field):
    """The subgroup of U_5 spanned by the E_ij with j <= 3 and the corner
    E_04, which is central there: dimension 7 of 10, class 3."""
    ring = PolyRing(field, 0)
    return LieSpan([NilMatrix.from_entries(ring, 5, {(i, j): 1})
                    for i in range(5) for j in range(i + 1, 5) if j <= 3 or i == 0])


def assert_through_phi(t):
    """t is averaged through a cached Phi_{c',q}, not by the pass loop."""
    c = t.table.nilpotency_class
    terms = average_module._phi_terms(t)
    assert terms is average_module._UNIVERSAL[(c - 1 + c % 2, t.q)]


FIELD_PARAMS = pytest.mark.parametrize("field", [QQ, sqrt2_field(), cubic_field()],
                                       ids=["Q", "Q(sqrt2)", "cubic"])


@FIELD_PARAMS
@pytest.mark.parametrize("n, q", [(4, 3), (4, 4), (5, 2), (5, 3), (6, 2)])
def test_every_admitted_phi_agrees_with_the_pointwise_iteration(field, n, q):
    """Full U_n through Phi_{3,3}, Phi_{3,4}, Phi_{3,2}, Phi_{3,3} and
    Phi_{5,2}, with logs in every coordinate of the field."""
    rng = random.Random(1141 + 10 * n + q + 100 * field.degree)
    t = field_tuple(rng, full_unipotent_span(n, field), q)
    assert_through_phi(t)
    assert_oracle_agrees(t, rng, draws=1)


@FIELD_PARAMS
def test_a_non_full_class_three_span_agrees_with_the_pointwise_iteration(field):
    rng = random.Random(1151 + field.degree)
    span = block_span(field)
    assert span.dim == 7 and span.table.nilpotency_class == 3
    for q in (2, 3):
        t = field_tuple(rng, span, q)
        assert_through_phi(t)
        assert_oracle_agrees(t, rng, draws=1)
