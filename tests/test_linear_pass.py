"""The linear pass of `wsym`.

When every section of a tuple over the simplex equals f_0 below
superdiagonal k = ceil(n/2), the differences D_j = f_j - f_0 and the
transitions x_j = f_j f_0^{-1} - I = D_j f_0^{-1} live on superdiagonals
>= k, so any two of them multiply to zero (2k >= n).  Then log and exp stop
at degree 1 and every component of the pass equals sum_j t_j f_j, which
`wsym` computes with no inverse, log, exp, bracket or matrix product.

The lift leaves every transition of a full U_n in Gamma_3 (superdiagonal
>= 3), so for n <= 6 the pass after the lift is linear.  Every case is
compared with the pass written out in full (`full_pass`).
"""

import random

import pytest

from unipavg import (
    QQ,
    SectionTuple,
    UniMatrix,
    derived_series_length,
    embed_simplex,
    full_unipotent_span,
    lift_w,
    wav,
    wsym,
)
from unipavg import average as average_module
from unipavg import nilpotent as nilpotent_module
from unipavg.average import _MatrixLaw
from unipavg.fixtures import cubic_field, sqrt2_field
from helpers import rand_tuple
from test_commuting_pass import full_pass, rand_poly, rand_simplex_tuple

FIELDS = [QQ, sqrt2_field(), cubic_field()]
FIELD_IDS = ["Q", "Q(sqrt2)", "cubic"]


def half(n):
    return (n + 1) // 2


def is_linear(t):
    coords = [t.ring.coordinate(j) for j in range(t.q + 1)]
    return _MatrixLaw.linear_pass(t.sections, coords) is not None


def assert_pass_matches(t):
    got = wsym(t)
    assert list(got.sections) == full_pass(t)
    return got


def nonzero_poly(rng, ring):
    while True:
        p = rand_poly(rng, ring)
        if not p.is_zero:
            return p


def differing_from(rng, f0, q, low):
    """q+1 sections over the q-simplex: f0, and f0 plus nonzero random
    affine polynomials on every superdiagonal from `low` on."""
    ring, n = f0.ring, f0.n
    out = [f0]
    for _ in range(q):
        entries = {(i, j): f0.entry(i, j) + nonzero_poly(rng, ring)
                   for i in range(n) for j in range(i + 1, n)}
        entries.update({(i, j): f0.entry(i, j) for i in range(n)
                        for j in range(i + 1, min(i + low, n))})
        out.append(UniMatrix.from_entries(ring, n, entries))
    return SectionTuple(full_unipotent_span(n, ring.field), out)


def base_section(rng, n, q, field):
    return rand_simplex_tuple(rng, full_unipotent_span(n, field), q).sections[0]


# ---------------------------------------------------------------------------
# the linear pass equals the full pass
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_pass_after_the_lift_is_linear(n):
    rng = random.Random(1301 + n)
    span = full_unipotent_span(n, QQ)
    for q in range(1, 5 if n < 6 else 3):
        lifted = lift_w(rand_tuple(rng, span, q))
        assert is_linear(lifted), (n, q)
        got = assert_pass_matches(lifted)
        assert got.is_constant_tuple()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_tuples_that_differ_from_half_the_size_on(field):
    rng = random.Random(1311 + field.degree)
    for n in range(1, 7):
        for q in (1, 2, 3):
            t = differing_from(rng, base_section(rng, n, q, field), q, half(n))
            assert is_linear(t), (n, q)
            got = assert_pass_matches(t)
            # the common value is sum_j t_j f_j, entry by entry
            coords = [t.ring.coordinate(j) for j in range(q + 1)]
            for a in range(n):
                for b in range(a + 1, n):
                    want = t.ring.zero()
                    for f, c in zip(t.sections, coords):
                        want = want + f.entry(a, b) * c
                    assert got.sections[0].entry(a, b) == want


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_difference_one_superdiagonal_lower_takes_the_general_path(field, n):
    rng = random.Random(1321 + 10 * field.degree + n)
    for q in (1, 2):
        t = differing_from(rng, base_section(rng, n, q, field), q, half(n) - 1)
        assert not is_linear(t), (n, q)
        assert_pass_matches(t)


# ---------------------------------------------------------------------------
# the work a linear pass does
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, q", [(2, 3), (4, 2), (5, 3), (6, 2)])
def test_a_linear_pass_forms_no_product_log_or_exp(monkeypatch, n, q):
    rng = random.Random(1331 + n)
    t = lift_w(rand_tuple(rng, full_unipotent_span(n, QQ), q))
    want = full_pass(t)
    calls = []

    def counting(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or real(*args))

    counting(average_module, "exp_nilpotent")
    counting(average_module, "log_unipotent")
    counting(UniMatrix, "inverse")
    counting(nilpotent_module.NilMatrix, "bracket")
    counting(nilpotent_module, "_matmul")
    got = wsym(t)
    monkeypatch.undo()
    assert calls == []
    assert list(got.sections) == want


# ---------------------------------------------------------------------------
# Lemma B: the lift leaves every transition in Gamma_3
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", [QQ, sqrt2_field()], ids=["Q", "Q(sqrt2)"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_lifted_components_agree_below_superdiagonal_3(field, n):
    rng = random.Random(1341 + n + 10 * field.degree)
    span = full_unipotent_span(n, field)
    for q in (1, 2, 3):
        lifted = lift_w(rand_tuple(rng, span, q))
        first = lifted.sections[0]
        for f in lifted.sections[1:]:
            for a in range(n):
                for b in range(a + 1, min(a + 3, n)):
                    assert f.entry(a, b) == first.entry(a, b), (n, q, a, b)
        assert is_linear(lifted)


def test_u7_passes_are_not_linear_and_wav_still_equals_full_passes():
    rng = random.Random(1351)
    span = full_unipotent_span(7, QQ)
    t = rand_tuple(rng, span, 2, lo=-1, hi=1, max_den=1)
    embedded = SectionTuple(span, [embed_simplex(s, 2) for s in t.sections])
    cur = SectionTuple(span, full_pass(embedded), check=False)
    assert not is_linear(cur)
    for _ in range(derived_series_length(span)):
        cur = SectionTuple(span, full_pass(cur), check=False)
    assert cur.is_constant_tuple()
    assert wav(t) == cur.sections[0]
