"""Nilpotent matrices, exp/log/BCH, spans, homomorphisms and quotients."""

import random
from fractions import Fraction

import pytest

from unipavg import (
    QQ,
    InputError,
    LieHom,
    LieSpan,
    MembershipError,
    NilMatrix,
    PolyRing,
    RingMismatch,
    ScalarField,
    UniMatrix,
    apply_hom,
    bch,
    derived_series_length,
    embed_simplex,
    exp_nilpotent,
    full_unipotent_span,
    log_unipotent,
    lower_central_series,
    nilpotency_class,
    quotient_span,
)
from unipavg.fixtures import (abelian3_span, heisenberg_span, point_from_coordinates,
                              sqrt2_field, u2_span)
from helpers import rand_nil_poly, rand_point, rand_unipotent

R0 = PolyRing(QQ, 0)


def elem(n, i, j, c=1):
    """c times the elementary matrix E_ij over the rationals."""
    rows = [[R0.zero()] * n for _ in range(n)]
    rows[i][j] = R0.constant(Fraction(c))
    return NilMatrix(R0, rows)


# ---------------------------------------------------------------------------
# matrix shapes and arithmetic
# ---------------------------------------------------------------------------

def test_nilmatrix_must_be_strictly_upper():
    rows = [[R0.one(), R0.zero()], [R0.zero(), R0.zero()]]
    with pytest.raises(InputError):
        NilMatrix(R0, rows)
    rows = [[R0.zero(), R0.zero()], [R0.one(), R0.zero()]]
    with pytest.raises(InputError):
        NilMatrix(R0, rows)


def test_unimatrix_needs_unit_diagonal():
    rows = [[R0.constant(2), R0.zero()], [R0.zero(), R0.one()]]
    with pytest.raises(InputError):
        UniMatrix(R0, rows)


def test_matrix_ring_mismatch_rejected():
    a = elem(3, 0, 1)
    ring2 = PolyRing(QQ, 1)
    b = NilMatrix.zero(ring2, 3)
    with pytest.raises(RingMismatch):
        a + b
    with pytest.raises(RingMismatch):
        a.bracket(b)


def test_bracket_is_a_lie_bracket():
    rng = random.Random(201)
    for _ in range(10):
        a = rand_nil_poly(rng, QQ, 4, 0)
        b = rand_nil_poly(rng, QQ, 4, 0)
        c = rand_nil_poly(rng, QQ, 4, 0)
        assert a.bracket(b) == -(b.bracket(a))
        jac = (a.bracket(b.bracket(c)) + b.bracket(c.bracket(a))
               + c.bracket(a.bracket(b)))
        assert jac.is_zero


# ---------------------------------------------------------------------------
# exp, log, BCH
# ---------------------------------------------------------------------------

def test_exp_of_shift_matrix():
    # N = E01 + E12 has N^2 = E02, so exp(N) fills the corner with 1/2
    N = elem(3, 0, 1) + elem(3, 1, 2)
    U = exp_nilpotent(N)
    assert U.entry(0, 1).constant_value().as_fraction() == 1
    assert U.entry(0, 2).constant_value().as_fraction() == Fraction(1, 2)


def test_log_of_all_ones():
    rows = [[R0.one() if j >= i else R0.zero() for j in range(3)] for i in range(3)]
    L = log_unipotent(UniMatrix(R0, rows))
    assert L.entry(0, 1).constant_value().as_fraction() == 1
    assert L.entry(0, 2).constant_value().as_fraction() == Fraction(1, 2)


def test_bch_on_elementaries():
    # [E01, E12] = E02, both sides vanish on further brackets
    a, b = elem(3, 0, 1), elem(3, 1, 2)
    z = bch(a, b)
    assert z == a + b + a.bracket(b).scale(QQ.value(Fraction(1, 2)))


def test_exp_log_roundtrip_with_polynomial_entries():
    rng = random.Random(202)
    for n in (2, 3, 4, 5):
        for q in (0, 1, 2):
            N = rand_nil_poly(rng, QQ, n, q)
            U = exp_nilpotent(N)
            assert log_unipotent(U) == N
            assert exp_nilpotent(log_unipotent(U)) == U


def test_bch_matches_group_product():
    rng = random.Random(203)
    for n in (3, 4, 5):
        a = rand_nil_poly(rng, QQ, n, 1)
        b = rand_nil_poly(rng, QQ, n, 1)
        assert exp_nilpotent(a) * exp_nilpotent(b) == exp_nilpotent(bch(a, b))


def test_inverse():
    rng = random.Random(204)
    for n in (2, 4, 5):
        U = rand_unipotent(rng, QQ, n, q=1)
        Iq = UniMatrix(U.ring, [[U.ring.one() if i == j else U.ring.zero()
                                 for j in range(n)] for i in range(n)])
        assert U * U.inverse() == Iq
        assert U.inverse() * U == Iq


def test_embed_simplex():
    U = rand_unipotent(random.Random(205), QQ, 3, q=0)
    V = embed_simplex(U, 2)
    assert V.ring.q == 2
    assert V.entry(0, 1).is_constant


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_span_dimensions():
    assert heisenberg_span().dim == 3
    assert u2_span().dim == 1
    assert abelian3_span().dim == 3
    assert full_unipotent_span(4, QQ).dim == 6


def test_span_rejects_dependent_basis():
    with pytest.raises(InputError):
        LieSpan([elem(3, 0, 1), elem(3, 0, 1, 2)])


def test_span_rejects_non_closed_basis():
    # [E01, E12] = E02 is outside the span of the two generators
    with pytest.raises(InputError):
        LieSpan([elem(3, 0, 1), elem(3, 1, 2)])


def test_span_rejects_non_constant_basis():
    ring = PolyRing(QQ, 1)
    rows = [[ring.zero(), ring.coordinate(0)], [ring.zero(), ring.zero()]]
    with pytest.raises(InputError):
        LieSpan([NilMatrix(ring, rows)])


def test_membership_and_coordinates():
    heis = heisenberg_span()
    v = point_from_coordinates(heis, [Fraction(2), Fraction(-1), Fraction(1, 3)])
    L = log_unipotent(v)
    coords = heis.coordinates(L)
    rebuilt = heis.from_coordinates(coords)
    assert rebuilt == L
    assert heis.contains(L)
    # the top-row span in n = 4 misses the inner entry
    assert not abelian3_span().contains(elem(4, 1, 2))


def test_polynomial_membership():
    heis = heisenberg_span()
    ring = PolyRing(QQ, 1)
    t0 = ring.coordinate(0)
    rows = [[ring.zero(), t0, t0 * t0],
            [ring.zero(), ring.zero(), ring.one() - t0],
            [ring.zero(), ring.zero(), ring.zero()]]
    M = NilMatrix(ring, rows)
    coords = heis.coordinates(M)
    assert coords[0] == t0
    assert heis.from_coordinates(coords, ring) == M


def test_membership_failure():
    heis3 = LieSpan([elem(4, 0, 1), elem(4, 1, 2), elem(4, 0, 2)], n=4, field=QQ)
    outside = elem(4, 2, 3)
    with pytest.raises(MembershipError):
        heis3.coordinates(outside)


def test_same_space_ignores_basis_choice():
    a = LieSpan([elem(3, 0, 1), elem(3, 0, 2)])
    b = LieSpan([elem(3, 0, 2), elem(3, 0, 1) + elem(3, 0, 2)])
    assert a.same_space(b)
    assert not a.same_space(heisenberg_span())


def test_series_and_class():
    heis = heisenberg_span()
    dims = [s.dim for s in lower_central_series(heis)]
    assert dims == [3, 1, 0]
    assert nilpotency_class(heis) == 2
    assert derived_series_length(heis) == 2

    ut4 = full_unipotent_span(4, QQ)
    assert [s.dim for s in lower_central_series(ut4)] == [6, 3, 1, 0]
    assert nilpotency_class(ut4) == 3
    assert derived_series_length(ut4) == 2

    assert derived_series_length(full_unipotent_span(5, QQ)) == 3
    assert derived_series_length(abelian3_span()) == 1
    assert nilpotency_class(u2_span()) == 1


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

def test_hom_must_preserve_brackets():
    heis = heisenberg_span()
    ab = abelian3_span()
    # sending the center generator to a nonzero image while flattening the
    # bracket cannot preserve [e0, e1] = e2
    with pytest.raises(InputError):
        LieHom(heis, ab, [ab.basis[0], ab.basis[1], ab.basis[2]])


@pytest.mark.parametrize("make_span", [heisenberg_span, abelian3_span])
def test_hom_between_fields_is_rejected(make_span):
    source, target = make_span(QQ), make_span(sqrt2_field())
    # the fields are compared before any image is read, so images over the
    # source's field are rejected the same way as images over the target's
    for images in (target.basis, source.basis):
        with pytest.raises(RingMismatch, match="matrix field does not match the hom"):
            LieHom(source, target, images)


def test_identity_hom_and_group_push():
    rng = random.Random(206)
    heis = heisenberg_span()
    ident = LieHom.identity(heis)
    for _ in range(5):
        v = rand_point(rng, heis)
        assert apply_hom(ident, v) == v


def test_push_respects_products():
    rng = random.Random(207)
    heis = heisenberg_span()
    quot, proj = quotient_span(heis, LieSpan([elem(3, 0, 2)], n=3, field=QQ))
    for _ in range(10):
        u = rand_point(rng, heis)
        v = rand_point(rng, heis)
        assert apply_hom(proj, u * v) == apply_hom(proj, u) * apply_hom(proj, v)


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def test_quotient_by_center_is_abelian():
    heis = heisenberg_span()
    center = LieSpan([elem(3, 0, 2)], n=3, field=QQ)
    quot, proj = quotient_span(heis, center)
    assert quot.dim == 2
    assert nilpotency_class(quot) == 1
    # kernel: the center maps to zero
    assert proj(center.basis[0]).is_zero
    # the projection is surjective: nonzero basis images span the quotient
    imgs = [proj(b) for b in heis.basis if not proj(b).is_zero]
    assert LieSpan(imgs, n=quot.n, field=QQ).same_space(quot)


def test_quotient_fast_paths():
    heis = heisenberg_span()
    zero_ideal = LieSpan([], n=3, field=QQ)
    quot, proj = quotient_span(heis, zero_ideal)
    assert quot.same_space(heis)
    full_quot, full_proj = quotient_span(heis, heis)
    assert full_quot.dim == 0
    assert full_proj(heis.basis[0]).is_zero


def test_quotient_rejects_non_ideal():
    heis = heisenberg_span()
    not_ideal = LieSpan([elem(3, 0, 1)], n=3, field=QQ)
    with pytest.raises(InputError):
        quotient_span(heis, not_ideal)


def test_quotient_rejects_non_subspace():
    ab = abelian3_span()
    outside = LieSpan([elem(4, 1, 2)], n=4, field=QQ)
    with pytest.raises(InputError):
        quotient_span(ab, outside)


def test_quotient_of_ut4_by_center():
    ut4 = full_unipotent_span(4, QQ)
    center = LieSpan([elem(4, 0, 3)], n=4, field=QQ)
    quot, proj = quotient_span(ut4, center)
    assert quot.dim == 5
    assert nilpotency_class(quot) == 2
    assert proj(center.basis[0]).is_zero


def test_quotient_respects_group_law():
    rng = random.Random(208)
    ut4 = full_unipotent_span(4, QQ)
    series = lower_central_series(ut4)
    quot, proj = quotient_span(ut4, series[1])
    for _ in range(10):
        u = rand_point(rng, ut4)
        v = rand_point(rng, ut4)
        assert apply_hom(proj, u * v) == apply_hom(proj, u) * apply_hom(proj, v)


def test_quotient_section_lifts_basis():
    heis = heisenberg_span()
    center = LieSpan([elem(3, 0, 2)], n=3, field=QQ)
    quot, proj = quotient_span(heis, center)
    assert proj.section is not None
    for j, rep in enumerate(proj.section):
        assert proj(rep) == quot.basis[j]
