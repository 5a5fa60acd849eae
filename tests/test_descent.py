"""Galois orbits over extension fields and their rational averages."""

from fractions import Fraction

import pytest
import sympy as sp

from unipavg import (
    QQ,
    FieldAutomorphism,
    GaloisAction,
    GaloisOrbit,
    InputError,
    MembershipError,
    NilMatrix,
    PolyRing,
    RationalityError,
    UniMatrix,
    exp_nilpotent,
    rational_point,
)
from unipavg.fixtures import (
    abelian3_span,
    cubic_field,
    cubic_orbit,
    heisenberg_span,
    sqrt2_field,
    sqrt2_orbit,
    u2_span,
)
from oracle import sp_exp, sp_inv, sp_log


def test_sqrt2_orbit_shape():
    orbit = sqrt2_orbit()
    assert len(orbit) == 2
    assert orbit.q == 1


def test_sqrt2_rational_point():
    orbit = sqrt2_orbit()
    out = rational_point(orbit)
    assert out.ring.field is QQ
    for i in range(3):
        for j in range(i + 1, 3):
            assert out.entry(i, j).is_constant


def test_sqrt2_rational_point_matches_independent_formula():
    # two conjugate points: the average is exp(log(z1 z0^{-1}) / 2) z0,
    # recomputed here with sympy over Q(sqrt 2)
    orbit = sqrt2_orbit()
    out = rational_point(orbit)
    s = sp.sqrt(2)

    def to_sympy(z):
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                coords = z.entry(i, j).constant_value().coords
                row.append(sp.nsimplify(coords[0] + coords[1] * s))
            rows.append(row)
        return sp.Matrix(rows)

    z0, z1 = (to_sympy(z) for z in orbit.points)
    avg = sp.expand(sp_exp(sp_log(z1 * sp_inv(z0)) / 2) * z0)
    for i in range(3):
        for j in range(3):
            got = out.entry(i, j).constant_value().as_fraction()
            assert sp.simplify(avg[i, j] - sp.Rational(got.numerator, got.denominator)) == 0


def test_cubic_orbit_rational_point():
    orbit = cubic_orbit()
    assert len(orbit) == 3
    out = rational_point(orbit)
    assert out.ring.field is QQ
    # order of the orbit points cannot matter at uniform weights
    shuffled = GaloisOrbit(orbit.group, orbit.action,
                           [orbit.points[2], orbit.points[0], orbit.points[1]])
    assert rational_point(shuffled) == out


def test_fixed_rational_point_descends_to_itself():
    field = sqrt2_field()
    span = heisenberg_span(field)
    ring = span.ring
    z = UniMatrix.from_entries(ring, 3, {(0, 1): ring.constant(field.value(2)),
                                         (0, 2): ring.constant(field.value(Fraction(1, 3)))})
    action = GaloisAction(field, [[0, -1]])
    out = rational_point(GaloisOrbit(span, action, [z]))
    assert out.entry(0, 1).constant_value().as_fraction() == 2
    assert out.entry(0, 2).constant_value().as_fraction() == Fraction(1, 3)


def test_abelian_conjugate_pair_averages_to_identity():
    field = sqrt2_field()
    span = u2_span(field)
    ring = span.ring
    r = field.gen
    z0 = exp_nilpotent(NilMatrix.from_entries(ring, 2, {(0, 1): r}))
    z1 = exp_nilpotent(NilMatrix.from_entries(ring, 2, {(0, 1): -r}))
    action = GaloisAction(field, [[0, -1]])
    out = rational_point(GaloisOrbit(span, action, [z0, z1]))
    assert out.is_identity


def test_orbit_closure_is_enforced():
    orbit = sqrt2_orbit()
    span, action = orbit.group, orbit.action
    ring = orbit.points[0].ring
    bump = exp_nilpotent(NilMatrix.from_entries(ring, 3, {(0, 1): 1}))
    with pytest.raises(InputError, match="not closed"):
        GaloisOrbit(span, action, [orbit.points[0], orbit.points[1] * bump])
    with pytest.raises(InputError, match="not closed"):
        GaloisOrbit(span, action, [orbit.points[0]])


def test_orbit_membership_is_enforced():
    field = sqrt2_field()
    span = abelian3_span(field)
    ring = span.ring
    outside = exp_nilpotent(NilMatrix.from_entries(ring, 4, {(1, 2): field.one}))
    action = GaloisAction(field, [[0, -1]])
    with pytest.raises(MembershipError):
        GaloisOrbit(span, action, [outside])


def test_orbit_rejects_non_constant_points():
    field = sqrt2_field()
    span = heisenberg_span(field)
    ring1 = PolyRing(field, 1)
    z = exp_nilpotent(NilMatrix.from_entries(ring1, 3, {(0, 1): ring1.coordinate(0)}))
    action = GaloisAction(field, [[0, -1]])
    with pytest.raises(InputError):
        GaloisOrbit(span, action, [z])


def test_undersized_action_fails_rationality():
    # declaring only the identity automorphism leaves an irrational average
    field = cubic_field()
    span = heisenberg_span(field)
    ring = span.ring
    theta = field.gen
    z = UniMatrix.from_entries(ring, 3, {(0, 1): ring.constant(theta)})
    trivial = GaloisAction(field, [theta])
    orbit = GaloisOrbit(span, trivial, [z])
    with pytest.raises(RationalityError):
        rational_point(orbit)


def test_a_non_invariant_average_fails_rationality(monkeypatch):
    # an average moved by the generator has an irrational entry, so the
    # rationality check refuses it without a separate invariance check
    from unipavg import descent

    orbit = sqrt2_orbit()
    ring = orbit.group.ring
    moved = UniMatrix.from_entries(ring, orbit.group.n, {
        (0, 1): ring.constant(orbit.action.field.value([1, 1]))})
    sigma, = orbit.action.generators
    assert moved.map_entries(sigma, ring) != moved
    monkeypatch.setattr(descent, "wav_at_weights", lambda points, weights, group: moved)
    with pytest.raises(RationalityError, match="irrational entry"):
        rational_point(orbit)
