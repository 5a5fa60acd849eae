"""Galois orbits: the symmetry of their passes, their averages through
the universal polynomial, and their rational points.

If a coefficient automorphism sigma and a permutation pi of the indices
satisfy sigma(f_i) = f_{pi(i)}, as each Galois generator does on an orbit,
then tau = P_pi o sigma, with P_pi the substitution t_j -> t_{pi(j)},
commutes with every step of a pass, so tau(f'_i) = f'_{pi(i)}; this is what
makes the uniform average of an orbit Galois invariant.  Each orbit below
(conjugate pairs over Q(sqrt2), a cyclic cubic orbit in order and shuffled,
with repeated points and with points over Q) checks that fact on every
pass, compares `wav` (through the universal polynomial where it applies)
with the pass loop, and compares `rational_point` with plain
`wav_at_weights` followed by descent to Q.
"""

import random

import pytest

from unipavg import (
    QQ,
    GaloisAction,
    GaloisOrbit,
    SectionTuple,
    WeightSeq,
    embed_simplex,
    full_unipotent_span,
    lift_w,
    permute_coordinates,
    rational_point,
    wav,
    wav_at_weights,
    wsym,
)
from unipavg import average as average_module
from unipavg.average import wav_by_passes
from unipavg.fixtures import cubic_field, point_from_coordinates, sqrt2_field
from helpers import rand_scalar
from test_commuting_pass import full_pass


def rand_point(rng, span):
    """exp of a span element with random coordinates in the span's field."""
    return point_from_coordinates(span, [rand_scalar(rng, span.field, -2, 2, 2)
                                         for _ in range(span.dim)])


def sqrt2_action():
    return GaloisAction(sqrt2_field(), [[0, -1]])


def cubic_action():
    field = cubic_field()
    return GaloisAction(field, [field.gen * field.gen - 2])


def conjugates(z, sigma, count):
    """z, sigma(z), ..., count points in all."""
    out = [z]
    while len(out) < count:
        out.append(out[-1].map_entries(sigma, z.ring))
    return out


def orbit_cases():
    """(name, orbit) for each shape of orbit: how the generators permute
    the indices, in order, shuffled, with repeats and with fixed points."""
    rng = random.Random(1301)
    cases = []
    for n, q in ((5, 1), (4, 3)):
        action = sqrt2_action()
        span = full_unipotent_span(n, action.field)
        sigma = action.generators[0]
        points = []
        while len(points) < q + 1:
            points += conjugates(rand_point(rng, span), sigma, 2)
        # at q = 3, two sigma-orbits: {0, 1} and {2, 3}
        cases.append(("sqrt2-n%d-q%d" % (n, q), GaloisOrbit(span, action, points)))
    action = cubic_action()
    sigma = action.generators[0]
    span = full_unipotent_span(4, action.field)
    points = conjugates(rand_point(rng, span), sigma, 3)
    cases.append(("cubic-q2", GaloisOrbit(span, action, points)))
    shuffled = [points[2], points[0], points[1]]
    cases.append(("cubic-q2-shuffled", GaloisOrbit(span, action, shuffled)))
    cases.append(("cubic-q5-repeated", GaloisOrbit(span, action, shuffled + points)))
    # a point over Q is its own orbit, which no permutation reaches from 0
    fixed = point_from_coordinates(span, [1, 0, -2, 0, 1, 3])
    cases.append(("cubic-q3-fixed-point", GaloisOrbit(span, action, points + [fixed])))
    cases.append(("cubic-q4-fixed-first", GaloisOrbit(span, action, [fixed, fixed] + points)))
    return cases


CASES = orbit_cases()
IDS = [name for name, _ in CASES]


def generator_permutations(orbit):
    """(sigma, perm) for each Galois generator, with sigma(z_i) = z_{perm[i]}:
    the permutation whose existence the orbit's closure check verifies."""
    out = []
    for sigma in orbit.action.generators:
        remaining = list(range(orbit.q + 1))
        perm = []
        for z in orbit.points:
            moved = z.map_entries(sigma, z.ring)
            perm.append(remaining.pop(next(k for k, w in enumerate(remaining)
                                           if orbit.points[w] == moved)))
        out.append((sigma, tuple(perm)))
    return out


def conjugate(f, sigma, perm):
    """tau(f) = P_perm(sigma(f)) for a matrix f over a q-simplex ring."""
    return f.map_entries(lambda e: permute_coordinates(sigma(e), perm), f.ring)


def through_symmetry(t, symmetry):
    """The components of t computed only for the indices that no tau
    reaches from one computed before them, the rest as tau-images: what a
    pass would give if it used the symmetry."""
    out = [None] * (t.q + 1)
    for i in range(t.q + 1):
        if out[i] is None:
            out[i] = t.sections[i]
            reached = [i]
            while reached:
                k = reached.pop()
                for sigma, perm in symmetry:
                    if out[perm[k]] is None:
                        out[perm[k]] = conjugate(out[k], sigma, perm)
                        reached.append(perm[k])
    return out


@pytest.mark.parametrize("name,orbit", CASES, ids=IDS)
def test_the_orbit_records_each_generators_permutation(name, orbit):
    # the closure check accepted the orbit, so each generator permutes it
    for sigma, perm in generator_permutations(orbit):
        assert sorted(perm) == list(range(orbit.q + 1))
        for i, z in enumerate(orbit.points):
            assert z.map_entries(sigma, z.ring) == orbit.points[perm[i]]


@pytest.mark.parametrize("name,orbit", CASES, ids=IDS)
def test_every_pass_matches_the_tuple_without_its_symmetry(name, orbit):
    """Each pass of the pass loop, the lift included, equals its components
    rebuilt from the ones no symmetry reaches, so tau(f'_i) = f'_{pi(i)}."""
    symmetry = generator_permutations(orbit)
    cur = lift_w(SectionTuple(orbit.group, orbit.points))
    while True:
        assert through_symmetry(cur, symmetry) == list(cur.sections)
        if cur.is_constant_tuple():
            break
        cur = wsym(cur)
    assert wav(SectionTuple(orbit.group, orbit.points)) == cur.sections[0]


@pytest.mark.parametrize("name,orbit", CASES, ids=IDS)
def test_an_orbits_universal_average_matches_the_pass_loop(monkeypatch, name, orbit):
    t = SectionTuple(orbit.group, orbit.points)
    want = wav_by_passes(t)
    wav(t)          # builds the universal polynomial on first use
    calls = []
    real = average_module.wsym
    monkeypatch.setattr(average_module, "wsym", lambda tup: calls.append(1) or real(tup))
    assert wav(t) == want
    # q >= 2 on U_4 (class 3) and U_5 (class 4) averages through Phi_{3,q},
    # q <= 4, and q = 1 through sum_j t_j e_j; the q = 5 orbit takes the pass
    # loop
    assert (calls == []) == (orbit.q <= 4)


@pytest.mark.parametrize("name,orbit", CASES, ids=IDS)
def test_rational_point_matches_plain_wav_at_weights(name, orbit):
    weights = WeightSeq.uniform(orbit.q, orbit.action.field)
    plain = wav_at_weights(orbit.points, weights, orbit.group)
    got = rational_point(orbit)
    assert got.ring.field is QQ
    for i in range(plain.n):
        for j in range(i + 1, plain.n):
            value = plain.entry(i, j).constant_value()
            assert value.is_rational
            assert got.entry(i, j).constant_value().as_fraction() == value.as_fraction()


@pytest.mark.parametrize("name,orbit", [c for c in CASES if c[1].q > 1],
                         ids=[name for name, orbit in CASES if orbit.q > 1])
def test_a_symmetric_pass_over_the_simplex_matches_the_full_pass(name, orbit):
    """h_i = f'_i f_i, with f' the lift, satisfies tau(h_i) = h_{pi(i)} with
    the substitution t_j -> t_{pi(j)} at work, and its transitions are as
    generic as the points', so its pass computes every component, and they
    keep the symmetry."""
    lifted = lift_w(SectionTuple(orbit.group, orbit.points))
    h = [a * embed_simplex(z, orbit.q) for a, z in zip(lifted.sections, orbit.points)]
    fresh = SectionTuple(orbit.group, h)
    symmetry = generator_permutations(orbit)
    assert through_symmetry(fresh, symmetry) == h
    assert fresh.depth == 1 and 3 <= fresh.table.nilpotency_class
    got = wsym(fresh)
    assert list(got.sections) == full_pass(fresh)
    assert through_symmetry(got, symmetry) == list(got.sections)
