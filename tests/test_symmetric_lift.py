"""The symmetric lift: one component per orbit of a tuple's symmetry.

If a coefficient automorphism sigma and a permutation pi of the indices
satisfy sigma(f_i) = f_{pi(i)}, then tau = P_pi o sigma, with P_pi the
substitution t_j -> t_{pi(j)}, commutes with every step of a pass, so
tau(f'_i) = f'_{pi(i)}.  `wsym` then computes a component only for an index
that no symmetry reaches from one computed before it, and fills the rest
with tau.  Every case here is compared, component by component, with the
same tuple without its symmetry, and `rational_point` with plain
`wav_at_weights` followed by descent to Q.
"""

import random

import pytest

from unipavg import (
    QQ,
    GaloisAction,
    GaloisOrbit,
    InputError,
    SectionTuple,
    WeightSeq,
    embed_simplex,
    full_unipotent_span,
    lift_w,
    rational_point,
    wav,
    wav_at_weights,
    wsym,
)
from unipavg import average as average_module
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
    """(name, orbit) for each shape of symmetry the lift meets."""
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


def tuples(orbit):
    plain = SectionTuple(orbit.group, orbit.points)
    symmetric = SectionTuple(orbit.group, orbit.points, symmetry=orbit.symmetry)
    return plain, symmetric


def orbit_count(orbit):
    """The number of orbits of the permutations on the indices."""
    parent = list(range(orbit.q + 1))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for _, perm in orbit.symmetry:
        for i, j in enumerate(perm):
            parent[root(i)] = root(j)
    return len({root(i) for i in range(orbit.q + 1)})


def count_exps(monkeypatch, fn, *args):
    calls = []
    real = average_module.exp_nilpotent
    monkeypatch.setattr(average_module, "exp_nilpotent", lambda x: calls.append(1) or real(x))
    try:
        return fn(*args), len(calls)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("name,orbit", CASES, ids=IDS)
def test_the_orbit_records_each_generators_permutation(name, orbit):
    for sigma, perm in orbit.symmetry:
        assert sorted(perm) == list(range(orbit.q + 1))
        for i, z in enumerate(orbit.points):
            assert z.map_entries(sigma, z.ring) == orbit.points[perm[i]]


@pytest.mark.parametrize("name,orbit", CASES, ids=IDS)
def test_every_pass_matches_the_tuple_without_its_symmetry(monkeypatch, name, orbit):
    plain, symmetric = tuples(orbit)
    want, plain_exps = count_exps(monkeypatch, lift_w, plain)
    got, exps = count_exps(monkeypatch, lift_w, symmetric)
    assert got.symmetry == symmetric.symmetry
    assert got.depth == want.depth
    for i, (a, b) in enumerate(zip(got.sections, want.sections)):
        assert a == b, "lift component %d differs" % i
    if orbit.q > 1:
        # the lift takes every component: one exp per orbit of the indices
        assert plain_exps == orbit.q + 1
        assert exps == orbit_count(orbit)
    while not want.is_constant_tuple():
        want, got = wsym(want), wsym(got)
        assert list(got.sections) == list(want.sections)
    assert got.is_constant_tuple()
    assert wav(symmetric) == wav(plain)


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
def test_a_symmetric_pass_over_the_simplex_matches_the_full_pass(monkeypatch, name, orbit):
    """h_i = f'_i f_i, with f' the lift, satisfies tau(h_i) = h_{pi(i)} with
    the substitution t_j -> t_{pi(j)} at work, and its transitions are as
    generic as the points', so its pass computes every component."""
    lifted = lift_w(SectionTuple(orbit.group, orbit.points))
    h = [a * embed_simplex(z, orbit.q) for a, z in zip(lifted.sections, orbit.points)]
    fresh = SectionTuple(orbit.group, h, symmetry=orbit.symmetry)
    assert fresh.depth == 1 and 3 <= fresh.table.nilpotency_class
    got, exps = count_exps(monkeypatch, wsym, fresh)
    assert exps == orbit_count(orbit)
    assert list(got.sections) == full_pass(fresh)


def test_a_tuple_with_q_below_2_keeps_no_symmetry():
    # its passes compute one component, so the symmetry would save nothing
    name, orbit = CASES[0]
    assert orbit.q == 1 and orbit.symmetry
    assert SectionTuple(orbit.group, orbit.points, symmetry=orbit.symmetry).symmetry == ()


def test_a_wrong_symmetry_is_refused():
    name, orbit = next(c for c in CASES if c[0] == "cubic-q2")
    sigma, perm = orbit.symmetry[0]
    inverse = tuple(perm.index(i) for i in range(3))
    bad = [((sigma, inverse), "does not send section 0 to section %d" % inverse[0]),
           ((sigma, (0, 1)), "needs a permutation of 0..2"),
           ((sigma, (0, 0, 1)), "needs a permutation of 0..2"),
           ((sqrt2_action().generators[0], perm), "needs an automorphism"),
           ((None, perm), "needs an automorphism")]
    for pair, message in bad:
        with pytest.raises(InputError, match=message):
            SectionTuple(orbit.group, orbit.points, symmetry=[pair])
    # the same pair is trusted when the caller skips the checks
    trusted = SectionTuple(orbit.group, orbit.points, check=False, symmetry=[bad[0][0]])
    assert trusted.symmetry == (bad[0][0],)
