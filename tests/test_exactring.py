"""Scalars, simplex polynomials, simplex maps and field automorphisms."""

import random
from fractions import Fraction

import pytest

from unipavg import (
    QQ,
    FieldAutomorphism,
    GaloisAction,
    InputError,
    PolyRing,
    RingMismatch,
    ScalarField,
    SimplexMap,
    apply_galois,
    eval_at_weights,
    extend_to_simplex,
    make_simplex_coordinate,
    permute_coordinates,
    poly_arith,
    substitute_simplex_map,
)
from helpers import rand_fraction, rand_scalar, rand_weights


def sqrt2():
    return ScalarField.extension("r", [Fraction(-2), Fraction(0), Fraction(1)])


def cubic():
    # x^3 - 3x + 1, cyclic over the rationals
    return ScalarField.extension("x", [Fraction(1), Fraction(-3), Fraction(0), Fraction(1)])


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------

def test_rationals_arithmetic():
    a = QQ.value(Fraction(3, 4))
    b = QQ.value(2)
    assert (a + b).as_fraction() == Fraction(11, 4)
    assert (a * b).as_fraction() == Fraction(3, 2)
    assert (a - b).as_fraction() == Fraction(-5, 4)
    assert (a / b).as_fraction() == Fraction(3, 8)
    assert QQ.value(0).is_zero
    assert a.is_rational


def test_sqrt2_generator_squares_to_two():
    F = sqrt2()
    r = F.gen
    assert r * r == F.value(2)
    # (1 + r)(-1 + r) = r^2 - 1 = 1
    assert (F.one + r).inverse() == F.value([Fraction(-1), Fraction(1)])


def test_extension_inverse_roundtrip():
    rng = random.Random(101)
    for F in (sqrt2(), cubic()):
        for _ in range(25):
            v = rand_scalar(rng, F)
            if v.is_zero:
                continue
            assert v * v.inverse() == F.one
            assert (F.one / v) * v == F.one


def test_power_matches_repeated_product():
    rng = random.Random(102)
    F = cubic()
    v = rand_scalar(rng, F)
    acc = F.one
    for k in range(6):
        assert v**k == acc
        acc = acc * v
    if not v.is_zero:
        assert v**-2 == (v.inverse()) ** 2


def test_reducible_minpoly_rejected():
    for coeffs in ([-1, 0, 1], [-4, 0, 1], [-1, 0, 0, 1], [0, -1, 0, 1]):
        with pytest.raises(InputError):
            ScalarField.extension("y", [Fraction(c) for c in coeffs])


def _expand(roots, rest):
    """Coefficients (constant first) of prod (x - r) * rest."""
    coeffs = [Fraction(c) for c in rest]
    for r in roots:
        shifted = [Fraction(0)] + coeffs
        coeffs = [s - r * c for s, c in zip(shifted, coeffs + [Fraction(0)])]
    return coeffs


def test_rational_root_test_with_huge_coefficients():
    big = 10**21 + 3
    # no rational root: accepted, with no scan over divisors of the constant
    for coeffs in ([big, 0, 1], [Fraction(big, 7), 5, 1], [big, 0, 0, 1],
                   [1, -3 * big, 0, 1], [2, 0, -big, 1]):
        ScalarField.extension("y", coeffs)
    # a rational root anywhere, including between the stationary points of a
    # cubic with three real roots: rejected
    for roots, rest in (([10**20, -10**20], [1]),
                        ([Fraction(big, 7)], [Fraction(-1, 3), 1]),
                        ([Fraction(-big, 5)], [1, 0, 1]),
                        ([Fraction(1, 2)], [-2 * big * big, 0, 1]),
                        ([-big, Fraction(1, 2), big * big], [1]),
                        ([Fraction(3, 4)], [big, 0, 1])):
        coeffs = _expand(roots, rest)
        with pytest.raises(InputError, match="rational root"):
            ScalarField.extension("y", coeffs)


def test_reducible_quartic_reported_by_its_factor():
    field = ScalarField.extension("y", [-1, 0, 0, 0, 1])
    unit = field.value([2, 1, 0, 0])
    assert unit.inverse() * unit == field.one
    with pytest.raises(InputError, match=r"reducible: it has the factor 1 \+ y\^2"):
        field.value([1, 0, 1, 0]).inverse()


def test_bad_minpoly_shapes_rejected():
    with pytest.raises(InputError):
        ScalarField.extension("y", [Fraction(-2), Fraction(0), Fraction(2)])  # not monic
    with pytest.raises(InputError):
        ScalarField.extension("y", [Fraction(3), Fraction(1)])  # degree 1
    with pytest.raises(InputError):
        ScalarField.extension("y", [])


def test_as_fraction_requires_rational_element():
    F = sqrt2()
    assert F.value(7).as_fraction() == 7
    assert not F.gen.is_rational
    with pytest.raises(InputError):
        F.gen.as_fraction()


def test_cross_field_arithmetic_rejected():
    with pytest.raises(RingMismatch):
        sqrt2().gen + QQ.one
    with pytest.raises(RingMismatch):
        sqrt2().gen * cubic().gen


def test_zero_division_rejected():
    with pytest.raises(ZeroDivisionError):
        QQ.one / QQ.zero
    with pytest.raises(ZeroDivisionError):
        sqrt2().zero.inverse()


# ---------------------------------------------------------------------------
# simplex maps
# ---------------------------------------------------------------------------

def test_coface_and_codegeneracy_values():
    d1 = SimplexMap.coface(2, 1)
    assert d1.values == (0, 2)
    s0 = SimplexMap.codegeneracy(1, 0)
    assert s0.values == (0, 0, 1)
    assert SimplexMap.identity(3).values == (0, 1, 2, 3)
    assert d1.describe() == "d^1:[1]->[2]"
    assert s0.describe() == "s^0:[2]->[1]"


def test_invalid_maps_rejected():
    with pytest.raises(InputError):
        SimplexMap(2, [1, 0])  # decreasing
    with pytest.raises(InputError):
        SimplexMap(2, [0, 3])  # out of range
    with pytest.raises(InputError):
        SimplexMap(2, [])
    with pytest.raises(InputError):
        SimplexMap.coface(0, 0)


def test_preimage_and_compose():
    s0 = SimplexMap.codegeneracy(2, 0)
    assert s0.preimage(0) == (0, 1)
    assert s0.preimage(2) == (3,)
    d0 = SimplexMap.coface(2, 0)
    assert d0.preimage(0) == ()
    with pytest.raises(InputError):
        SimplexMap.coface(3, 0).compose(SimplexMap.coface(3, 1))


def test_cosimplicial_identities():
    # d^j d^i = d^i d^{j-1} for i < j
    for q in (2, 3):
        for j in range(q + 1):
            for i in range(j):
                lhs = SimplexMap.coface(q, j).compose(SimplexMap.coface(q - 1, i))
                rhs = SimplexMap.coface(q, i).compose(SimplexMap.coface(q - 1, j - 1))
                assert lhs == rhs
    # s^j s^i = s^i s^{j+1} for i <= j
    for q in (1, 2):
        for j in range(q):
            for i in range(j + 1):
                lhs = SimplexMap.codegeneracy(q - 1, j).compose(SimplexMap.codegeneracy(q, i))
                rhs = SimplexMap.codegeneracy(q - 1, i).compose(SimplexMap.codegeneracy(q, j + 1))
                assert lhs == rhs
    # s^j d^j and s^j d^{j+1} are the identity
    for q in (1, 2, 3):
        for j in range(q):
            s = SimplexMap.codegeneracy(q - 1, j)
            assert s.compose(SimplexMap.coface(q, j)) == SimplexMap.identity(q - 1)
            assert s.compose(SimplexMap.coface(q, j + 1)) == SimplexMap.identity(q - 1)


# ---------------------------------------------------------------------------
# simplex polynomials
# ---------------------------------------------------------------------------

def rand_poly(rng, ring, nterms=4, max_exp=2):
    p = ring.zero()
    nvars = ring.q + len(ring.params)
    for _ in range(nterms):
        exp = tuple(rng.randint(0, max_exp) if k < ring.q else rng.randint(0, 1)
                    for k in range(nvars))
        p = p + ring.poly({exp: rand_fraction(rng)})
    return p


def test_partition_of_unity():
    for q in range(4):
        ring = PolyRing(QQ, q)
        total = ring.zero()
        for j in range(q + 1):
            total = total + ring.coordinate(j)
        assert total == ring.one()


def test_last_coordinate_eliminated():
    ring = PolyRing(QQ, 2)
    expected = ring.one() - ring.coordinate(0) - ring.coordinate(1)
    assert ring.coordinate(2) == expected
    assert make_simplex_coordinate(2, 2) == expected


def test_canonical_equality_of_rearrangements():
    ring = PolyRing(QQ, 2)
    t0, t1 = ring.coordinate(0), ring.coordinate(1)
    lhs = (t0 + t1) * (t0 + t1)
    rhs = t0 * t0 + t0 * t1 + t0 * t1 + t1 * t1
    assert lhs == rhs
    assert (t0 - t0).is_zero


def test_arithmetic_agrees_with_evaluation():
    rng = random.Random(103)
    ring = PolyRing(QQ, 2, ("w",))
    for _ in range(20):
        a = rand_poly(rng, ring)
        b = rand_poly(rng, ring)
        w = rand_weights(rng, 2)
        pv = {"w": rand_fraction(rng)}
        ea = eval_at_weights(a, w, pv)
        eb = eval_at_weights(b, w, pv)
        assert eval_at_weights(a + b, w, pv) == ea + eb
        assert eval_at_weights(a - b, w, pv) == ea - eb
        assert eval_at_weights(a * b, w, pv) == ea * eb
        assert eval_at_weights(-a, w, pv) == -ea
        assert eval_at_weights(a.scale(QQ.value(3)), w, pv) == ea * QQ.value(3)


def test_poly_arith_dispatch():
    ring = PolyRing(QQ, 1)
    a, b = ring.coordinate(0), ring.one()
    assert poly_arith(a, b, "add") == a + b
    assert poly_arith(a, b, "sub") == a - b
    assert poly_arith(a, b, "mul") == a
    with pytest.raises(InputError):
        poly_arith(a, b, "div")


def test_constant_value_and_degree():
    ring = PolyRing(QQ, 2)
    c = ring.constant(Fraction(5, 3))
    assert c.is_constant
    assert c.constant_value() == QQ.value(Fraction(5, 3))
    t0 = ring.coordinate(0)
    assert not t0.is_constant
    with pytest.raises(InputError):
        t0.constant_value()
    assert (t0 * t0 * ring.coordinate(1)).total_degree() == 3
    assert ring.zero().total_degree() == 0


def test_parameters():
    ring = PolyRing(QQ, 1, ("y", "z"))
    p = ring.parameter("y") * ring.coordinate(0) + ring.parameter("z")
    val = eval_at_weights(p, [Fraction(1, 4), Fraction(3, 4)],
                          {"y": Fraction(2), "z": Fraction(-1)})
    assert val == QQ.value(Fraction(-1, 2))
    with pytest.raises(InputError):
        ring.parameter("missing")
    with pytest.raises(InputError):
        eval_at_weights(p, [Fraction(1, 4), Fraction(3, 4)], {"y": Fraction(2)})


def test_weights_must_sum_to_one():
    ring = PolyRing(QQ, 1)
    p = ring.coordinate(0)
    with pytest.raises(InputError):
        eval_at_weights(p, [Fraction(1, 2), Fraction(1, 4)])
    with pytest.raises(InputError):
        eval_at_weights(p, [Fraction(1)])


def test_ring_mismatch_rejected():
    a = PolyRing(QQ, 1).coordinate(0)
    b = PolyRing(QQ, 2).coordinate(0)
    with pytest.raises(RingMismatch):
        a + b


def test_map_coefficients():
    F = sqrt2()
    ring = PolyRing(F, 1)
    p = ring.coordinate(0).scale(F.gen) + ring.one()
    conj = FieldAutomorphism(F, [Fraction(0), Fraction(-1)])
    q = p.map_coefficients(conj.apply_value)
    assert q == ring.coordinate(0).scale(-F.gen) + ring.one()


# ---------------------------------------------------------------------------
# pullback, permutation, extension, evaluation
# ---------------------------------------------------------------------------

def pushforward(weights, alpha):
    """Image measure: sum the weights over each fiber of alpha."""
    out = [Fraction(0)] * (alpha.q + 1)
    for i, w in enumerate(weights):
        out[alpha(i)] += w
    return out


def test_coface_pullback_kills_missed_coordinate():
    for q in (1, 2, 3):
        for i in range(q + 1):
            p = make_simplex_coordinate(q, i)
            pulled = substitute_simplex_map(p, SimplexMap.coface(q, i))
            assert pulled.is_zero


def test_codegeneracy_pullback_merges_coordinates():
    ring = PolyRing(QQ, 2)
    p = make_simplex_coordinate(1, 0)
    pulled = substitute_simplex_map(p, SimplexMap.codegeneracy(1, 0))
    assert pulled == ring.coordinate(0) + ring.coordinate(1)


def test_pullback_is_functorial():
    rng = random.Random(104)
    alpha = SimplexMap(3, [0, 1, 3])    # [2] -> [3]
    beta = SimplexMap(2, [0, 0])        # [1] -> [2]
    ring = PolyRing(QQ, 3)
    for _ in range(10):
        p = rand_poly(rng, ring)
        step = substitute_simplex_map(substitute_simplex_map(p, alpha), beta)
        joined = substitute_simplex_map(p, alpha.compose(beta))
        assert step == joined


def test_pullback_agrees_with_pushforward_of_weights():
    rng = random.Random(105)
    maps = [SimplexMap.coface(2, 1), SimplexMap.codegeneracy(2, 2),
            SimplexMap(3, [1, 1, 2]), SimplexMap(2, [2, 2])]
    for alpha in maps:
        ring = PolyRing(QQ, alpha.q)
        for _ in range(5):
            p = rand_poly(rng, ring)
            w = rand_weights(rng, alpha.p)
            lhs = eval_at_weights(substitute_simplex_map(p, alpha), w)
            rhs = eval_at_weights(p, pushforward(w, alpha))
            assert lhs == rhs


def test_permute_coordinates_matches_relabelled_weights():
    rng = random.Random(106)
    ring = PolyRing(QQ, 2)
    for perm in ((0, 1, 2), (1, 0, 2), (2, 0, 1), (0, 2, 1)):
        for _ in range(5):
            p = rand_poly(rng, ring)
            w = rand_weights(rng, 2)
            lhs = eval_at_weights(permute_coordinates(p, perm), w)
            rhs = eval_at_weights(p, [w[perm[j]] for j in range(3)])
            assert lhs == rhs


def test_permute_coordinates_composition():
    rng = random.Random(107)
    ring = PolyRing(QQ, 2)
    sigma, tau = (1, 2, 0), (0, 2, 1)
    composed = tuple(tau[sigma[j]] for j in range(3))
    for _ in range(5):
        p = rand_poly(rng, ring)
        assert (permute_coordinates(permute_coordinates(p, sigma), tau)
                == permute_coordinates(p, composed))


def test_bad_permutation_rejected():
    p = PolyRing(QQ, 2).coordinate(0)
    with pytest.raises(InputError):
        permute_coordinates(p, (0, 0, 1))
    with pytest.raises(InputError):
        permute_coordinates(p, (0, 1))


def test_extend_to_simplex():
    base = PolyRing(QQ, 0, ("y",))
    p = base.parameter("y") + base.constant(2)
    ext = extend_to_simplex(p, 2)
    assert ext.ring.q == 2
    w = [Fraction(1, 3)] * 3
    assert eval_at_weights(ext, w, {"y": Fraction(5)}) == QQ.value(7)
    with pytest.raises(InputError):
        extend_to_simplex(ext, 1)


# ---------------------------------------------------------------------------
# field automorphisms
# ---------------------------------------------------------------------------

def test_sqrt2_conjugation():
    F = sqrt2()
    conj = FieldAutomorphism(F, [Fraction(0), Fraction(-1)])
    rng = random.Random(108)
    for _ in range(10):
        v = rand_scalar(rng, F)
        w = rand_scalar(rng, F)
        assert conj(conj(v)) == v
        assert conj(v * w) == conj(v) * conj(w)
        assert conj(v + w) == conj(v) + conj(w)


def test_cubic_automorphism_has_order_three():
    F = cubic()
    sigma = FieldAutomorphism(F, [Fraction(-2), Fraction(0), Fraction(1)])
    th = F.gen
    assert sigma(th) == th * th - F.value(2)
    rng = random.Random(109)
    for _ in range(10):
        v = rand_scalar(rng, F)
        assert sigma(sigma(sigma(v))) == v
        # the trace form lands in the fixed field
        assert (v + sigma(v) + sigma(sigma(v))).is_rational


def test_non_root_image_rejected():
    F = sqrt2()
    with pytest.raises(InputError):
        FieldAutomorphism(F, [Fraction(1), Fraction(1)])


def test_automorphism_needs_extension():
    with pytest.raises(InputError):
        FieldAutomorphism(QQ, Fraction(1))


def test_galois_action_and_polynomials():
    F = sqrt2()
    act = GaloisAction(F, [[Fraction(0), Fraction(-1)]])
    assert len(act.generators) == 1
    ring = PolyRing(F, 1)
    p = ring.coordinate(0).scale(F.gen)
    moved = apply_galois(act.generators[0], p)
    assert moved == ring.coordinate(0).scale(-F.gen)
    with pytest.raises(RingMismatch):
        act.generators[0](QQ.one)
    with pytest.raises(InputError):
        GaloisAction(F, [])
