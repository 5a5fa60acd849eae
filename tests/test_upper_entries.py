"""Entrywise maps and equality of triangular matrices touch only the
strictly upper entries: each map is a ring map (0 to 0, 1 to 1), and the
kind of matrix fixes the diagonal and the zeros below it.  These tests
hold every map to the full-grid map it replaced, written out here, and
check that matrices of another kind, ring or size stay unequal."""

import random
from fractions import Fraction
from itertools import product

import pytest

from unipavg import (
    QQ,
    NilMatrix,
    PolyRing,
    SectionTuple,
    SimplexMap,
    UniMatrix,
    WeightSeq,
    act_permutation,
    eval_at_weights,
    extend_to_simplex,
    permute_coordinates,
    rational_point,
    substitute_simplex_map,
)
from unipavg import nilpotent
from unipavg.exactring import _pack, _unpack
from unipavg.average import eval_matrix_at_weights, wav_at_weights
from unipavg.fixtures import cubic_orbit, heisenberg_span, sqrt2_field, sqrt2_orbit
from unipavg.nilpotent import embed_simplex, pull_back
from helpers import rand_tuple, rand_weights
from test_single_paths import assert_same, rand_strict_rows, rand_unipotent_rows

FIELDS = [QQ, sqrt2_field()]


def full_grid(mat, fn, ring):
    """The map it replaced: fn on every entry, the diagonal and the part
    below it included."""
    return type(mat)(ring, tuple(tuple(fn(x) for x in row) for row in mat.rows), check=False)


def rand_matrices(rng, ring, n):
    return (NilMatrix(ring, rand_strict_rows(rng, ring, n)),
            UniMatrix(ring, rand_unipotent_rows(rng, ring, n)))


def simplex_maps(q):
    """Every coface into [q] and codegeneracy out of [q], and one map that
    repeats and skips vertices."""
    maps = [SimplexMap.coface(q, i) for i in range(q + 1)] if q else []
    maps += [SimplexMap.codegeneracy(q, i) for i in range(q + 1)]
    if q:
        maps.append(SimplexMap(q, [0, 0, q]))
    return maps


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(sqrt2)"])
def test_pull_back_matches_the_full_grid(field):
    rng = random.Random(931 + field.degree)
    for n, q in product((1, 2, 4), (0, 1, 2)):
        ring = PolyRing(field, q, ("s",))
        for mat in rand_matrices(rng, ring, n):
            for alpha in simplex_maps(q):
                target = PolyRing(field, alpha.p, ("s",))
                assert_same(pull_back(mat, alpha), full_grid(
                    mat, lambda e: substitute_simplex_map(e, alpha), target))


def test_one_pull_back_substitutes_each_strictly_upper_entry_once(monkeypatch):
    calls = []

    def counting(p, alpha):
        calls.append(p)
        return substitute_simplex_map(p, alpha)

    monkeypatch.setattr(nilpotent, "substitute_simplex_map", counting)
    rng = random.Random(932)
    for n in (1, 2, 3, 5):
        ring = PolyRing(QQ, 2)
        for mat in rand_matrices(rng, ring, n):
            del calls[:]
            pull_back(mat, SimplexMap.coface(2, 1))
            assert len(calls) == n * (n - 1) // 2


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(sqrt2)"])
def test_embed_and_evaluate_match_the_full_grid(field):
    rng = random.Random(933 + field.degree)
    for n, q in product((1, 3, 4), (1, 2)):
        base = PolyRing(field, 0, ("s",))
        target = PolyRing(field, q, ("s",))
        for mat in rand_matrices(rng, base, n):
            assert_same(embed_simplex(mat, q),
                        full_grid(mat, lambda e: extend_to_simplex(e, q), target))
        ring = PolyRing(field, q)
        out_ring = PolyRing(field, 0)
        weights = WeightSeq(field, rand_weights(rng, q))
        for mat in rand_matrices(rng, ring, n):
            assert_same(eval_matrix_at_weights(mat, weights), full_grid(
                mat, lambda e: out_ring.constant(eval_at_weights(e, weights.values)), out_ring))


def test_a_one_by_one_evaluation_still_checks_the_point():
    ring = PolyRing(QQ, 1, ("s",))
    mat = UniMatrix.identity(ring, 1)
    with pytest.raises(Exception) as new:
        eval_matrix_at_weights(mat, WeightSeq(QQ, [Fraction(1, 2)] * 2))
    with pytest.raises(Exception) as old:
        full_grid(mat, lambda e: eval_at_weights(e, [Fraction(1, 2)] * 2), ring)
    assert type(new.value) is type(old.value) and str(new.value) == str(old.value)


def test_permutation_matches_the_full_grid():
    rng = random.Random(934)
    span = heisenberg_span()
    ring = PolyRing(QQ, 2)
    lifted = [embed_simplex(s, 2) for s in rand_tuple(rng, span, 2).sections]
    for perm in ((1, 0, 2), (2, 0, 1), (1, 2, 0)):
        moved = act_permutation(SectionTuple(span, lifted), perm).sections
        placed = [None] * 3
        for i in range(3):
            placed[perm[i]] = lifted[i]
        for new, old in zip(moved, placed):
            assert_same(new, full_grid(old, lambda e: permute_coordinates(e, perm), ring))


@pytest.mark.parametrize("make_orbit", [sqrt2_orbit, cubic_orbit], ids=["sqrt2", "cubic"])
def test_galois_maps_and_descent_match_the_full_grid(make_orbit):
    orbit = make_orbit()
    for sigma in orbit.action.generators:
        for z in orbit.points:
            assert_same(z.map_entries(sigma, z.ring), full_grid(z, sigma, z.ring))
    weights = WeightSeq.uniform(orbit.q, orbit.action.field)
    averaged = wav_at_weights(orbit.points, weights, orbit.group)
    rational_ring = PolyRing(QQ, 0)
    old = full_grid(averaged, lambda e: rational_ring.constant(
        e.constant_value().as_fraction()), rational_ring)
    assert_same(rational_point(orbit), old)


# ---------------------------------------------------------------------------
# equality reads the kind, the ring and the size, then the strict upper part
# ---------------------------------------------------------------------------

def test_matrices_of_another_kind_ring_or_size_stay_unequal():
    ring = PolyRing(QQ, 1)
    rng = random.Random(935)
    nil, uni = rand_matrices(rng, ring, 3)
    same_rows_uni = UniMatrix(ring, nil.rows, check=False)
    assert nil != same_rows_uni and not nil == same_rows_uni
    assert uni != NilMatrix(ring, uni.rows, check=False)
    # equal entries over an equal ring built separately
    twin = PolyRing(QQ, 1)
    assert uni == full_grid(uni, lambda e: substitute_simplex_map(e, SimplexMap.identity(1)),
                            twin)
    # the same numerators over another ring
    for other in (PolyRing(QQ, 1, ("s",)), PolyRing(sqrt2_field(), 1), PolyRing(QQ, 2)):
        moved = UniMatrix(other, tuple(tuple(type(x)(other, x.den, {
            _pack(_unpack(key, ring.nvars) + (0,) * (other.nvars - ring.nvars)):
            v + (0,) * (other.field.degree - len(v))
            for key, v in x.nums.items()}) for x in row) for row in uni.rows), check=False)
        assert uni != moved and moved != uni
    # another size
    assert UniMatrix.identity(ring, 2) != UniMatrix.identity(ring, 3)
    assert NilMatrix.zero(ring, 3) != NilMatrix.zero(ring, 2)
    # one strictly upper entry off, by an integer or by a fraction
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for delta in (ring.one(), ring.constant(Fraction(1, 2))):
            rows = [list(r) for r in uni.rows]
            rows[i][j] = rows[i][j] + delta
            assert uni != UniMatrix(ring, rows)
    half = UniMatrix.from_entries(ring, 2, {(0, 1): Fraction(1, 2)})
    assert half != UniMatrix.from_entries(ring, 2, {(0, 1): 1})
    assert half == UniMatrix.from_entries(PolyRing(QQ, 1), 2, {(0, 1): Fraction(2, 4)})
