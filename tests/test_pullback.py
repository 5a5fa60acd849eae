"""Exact cross-checks of the simplicial path's shortcuts against the paths
they replace: the monomial pullback kernel behind `substitute_simplex_map`
against evaluation at the full list of variable images, and degenerate
levels of a built section against `wav` of their own tuples."""

import random
from itertools import combinations_with_replacement
from math import comb

import pytest

from unipavg import (
    QQ,
    PolyRing,
    SectionTuple,
    SimplexMap,
    build_simplicial_section,
    substitute_simplex_map,
    validate_simplicial_section,
    wav,
)
from unipavg.fixtures import cover_local_sections, six_point_cover, sqrt2_field
from unipavg.nilpotent import pull_back
from helpers import rand_scalar, rand_unipotent
from test_polykernel import ref_substitute


def substitute_by_evaluation(p, alpha):
    """The pullback as it was first written: every variable goes to its
    image polynomial, and each term is expanded by general products (the
    reference kernel's evaluation)."""
    target = PolyRing(p.ring.field, alpha.p, p.ring.params)
    return target.poly(ref_substitute(p.ring, dict(p.terms), alpha))


def order_maps(p, q):
    """Every order-preserving map [p] -> [q]."""
    return [SimplexMap(q, values)
            for values in combinations_with_replacement(range(q + 1), p + 1)]


def rand_poly(rng, ring, nterms=6, max_exp=3):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        terms[exp] = rand_scalar(rng, ring.field)
    return ring.poly(terms)


@pytest.mark.parametrize("field", [QQ, sqrt2_field()], ids=["Q", "Q(sqrt2)"])
def test_substitute_matches_evaluation_on_every_small_map(field):
    rng = random.Random(4101 + field.degree)
    maps = 0
    for q in range(4):
        rings = [PolyRing(field, q), PolyRing(field, q, ("a",))]
        polys = [rand_poly(rng, ring) for ring in rings for _ in range(3)]
        polys += [ring.zero() for ring in rings] + [ring.one() for ring in rings]
        for p in range(5):
            for alpha in order_maps(p, q):
                maps += 1
                for poly in polys:
                    assert substitute_simplex_map(poly, alpha) == \
                        substitute_by_evaluation(poly, alpha), (alpha, poly)
    # C(p + q + 1, q) weakly increasing maps [p] -> [q]
    assert maps == sum(comb(p + q + 1, q) for p in range(5) for q in range(4)) == 205


def test_substitute_reuses_the_plan_across_rings():
    """A map used with a second source ring pulls back over that ring."""
    rng = random.Random(4111)
    alpha = SimplexMap.codegeneracy(2, 1)
    for ring in (PolyRing(QQ, 2), PolyRing(QQ, 2, ("a", "b")), PolyRing(QQ, 2),
                 PolyRing(sqrt2_field(), 2)):
        poly = rand_poly(rng, ring)
        pulled = substitute_simplex_map(poly, alpha)
        assert pulled.ring == PolyRing(ring.field, 3, ring.params)
        assert pulled == substitute_by_evaluation(poly, alpha)


def test_pull_back_matrix_is_entrywise_substitution():
    rng = random.Random(4121)
    field = sqrt2_field()
    mat = rand_unipotent(rng, field, 4, q=2)
    for alpha in order_maps(3, 2):
        pulled = pull_back(mat, alpha)
        target = PolyRing(field, 3)
        assert pulled.ring == target
        assert pulled.rows == tuple(tuple(substitute_by_evaluation(e, alpha) for e in row)
                                    for row in mat.rows)


@pytest.mark.parametrize("field", [QQ, sqrt2_field()], ids=["Q", "Q(sqrt2)"])
def test_degenerate_levels_equal_wav_of_their_tuples(field):
    cover = six_point_cover()
    span, locals_ = cover_local_sections(field)
    by_open = {ls.open_index: ls for ls in locals_}
    section = build_simplicial_section(cover, locals_, span, max_q=4)
    degenerate = 0
    for q, level in section.levels.items():
        for mi, per_point in level.items():
            if len(set(mi)) == len(mi):
                continue
            for x, mat in per_point.items():
                degenerate += 1
                tup = SectionTuple(span, [by_open[i].values[x] for i in mi])
                assert mat == wav(tup), (mi, x)
    assert degenerate > 0
    report = validate_simplicial_section(section)
    assert report.ok, report.summary()
