"""The fused kernels of the Lie-coordinate law.

Over polynomials, each coordinate of `LieTable.bracket`, of
`LieTable.combine` and of `LieHom.map_coordinates` is one fused sum of
products, with a rational structure constant as its pair's multiplier and
an irrational one folded into the pair's first factor; a t-constant vector
combined with coefficients on the simplex is not lifted there.  Each is
compared exactly with a per-pair reference kept here, which forms every
product and partial sum on its own, over Q, Q(sqrt2), the cyclic cubic
field and Q[x]/(x^2 - 1/2) (whose power table has the denominator 2), on
t-constant rings, simplex rings with q = 1..3 and a ring with a parameter,
for zero, sparse and dense vectors.  The tables have dimension 0 and 1, or
are free nilpotent, the quotient of a sheared U_4 with the constant 1/2,
and U_4 over Q(sqrt2) on a basis scaled by sqrt2, whose constants are
irrational.  Vectors of field scalars give the constant values of the
constant-polynomial results, and mixing fields raises RingMismatch.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from unipavg import (QQ, LieHom, LieSpan, NilMatrix, PolyRing, RingMismatch,
                     full_unipotent_span, lower_central_series, quotient_span)
from unipavg.exactring import ScalarField
from unipavg.fixtures import cubic_field, sqrt2_field
from unipavg.nilpotent import LieTable, _bch_terms, free_lie_table, lie_polynomial
from helpers import rand_fraction, rand_scalar

HALF_FIELD = ScalarField.extension("x", (Fraction(-1, 2), 0, 1))
FIELDS = {"Q": QQ, "sqrt2": sqrt2_field(), "cubic": cubic_field(), "half": HALF_FIELD}


def rings(field):
    """A t-constant ring, simplex rings with q = 1..3, and rings with a
    parameter, t-constant and on the 1-simplex."""
    return [PolyRing(field, q) for q in range(4)] + [PolyRing(field, q, ("a",))
                                                     for q in (0, 1)]


# ---------------------------------------------------------------------------
# the per-pair references
# ---------------------------------------------------------------------------

def ref_bracket(table, u, v, zero):
    """[u, v] with every product and partial sum formed on its own."""
    out = [zero] * table.dim
    for (i, j), consts in sorted(table.struct.items()):
        c = u[i] * v[j] - u[j] * v[i]
        for k, s in enumerate(consts):
            out[k] = out[k] + c * s
    return tuple(out)


def ref_combine(table, xs, coefs):
    """sum_k coefs[k] xs[k], the vectors lifted to the coefficients' simplex
    when they are t-constant and it is not theirs."""
    ring = xs[0][0].ring
    target = next((c.ring for c in coefs if hasattr(c, "ring")), ring)
    if target is not ring:
        xs = [table.embed(x, target.q) for x in xs]
    out = [target.zero()] * table.dim
    for x, c in zip(xs, coefs):
        for k in range(table.dim):
            out[k] = out[k] + x[k] * c
    return tuple(out)


def ref_map(image_coords, coords, zero):
    out = [zero] * len(image_coords[0])
    for x, row in zip(coords, image_coords):
        for k, a in enumerate(row):
            out[k] = out[k] + x * a
    return tuple(out)


class RefLaw:
    """A table's law with the reference bracket and combination."""

    def __init__(self, table):
        self.table = table

    def bracket(self, u, v):
        return ref_bracket(self.table, u, v, u[0].ring.zero())

    def combine(self, xs, coefs):
        return ref_combine(self.table, xs, coefs)


def ref_mul(table, x, y):
    return lie_polynomial(RefLaw(table), _bch_terms(table.nilpotency_class), (x, y))


# ---------------------------------------------------------------------------
# tables and vectors
# ---------------------------------------------------------------------------

def sheared_quotient(field):
    """The quotient of U_4 on the basis E_01, E_12, E_12 / 2 + E_23, E_02,
    E_13, E_03 by gamma_3: its table has the constant 1/2."""
    ring = PolyRing(field, 0)
    half = Fraction(1, 2)
    span = LieSpan([NilMatrix.from_entries(ring, 4, entries) for entries in (
        {(0, 1): 1}, {(1, 2): 1}, {(1, 2): half, (2, 3): 1}, {(0, 2): 1}, {(1, 3): 1},
        {(0, 3): 1})])
    return quotient_span(span, lower_central_series(span)[2])[0].table


def scaled_u4():
    """U_4 over Q(sqrt2) on the basis sqrt2 E_ij: [sqrt2 E_ij, sqrt2 E_jk] is
    sqrt2 times the basis vector sqrt2 E_ik, so the constants are +-sqrt2."""
    field = sqrt2_field()
    ring = PolyRing(field, 0)
    root = field.gen
    span = LieSpan([NilMatrix.from_entries(ring, 4, {pos: root})
                    for pos in ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3))])
    return span.table


def tables(field):
    """(name, table) of nilpotent tables over field."""
    out = [("dim0", LieTable(field, 0, {}, 1)), ("dim1", LieTable(field, 1, {}, 1)),
           ("free-2-3", free_lie_table(2, 3, field)[1]),
           ("free-3-2", free_lie_table(3, 2, field)[1]),
           ("sheared", sheared_quotient(field))]
    if field is sqrt2_field():
        out.append(("scaled", scaled_u4()))
    return out


def rand_poly(rng, ring, terms=3):
    """A random polynomial over ring with up to `terms` terms of degree <= 2."""
    out = {}
    for _ in range(rng.randint(1, terms)):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, 2)):
            if ring.nvars:
                exp[rng.randrange(ring.nvars)] += 1
        out[tuple(exp)] = rand_scalar(rng, ring.field, max_den=3)
    return ring.poly(out)


def vectors(rng, ring, dim):
    """A zero, a sparse and two dense vectors over ring."""
    zero = (ring.zero(),) * dim
    sparse = list(zero)
    if dim:
        sparse[rng.randrange(dim)] = rand_poly(rng, ring)
    dense = [tuple(rand_poly(rng, ring) for _ in range(dim)) for _ in range(2)]
    return [zero, tuple(sparse)] + dense


def table_cases():
    for fname, field in FIELDS.items():
        for tname, table in tables(field):
            yield pytest.param(field, table, id="%s-%s" % (fname, tname))


# ---------------------------------------------------------------------------
# the kernels against the references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field,table", table_cases())
def test_bracket_and_mul_match_the_references(field, table):
    rng = random.Random(4001 + table.dim + 10 * field.degree)
    for ring in rings(field):
        vecs = vectors(rng, ring, table.dim)
        zero = ring.zero()
        for u in vecs:
            for v in vecs:
                assert table.bracket(u, v) == ref_bracket(table, u, v, zero)
                assert table.bracket(u, v, zero) == ref_bracket(table, u, v, zero)
        if table.dim:
            for x, y in combinations(vecs, 2):
                assert table.mul(x, y) == ref_mul(table, x, y)
        else:
            assert table.bracket((), ()) == ()


@pytest.mark.parametrize("field,table", table_cases())
def test_combine_matches_the_reference(field, table):
    if not table.dim:
        return
    rng = random.Random(4101 + table.dim + 10 * field.degree)
    for ring in rings(field):
        vecs = vectors(rng, ring, table.dim)
        coef_lists = [
            [rand_fraction(rng) for _ in vecs],
            [rng.randint(-3, 3) for _ in vecs],
            [rand_scalar(rng, field) for _ in vecs],
            [rand_poly(rng, ring) for _ in vecs],
            [ring.zero()] + [rand_fraction(rng) for _ in vecs[1:]],
        ]
        if ring.q == 0:
            # coefficients on a simplex, onto which the sum lands
            for q in (1, 2, 3):
                simplex = PolyRing(field, q, ring.params)
                coef_lists.append([rand_poly(rng, simplex) for _ in vecs])
                coef_lists.append([rand_poly(rng, simplex)] + [rand_fraction(rng)
                                                               for _ in vecs[1:]])
        for coefs in coef_lists:
            got = table.combine(vecs, coefs)
            assert got == ref_combine(table, vecs, coefs)
            assert all(x.ring is got[0].ring for x in got)


@pytest.mark.parametrize("name", FIELDS)
def test_map_coordinates_matches_the_reference(name):
    field = FIELDS[name]
    rng = random.Random(4201 + field.degree)
    homs = []
    group = full_unipotent_span(4, field)
    for ideal in lower_central_series(group)[1:]:
        homs.append(quotient_span(group, ideal)[1])
    # a random linear map with zero and irrational entries, which the
    # unchecked hom takes as given
    target = quotient_span(group, lower_central_series(group)[2])[0]
    coords = [[rand_scalar(rng, field) if rng.random() < 0.6 else field.zero
               for _ in range(target.dim)] for _ in range(group.dim)]
    homs.append(LieHom(group, target, check=False, image_coords=coords))
    for hom in homs:
        for ring in rings(field):
            zero = ring.zero()
            for vec in vectors(rng, ring, group.dim):
                assert hom.map_coordinates(vec, zero) == ref_map(hom.image_coords, vec, zero)
        scalars = [rand_scalar(rng, field) for _ in range(group.dim)]
        assert (hom.map_coordinates(scalars, field.zero)
                == ref_map(hom.image_coords, scalars, field.zero))


# ---------------------------------------------------------------------------
# field scalars, and the errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", FIELDS)
def test_field_scalar_vectors_give_the_constant_values(name):
    field = FIELDS[name]
    rng = random.Random(4301 + field.degree)
    ring = PolyRing(field, 0)
    for table in (full_unipotent_span(3, field).table, free_lie_table(2, 3, field)[1],
                  sheared_quotient(field)):
        unit = [tuple(field.one if k == i else field.zero for k in range(table.dim))
                for i in range(table.dim)]
        rand = [tuple(rand_scalar(rng, field) for _ in range(table.dim)) for _ in range(2)]
        vecs = unit[:2] + rand

        def values(vec):
            return tuple(c.constant_value() for c in vec)

        def polys(vec):
            return tuple(ring.constant(c) for c in vec)

        for x, y in combinations(vecs, 2):
            assert table.bracket(x, y) == values(table.bracket(polys(x), polys(y)))
            assert table.mul(x, y) == values(table.mul(polys(x), polys(y)))
            coefs = [field.one, rand_scalar(rng, field)]
            assert (table.combine([x, y], coefs)
                    == values(table.combine([polys(x), polys(y)], coefs)))
            fracs = [rand_fraction(rng), rand_fraction(rng)]
            assert (table.combine([x, y], fracs)
                    == values(table.combine([polys(x), polys(y)], fracs)))


def test_field_scalar_calls_on_u3():
    # the basis is E_01, E_02, E_12
    table = full_unipotent_span(3, QQ).table
    one, zero, half = QQ.one, QQ.zero, QQ.value(Fraction(1, 2))
    x, y, z = (one, zero, zero), (zero, one, zero), (zero, zero, one)
    assert table.bracket(x, y) == (zero, zero, zero)
    assert table.mul(x, y) == table.combine([x, y], [one, one]) == (one, one, zero)
    assert table.bracket(x, z) == (zero, one, zero)
    assert table.mul(x, z) == (one, half, one)


def test_mixing_fields_raises_ring_mismatch():
    table = full_unipotent_span(4, QQ).table
    other = PolyRing(sqrt2_field(), 1)
    mine = PolyRing(QQ, 1)
    theirs = tuple(other.one() for _ in range(6))
    ours = tuple(mine.one() for _ in range(6))
    with pytest.raises(RingMismatch, match="value belongs to a different field"):
        table.bracket(theirs, theirs)
    with pytest.raises(RingMismatch):
        table.bracket(ours, theirs)
    with pytest.raises(RingMismatch):
        table.combine([ours, ours], [QQ.one, sqrt2_field().one])
    constants = tuple(PolyRing(sqrt2_field(), 0).one() for _ in range(6))
    with pytest.raises(RingMismatch):
        table.combine([constants], [mine.one()])
    group = full_unipotent_span(4, QQ)
    hom = quotient_span(group, lower_central_series(group)[2])[1]
    with pytest.raises(RingMismatch, match="value belongs to a different field"):
        hom.map_coordinates(theirs, other.zero())
