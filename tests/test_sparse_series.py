"""The lower central and derived series of a table, bracketed on sparse rows.

`LieTable._series` brackets sparse {index: value} rows through the map of
each basis element's nonzero constants and keeps them with the echelon
store.  Its terms must equal, vector for vector and in order, those of the
dense series kept here, which brackets dense coordinate vectors pair by
pair: on full U_n for n <= 8 over Q and the cubic field, under a random
unitriangular change of basis (where the class is n - 1 and the derived
length is ceil(log2 n)); on random subalgebras generated by 2-3 random
elements; on every quotient table of `quotient_span`; and on free tables.
A series that does not reach zero within dim terms raises InputError.
Phi_{c,q}, which the pass loop computes on the free table, is unchanged for
every admitted (c, q): it equals Phi computed with the per-pair bracket and
combination, and its terms hash as they did before the fused kernels.
"""

import hashlib
import json
import random
from itertools import combinations

import pytest

from unipavg import (QQ, InputError, LieSpan, NilMatrix, PolyRing, full_unipotent_span,
                     lower_central_series, quotient_span)
from unipavg.average import CoordinateTuple, universal_polynomial, wav_by_passes
from unipavg.fixtures import cubic_field, heisenberg_span, sqrt2_field
from unipavg.nilpotent import LieTable, _Echelon, _upper_row, free_lie_table
from helpers import rand_scalar
from test_lie_kernels import ref_bracket, ref_combine, sheared_quotient
from test_universal import admitted

FIELDS = {"Q": QQ, "cubic": cubic_field()}


def dense_bracket(table, u, v, zero):
    """[u, v] for dense vectors of field scalars: one product per basis pair
    with a nonzero bracket and nonzero entries, added into every output
    with a nonzero constant."""
    out = [zero] * table.dim
    for (i, j), consts in sorted(table.struct.items()):
        c = zero
        if not (u[i].is_zero or v[j].is_zero):
            c = u[i] * v[j]
        if not (u[j].is_zero or v[i].is_zero):
            c = c - u[j] * v[i]
        if not c.is_zero:
            for k, s in enumerate(consts):
                if not s.is_zero:
                    out[k] = out[k] + c * s
    return tuple(out)


def dense_series(table, pairs):
    """The series with dense vectors and the per-pair bracket."""
    zero, one = table.field.zero, table.field.one
    cur = [tuple(one if k == i else zero for k in range(table.dim)) for i in range(table.dim)]
    out = []
    while cur:
        out.append(cur)
        ech = _Echelon(table.field)
        cur = [w for w in (dense_bracket(table, a, b, zero) for a, b in pairs(out[0], cur))
               if ech.add(w)]
    return out


def assert_series_match(table):
    lower = table.lower_central_series()
    assert lower == dense_series(table, lambda unit, cur: ((a, b) for a in unit for b in cur))
    derived = table._series("derived", lambda unit, cur: combinations(cur, 2))
    assert derived == dense_series(table, lambda unit, cur: combinations(cur, 2))
    return len(lower), len(derived)


def changed_basis(rng, n, field):
    """Full U_n on a random unitriangular change of the E_ij: each basis
    vector plus random multiples of up to two later ones."""
    span = full_unipotent_span(n, field)
    basis = list(span.basis)
    out = []
    for k, b in enumerate(basis):
        for later in rng.sample(basis[k + 1:], min(2, len(basis) - k - 1)):
            b = b + later.scale(rand_scalar(rng, field, lo=-1, hi=1, max_den=1))
        out.append(b)
    return LieSpan(out, n=n, field=field)


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("n", range(1, 9))
def test_full_groups_under_a_change_of_basis(name, n):
    field = FIELDS[name]
    rng = random.Random(5001 + 10 * n + field.degree)
    span = changed_basis(rng, n, field)
    table = LieTable(field, span.dim, span._build_table().struct)
    cls, length = assert_series_match(table)
    assert cls == max(n - 1, 0) and table.nilpotency_class == cls
    assert length == (n - 1).bit_length()


def generated(rng, field, n, gens):
    """The subalgebra of U_n generated by random strictly upper matrices."""
    ring = PolyRing(field, 0)
    mats = [NilMatrix.from_entries(ring, n, {(i, j): rand_scalar(rng, field, max_den=2)
                                             for i in range(n) for j in range(i + 1, n)
                                             if rng.random() < 0.4})
            for _ in range(gens)]
    ech, basis = _Echelon(field), []
    todo = list(mats)
    while todo:
        m = todo.pop()
        if ech.add_row(_upper_row(m)):
            todo += [m.bracket(b) for b in basis]
            basis.append(m)
    return LieSpan(basis, n=n, field=field)


@pytest.mark.parametrize("name", FIELDS)
def test_random_subalgebras(name):
    field = FIELDS[name]
    rng = random.Random(5101 + field.degree)
    for n, gens in ((4, 2), (5, 2), (5, 3), (6, 2), (6, 3)):
        span = generated(rng, field, n, gens)
        assert_series_match(span.table)


@pytest.mark.parametrize("field", [QQ, sqrt2_field(), cubic_field()], ids=["Q", "sqrt2", "cubic"])
def test_quotient_tables(field):
    for group in (full_unipotent_span(4, field), full_unipotent_span(5, field),
                  heisenberg_span(field)):
        for ideal in lower_central_series(group):
            target, _ = quotient_span(group, ideal)
            assert_series_match(target.table)
    assert_series_match(sheared_quotient(field))


def test_a_series_that_does_not_reach_zero_raises():
    # sl_2 on e, h, f as field values: [g, g] = g, so neither series stops;
    # on [e_0, e_1] = e_1 the derived series stops at [g, g] = <e_1>, where
    # the lower central series stays
    v = QQ.value
    sl2 = LieTable(QQ, 3, {(0, 1): (v(-2), v(0), v(0)), (0, 2): (v(0), v(1), v(0)),
                           (1, 2): (v(0), v(0), v(-2))})
    lower = "the lower central series does not reach zero in %d terms"
    with pytest.raises(InputError, match=lower % 3):
        sl2.nilpotency_class
    with pytest.raises(InputError, match=lower % 3):
        sl2.lower_central_series()
    with pytest.raises(InputError, match="the derived series does not reach zero in 3 terms"):
        sl2.derived_length
    affine = LieTable(QQ, 2, {(0, 1): (v(0), v(1))})
    assert affine.derived_length == 2
    with pytest.raises(InputError, match=lower % 2):
        affine.nilpotency_class


@pytest.mark.parametrize("q,c", [(2, 3), (2, 5), (3, 3), (4, 3), (2, 6)])
def test_free_tables(q, c):
    table = free_lie_table(q, c, QQ)[1]
    cls, _ = assert_series_match(table)
    assert cls == c


class RefTable(LieTable):
    """A table whose law brackets and combines pair by pair."""

    __slots__ = ()

    def bracket(self, u, v, zero=None):
        return ref_bracket(self, u, v, u[0].ring.zero())

    def combine(self, xs, coefs):
        return ref_combine(self, xs, coefs)


# sha256 of each Phi_{c,q}'s terms, [[word, den, [[key, numerators], ...]], ...],
# as the per-term kernels computed them
PHI_DIGESTS = {
    (3, 2): "2160e8a79f8752d3976f16a0882127f2296469491fb09bf5462a44d8bb84f74b",
    (3, 3): "00443337443bfafab57aa9a889d0cb2f1b21bf1939efd217da4ed6e07c4fbf62",
    (3, 4): "d6cca7a243ce30ff2f0647dc32926282958fe9c286319975ddf187e90ac67b19",
    (5, 2): "f0e4323e5ed6d58416540fc49771c755bcfc65e298574fe39f0fdb91d93af15b",
}


@pytest.mark.parametrize("c,q", admitted())
def test_universal_polynomials_are_unchanged(c, q):
    terms = universal_polynomial(c, q)
    doc = [[list(w), x.den, sorted([k, list(v)] for k, v in x.nums.items())] for w, x in terms]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == PHI_DIGESTS[(c, q)]
    words, table = free_lie_table(q, c, QQ)
    ref = RefTable(QQ, table.dim, table.struct, c)
    ring = PolyRing(QQ, 0)
    zero, one = ring.zero(), ring.one()
    points = [(zero,) * ref.dim] + [(zero,) * j + (one,) + (zero,) * (ref.dim - j - 1)
                                    for j in range(q)]
    phi = wav_by_passes(CoordinateTuple(ref, points, ring))
    assert terms == tuple((w, x) for w, x in zip(words, phi) if x.nums)
