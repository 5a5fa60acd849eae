"""The echelon store's axis rule against its general elimination.

While every vector an `_Echelon` keeps is a multiple of a unit vector, a
solve reads each entry at its axis and scales it, and `add_row` keeps a
one-entry row at a new position without reading the old rows.  Random axis
stores over Q, Q(sqrt2) and the cubic field are compared exactly with
stores built and solved by elimination alone: the same kept or rejected
answers, the same rows and transforms, and, for vectors of scalars and of
polynomials on a simplex, members and non-members, equal coordinate lists
or the same MembershipError.  The stores of the full group and of its
lower central series take the axis path; the PBW target of U_4/gamma_3
does not.  `_upper_row` on integer forms is compared with the per-entry
read.
"""

import random

import pytest

from unipavg import (QQ, NilMatrix, PolyRing, full_unipotent_span, lower_central_series,
                     quotient_span)
from unipavg.errors import MembershipError
from unipavg.fixtures import cubic_field, sqrt2_field
from unipavg.nilpotent import _axpy, _Echelon, _upper_row
from helpers import rand_scalar

FIELDS = {"Q": QQ, "sqrt2": sqrt2_field(), "cubic": cubic_field()}


def eliminate_add_row(ech, row):
    """`_Echelon.add_row` by elimination, for a row of any shape."""
    comb = {len(ech.rows): ech.field.one}
    for (piv, old), old_comb in zip(ech.rows, ech.transform):
        c = row.get(piv)
        if c is not None:
            _axpy(row, -c, old)
            _axpy(comb, -c, old_comb)
    if not row:
        return False
    piv = min(row)
    if row[piv] != ech.field.one:
        inv = row[piv].inverse()
        row = {i: x * inv for i, x in row.items()}
        comb = {k: x * inv for k, x in comb.items()}
    for (_, old), old_comb in zip(ech.rows, ech.transform):
        c = old.get(piv)
        if c is not None:
            _axpy(old, -c, row)
            _axpy(old_comb, -c, comb)
    ech.rows.append((piv, row))
    ech.transform.append(comb)
    return True


def eliminate_solve(ech, vec, zero):
    """`_Echelon.solve` by elimination, on a store of any shape."""
    rest = vec if isinstance(vec, dict) else {i: x for i, x in enumerate(vec)
                                              if not x.is_zero}
    out = [zero] * len(ech.rows)
    for (piv, row), comb in zip(ech.rows, ech.transform):
        c = rest.get(piv)
        if c is not None:
            _axpy(rest, -c, row)
            for k, t in comb.items():
                out[k] = out[k] + c * t
    if rest:
        raise MembershipError("vector lies outside the span")
    return out


def outcome(solve):
    try:
        return solve()
    except MembershipError:
        return "outside"


def frozen(ech):
    def sparse(m):
        return sorted((k, x.den, x.nums) for k, x in m.items())
    return ([(piv, sparse(row)) for piv, row in ech.rows], [sparse(c) for c in ech.transform])


def on_axes(ech):
    return len(ech.axes) == len(ech.rows)


def rand_nonzero(rng, field):
    """1, -1 or another nonzero field value."""
    r = rng.random()
    if r < 0.3:
        return field.one
    if r < 0.5:
        return -field.one
    x = field.zero
    while x.is_zero:
        x = rand_scalar(rng, field)
    return x


def rand_coefficient(rng, ring):
    """Zero, a constant, or a polynomial of degree 1 on the simplex."""
    if rng.random() < 0.2:
        return ring.zero()
    p = ring.constant(rand_scalar(rng, ring.field))
    for v in range(ring.q):
        if rng.random() < 0.6:
            p = p + ring.coordinate(v).scale(rand_scalar(rng, ring.field))
    return p


def combination(coefs, kept, width, zero):
    """sum_k c_k v_k as a list, for sparse vectors v_k of field values."""
    out = [zero] * width
    for c, vec in zip(coefs, kept):
        for i, x in vec.items():
            out[i] = out[i] + c * x
    return out


def compare_solves(rng, fast, ref, kept, width):
    """Members and non-members of the kept span, in scalars and in
    polynomials on a simplex, solved by the store and by elimination, each
    given as a sequence and as a sparse map; returns how many lay outside."""
    field = fast.field
    outside = 0
    for ring in (PolyRing(field, 0), PolyRing(field, 1), PolyRing(field, 2)):
        scalars = ring.q == 0
        zero = field.zero if scalars else ring.zero()
        for _ in range(4):
            coefs = [rand_coefficient(rng, ring) for _ in kept]
            if scalars:
                coefs = [c.constant_value() for c in coefs]
            member = combination(coefs, kept, width, zero)
            other = list(member)
            at = rng.randrange(width)
            extra = rand_coefficient(rng, ring)
            other[at] = other[at] + (extra.constant_value() if scalars else extra)
            for vec in (member, other):
                want = outcome(lambda: eliminate_solve(ref, list(vec), zero))
                assert outcome(lambda: fast.solve(list(vec), zero)) == want
                sparse = {i: x for i, x in enumerate(vec) if not x.is_zero}
                assert outcome(lambda: fast.solve(sparse, zero)) == want
                outside += want == "outside"
            assert fast.solve(list(member), zero) == coefs
    return outside


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_axis_store_matches_elimination(name):
    field = FIELDS[name]
    rng = random.Random("axis-" + name)
    outside = general = 0
    for trial in range(30):
        width = rng.randint(1, 8)
        fast, ref = _Echelon(field), _Echelon(field)
        kept = []
        # unit vectors in random order, scaled by 1, -1 and other values
        for pos in rng.sample(range(width), rng.randint(1, width)):
            row = {pos: rand_nonzero(rng, field)}
            assert fast.add_row(dict(row)) and eliminate_add_row(ref, dict(row))
            kept.append(row)
        assert on_axes(fast) and frozen(fast) == frozen(ref)
        # a repeated position is dependent, and the store stays on its axes
        pos = min(rng.choice(kept))
        assert not fast.add_row({pos: rand_nonzero(rng, field)})
        assert not eliminate_add_row(ref, {pos: rand_nonzero(rng, field)})
        assert on_axes(fast) and frozen(fast) == frozen(ref)
        outside += compare_solves(rng, fast, ref, kept, width)
        # a mixed row: kept, it turns the store general; rejected, it leaves
        # the store on its axes
        if width > 1:
            row = {i: rand_nonzero(rng, field)
                   for i in rng.sample(range(width), rng.randint(2, width))}
            got = fast.add_row(dict(row))
            assert got == eliminate_add_row(ref, dict(row))
            assert on_axes(fast) is not got
            if got:
                kept.append(row)
                general += 1
                # a later unit vector goes through elimination too
                free = sorted(set(range(width)) - {piv for piv, _ in fast.rows})
                if free:
                    row = {rng.choice(free): rand_nonzero(rng, field)}
                    assert fast.add_row(dict(row)) == eliminate_add_row(ref, dict(row))
                    kept.append(row)
                    assert not on_axes(fast)
        assert frozen(fast) == frozen(ref)
        outside += compare_solves(rng, fast, ref, kept, width)
    assert outside > 0 and general > 0


def test_an_empty_store_takes_no_vector():
    ech = _Echelon(QQ)
    assert on_axes(ech) and ech.solve([QQ.zero] * 3, QQ.zero) == []
    with pytest.raises(MembershipError):
        ech.solve([QQ.zero, QQ.one], QQ.zero)
    assert not ech.add_row({})


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_which_stores_take_the_axis_path(name):
    field = FIELDS[name]
    for n in range(1, 7):
        span = full_unipotent_span(n, field)
        assert on_axes(span._echelon) and len(span._echelon.rows) == span.dim
        assert all(on_axes(term._echelon) for term in lower_central_series(span))
    u4 = full_unipotent_span(4, field)
    series = lower_central_series(u4)
    abelian, _ = quotient_span(u4, series[1])
    assert on_axes(abelian._echelon)
    pbw, _ = quotient_span(u4, series[2])
    assert (pbw.n, pbw.dim) == (12, 5)
    assert not on_axes(pbw._echelon)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_upper_row_reads_the_int_form_like_the_entries(name):
    """Every plane of the form, or only the first when the others are
    zero: the same entries, forms and order as the per-entry read."""
    field = FIELDS[name]
    rng = random.Random("upper-" + name)
    ring = PolyRing(field, 0)
    for n in range(1, 7):
        mats = list(full_unipotent_span(n, field).basis) + [NilMatrix.zero(ring, n)]
        for _ in range(6):
            density = rng.random()
            mats.append(NilMatrix.from_entries(ring, n, {
                (i, j): rand_scalar(rng, field) if rng.random() < 0.5 else
                rand_scalar(rng, QQ).as_fraction()
                for i in range(n) for j in range(i + 1, n) if rng.random() < density}))
        for mat in mats:
            form = NilMatrix._from_int(ring, n, mat._int_form())
            want = [(k, e.constant_value()) for k, e in mat.nonzero_upper().items()]
            got = list(_upper_row(form).items())
            assert [(k, x.den, x.nums) for k, x in got] == \
                [(k, x.den, x.nums) for k, x in want]
