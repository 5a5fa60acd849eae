"""Each triangular-matrix operation in nilpotent.py exists once; these tests
hold the shared paths to the separate loops they replaced, written out
here as the reference.

exp and log are one power-series helper, and the group inverse is one
back substitution; the triangular product computes only the strictly
upper entries of its kind, against the full-diagonal product it replaced;
sums of coordinates times a span's basis, kept as sparse rows of field
scalars, are one helper (from_coordinates, quotient_span's images and
sections), held to the lift-and-scale loop over constant matrices, and
apply_hom maps coordinates through the hom's image coordinates, held to
the sum over its image matrices; NilMatrix and UniMatrix share one
storage class.
"""

import random
from fractions import Fraction

import pytest

from unipavg import (
    QQ,
    FiniteCover,
    GaloisAction,
    GaloisOrbit,
    InputError,
    LieHom,
    LieSpan,
    LocalSection,
    NilMatrix,
    PolyRing,
    RingMismatch,
    SimplexPoly,
    UniMatrix,
    apply_hom,
    exp_nilpotent,
    full_unipotent_span,
    log_unipotent,
    lower_central_series,
    quotient_span,
)
from unipavg import nilpotent
from unipavg.exactring import sum_of_products
from unipavg.fixtures import abelian3_span, heisenberg_span, sqrt2_field
from unipavg.nilpotent import _add_rows, _identity_rows, _matmul, _scale_rows, _sub_rows
from helpers import rand_point, rand_scalar

FIELDS = [QQ, sqrt2_field()]


# ---------------------------------------------------------------------------
# the replaced loops
# ---------------------------------------------------------------------------

def full_matmul(a, b, ring):
    """The product of two upper triangular matrices that read and computed
    the diagonal: (ab)_ij is one sum of products a_ik b_kj over
    i <= k <= j, and an entry with one nonzero product is that product."""
    n = len(a)
    z = ring.zero()
    out = []
    for i in range(n):
        ai = a[i]
        row = [z] * n
        for j in range(i, n):
            pairs = [(ai[k], b[k][j]) for k in range(i, j + 1) if ai[k].nums and b[k][j].nums]
            if len(pairs) == 1:
                (x, y), = pairs
                row[j] = x * y
            elif pairs:
                row[j] = sum_of_products(ring, pairs)
        out.append(tuple(row))
    return tuple(out)


def old_exp(n_mat):
    ring, n = n_mat.ring, n_mat.n
    acc = _identity_rows(ring, n)
    term = _identity_rows(ring, n)
    for k in range(1, n):
        term = _scale_rows(full_matmul(term, n_mat.rows, ring), Fraction(1, k))
        acc = _add_rows(acc, term)
    return UniMatrix(ring, acc, check=False)


def old_log(u_mat):
    ring, n = u_mat.ring, u_mat.n
    x = _sub_rows(u_mat.rows, _identity_rows(ring, n))
    acc = NilMatrix.zero(ring, n).rows
    pw = _identity_rows(ring, n)
    for k in range(1, n):
        pw = full_matmul(pw, x, ring)
        coef = Fraction(1, k) if k % 2 == 1 else Fraction(-1, k)
        acc = _add_rows(acc, _scale_rows(pw, coef))
    return NilMatrix(ring, acc, check=False)


def old_inverse(u_mat):
    """The Neumann series of U - I."""
    ring, n = u_mat.ring, u_mat.n
    x = _sub_rows(u_mat.rows, _identity_rows(ring, n))
    acc = _identity_rows(ring, n)
    pw = _identity_rows(ring, n)
    for _ in range(1, n):
        pw = _scale_rows(full_matmul(pw, x, ring), -1)
        acc = _add_rows(acc, pw)
    return UniMatrix(ring, acc, check=False)


def old_lift(mat, ring):
    return mat if ring == mat.ring else mat.map_entries(
        lambda p: ring.constant(p.constant_value()), ring)


def old_from_coordinates(span, coords, ring=None):
    ring = ring or span.ring
    acc = NilMatrix.zero(ring, span.n)
    for c, b in zip(coords, span.basis):
        acc = acc + old_lift(b, ring).scale(c)
    return acc


def old_apply_hom(hom, mat):
    if isinstance(mat, UniMatrix):
        return exp_nilpotent(old_apply_hom(hom, log_unipotent(mat)))
    coords = hom.source.coordinates(mat)
    ring = mat.ring
    acc = NilMatrix.zero(ring, hom.target.n)
    for c, img in zip(coords, hom.images):
        if not c.is_zero:
            acc = acc + old_lift(img, ring).scale(c)
    return acc


def old_combination(coefs, mats, ring, n):
    """The lift-and-scale loop quotient_span ran for its images and section."""
    acc = NilMatrix.zero(ring, n)
    for c, m in zip(coefs, mats):
        if not c.is_zero:
            acc = acc + old_lift(m, ring).scale(c)
    return acc


def old_sum_rows(coefs, rows, ring, n):
    """The row helper's arguments with each sparse row rebuilt as a constant
    matrix, summed by the old loop."""
    const = PolyRing(ring.field, 0)
    pos = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mats = [NilMatrix.from_entries(const, n, {pos[k]: x for k, x in row.items()})
            for row in rows]
    return old_combination(coefs, mats, ring, n)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def rand_poly(rng, ring):
    """A random sparse polynomial of degree at most 2, sometimes zero, with
    coefficients in the ring's field."""
    p = ring.zero()
    if rng.random() < 0.6:
        p = ring.constant(rand_scalar(rng, ring.field, -3, 3, 3))
    for v in range(ring.q):
        if rng.random() < 0.5:
            p = p + ring.coordinate(v).scale(rand_scalar(rng, ring.field, -3, 3, 3))
    if ring.q and rng.random() < 0.3:
        p = p * ring.coordinate(rng.randrange(ring.q))
    return p


def rand_strict_rows(rng, ring, n):
    return tuple(tuple(rand_poly(rng, ring) if j > i else ring.zero() for j in range(n))
                 for i in range(n))


def rand_unipotent_rows(rng, ring, n):
    return _add_rows(_identity_rows(ring, n), rand_strict_rows(rng, ring, n))


def assert_same(new, old):
    assert type(new) is type(old)
    assert new.ring == old.ring
    assert new.rows == old.rows
    assert repr(new) == repr(old)


# ---------------------------------------------------------------------------
# one power series
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(sqrt2)"])
def test_exp_log_inverse_match_the_old_loops(field):
    rng = random.Random(808 + field.degree)
    for n in range(1, 7):
        for q in (0, 1, 2):
            ring = PolyRing(field, q)
            nil = NilMatrix(ring, rand_strict_rows(rng, ring, n))
            uni = UniMatrix(ring, rand_unipotent_rows(rng, ring, n))
            assert_same(exp_nilpotent(nil), old_exp(nil))
            assert_same(log_unipotent(uni), old_log(uni))
            assert_same(uni.inverse(), old_inverse(uni))


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(sqrt2)"])
def test_products_and_negation_match_the_full_grid(field):
    """The unit product against the full-diagonal one, the strictly upper
    product too, and the entrywise negation against scaling by -1."""
    rng = random.Random(807 + field.degree)
    for n in range(1, 7):
        for q in (0, 1, 2):
            ring = PolyRing(field, q)
            a, b = (UniMatrix(ring, rand_unipotent_rows(rng, ring, n)) for _ in range(2))
            x, y = (NilMatrix(ring, rand_strict_rows(rng, ring, n)) for _ in range(2))
            assert_same(a * b, UniMatrix(ring, full_matmul(a.rows, b.rows, ring)))
            assert_same(a * UniMatrix.identity(ring, n), a)
            assert_same(UniMatrix(ring, _matmul(x.rows, y.rows, ring), check=False),
                        UniMatrix(ring, full_matmul(x.rows, y.rows, ring), check=False))
            assert_same(-x, NilMatrix(ring, _scale_rows(x.rows, -1)))
            assert_same(x.bracket(y), NilMatrix(ring, _sub_rows(
                full_matmul(x.rows, y.rows, ring), full_matmul(y.rows, x.rows, ring))))


def test_each_series_takes_n_minus_2_products(monkeypatch):
    # the bench counts triangular products; the series starts from x, so
    # x^1 costs no product and no power is multiplied by the identity; the
    # inverse is a back substitution, with no product of matrices
    calls = []

    def counting(a, b, ring):
        calls.append(len(a))
        return _matmul(a, b, ring)

    monkeypatch.setattr(nilpotent, "_matmul", counting)
    rng = random.Random(809)
    ring = PolyRing(QQ, 1)
    for n in range(1, 6):
        nil = NilMatrix(ring, rand_strict_rows(rng, ring, n))
        uni = UniMatrix(ring, rand_unipotent_rows(rng, ring, n))
        for run in (lambda: exp_nilpotent(nil), lambda: log_unipotent(uni)):
            calls.clear()
            run()
            assert calls == [n] * (n - 2)
        calls.clear()
        assert uni.inverse() == old_inverse(uni)
        assert calls == []


# ---------------------------------------------------------------------------
# one combination of constant matrices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(sqrt2)"])
def test_from_coordinates_matches_the_old_loop(field):
    rng = random.Random(810 + field.degree)
    for span in (heisenberg_span(field), abelian3_span(field), full_unipotent_span(4, field)):
        for _ in range(4):
            scalars = [rand_scalar(rng, field) if rng.random() < 0.7 else field.zero
                       for _ in range(span.dim)]
            assert_same(span.from_coordinates(scalars), old_from_coordinates(span, scalars))
            fractions = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         for _ in range(span.dim)]
            assert_same(span.from_coordinates(fractions),
                        old_from_coordinates(span, fractions))
            ring = PolyRing(field, 2, ("s",))
            polys = [rand_poly(rng, ring) for _ in range(span.dim)]
            assert_same(span.from_coordinates(polys, ring),
                        old_from_coordinates(span, polys, ring))


def test_span_basis_lift_matches_the_old_lift():
    rng = random.Random(811)
    field = sqrt2_field()
    ring = PolyRing(field, 2, ("s",))
    basis = [m.map_entries(lambda p: ring.constant(p.constant_value()), ring)
             for m in full_unipotent_span(3, field).basis]
    basis = [b.scale(rand_scalar(rng, field)) for b in basis]
    span = LieSpan(basis)
    for new, b in zip(span.basis, basis):
        assert_same(new, old_lift(b, span.ring))


def projections(field):
    """Quotient projections of U_4 and of the Heisenberg algebra along their
    lower central series, with the identity hom of U_4."""
    out = []
    for span in (full_unipotent_span(4, field), heisenberg_span(field)):
        out.append(LieHom.identity(span))
        for ideal in lower_central_series(span)[1:-1]:
            out.append(quotient_span(span, ideal)[1])
    return out


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(sqrt2)"])
def test_apply_hom_matches_the_old_loop(field):
    rng = random.Random(812 + field.degree)
    for hom in projections(field):
        n = hom.source.n
        for q in (0, 2):
            ring = PolyRing(field, q)
            nil = NilMatrix(ring, rand_strict_rows(rng, ring, n))
            uni = UniMatrix(ring, rand_unipotent_rows(rng, ring, n))
            assert_same(apply_hom(hom, nil), old_apply_hom(hom, nil))
            assert_same(apply_hom(hom, uni), old_apply_hom(hom, uni))
        point = rand_point(rng, hom.source)
        assert_same(apply_hom(hom, point), old_apply_hom(hom, point))


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(sqrt2)"])
def test_quotient_span_matches_the_old_loop(field, monkeypatch):
    cases = [(span, ideal) for span in (full_unipotent_span(4, field), heisenberg_span(field))
             for ideal in lower_central_series(span)[1:-1]]
    new = [quotient_span(span, ideal) for span, ideal in cases]
    monkeypatch.setattr(nilpotent, "_sum_rows", old_sum_rows)
    old = [quotient_span(span, ideal) for span, ideal in cases]
    for (new_target, new_hom), (old_target, old_hom) in zip(new, old):
        for a, b in zip(new_target.basis + new_hom.images + new_hom.section,
                        old_target.basis + old_hom.images + old_hom.section):
            assert_same(a, b)
        assert len(new_hom.section) == len(old_hom.section) == new_target.dim
        assert new_hom.complement == old_hom.complement


def test_combination_matches_the_old_loop():
    """The row helper on the sparse rows of the large floor matrices of a
    U_5 quotient and of span bases against the lift-and-scale loop on the
    matrices, with zero, scalar and polynomial coefficients."""
    rng = random.Random(814)
    span = full_unipotent_span(5, QQ)
    target, hom = quotient_span(span, lower_central_series(span)[3])
    for mats, n in ((target.basis, target.n), (span.basis, span.n), (hom.section, span.n)):
        for ring in (mats[0].ring, PolyRing(QQ, 2, ("s",))):
            for _ in range(3):
                coefs = [rng.choice([ring.field.zero, rand_scalar(rng, ring.field),
                                     rand_poly(rng, ring)]) for _ in mats]
                rows = [nilpotent._upper_row(m) for m in mats]
                assert_same(nilpotent._sum_rows(coefs, rows, ring, n),
                            old_combination(coefs, mats, ring, n))


def test_apply_hom_reads_no_constant_values(monkeypatch):
    span = full_unipotent_span(4, QQ)
    _, hom = quotient_span(span, lower_central_series(span)[2])
    rng = random.Random(813)
    ring = PolyRing(QQ, 2)
    nil = NilMatrix(ring, rand_strict_rows(rng, ring, 4))
    uni = UniMatrix(ring, rand_unipotent_rows(rng, ring, 4))
    calls = []
    original = SimplexPoly.constant_value

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(SimplexPoly, "constant_value", counting)
    apply_hom(hom, nil)
    apply_hom(hom, uni)
    assert calls == []


# ---------------------------------------------------------------------------
# one storage class
# ---------------------------------------------------------------------------

def test_the_two_matrix_kinds_stay_apart():
    ring = PolyRing(QQ, 0)
    rows = _identity_rows(ring, 3)
    nil = NilMatrix(ring, rows, check=False)
    uni = UniMatrix(ring, rows, check=False)
    assert nil.rows == uni.rows
    assert nil != uni and uni != nil
    assert not nil == uni
    assert type(nil.map_entries(lambda x: x, ring)) is NilMatrix
    assert type(uni.map_entries(lambda x: x, ring)) is UniMatrix
    assert repr(nil).startswith("NilMatrix([1, 0, 0]")
    assert repr(uni).startswith("UniMatrix([1, 0, 0]")
    a = NilMatrix.from_entries(ring, 3, {(0, 1): 1})
    u = UniMatrix.from_entries(ring, 3, {(0, 1): 1})
    with pytest.raises(InputError, match="expected a NilMatrix"):
        a + u
    with pytest.raises(InputError, match="expected a NilMatrix"):
        a.bracket(u)
    with pytest.raises(InputError, match="expected a UniMatrix"):
        u * a


def test_diagonal_checks_keep_their_messages():
    ring = PolyRing(QQ, 0)
    with pytest.raises(InputError, match=r"entry \(1, 1\) below or on the diagonal"):
        NilMatrix(ring, [[0, 1], [0, 1]])
    with pytest.raises(InputError, match=r"diagonal entry \(1, 1\) is not 1"):
        UniMatrix(ring, [[1, 1], [0, 2]])
    with pytest.raises(InputError, match=r"entry \(1, 0\) below the diagonal"):
        UniMatrix(ring, [[1, 1], [3, 1]])


# ---------------------------------------------------------------------------
# a wrong size is a RingMismatch from the group's own membership check
# ---------------------------------------------------------------------------

def test_wrong_size_orbit_point_and_local_value():
    field = sqrt2_field()
    small = UniMatrix.identity(PolyRing(field, 0), 2)
    with pytest.raises(RingMismatch):
        GaloisOrbit(heisenberg_span(field), GaloisAction(field, [[0, -1]]), [small])
    cover = FiniteCover(["x"], [("x",)])
    with pytest.raises(RingMismatch):
        LocalSection(0, {"x": UniMatrix.identity(PolyRing(QQ, 0), 2)}).check_against(
            cover, heisenberg_span(QQ))
