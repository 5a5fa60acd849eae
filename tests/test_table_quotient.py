"""Tower floors in Lie coordinates.

`quotient_span` checks the ideal, picks the complement and solves the
quotient's constants in the span's Lie coordinates, from its table; the
matrix-row algorithm it replaced is kept here (`old_quotient`) and must
give the same complement, tables, image coordinates, section and PBW
basis, and the same errors, on bases whose echelon stores eliminate: U_4
and U_5 under a random unitriangular change of basis, the Heisenberg
group on the E_ij and changed, `abelian3_span` and the non-full class-3
subgroup of U_5, by ideals given on their own random bases too, over Q,
Q(sqrt2) and the cubic field.

`LieHom`'s bracket check reads only the nonzero structure; the dense
per-pair loop it replaced is kept here (`dense_failure`) and must accept
the same homs and report the same first failing pair.

`wav` on a `CoordinateTuple` of class <= 2 is one combination,
sum_j t_j f_j (Lemma A in Lie coordinates); it must equal `_average` with
Lemma A's terms and `wav_by_passes`, while class 3 still takes Phi.  And
`LieTable.combine` refuses vectors over different rings.
"""

import json
import random
from itertools import combinations

import pytest

from unipavg import (QQ, InputError, LieHom, LieSpan, NilMatrix, PolyRing, RingMismatch,
                     apply_hom, full_unipotent_span, lower_central_series, quotient_span)
from unipavg import average as average_module
from unipavg.average import CoordinateTuple, wav, wav_by_passes
from unipavg.errors import MembershipError
from unipavg.exactring import extend_scalars
from unipavg.fixtures import abelian3_span, cubic_field, heisenberg_span, sqrt2_field
from unipavg.nilpotent import (LieTable, _Echelon, _PbwAlgebra, _sum_rows, _upper_bracket,
                               free_lie_table)
from unipavg.serialize import matrix_to_json
from helpers import rand_scalar
from test_pointwise_oracle import block_span
from test_sparse_series import changed_basis

FIELDS = {"Q": QQ, "sqrt2": sqrt2_field(), "cubic": cubic_field()}


def old_quotient(span, ideal):
    """The quotient by the matrix-row algorithm: containment, the ideal
    check on brackets of basis matrices, the complement and the quotient's
    constants all solved on the rows of the matrices.  Returns the
    complement, the adapted table's constants and class, the image
    coordinates, the section matrices and the PBW basis."""
    field = span.field
    rows, ideal_rows = span._rows, ideal._rows
    for row in ideal_rows:
        try:
            span.coordinates(dict(row))
        except MembershipError:
            raise InputError("ideal is not contained in the span") from None
    for a in rows:
        for b in ideal_rows:
            try:
                ideal.coordinates(_upper_bracket(a, b, span.n))
            except MembershipError:
                raise InputError("the given subspace is not an ideal") from None
    ech = _Echelon(field, [dict(row) for row in ideal_rows], what="ideal basis")
    complement = tuple(idx for idx, row in enumerate(rows) if ech.add_row(dict(row)))
    m = len(complement)

    def h_coords(vec):
        return tuple(ech.solve(vec, field.zero)[ideal.dim:])

    table = LieTable(field, m, {(i, j): h_coords(_upper_bracket(
        rows[complement[i]], rows[complement[j]], span.n)) for i, j in combinations(range(m), 2)})
    levels = table.lower_central_series()
    adapted, ech2 = [], _Echelon(field)
    for k in range(len(levels), 0, -1):
        adapted += [(v, k) for v in levels[k - 1] if ech2.add(v)]

    def to_adapted(vec):
        return tuple(ech2.solve(vec, field.zero))

    astruct = {(i, j): to_adapted(table.bracket(adapted[i][0], adapted[j][0], field.zero))
               for i, j in combinations(range(m), 2)}
    image_coords = tuple(to_adapted(h_coords(dict(row))) for row in rows)
    reps = [rows[i] for i in complement]
    section = tuple(_sum_rows(v, reps, span.ring, span.n) for v, _ in adapted)
    algebra = _PbwAlgebra(field, [w for _, w in adapted], len(levels), astruct)
    basis = [algebra.left_mult_matrix(g, span.ring) for g in range(m)]
    return complement, astruct, len(levels), image_coords, section, basis


def outcome(fn, *args):
    try:
        return fn(*args)
    except (InputError, RingMismatch) as exc:
        return type(exc).__name__, str(exc)


def remixed(rng, span):
    """The same subspace on a random unitriangular change of its basis."""
    basis = list(span.basis)
    out = []
    for k, b in enumerate(basis):
        for later in basis[k + 1:]:
            if rng.random() < 0.6:
                b = b + later.scale(rand_scalar(rng, span.field, lo=-2, hi=2, max_den=2))
        out.append(b)
    return LieSpan(out, n=span.n, field=span.field)


def corner(group, i, j):
    return LieSpan([NilMatrix.from_entries(group.ring, group.n, {(i, j): group.field.one})])


def groups(rng, field):
    """(name, span) of the groups compared."""
    return [("U4-changed", changed_basis(rng, 4, field)),
            ("U5-changed", changed_basis(rng, 5, field)),
            ("heisenberg", heisenberg_span(field)),
            ("heisenberg-changed", changed_basis(rng, 3, field)),
            ("abelian3", abelian3_span(field)),
            ("block-U5", block_span(field))]


def ideals(rng, name, group):
    """Proper nonzero ideals of group, each also on a remixed basis."""
    found = [ideal for ideal in lower_central_series(group)[1:] if 0 < ideal.dim < group.dim]
    if name == "abelian3":
        # every subspace of an abelian algebra is an ideal
        found += [LieSpan(group.basis[:2]), LieSpan([group.basis[0] + group.basis[2]])]
    else:
        found.append(corner(group, 0, group.n - 1))
    return found + [remixed(rng, ideal) for ideal in found if ideal.dim > 1]


def json_of(mats):
    return [json.dumps(matrix_to_json(m)) for m in mats]


@pytest.mark.parametrize("name", FIELDS)
def test_quotient_span_matches_the_matrix_row_algorithm(name):
    field = FIELDS[name]
    rng = random.Random(4101 + field.degree)
    compared = 0
    for gname, group in groups(rng, field):
        for ideal in ideals(rng, gname, group):
            complement, astruct, cls, image_coords, section, basis = old_quotient(group, ideal)
            target, hom = quotient_span(group, ideal)
            assert hom.complement == complement
            assert target.table.struct == astruct and target.table.nilpotency_class == cls
            assert hom.image_coords == image_coords
            assert json_of(hom.section) == json_of(section)
            assert hom.section_coords == tuple(
                tuple(c.constant_value() for c in group.coordinates(m)) for m in section)
            assert target.n == basis[0].n and json_of(target.basis) == json_of(basis)
            compared += 1
    assert compared == 21


@pytest.mark.parametrize("name", FIELDS)
def test_quotient_span_raises_what_the_matrix_row_algorithm_raises(name):
    field = FIELDS[name]
    rng = random.Random(4102 + field.degree)
    spans = dict(groups(rng, field))
    u4 = spans["U4-changed"]
    cases = [
        # E_14 lies outside the block subgroup of U_5
        (spans["block-U5"], corner(spans["block-U5"], 1, 4)),
        (spans["abelian3"], corner(spans["abelian3"], 1, 2)),
        # subalgebras that are not ideals
        (u4, LieSpan([u4.basis[0]])),
        (u4, remixed(rng, LieSpan(lower_central_series(u4)[2].basis + (u4.basis[0],)))),
        (spans["U5-changed"], corner(spans["U5-changed"], 0, 1)),
        (spans["heisenberg"], corner(spans["heisenberg"], 1, 2)),
        (spans["block-U5"], corner(spans["block-U5"], 2, 3)),
    ]
    seen = set()
    for group, ideal in cases:
        got = outcome(quotient_span, group, ideal)
        assert got == outcome(old_quotient, group, ideal)
        seen.add(got)
    assert seen == {("InputError", "ideal is not contained in the span"),
                    ("InputError", "the given subspace is not an ideal")}


def dense_failure(source, target, coords):
    """The first basis pair (i, j) whose image bracket differs, by the
    dense per-pair loop: each struct row mapped through every image row,
    each pair of images bracketed with the scalar loop of the target
    table; None for a hom."""
    zero = target.field.zero
    for i, j in combinations(range(source.dim), 2):
        lhs = [zero] * target.dim
        for x, row in zip(source.table.struct[(i, j)], coords):
            for k, a in enumerate(row):
                lhs[k] = lhs[k] + x * a
        if tuple(lhs) != target.table.bracket(coords[i], coords[j], zero):
            return i, j
    return None


def hom_cases(rng, field):
    """(source, target, image coordinates) of valid homs: every projection
    compared above, the induced maps between consecutive floors of each
    group's lower central series, and identities."""
    out = []
    for gname, group in groups(rng, field):
        floors = [quotient_span(group, ideal) for ideal in lower_central_series(group)[1:]]
        for (coarse, coarse_proj), (fine, fine_proj) in zip(floors, floors[1:]):
            out.append((fine, coarse, [apply_hom(coarse_proj, c)
                                       for c in fine_proj.section_coords]))
        for ideal in ideals(rng, gname, group):
            target, hom = quotient_span(group, ideal)
            out.append((group, target, list(hom.image_coords)))
        units = [tuple(field.one if k == i else field.zero for k in range(group.dim))
                 for i in range(group.dim)]
        out.append((group, group, units))
    return out


def corrupted(rng, field, coords):
    """Bent copies of image coordinates: a row scaled, two rows swapped, a
    row replaced by a random vector, one entry moved."""
    k = rng.randrange(len(coords))
    j = rng.randrange(len(coords))
    width = len(coords[0])
    swapped = list(coords)
    swapped[k], swapped[j] = coords[j], coords[k]
    moved = [list(row) for row in coords]
    e = rng.randrange(width)
    moved[k][e] = moved[k][e] + rand_scalar(rng, field, lo=1, hi=3)
    return [
        coords[:k] + [tuple(c * rand_scalar(rng, field, lo=2, hi=3) for c in coords[k])]
        + coords[k + 1:],
        swapped,
        coords[:k] + [tuple(rand_scalar(rng, field, -2, 2, 2) for _ in range(width))]
        + coords[k + 1:],
        [tuple(row) for row in moved],
    ]


@pytest.mark.parametrize("name", FIELDS)
def test_the_sparse_bracket_check_matches_the_dense_loop(name):
    field = FIELDS[name]
    rng = random.Random(4103 + field.degree)
    failed = passed = 0
    for source, target, coords in hom_cases(rng, field):
        variants = [coords] + (corrupted(rng, field, coords) if coords and target.dim else [])
        for variant in variants:
            pair = dense_failure(source, target, variant)
            got = outcome(lambda: LieHom(source, target, image_coords=variant))
            if pair is None:
                assert isinstance(got, LieHom), got
                passed += 1
            else:
                assert got == ("InputError", "images do not preserve the bracket "
                               "(basis pair %d, %d)" % pair)
                failed += 1
        assert dense_failure(source, target, coords) is None
    assert failed >= 50 and passed >= 50


def coordinate_tables(field):
    """(table, class) of the class <= 2 tables and two class-3 ones."""
    u4 = full_unipotent_span(4, field)
    return [(abelian3_span(field).table, 1), (heisenberg_span(field).table, 2),
            (quotient_span(u4, lower_central_series(u4)[2])[0].table, 2),
            (free_lie_table(3, 2, field)[1], 2),
            (u4.table, 3), (free_lie_table(2, 3, field)[1], 3)]


def rand_coordinate(rng, ring):
    """A random constant, or constant plus a multiple of each parameter."""
    if rng.random() < 0.25:
        return ring.zero()
    p = ring.constant(rand_scalar(rng, ring.field, -3, 3, 3))
    for name in ring.params:
        if rng.random() < 0.6:
            p = p + ring.parameter(name).scale(rand_scalar(rng, ring.field, -2, 2, 2))
    return p


def lemma_a_average(t):
    """`_average` with Lemma A's terms, sum_j t_j e_j, as `wav` made it
    before class <= 2 coordinate tuples took the combination."""
    q = t.q
    ring = PolyRing(t.ring.field, q, t.ring.params)
    simplex = PolyRing(QQ, q)
    terms = tuple(((j,), simplex.coordinate(j + 1)) for j in range(q)) \
        if not t.is_constant_tuple() else ()
    return average_module._average(t, terms, lambda x: extend_scalars(x, ring),
                                   lambda g: t.law.embed(g, q))


@pytest.fixture
def averaged(monkeypatch):
    """The classes of the tuples that `wav` sent to `_average`."""
    calls = []
    original = average_module._average

    def counting(t, *args):
        calls.append(t.table.nilpotency_class)
        return original(t, *args)

    monkeypatch.setattr(average_module, "_average", counting)
    return calls


@pytest.mark.parametrize("name", FIELDS)
def test_class_two_coordinate_averages_are_one_combination(name, averaged):
    field = FIELDS[name]
    rng = random.Random(4104 + field.degree)
    for table, cls in coordinate_tables(field):
        assert table.nilpotency_class == cls
        for params in ((), ("s",)):
            const = PolyRing(field, 0, params)
            for q in range(5):
                points = [[rand_coordinate(rng, const) for _ in range(table.dim)]
                          for _ in range(q + 1)]
                if q == 2:
                    points[2] = points[0]
                for sections in (points, [points[0]] * (q + 1)):
                    t = CoordinateTuple(table, sections, const)
                    averaged.clear()
                    got = wav(t)
                    assert averaged == ([] if cls <= 2 else [cls])
                    assert all(x.ring is PolyRing(field, q, params) for x in got)
                    if cls <= 2 or q == 1:
                        assert got == lemma_a_average(t)
                    if cls <= 2 or q < 4:
                        assert got == wav_by_passes(t)


def test_a_class_three_tuple_still_takes_phi(monkeypatch):
    rng = random.Random(4105)
    table = full_unipotent_span(4, QQ).table
    const = PolyRing(QQ, 0)
    t = CoordinateTuple(table, [[rand_coordinate(rng, const) for _ in range(table.dim)]
                                for _ in range(3)], const)
    walked = []
    original = average_module.lie_polynomial

    def counting(law, terms, *args):
        walked.append(terms)
        return original(law, terms, *args)

    monkeypatch.setattr(average_module, "lie_polynomial", counting)
    got = wav(t)
    assert walked == [average_module._UNIVERSAL[(3, 2)]]
    assert got == wav_by_passes(t)


def test_combine_refuses_vectors_over_different_rings():
    table = full_unipotent_span(3, QQ).table
    line, plane = PolyRing(QQ, 1), PolyRing(QQ, 2)
    u = tuple(line.coordinate(0).scale(QQ.value(k)) for k in (1, 2, 3))
    v = tuple(plane.coordinate(1).scale(QQ.value(k)) for k in (1, 2, 3))
    with pytest.raises(RingMismatch, match="polynomials over different rings"):
        table.combine([u, v], [1, 1])
    # one vector whose entries mix rings, and a coefficient over another ring
    with pytest.raises(RingMismatch, match="polynomials over different rings"):
        table.combine([u[:2] + v[2:]], [1])
    const = PolyRing(QQ, 0)
    w = tuple(const.constant(k) for k in (1, 2, 3))
    with pytest.raises(RingMismatch, match="polynomials over different rings"):
        table.combine([w, w], [line.coordinate(0), plane.coordinate(0)])
    # one ring still combines, and t-constant vectors take simplex coefficients
    assert table.combine([u, u], [1, 1]) == tuple(x.scale(QQ.value(2)) for x in u)
    assert table.combine([w, w], [line.coordinate(0), line.coordinate(1)]) == \
        tuple(line.constant(k) for k in (1, 2, 3))
