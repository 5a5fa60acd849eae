"""The quotient target that builds its re-embedding on first read.

`quotient_span` returns a target that knows its size n, its dimension and
its structure-constant table at once, and builds its PBW basis matrices,
rows and echelon store only when one of them is read; the projection hom
holds coordinates only and sums its image matrices from them when read.  Over
U_4 (also on a basis whose quotient has a fractional structure constant),
U_5 and the Heisenberg group, on Q and Q(sqrt2), by every term of the
lower central series and by the centre, the deferred path is compared
with an eager build of the same re-embedding: the
written span byte for byte, the images, `apply_hom` on coordinate vectors
against `apply_hom` on matrices, and `LieHom` given image coordinates
against `LieHom` given matrices, which it solves at once, checked or not.
A tower reads no basis matrix at all.
"""

import json
import random
from fractions import Fraction

import pytest

from unipavg import (QQ, InputError, LieHom, LieSpan, NilMatrix, PolyRing, RingMismatch,
                     apply_hom, exp_nilpotent, full_unipotent_span, log_unipotent,
                     lower_central_series, nilpotent, quotient_span, simplicial,
                     tower_compatibility)
from unipavg.fixtures import heisenberg_span, sqrt2_field
from unipavg.serialize import matrix_to_json, span_to_json, tower_report_to_json
from helpers import rand_nil_poly, rand_scalar, rand_tuple

FIELDS = {"Q": QQ, "sqrt2": sqrt2_field()}


def centre(group):
    """The centre of U_n and of the Heisenberg group, spanned by E_{0,n-1}."""
    n = group.n
    return LieSpan([NilMatrix.from_entries(group.ring, n, {(0, n - 1): group.field.one})])


def sheared_u4(field):
    """U_4 on the basis E_01, E_12, E_12 / 2 + E_23, E_02, E_13, E_03: in its
    quotient by gamma_3, [e_0, e_2] is half of [e_0, e_1], so the PBW
    matrices have the denominator 2."""
    ring = PolyRing(field, 0)
    half = Fraction(1, 2)
    return LieSpan([NilMatrix.from_entries(ring, 4, entries) for entries in (
        {(0, 1): 1}, {(1, 2): 1}, {(1, 2): half, (2, 3): 1}, {(0, 2): 1}, {(1, 3): 1},
        {(0, 3): 1})])


def cases(field):
    """(group, ideal) for U_4 (on the E_ij and on a sheared basis), U_5 and
    the Heisenberg group over field, by every lower-central term, the zero
    ideal and the group included, and by the centre."""
    for group in (full_unipotent_span(4, field), sheared_u4(field),
                  full_unipotent_span(5, field), heisenberg_span(field)):
        for ideal in lower_central_series(group) + [centre(group)]:
            yield group, ideal


def eager_basis(target):
    """The target's PBW basis built at once, on a fresh copy of its algebra."""
    old = target._algebra
    algebra = nilpotent._PbwAlgebra(old.field, old.weights, old.cls_bound, old.struct)
    return [algebra.left_mult_matrix(g, target.ring) for g in range(algebra.m)]


@pytest.fixture
def built(monkeypatch):
    """The generators whose left multiplication matrix was built."""
    calls = []
    original = nilpotent._PbwAlgebra.left_mult_matrix

    def counting(self, gen, ring):
        calls.append(gen)
        return original(self, gen, ring)

    monkeypatch.setattr(nilpotent._PbwAlgebra, "left_mult_matrix", counting)
    return calls


@pytest.mark.parametrize("name", FIELDS)
def test_the_table_and_size_are_read_without_the_matrices(name, built):
    floors = 0
    for group, ideal in cases(FIELDS[name]):
        target, hom = quotient_span(group, ideal)
        if not 0 < ideal.dim < group.dim:
            continue
        floors += 1
        assert target.dim == group.dim - ideal.dim == target.table.dim
        assert target.n == len(target._algebra.monomials)
        assert target.table.nilpotency_class >= 1
        assert len(hom.image_coords) == group.dim and len(hom.section) == target.dim
        hom.map_coordinates(hom.section_coords[0], group.field.zero)
        repr(target), repr(hom)
        assert built == [], "reading the table, n and the coordinates built matrices"
        target.basis
        assert built == list(range(target.dim))
        target._rows, target._echelon, hom.images
        assert len(built) == target.dim, "the re-embedding was built twice"
        built.clear()
    assert floors == 12


@pytest.mark.parametrize("name", FIELDS)
def test_the_first_basis_read_matches_an_eager_build(name):
    for group, ideal in cases(FIELDS[name]):
        target, hom = quotient_span(group, ideal)
        if not 0 < ideal.dim < group.dim:
            continue
        eager = LieSpan(eager_basis(target), check=True)
        # the first read of the basis is the written span itself
        assert json.dumps(span_to_json(target)) == json.dumps(span_to_json(eager))
        assert target._rows == eager._rows
        assert eager.table.struct == target.table.struct
        # the deferred images are the eager target's sums of the recorded
        # coordinates, and solve back to them
        for img, coords in zip(hom.images, hom.image_coords):
            assert json.dumps(matrix_to_json(img)) == json.dumps(matrix_to_json(
                eager.from_coordinates(coords)))
            assert tuple(c.constant_value() for c in eager.coordinates(img)) == coords
            assert tuple(c.constant_value() for c in target.coordinates(img)) == coords


@pytest.mark.parametrize("name", FIELDS)
def test_apply_hom_on_coordinates_matches_the_matrices(name):
    field = FIELDS[name]
    rng = random.Random(3901 + field.degree)
    for group, ideal in cases(field):
        _, hom = quotient_span(group, ideal)
        source, target = hom.source, hom.target
        scalars = [rand_scalar(rng, field) if rng.random() < 0.7 else field.zero
                   for _ in range(source.dim)]
        mat = source.from_coordinates(scalars)
        want = tuple(c.constant_value() for c in target.coordinates(apply_hom(hom, mat)))
        assert apply_hom(hom, scalars) == apply_hom(hom, tuple(scalars)) == want
        assert apply_hom(hom, [x.coords if field.degree > 1 else x.coords[0]
                               for x in scalars]) == want
        # every source here is a full group, so any strictly upper matrix
        # has coordinates; some are set to zero
        ring = PolyRing(field, 2)
        coords = [c if rng.random() < 0.6 else ring.zero()
                  for c in source.coordinates(rand_nil_poly(rng, field, group.n, 2))]
        mat = source.from_coordinates(coords, ring)
        want = tuple(target.coordinates(apply_hom(hom, mat)))
        got = apply_hom(hom, coords)
        assert got == want and all(c.ring is ring for c in got)
        # a coordinate vector stands for the group element too
        uni = exp_nilpotent(mat)
        assert tuple(target.coordinates(log_unipotent(apply_hom(hom, uni)))) == want


def test_bad_coordinate_vectors_are_rejected():
    group = full_unipotent_span(4, QQ)
    target, hom = quotient_span(group, lower_central_series(group)[2])
    ring = PolyRing(QQ, 1)
    for length in (0, 5, 7):
        for one, zero in ((QQ.one, QQ.zero), (ring.one(), ring.zero())):
            # short and long vectors, of field scalars and of polynomials
            with pytest.raises(InputError, match="expected 6 coordinates, got %d" % length):
                apply_hom(hom, [one] * length)
            with pytest.raises(InputError, match="expected 6 coordinates, got %d" % length):
                hom.map_coordinates([one] * length, zero)
    for wrong in (sqrt2_field().one, PolyRing(sqrt2_field(), 1).one()):
        with pytest.raises(RingMismatch, match="value belongs to a different field"):
            apply_hom(hom, [wrong] * 6)
    short = [row[:-1] for row in hom.image_coords]
    with pytest.raises(InputError, match="expected 5 coordinates, got 4"):
        LieHom(group, target, image_coords=short)
    with pytest.raises(RingMismatch, match="value belongs to a different field"):
        LieHom(group, target, image_coords=[[sqrt2_field().one] * 5] * 6)
    with pytest.raises(InputError, match="basis images or their coordinates"):
        LieHom(group, target)


@pytest.mark.parametrize("name", FIELDS)
def test_a_hom_given_its_image_matrices_holds_their_coordinates(name):
    # matrices are solved once, to the coordinates the projection records,
    # checked or not, and read back as the same matrices
    for group, ideal in cases(FIELDS[name]):
        target, hom = quotient_span(group, ideal)
        mats = [matrix_to_json(m) for m in hom.images]
        for check in (True, False):
            given = LieHom(group, target, images=hom.images, check=check)
            assert given.image_coords == hom.image_coords
            assert [matrix_to_json(m) for m in given.images] == mats


@pytest.mark.parametrize("name", FIELDS)
def test_the_identity_and_the_trivial_quotients_write_what_they_wrote(name):
    # the identity and the quotients by the zero ideal and by the group
    # hold coordinates; their matrices are the basis and 1 x 1 zeros
    def written(mats):
        return json.dumps([matrix_to_json(m) for m in mats])

    for group in (full_unipotent_span(4, FIELDS[name]), sheared_u4(FIELDS[name]),
                  heisenberg_span(FIELDS[name])):
        basis = written(group.basis)
        same, hom = quotient_span(group, lower_central_series(group)[-1])
        assert same is group and hom.complement == tuple(range(group.dim))
        for h in (LieHom.identity(group), hom):
            assert written(h.images) == written(h.section) == basis
        target, hom = quotient_span(group, group)
        assert (target.dim, target.n, hom.complement, hom.section) == (0, 1, (), ())
        assert written(hom.images) == written([NilMatrix.zero(group.ring, 1)] * group.dim)


def test_an_unchecked_hom_solves_its_image_matrices():
    # E_01 lies outside gamma_2 of U_4, so the identity's matrices are no
    # images into it, checked or not
    group = full_unipotent_span(4, QQ)
    gamma2 = lower_central_series(group)[1]
    for check in (True, False):
        with pytest.raises(InputError, match="a basis image lies outside the target span"):
            LieHom(group, gamma2, group.basis, check=check)


def hom_outcome(source, target, **images):
    try:
        LieHom(source, target, **images)
    except (InputError, RingMismatch) as exc:
        return type(exc).__name__, str(exc)
    return "ok"


@pytest.mark.parametrize("name", FIELDS)
def test_lie_hom_on_coordinates_raises_what_it_raises_on_matrices(name):
    field = FIELDS[name]
    rng = random.Random(3902 + field.degree)
    other = QQ if field is not QQ else sqrt2_field()
    seen = set()
    for group, ideal in cases(field):
        target, hom = quotient_span(group, ideal)
        coords = list(hom.image_coords)
        mats = list(hom.images)
        assert hom_outcome(group, target, image_coords=coords) == "ok"
        if not coords:
            continue
        variants = [(coords[:-1], mats[:-1])]
        for _ in range(3):
            k = rng.randrange(len(coords))
            s = rand_scalar(rng, field)
            bent = [tuple(c * s for c in coords[k])] + coords[k + 1:]
            variants.append((coords[:k] + bent, mats[:k] + [mats[k].scale(s)] + mats[k + 1:]))
        j = rng.randrange(len(coords))
        variants.append((coords[j:] + coords[:j], mats[j:] + mats[:j]))
        for c, m in variants:
            got = hom_outcome(group, target, image_coords=c)
            assert got == hom_outcome(group, target, images=m)
            seen.add(got if got == "ok" else got[1].split(" (")[0])
        # image coordinates are field scalars, not polynomials
        polys = [[group.ring.constant(x) for x in row] for row in coords]
        rejected = ("InputError", "cannot build a field element from 'SimplexPoly'")
        assert hom_outcome(group, target, image_coords=polys) == (
            rejected if target.dim else "ok")
        # and between spans over two fields, checked before any image
        twin = full_unipotent_span(group.n, other) if group.dim != 3 else heisenberg_span(other)
        assert (hom_outcome(twin, target, image_coords=coords)
                == hom_outcome(twin, target, images=mats)
                == ("RingMismatch", "matrix field does not match the hom"))
    assert {"ok", "images do not preserve the bracket"} <= seen
    assert any(s.startswith("expected") for s in seen)


@pytest.mark.parametrize("n", [4, 5])
def test_a_tower_builds_no_quotient_matrix(n, built, monkeypatch):
    group = full_unipotent_span(n, QQ)
    t = rand_tuple(random.Random(3903 + n), group, 2)
    counts = {"quotient_span": 0, "apply_hom": 0}
    for name in counts:
        original = getattr(simplicial, name)

        def counting(*args, _original=original, _name=name):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(simplicial, name, counting)
    series = lower_central_series(group)
    for ideals in (series[1:], [centre(group), series[-1]]):
        report = tower_compatibility(t, ideals)
        assert report.ok, report.failures
        tower_report_to_json(report)
    assert built == []
    # one quotient per ideal; one image per basis vector of each finer floor
    dims = [group.dim - ideal.dim for ideal in series[2:]]
    assert counts["quotient_span"] == (n - 1) + 2
    assert counts["apply_hom"] == sum(dims) + group.dim
