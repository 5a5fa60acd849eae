"""The Lie-coordinate group law and the quotient tower averaged with it.

A LieTable holds structure constants; its group law is BCH truncated at
the nilpotency class, with its terms solved on the Lyndon basis of the
free Lie algebra.  The terms are checked, through their standard
bracketings, against the textbook BCH coefficients and the series
log(exp X exp Y) summed here; the law against `bch` on matrices; and the
coordinate tower against the matrix `wav` it replaced.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, islice

import pytest

from unipavg import (
    QQ,
    InputError,
    PolyRing,
    RingMismatch,
    SectionTuple,
    apply_hom,
    bch,
    exp_nilpotent,
    full_unipotent_span,
    log_unipotent,
    lower_central_series,
    quotient_span,
    simplicial,
    tower_compatibility,
    wav,
)
from unipavg import nilpotent
from unipavg.average import CoordinateTuple
from unipavg.fixtures import heisenberg_span, sqrt2_field
from unipavg.nilpotent import LieSpan, LieTable, _bch_terms
from helpers import rand_scalar, rand_tuple

FIELDS = [QQ, sqrt2_field()]


# ---------------------------------------------------------------------------
# the BCH terms
# ---------------------------------------------------------------------------

def commutator(a, b):
    """[a, b] = ab - ba in the free associative algebra, as {word: coef}."""
    out = {}
    for u, x in a.items():
        for v, y in b.items():
            out[u + v] = out.get(u + v, 0) + x * y
            out[v + u] = out.get(v + u, 0) - x * y
    return {w: c for w, c in out.items() if c}


def standard_bracketing(word):
    """The standard bracketing P_w of a Lyndon word as associative words:
    a letter, or [P_u, P_v] with v the least proper suffix of w."""
    if len(word) == 1:
        return {word: Fraction(1)}
    i = min(range(1, len(word)), key=lambda i: word[i:])
    return commutator(standard_bracketing(word[:i]), standard_bracketing(word[i:]))


def right_nested(word):
    """The right-nested bracket [w_1, [w_2, ..., w_k]] as associative words."""
    out = {word[-1:]: Fraction(1)}
    for letter in reversed(word[:-1]):
        out = commutator({(letter,): Fraction(1)}, out)
    return out


def expand_terms(terms, expand=standard_bracketing):
    out = {}
    for word, coef in terms:
        for w, c in expand(word).items():
            out[w] = out.get(w, 0) + coef * c
    return {w: c for w, c in out.items() if c}


def is_lyndon(word):
    return all(word < word[i:] for i in range(1, len(word)))


def bch_series(c):
    """log(exp X exp Y) through degree c in the free associative algebra on
    X = 0 and Y = 1, as {word: coefficient} with no zero."""
    def mul(a, b):
        out = {}
        for u, x in a.items():
            for v, y in b.items():
                if len(u) + len(v) <= c:
                    out[u + v] = out.get(u + v, 0) + x * y
        return out

    def exp(letter):
        return {(letter,) * k: Fraction(1, math.factorial(k)) for k in range(c + 1)}

    z = mul(exp(0), exp(1))
    del z[()]
    out, power = {}, {(): Fraction(1)}
    for k in range(1, c + 1):
        power = mul(power, z)
        for w, x in power.items():
            out[w] = out.get(w, 0) + x * Fraction((-1) ** (k + 1), k)
    return {w: x for w, x in out.items() if x}


def test_bch_terms_give_the_textbook_coefficients():
    # X + Y + 1/2 [X,Y] + 1/12 [X,[X,Y]] - 1/12 [Y,[X,Y]] - 1/24 [Y,[X,[X,Y]]]
    textbook = [((0,), Fraction(1)), ((1,), Fraction(1)), ((0, 1), Fraction(1, 2)),
                ((0, 0, 1), Fraction(1, 12)), ((1, 0, 1), Fraction(-1, 12)),
                ((1, 0, 0, 1), Fraction(-1, 24))]
    for c in range(1, 5):
        assert expand_terms(_bch_terms(c)) == expand_terms(
            [(w, x) for w, x in textbook if len(w) <= c], right_nested)
    assert _bch_terms(0) == ()
    # through degree 8 the terms expand to the series itself
    assert expand_terms(_bch_terms(8)) == bch_series(8)


def test_bch_terms_of_lower_classes_are_truncations():
    top = _bch_terms(8)
    for c in range(1, 8):
        assert _bch_terms(c) == tuple((w, x) for w, x in top if len(w) <= c)
    assert all(is_lyndon(w) for w, _ in top)


@pytest.mark.parametrize("c, q", [(3, 4), (5, 2)])
def test_lyndon_coordinates_give_back_each_bracket(c, q):
    # the free table of class c on q letters: sum_w c_w P_w is [P_u, P_v]
    polys = nilpotent._free_lyndon(q, c)
    assert {w: standard_bracketing(w) for w in polys} == polys
    for u, v in combinations(polys, 2):
        bracket = {w: x for w, x in commutator(polys[u], polys[v]).items() if len(w) <= c}
        coords = nilpotent._lyndon_coordinates(dict(bracket), polys)
        assert all(x for x in coords.values())
        assert expand_terms(coords.items()) == bracket


def test_lyndon_words_of_no_length_or_no_letter_are_none():
    # islice bounds the check, so a generator that never stops fails it
    for q, c in ((2, 0), (3, -1), (0, 3), (-1, 2), (0, 0)):
        assert list(islice(nilpotent.lyndon_words(q, c), 5)) == [], (q, c)
    assert nilpotent._free_lyndon(2, 0) == {}
    assert nilpotent._free_lyndon(0, 3) == {}
    # one letter, or length one, still gives the letters
    assert list(nilpotent.lyndon_words(1, 4)) == [(0,)]
    assert list(nilpotent.lyndon_words(3, 1)) == [(0,), (1,), (2,)]
    assert all(is_lyndon(w) for w in nilpotent.lyndon_words(3, 4))


# ---------------------------------------------------------------------------
# the coordinate group law against matrices
# ---------------------------------------------------------------------------

def rand_coords(rng, ring, dim):
    """A coordinate vector over ring: some zero entries, constants, and
    affine polynomials in the simplex coordinates when ring.q > 0."""
    field = ring.field
    out = []
    for _ in range(dim):
        if rng.random() < 0.25:
            out.append(ring.zero())
            continue
        p = ring.constant(rand_scalar(rng, field, -2, 2, 2))
        for v in range(ring.q):
            if rng.random() < 0.5:
                p = p + ring.coordinate(v).scale(rand_scalar(rng, field, -2, 2, 2))
        out.append(p)
    return tuple(out)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(sqrt2)"])
def test_coordinate_product_equals_matrix_bch(field):
    rng = random.Random(901 + field.degree)
    # n = 7 and 8 reach classes 6 and 7, where BCH has the most terms
    for n in range(1, 9):
        span = full_unipotent_span(n, field)
        table = span.table
        assert table.nilpotency_class == max(n - 1, 0)
        for q in (0, 2) if n < 7 else (0,):
            ring = PolyRing(field, q)
            for _ in range(2 if n < 6 else 1):
                x, y = rand_coords(rng, ring, span.dim), rand_coords(rng, ring, span.dim)
                a, b = span.from_coordinates(x, ring), span.from_coordinates(y, ring)
                assert span.from_coordinates(table.mul(x, y), ring) == bch(a, b)
                assert span.from_coordinates(table.bracket(x, y, ring.zero()), ring) \
                    == a.bracket(b)
                assert table.mul(x, table.inverse(x)) == tuple(ring.zero() for _ in x)


def test_quotient_table_is_the_bracket_table_of_its_matrices():
    for field in FIELDS:
        for span in (full_unipotent_span(4, field), heisenberg_span(field)):
            for ideal in lower_central_series(span)[1:-1]:
                quot, proj = quotient_span(span, ideal)
                rebuilt = LieSpan(quot.basis).table
                assert quot.table.struct == rebuilt.struct
                assert quot.table.nilpotency_class == len(lower_central_series(quot)) - 1
                # the recorded image coordinates are those of the images
                assert proj.image_coords == tuple(
                    tuple(c.constant_value() for c in quot.coordinates(img))
                    for img in proj.images)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(sqrt2)"])
def test_the_closure_check_records_the_table(field, monkeypatch):
    """A non-full span brackets every basis pair when it is built and
    solves the nonzero brackets; a full span (U_4, and the Heisenberg group,
    which is U_3) is closed, so it is not checked, and its table is built
    on first use.  Only the nonzero brackets are solved: the four chains
    E_ab, E_bc of U_4 and of the U_4 block of a subgroup of U_5, and the
    one of U_3."""
    calls = {"bracket": 0, "solve": 0, "coordinates": 0}

    def counted(cls, name, key):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counted(nilpotent, "_upper_bracket", "bracket")
    counted(nilpotent._Echelon, "solve", "solve")
    counted(LieSpan, "coordinates", "coordinates")
    ring = PolyRing(field, 0)
    # E_ij with j <= 3, and the central corner E_04: dimension 7 of 10
    block = [nilpotent.NilMatrix.from_entries(ring, 5, {(i, j): 1})
             for i in range(5) for j in range(i + 1, 5) if j <= 3 or i == 0]
    for basis, full, nonzero in ((full_unipotent_span(4, field).basis, True, 4),
                                 (heisenberg_span(field).basis, True, 1),
                                 (block, False, 4)):
        pairs = len(basis) * (len(basis) - 1) // 2
        at_build = {"bracket": 0, "solve": 0, "coordinates": 0} if full else {
            "bracket": pairs, "solve": nonzero, "coordinates": nonzero}
        calls.update(bracket=0, solve=0, coordinates=0)
        checked = LieSpan(basis)
        assert calls == at_build
        table = checked.table
        assert calls == {"bracket": pairs, "solve": nonzero, "coordinates": nonzero}
        assert checked.table is table
        unchecked = LieSpan(basis, check=False)
        assert table.struct == unchecked.table.struct
        assert all(type(c) is type(field.zero) for consts in table.struct.values()
                   for c in consts)
        assert table.derived_length == unchecked.table.derived_length
        assert sum(1 for consts in table.struct.values()
                   if any(not c.is_zero for c in consts)) == nonzero


def test_a_non_full_span_fails_its_closure_check_when_built():
    ring = PolyRing(QQ, 0)
    # E_01 and E_12 bracket to E_02, which they do not span
    basis = [nilpotent.NilMatrix.from_entries(ring, 3, {e: 1}) for e in ((0, 1), (1, 2))]
    with pytest.raises(InputError, match="not closed under the bracket"):
        LieSpan(basis)
    assert LieSpan(basis, check=False).dim == 2


def test_trivial_table_law():
    table = LieTable(QQ, 0, {})
    assert table.nilpotency_class == 0 and table.derived_length == 0
    assert table.mul((), ()) == ()
    ring = PolyRing(QQ, 0)
    assert wav(CoordinateTuple(table, [(), ()], ring)) == ()


def test_coordinate_tuple_rejects_bad_vectors():
    table = heisenberg_span().table
    ring = PolyRing(QQ, 0)
    one = ring.one()
    with pytest.raises(InputError, match="expected 3 coordinates"):
        CoordinateTuple(table, [(one, one)], ring)
    with pytest.raises(RingMismatch, match="tuple's ring"):
        CoordinateTuple(table, [(one, one, PolyRing(QQ, 1).one())], ring)
    line = PolyRing(QQ, 1)
    with pytest.raises(InputError, match="domain degree"):
        CoordinateTuple(table, [(line.one(),) * 3] * 3, line)


# ---------------------------------------------------------------------------
# the tower floors in coordinates against the matrix average
# ---------------------------------------------------------------------------

def floors(field):
    """(span, ideal) for every floor of the U_4 lower-central-series tower
    and for the Heisenberg algebra modulo its centre."""
    ut4 = full_unipotent_span(4, field)
    heis = heisenberg_span(field)
    return [(ut4, ideal) for ideal in lower_central_series(ut4)[1:]] + \
        [(heis, lower_central_series(heis)[1])]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(sqrt2)"])
def test_coordinate_floor_average_equals_matrix_wav(field):
    rng = random.Random(902 + field.degree)
    for span, ideal in floors(field):
        quot, proj = quotient_span(span, ideal)
        for q in range(4):
            t = rand_tuple(rng, span, q)
            projected = SectionTuple(quot, [apply_hom(proj, s) for s in t.sections])
            # the coordinates of the projected logs, read two ways
            zero = t.ring.zero()
            coords = [proj.map_coordinates(span.coordinates(log_unipotent(s)), zero)
                      for s in t.sections]
            assert coords == [tuple(quot.coordinates(log_unipotent(s)))
                              for s in projected.sections]
            avg = wav(CoordinateTuple(quot.table, coords, t.ring))
            expected = wav(projected)
            assert exp_nilpotent(quot.from_coordinates(avg, expected.ring)) == expected


def perturb_floor(monkeypatch, floor):
    """Make the tower's coordinate average of one floor (0 = the first
    ideal) wrong by a central term."""
    calls = []
    original = simplicial.wav

    def patched(t, *args, **kwargs):
        out = original(t, *args, **kwargs)
        if isinstance(t, CoordinateTuple):
            calls.append(t)
            if len(calls) == floor + 1:
                central = t.table.lower_central_series()[-1][0]
                ring = out[0].ring
                out = tuple(x + ring.constant(c) for x, c in zip(out, central))
        return out

    monkeypatch.setattr(simplicial, "wav", patched)
    return calls


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(sqrt2)"])
def test_a_wrong_floor_average_fails_the_tower(field, monkeypatch):
    rng = random.Random(903 + field.degree)
    span = full_unipotent_span(4, field)
    ideals = lower_central_series(span)[1:]
    # the messages the tower gave for the same perturbation when it averaged
    # each floor as matrices; the last floor's centre maps to zero in the
    # floor below it, so only its own commutation fails
    expected = {0: ["projection 0 does not commute with the average",
                    "averages disagree along the tower at step 0"],
                1: ["projection 1 does not commute with the average",
                    "averages disagree along the tower at step 1"],
                2: ["projection 2 does not commute with the average"]}
    for q in (1, 2):
        t = rand_tuple(rng, span, q)
        assert tower_compatibility(t, ideals).ok
        for floor, failures in expected.items():
            with monkeypatch.context() as m:
                calls = perturb_floor(m, floor)
                report = tower_compatibility(t, ideals)
            assert len(calls) == len(ideals)
            assert not report.ok
            assert report.failures == failures
            assert [lv["commutes"] for lv in report.levels] == [k != floor for k in range(3)]


def test_tower_rejects_a_wrong_induced_factorisation(monkeypatch):
    # a corrupted recorded projection of one basis vector must be caught by
    # the factorisation check, in coordinates
    span = full_unipotent_span(4, QQ)
    ideals = lower_central_series(span)[1:]
    t = rand_tuple(random.Random(904), span, 1)
    original = simplicial.quotient_span

    def corrupting(group, ideal):
        quot, proj = original(group, ideal)
        if ideal is ideals[1]:
            coords = list(proj.image_coords)
            coords[0] = tuple(c + 1 for c in coords[0])
            proj._image_coords = tuple(coords)
        return quot, proj

    monkeypatch.setattr(simplicial, "quotient_span", corrupting)
    report = tower_compatibility(t, ideals)
    assert not report.ok
    assert "induced map 1 -> 0 does not factor the projection" in report.failures
