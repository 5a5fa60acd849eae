"""The universal Lie polynomial behind `wav`.

wav(f) = exp(Phi_{c,q}(L_1, ..., L_q)) f_0 with L_j = log(f_j f_0^{-1}),
where Phi_{c,q} is the log of the average of (0, e_1, ..., e_q) in the free
nilpotent Lie algebra of class c on q generators, on its Lyndon basis.
`wav` and `wav_at_weights` share one dispatch for Phi: none when the
components agree (the average is f_0), sum_j t_j e_j when q = 1 or the
class is <= 2 (Lemma A), and for q >= 2 and class >= 3 the cached
Phi_{c',q} within MAX_UNIVERSAL_DIM.  Each path is compared exactly with
the pass loop `wav_by_passes` over Q, Q(sqrt2) and a cubic field, on full
groups, on non-full subgroups and quotients, over a ring with a parameter
and in Lie coordinates, and the pointwise average with the symbolic one
evaluated at the weights.  The two facts behind using
the largest odd class c' <= c are checked on Phi itself: its even-weight
coordinates vanish, and Phi_{c+1,q} agrees with Phi_{c,q} below weight
c + 1.  Finally, the bound admits finitely many (c', q), and for each of
them every weight-k coordinate of Phi has t-degree <= max(1, k - 1): the
certificate behind `cli.MAX_AVERAGE_TERMS` for every average that `wav`
computes through Phi.
"""

import random
from itertools import combinations

import pytest

from unipavg import (
    QQ,
    InputError,
    NilMatrix,
    PolyRing,
    SectionTuple,
    WeightSeq,
    apply_hom,
    embed_simplex,
    exp_nilpotent,
    full_unipotent_span,
    lower_central_series,
    quotient_span,
    wav,
    wav_at_weights,
)
from unipavg import average as average_module
from unipavg.average import (MAX_UNIVERSAL_DIM, CoordinateTuple, eval_matrix_at_weights,
                             universal_polynomial, wav_by_passes)
from unipavg.fixtures import cubic_field, heisenberg_span, point_from_coordinates, sqrt2_field
from unipavg.nilpotent import free_lie_table
from helpers import rand_point, rand_scalar
from test_pointwise_path import weight_grid

FIELDS = [QQ, sqrt2_field(), cubic_field()]
FIELD_IDS = ["Q", "Q(sqrt2)", "cubic"]


def assert_universal_matches_passes(t):
    """t averages through the cached Phi_{c',q}, and its average equals the
    pass loop's."""
    c = t.table.nilpotency_class
    assert average_module._phi_terms(t) is average_module._UNIVERSAL[(c - 1 + c % 2, t.q)]
    assert wav(t) == wav_by_passes(t)


def lemma_a_terms(q):
    """sum_j t_j e_j, on the letters 0, ..., q - 1."""
    ring = PolyRing(QQ, q)
    return tuple(((j,), ring.coordinate(j + 1)) for j in range(q))


def field_point(rng, span):
    """A point of span whose log coordinates use every coordinate of its
    field."""
    return point_from_coordinates(span, [rand_scalar(rng, span.field, -2, 2, 2)
                                         for _ in range(span.dim)])


def const_vector(rng, ring, dim):
    return tuple(ring.constant(rand_scalar(rng, ring.field, -2, 2, 2))
                 if rng.random() < 0.8 else ring.zero() for _ in range(dim))


# ---------------------------------------------------------------------------
# the universal path against the pass loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_full_groups_match_the_pass_loop(field):
    rng = random.Random(2601 + field.degree)
    cases = [(4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (6, 2), (7, 2)]
    if field is QQ:
        cases += [(5, 4)]
    for n, q in cases:
        span = full_unipotent_span(n, field)
        t = SectionTuple(span, [field_point(rng, span) for _ in range(q + 1)])
        assert_universal_matches_passes(t)


@pytest.mark.parametrize("field", FIELDS[:2], ids=FIELD_IDS[:2])
def test_the_u5_quotient_by_gamma_4_matches_the_pass_loop(field):
    """U_5 / gamma_4: a non-full span of class 3, re-embedded in 52 x 52
    matrices."""
    rng = random.Random(2611 + field.degree)
    u5 = full_unipotent_span(5, field)
    quot, proj = quotient_span(u5, lower_central_series(u5)[3])
    assert quot.dim < quot.n * (quot.n - 1) // 2 and quot.table.nilpotency_class == 3
    for q in (2, 3) if field is QQ else (2,):
        t = SectionTuple(quot, [apply_hom(proj, field_point(rng, u5)) for _ in range(q + 1)])
        assert_universal_matches_passes(t)


def test_a_ring_with_a_parameter_matches_the_pass_loop():
    rng = random.Random(2621)
    span = full_unipotent_span(4, QQ)
    ring = PolyRing(QQ, 0, ("a",))
    a = ring.parameter("a")
    for q in (2, 3):
        points = [exp_nilpotent(NilMatrix.from_entries(ring, 4, {
            (i, j): a * rng.randint(-2, 2) + rng.randint(-2, 2)
            for i in range(4) for j in range(i + 1, 4)})) for _ in range(q + 1)]
        t = SectionTuple(span, points)
        assert_universal_matches_passes(t)
        assert wav(t).ring is PolyRing(QQ, q, ("a",))


@pytest.mark.parametrize("field", FIELDS[1:], ids=FIELD_IDS[1:])
def test_a_ring_with_a_parameter_over_a_number_field_matches_the_pass_loop(field):
    """Phi's brackets over a ring with a parameter are lifted to the simplex
    one by one, by the polynomial combination."""
    rng = random.Random(2631 + field.degree)
    span = full_unipotent_span(4, field)
    ring = PolyRing(field, 0, ("a",))
    a = ring.parameter("a")
    for q in (2, 3):
        points = [exp_nilpotent(NilMatrix.from_entries(ring, 4, {
            (i, j): a * rand_scalar(rng, field, -2, 2, 2) + rand_scalar(rng, field, -2, 2, 2)
            for i in range(4) for j in range(i + 1, 4)})) for _ in range(q + 1)]
        t = SectionTuple(span, points)
        assert_universal_matches_passes(t)
        assert wav(t).ring is PolyRing(field, q, ("a",))


def test_coordinate_tuples_with_a_parameter_match_the_pass_loop():
    """The coordinate law lifts Phi's brackets to the simplex and its
    parameter inside its combination."""
    rng = random.Random(2641)
    table = full_unipotent_span(4, QQ).table
    ring = PolyRing(QQ, 0, ("a",))
    a = ring.parameter("a")
    for q in (2, 3):
        t = CoordinateTuple(table, [[a * rng.randint(-2, 2) + rng.randint(-2, 2)
                                     for _ in range(table.dim)] for _ in range(q + 1)], ring)
        assert_universal_matches_passes(t)
        assert all(x.ring is PolyRing(QQ, q, ("a",)) for x in wav(t))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("n", [4, 5])
def test_coordinate_tuples_match_the_pass_loop(field, n):
    rng = random.Random(2631 + 10 * n + field.degree)
    table = full_unipotent_span(n, field).table
    ring = PolyRing(field, 0)
    for q in (2, 3):
        t = CoordinateTuple(table, [const_vector(rng, ring, table.dim) for _ in range(q + 1)],
                            ring)
        assert_universal_matches_passes(t)


def test_the_dispatch():
    """No terms for agreeing components, Lemma A's for q = 1 or class <= 2,
    the cached Phi_{c',q} within the bound, and None, the pass loop, above
    it and for sections over a simplex."""
    rng = random.Random(2641)
    u4 = full_unipotent_span(4, QQ)
    p = rand_point(rng, u4)
    assert average_module._phi_terms(SectionTuple(u4, [p])) == ()
    assert average_module._phi_terms(SectionTuple(u4, [p, p, p])) == ()
    for span, q in [(full_unipotent_span(5, QQ), 1), (full_unipotent_span(3, QQ), 2),
                    (full_unipotent_span(3, QQ), 4)]:
        t = SectionTuple(span, [rand_point(rng, span) for _ in range(q + 1)])
        assert average_module._phi_terms(t) == lemma_a_terms(q), (span, q)
    for span, q in [(u4, 2), (full_unipotent_span(6, QQ), 2)]:
        t = SectionTuple(span, [rand_point(rng, span) for _ in range(q + 1)])
        assert_universal_matches_passes(t)
    for span, q in [(full_unipotent_span(6, QQ), 3), (full_unipotent_span(8, QQ), 2),
                    (u4, 5)]:
        t = SectionTuple(span, [rand_point(rng, span) for _ in range(q + 1)])
        assert average_module._phi_terms(t) is None, (span, q)
    over_simplex = SectionTuple(u4, [embed_simplex(rand_point(rng, u4), 1) for _ in range(2)])
    assert average_module._phi_terms(over_simplex) is None


def test_a_constant_tuple_builds_no_universal_polynomial(monkeypatch):
    span = full_unipotent_span(4, QQ)
    p = rand_point(random.Random(2651), span)
    monkeypatch.setattr(average_module, "_UNIVERSAL", {})
    monkeypatch.setattr(average_module, "universal_polynomial", None)
    assert wav(SectionTuple(span, [p, p, p])) == embed_simplex(p, 2)
    assert average_module._UNIVERSAL == {}


# ---------------------------------------------------------------------------
# Lemma A's Phi and the constant tuples against the pass loop
# ---------------------------------------------------------------------------

def assert_dispatch_matches_passes(t, rng, terms):
    """t averages through `terms`, its average equals the pass loop's, and
    for points the pointwise average equals it evaluated at the weights."""
    assert average_module._phi_terms(t) == terms
    got = wav(t)
    assert got == wav_by_passes(t)
    if isinstance(t, SectionTuple):
        for w in weight_grid(rng, t.group.field, t.q):
            assert wav_at_weights(t.sections, w, t.group) == eval_matrix_at_weights(got, w), w


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_q1_on_full_groups_matches_the_pass_loop(field, n):
    rng = random.Random(2661 + 10 * n + field.degree)
    span = full_unipotent_span(n, field)
    for _ in range(2):
        t = SectionTuple(span, [field_point(rng, span) for _ in range(2)])
        assert_dispatch_matches_passes(t, rng, lemma_a_terms(1))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_class_two_groups_match_the_pass_loop(field):
    """The Heisenberg group and Gamma_2 of U_5, the superdiagonals >= 2: a
    non-full subgroup of class 2."""
    rng = random.Random(2671 + field.degree)
    gamma2 = lower_central_series(full_unipotent_span(5, field))[1]
    assert gamma2.table.nilpotency_class == 2
    for span in (heisenberg_span(field), gamma2):
        for q in range(1, 5):
            t = SectionTuple(span, [field_point(rng, span) for _ in range(q + 1)])
            assert_dispatch_matches_passes(t, rng, lemma_a_terms(q))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_coordinate_tuples_on_u4_quotients_match_the_pass_loop(field):
    """The floors of U_4's tower: U_4 / Gamma_2 (class 1) and U_4 / Gamma_3
    (class 2)."""
    rng = random.Random(2681 + field.degree)
    u4 = full_unipotent_span(4, field)
    series = lower_central_series(u4)
    ring = PolyRing(field, 0)
    for k in (1, 2):
        table = quotient_span(u4, series[k])[0].table
        assert table.nilpotency_class == k
        for q in (1, 2, 3):
            t = CoordinateTuple(table, [const_vector(rng, ring, table.dim)
                                        for _ in range(q + 1)], ring)
            assert_dispatch_matches_passes(t, rng, lemma_a_terms(q))


def test_a_ring_with_a_parameter_matches_the_pass_loop_at_q1_and_class_two():
    rng = random.Random(2691)
    ring = PolyRing(QQ, 0, ("a",))
    a = ring.parameter("a")
    for n, qs in ((4, (1,)), (3, (1, 2, 3))):
        span = full_unipotent_span(n, QQ)
        for q in qs:
            points = [exp_nilpotent(NilMatrix.from_entries(ring, n, {
                (i, j): a * rng.randint(-2, 2) + rng.randint(-2, 2)
                for i in range(n) for j in range(i + 1, n)})) for _ in range(q + 1)]
            t = SectionTuple(span, points)
            assert average_module._phi_terms(t) == lemma_a_terms(q)
            got = wav(t)
            assert got == wav_by_passes(t) and got.ring is PolyRing(QQ, q, ("a",))
            # the weights give the parameter no value, on both sides
            w = WeightSeq.uniform(q, QQ)
            for average in (lambda: wav_at_weights(points, w, span),
                            lambda: eval_matrix_at_weights(got, w)):
                with pytest.raises(InputError, match="missing value for parameter 'a'"):
                    average()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_constant_tuples_and_q0_match_the_pass_loop(field):
    rng = random.Random(2701 + field.degree)
    for span in (heisenberg_span(field), full_unipotent_span(4, field),
                 full_unipotent_span(6, field)):
        p = field_point(rng, span)
        for q in range(4):
            assert_dispatch_matches_passes(SectionTuple(span, [p] * (q + 1)), rng, ())
    table = full_unipotent_span(4, field).table
    ring = PolyRing(field, 0)
    x = const_vector(rng, ring, table.dim)
    for q in range(3):
        assert_dispatch_matches_passes(CoordinateTuple(table, [x] * (q + 1), ring), rng, ())
    # q = 0 over a ring with a parameter: the point itself, on both sides
    pring = PolyRing(field, 0, ("a",))
    point = exp_nilpotent(NilMatrix.from_entries(pring, 3, {(0, 1): pring.parameter("a")}))
    t = SectionTuple(heisenberg_span(field), [point])
    assert wav(t) == wav_by_passes(t) == point
    assert wav_at_weights([point], WeightSeq(field, [1]), t.group) is point


# ---------------------------------------------------------------------------
# the free algebra and the shape of Phi
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c,q,dim", [(3, 2, 5), (3, 3, 14), (5, 2, 14), (4, 3, 32)])
def test_the_free_table_is_a_lie_algebra_of_the_witt_dimension(c, q, dim):
    words, table = free_lie_table(q, c, QQ)
    assert len(words) == table.dim == dim and table.nilpotency_class == c
    zero, one = QQ.zero, QQ.one
    basis = [tuple(one if k == i else zero for k in range(dim)) for i in range(dim)]
    for i, j, k in combinations(range(dim), 3):
        a, b, e = basis[i], basis[j], basis[k]
        total = [zero] * dim
        for x, y, z in ((a, b, e), (b, e, a), (e, a, b)):
            total = [s + v for s, v in zip(total, table.bracket(x, table.bracket(y, z, zero),
                                                                  zero))]
        assert all(v.is_zero for v in total), (i, j, k)


@pytest.mark.parametrize("c,q", [(4, 2), (4, 3), (6, 2)])
def test_even_weight_coordinates_of_phi_vanish(c, q):
    terms = universal_polynomial(c, q)
    assert terms and all(len(word) % 2 for word, _ in terms)


@pytest.mark.parametrize("c,q", [(3, 2), (4, 2), (5, 2), (3, 3)])
def test_phi_of_the_next_class_agrees_below_its_top_weight(c, q):
    lower = dict(universal_polynomial(c, q))
    upper = {word: x for word, x in universal_polynomial(c + 1, q) if len(word) <= c}
    assert upper.keys() == lower.keys()
    for word, x in lower.items():
        assert upper[word].nums == x.nums and upper[word].den == x.den


def admitted():
    """Every (c', q) with c' >= 3 odd and q >= 2 that the bound admits: the
    free algebra grows with c and with q (its Lyndon words only gain new
    ones), so each loop stops at its first refusal."""
    out = []
    c = 3
    while average_module._admits(c, 2):
        q = 2
        while average_module._admits(c, q):
            out.append((c, q))
            q += 1
        c += 2
    return out


def test_the_bound_admits_four_classes():
    assert MAX_UNIVERSAL_DIM == 32
    assert admitted() == [(3, 2), (3, 3), (3, 4), (5, 2)]


@pytest.mark.parametrize("c,q", admitted())
def test_phi_has_t_degree_at_most_its_weight(c, q):
    """A weight-k coordinate has t-degree <= max(1, k - 1) <= k; a weight-k
    bracket of strictly upper matrices lies on superdiagonals >= k, so
    exp(Phi(L)) f_0 has t-degree <= d on superdiagonal d."""
    terms = universal_polynomial(c, q)
    assert average_module._UNIVERSAL.get((c, q), terms) == terms
    for word, x in terms:
        assert x.ring is PolyRing(QQ, q)
        assert x.total_degree() <= max(1, len(word) - 1), word
