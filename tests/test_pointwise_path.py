"""`wav_at_weights` evaluates Phi at the weights and computes on constant
matrices: exp(Phi(w; L_1, ..., L_q)) f_0, with Phi = sum_j t_j e_j when
q = 1 or the class is at most 2 and the cached Phi_{c',q} where `wav`
takes it, and f_0 itself when the points agree.  Every other tuple is
averaged symbolically and then evaluated, and points with parameters are
refused first.  The oracle is the pass loop evaluated
at the weights, `eval_matrix_at_weights(wav_by_passes(t), w)`, on a grid
of groups, tuple degrees and weights (vertices, interior points and, over
number fields, irrational points), and `rational_point` on every orbit
of `test_symmetric_lift`."""

import random
from fractions import Fraction

import pytest

from unipavg import (
    QQ,
    InputError,
    NilMatrix,
    PolyRing,
    SectionTuple,
    UniMatrix,
    WeightSeq,
    exp_nilpotent,
    full_unipotent_span,
    rational_point,
    wav_at_weights,
)
from unipavg import average as average_module
from unipavg.average import eval_matrix_at_weights, wav_by_passes
from unipavg.fixtures import cubic_field, heisenberg_span, point_from_coordinates, sqrt2_field
from helpers import rand_scalar, rand_weights
from test_symmetric_lift import CASES as ORBITS
from test_symmetric_lift import IDS as ORBIT_IDS

FIELDS = [QQ, sqrt2_field(), cubic_field()]
FIELD_IDS = ["Q", "Q(sqrt2)", "cubic"]

# (group, q) per field, and over Q alone the larger groups, where Phi_{5,2}
# serves U_6 and U_7 at q = 2 and U_6 at q = 3 lies above the bound
CLASSES = ([("heisenberg", 1), ("heisenberg", 3)] + [("u4", q) for q in range(5)]
           + [("u5", q) for q in (1, 2, 3)])
LARGE = [("u6", 1), ("u6", 2), ("u6", 3), ("u7", 2)]
GRID = ([(f, g, q) for f in range(3) for g, q in CLASSES] + [(0, g, q) for g, q in LARGE])
GRID_IDS = ["%s-%s-q%d" % (FIELD_IDS[f], g, q) for f, g, q in GRID]


def span_of(name, field):
    if name == "heisenberg":
        return heisenberg_span(field)
    return full_unipotent_span(int(name[1:]), field)


def rand_points(rng, span, q):
    """q + 1 points whose log coordinates use every coordinate of the field."""
    return [point_from_coordinates(span, [rand_scalar(rng, span.field, -2, 2, 2)
                                          for _ in range(span.dim)])
            for _ in range(q + 1)]


def weight_grid(rng, field, q):
    """Every vertex, the barycentre, a random interior point and, over a
    number field, a point with irrational coordinates."""
    out = [WeightSeq.vertex(q, i, field) for i in range(q + 1)]
    if q:
        out += [WeightSeq.uniform(q, field), WeightSeq(field, rand_weights(rng, q))]
        if field.degree > 1:
            rest = [rand_scalar(rng, field, -2, 2, 3) for _ in range(q)]
            out.append(WeightSeq(field, [field.one - sum(rest, field.zero)] + rest))
    return out


def count_fallbacks(monkeypatch):
    """The calls that reach `eval_matrix_at_weights` from `wav_at_weights`."""
    calls = []
    real = average_module.eval_matrix_at_weights
    monkeypatch.setattr(average_module, "eval_matrix_at_weights",
                        lambda mat, w: calls.append(1) or real(mat, w))
    return calls


@pytest.mark.parametrize("f,group,q", GRID, ids=GRID_IDS)
def test_the_pointwise_average_equals_the_pass_loop_at_the_weights(monkeypatch, f, group, q):
    field = FIELDS[f]
    rng = random.Random(2701 + 31 * f + 7 * q + len(group))
    span = span_of(group, field)
    points = rand_points(rng, span, q)
    averaged = wav_by_passes(SectionTuple(span, points))
    weights = weight_grid(rng, field, q)
    fallbacks = count_fallbacks(monkeypatch)
    for w in weights:
        got = wav_at_weights(points, w, span)
        assert got == eval_matrix_at_weights(averaged, w), w
        assert got.ring is points[0].ring
    # only U_6 at q = 3 (Phi_{5,3} above the bound) averages symbolically
    assert len(fallbacks) == (len(weights) if (group, q) == ("u6", 3) else 0)


@pytest.mark.parametrize("name,orbit", ORBITS, ids=ORBIT_IDS)
def test_rational_point_equals_the_pass_loop_descended(name, orbit):
    weights = WeightSeq.uniform(orbit.q, orbit.action.field)
    want = eval_matrix_at_weights(wav_by_passes(SectionTuple(orbit.group, orbit.points)),
                                  weights)
    got = rational_point(orbit)
    assert got.ring is PolyRing(QQ, 0)
    for i in range(want.n):
        for j in range(want.n):
            value = want.entry(i, j).constant_value()
            assert value.is_rational
            assert got.entry(i, j).constant_value().as_fraction() == value.as_fraction()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_one_by_one_points(field):
    ring = PolyRing(field, 0)
    one = UniMatrix.identity(ring, 1)
    span = full_unipotent_span(1, field)
    for q in range(3):
        for w in weight_grid(random.Random(2711), field, q):
            assert wav_at_weights([one] * (q + 1), w, span) == one
            assert wav_at_weights([one] * (q + 1), w) == one


def test_q_zero_returns_the_point(monkeypatch):
    span = full_unipotent_span(4, QQ)
    point, = rand_points(random.Random(2721), span, 0)
    fallbacks = count_fallbacks(monkeypatch)
    assert wav_at_weights([point], WeightSeq(QQ, [1]), span) is point
    assert fallbacks == []


def test_points_with_a_parameter_keep_the_missing_value_error(monkeypatch):
    ring = PolyRing(QQ, 0, ("a",))
    a = ring.parameter("a")
    points = [exp_nilpotent(NilMatrix.from_entries(ring, 3, {(0, 1): a * k, (1, 2): 1,
                                                             (0, 2): k}))
              for k in range(3)]
    span = full_unipotent_span(3, QQ)
    fallbacks = count_fallbacks(monkeypatch)
    averages = []
    real_wav = average_module.wav
    monkeypatch.setattr(average_module, "wav", lambda t: averages.append(1) or real_wav(t))
    assert wav_at_weights(points[:1], WeightSeq(QQ, [1]), span) is points[0]
    for q in (1, 2):
        with pytest.raises(InputError, match="missing value for parameter 'a'"):
            wav_at_weights(points[:q + 1], WeightSeq.uniform(q, QQ), span)
    # the error names the ring's first parameter, and comes before any average
    ring = PolyRing(QQ, 0, ("b", "a"))
    two = [exp_nilpotent(NilMatrix.from_entries(ring, 3, {(0, 1): ring.parameter("a") * k}))
           for k in range(2)]
    with pytest.raises(InputError, match="missing value for parameter 'b'"):
        wav_at_weights(two, WeightSeq.uniform(1, QQ), span)
    assert fallbacks == [] and averages == []


def test_a_constant_tuple_above_class_two_is_its_first_point(monkeypatch):
    span = full_unipotent_span(4, QQ)
    point, = rand_points(random.Random(2731), span, 0)
    fallbacks = count_fallbacks(monkeypatch)
    w = WeightSeq(QQ, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    assert wav_at_weights([point] * 3, w, span) == point
    assert fallbacks == []
