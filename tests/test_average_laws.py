"""Property tests of the laws of the weighted average, on tuples of q + 1
points of full U_3 and U_4 over Q and Q(sqrt2), for q = 1 and 2 (at q = 0
wav returns the one point):

- vertex recovery: wav(t) evaluated at vertex i is t_i;
- permutation equivariance: wav of the permuted tuple is wav(t) with its
  simplex coordinates permuted the same way;
- naturality: a Lie hom applied to wav(t) is wav of the hom's images, for
  the identity of U_4 and its projections onto the quotients by the terms
  of its lower central series.

They use the fixed settings of `test_properties`, so every run checks the
same examples."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unipavg import (
    QQ,
    LieHom,
    SectionTuple,
    WeightSeq,
    act_permutation,
    apply_hom,
    full_unipotent_span,
    lower_central_series,
    permute_coordinates,
    quotient_span,
    wav,
)
from unipavg.average import eval_matrix_at_weights
from unipavg.fixtures import point_from_coordinates, sqrt2_field
from test_properties import SETTINGS

FIELDS = {"Q": QQ, "Q(sqrt2)": sqrt2_field()}
GROUPS = {"U%d-%s" % (n, name): full_unipotent_span(n, field)
          for name, field in FIELDS.items() for n in (3, 4)}
VALUES = [Fraction(v) for v in (1, -1, 2, -2)] + [Fraction(1, 2), Fraction(-1, 2)]


def homs(span):
    """The identity of span and its projections onto span / g_k for the
    nonzero proper terms g_k of its lower central series."""
    return [LieHom.identity(span)] + [quotient_span(span, ideal)[1]
                                      for ideal in lower_central_series(span)[1:-1]]


# every group and degree is a case of its own, and hypothesis draws the points
CLASSES = [pytest.param(span, q, id="%s-q%d" % (name, q))
           for name, span in GROUPS.items() for q in (1, 2)]
HOM_CLASSES = [pytest.param(hom, q, id="U4-%s-%s-q%d" % (name, kind, q))
               for name, field in FIELDS.items()
               for kind, hom in zip(("identity", "mod-g2", "mod-g3"),
                                    homs(full_unipotent_span(4, field)))
               for q in (1, 2)]


def tuples(span, q):
    """Tuples of q + 1 points of span, each the exp of a basis combination
    whose coordinates lie in VALUES, or over Q(sqrt2) are a + b sqrt2 with a
    and b in VALUES."""
    coord = st.sampled_from(VALUES)
    if span.field.degree > 1:
        coord = st.lists(coord, min_size=2, max_size=2)
    point = st.lists(coord, min_size=span.dim, max_size=span.dim).map(
        lambda coords: point_from_coordinates(span, coords))
    return st.lists(point, min_size=q + 1, max_size=q + 1).map(
        lambda points: SectionTuple(span, points))


@pytest.mark.parametrize("span, q", CLASSES)
@SETTINGS
@given(data=st.data())
def test_wav_recovers_each_vertex(span, q, data):
    t = data.draw(tuples(span, q))
    average = wav(t)
    for i, point in enumerate(t.sections):
        assert eval_matrix_at_weights(average, WeightSeq.vertex(q, i, span.field)) == point


@pytest.mark.parametrize("span, q", CLASSES)
@SETTINGS
@given(data=st.data())
def test_wav_is_permutation_equivariant(span, q, data):
    t = data.draw(tuples(span, q))
    perm = data.draw(st.permutations(range(q + 1)))
    average = wav(t)
    assert wav(act_permutation(t, perm)) == average.map_entries(
        lambda e: permute_coordinates(e, perm), average.ring)


@pytest.mark.parametrize("hom, q", HOM_CLASSES)
@SETTINGS
@given(data=st.data())
def test_wav_commutes_with_lie_homs(hom, q, data):
    t = data.draw(tuples(hom.source, q))
    images = SectionTuple(hom.target, [apply_hom(hom, point) for point in t.sections])
    assert apply_hom(hom, wav(t)) == wav(images)
