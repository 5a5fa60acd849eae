"""Exact cross-checks of the averaging core's shortcuts against the paths
they replace: `wav` stopping once the tuple agrees, group membership
decided by shape for full spans, tuples built by the operators trusted
without a membership check, and the derived and lower central series
built from the brackets of basis pairs i < j without closure checks."""

import random
import sys
from itertools import combinations

import pytest

import unipavg.average as average_module
import unipavg.nilpotent as nilpotent_module
from unipavg import (
    QQ,
    FiniteCover,
    GaloisAction,
    GaloisOrbit,
    InputError,
    LieSpan,
    LocalSection,
    MembershipError,
    NilMatrix,
    PolyRing,
    RingMismatch,
    SectionTuple,
    UniMatrix,
    apply_hom,
    build_simplicial_section,
    derived_series_length,
    embed_simplex,
    exp_nilpotent,
    full_unipotent_span,
    lift_w,
    log_unipotent,
    lower_central_series,
    quotient_span,
    transition,
    validate_simplicial_section,
    wav,
    wsym,
)
from unipavg.fixtures import (
    abelian3_span,
    heisenberg_span,
    sqrt2_field,
    strictness_witness,
    two_point_tuple,
    u2_span,
)
from unipavg.nilpotent import _bracket_basis, _independent_matrices
from helpers import rand_nil_poly, rand_point, rand_tuple


# ---------------------------------------------------------------------------
# wav: early exit against lift plus exactly d passes
# ---------------------------------------------------------------------------

def wav_all_passes(t, d=None):
    """The averaging loop without the early exit: lift (one wsym pass on the
    embedded sections), then exactly d passes."""
    if d is None:
        d = derived_series_length(t.group)
    cur = wsym(SectionTuple(t.group, [embed_simplex(s, t.q) for s in t.sections]))
    for _ in range(d):
        cur = wsym(cur)
    assert cur.is_constant_tuple()
    return cur.sections[0]


def count_wsym_calls(monkeypatch, t, **kwargs):
    """Run wav and return (result, wsym calls, the lift's included), checking
    that no call acts on a tuple that already agrees."""
    calls = []
    real = average_module.wsym

    def counting(tup):
        calls.append(tup.is_constant_tuple())
        return real(tup)

    monkeypatch.setattr(average_module, "wsym", counting)
    result = wav(t, **kwargs)
    monkeypatch.undo()
    assert not any(calls), "wsym ran on a constant tuple"
    return result, len(calls)


def quotient_tuple(rng, q):
    """Points of U_4 projected to its quotient by the centre, a non-full
    span of 12 x 12 matrices."""
    ut4 = full_unipotent_span(4, QQ)
    centre = lower_central_series(ut4)[2]
    quot, proj = quotient_span(ut4, centre)
    return SectionTuple(quot, [apply_hom(proj, rand_point(rng, ut4)) for _ in range(q + 1)])


def test_wav_matches_all_passes_on_full_groups(monkeypatch):
    rng = random.Random(601)
    ut4, ut5 = full_unipotent_span(4, QQ), full_unipotent_span(5, QQ)
    cases = [rand_tuple(rng, ut4, q) for q in (1, 2, 3)]
    cases += [rand_tuple(rng, ut5, q) for q in (1, 2)]
    cases += [rand_tuple(rng, heisenberg_span(), q) for q in (1, 3)]
    cases += [two_point_tuple(), strictness_witness()]
    for t in cases:
        fast, calls = count_wsym_calls(monkeypatch, t)
        assert fast == wav_all_passes(t)
        assert calls <= 1 + derived_series_length(t.group)


def test_wav_matches_all_passes_on_subgroups_and_quotients(monkeypatch):
    rng = random.Random(602)
    lcs1 = lower_central_series(full_unipotent_span(4, QQ))[1]
    assert lcs1.dim < 6
    for t in [rand_tuple(rng, lcs1, 2), rand_tuple(rng, abelian3_span(), 2),
              quotient_tuple(rng, 1)]:
        assert t.group.dim < t.group.n * (t.group.n - 1) // 2
        fast, calls = count_wsym_calls(monkeypatch, t)
        assert fast == wav_all_passes(t)
        assert calls <= 1 + derived_series_length(t.group)


def test_witness_still_takes_its_second_pass(monkeypatch):
    t = strictness_witness()
    fast, calls = count_wsym_calls(monkeypatch, t)
    assert calls == 2          # the lift, then one pass
    assert fast == wav_all_passes(t)


def test_constant_tuple_takes_zero_passes(monkeypatch):
    rng = random.Random(603)
    ut4 = full_unipotent_span(4, QQ)
    p = rand_point(rng, ut4)
    t = SectionTuple(ut4, [p, p, p])
    fast, calls = count_wsym_calls(monkeypatch, t)
    assert calls == 0          # not even the lift
    assert fast == wav_all_passes(t)
    assert fast == embed_simplex(p, 2)
    embedded = SectionTuple(ut4, [embed_simplex(p, 2)] * 3)
    assert lift_w(t) == wsym(embedded) == embedded


def test_iteration_override_keeps_its_bound_and_value(monkeypatch):
    rng = random.Random(604)
    ut4 = full_unipotent_span(4, QQ)
    t = rand_tuple(rng, ut4, 2)
    d = derived_series_length(ut4)
    fast, calls = count_wsym_calls(monkeypatch, t, d_override=d + 3)
    assert calls <= 1 + d
    assert fast == wav_all_passes(t, d + 3)
    with pytest.raises(InputError):
        wav(t, d_override=d - 1)


def log_calls_from_operator_tuples(monkeypatch, t, checked=False):
    """Run wav and return (result, number of log_unipotent calls made while
    a SectionTuple is built inside wsym or lift_w).  With checked=True,
    every tuple the operators build checks membership again."""
    operators = {average_module.wsym.__code__, average_module.lift_w.__code__}
    init = SectionTuple.__init__.__code__
    calls = []
    real_log = nilpotent_module.log_unipotent

    def tracking_log(u):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not init:
            frame = frame.f_back
        while frame is not None:
            if frame.f_code in operators:
                calls.append(frame.f_code.co_name)
                break
            frame = frame.f_back
        return real_log(u)

    class CheckedTuple(SectionTuple):
        __slots__ = ()

        def __init__(self, group, sections, check=True):
            super().__init__(group, sections, check=True)

    monkeypatch.setattr(nilpotent_module, "log_unipotent", tracking_log)
    if checked:
        monkeypatch.setattr(average_module, "SectionTuple", CheckedTuple)
    result = wav(t)
    monkeypatch.undo()
    return result, len(calls)


def test_operator_tuples_on_a_quotient_skip_the_membership_check(monkeypatch):
    rng = random.Random(609)
    for q in (1, 2):
        t = quotient_tuple(rng, q)
        assert t.group.dim < t.group.n * (t.group.n - 1) // 2
        fast, trusted_logs = log_calls_from_operator_tuples(monkeypatch, t)
        checked, checked_logs = log_calls_from_operator_tuples(monkeypatch, t, checked=True)
        assert fast == checked == wav_all_passes(t)
        assert trusted_logs == 0
        assert checked_logs > 0          # the tracking sees the checks it replaces


def test_public_section_tuples_still_check_membership():
    ab = abelian3_span()
    bad = outside_abelian3()
    with pytest.raises(MembershipError):
        SectionTuple(ab, [bad])
    SectionTuple(ab, [bad], check=False)
    with pytest.raises(RingMismatch):
        SectionTuple(ab, [sqrt2_point(4)], check=False)


# ---------------------------------------------------------------------------
# derived series: pairs i < j against all ordered pairs
# ---------------------------------------------------------------------------

def derived_length_ordered_pairs(span):
    cur = span
    count = 0
    while cur.dim > 0:
        count += 1
        cur = LieSpan(_bracket_basis(span.field, cur.basis, cur.basis),
                      n=span.n, field=span.field)
    return count


def test_derived_length_matches_ordered_pairs():
    ut4 = full_unipotent_span(4, QQ)
    centre = lower_central_series(ut4)[2]
    spans = [u2_span(), heisenberg_span(), abelian3_span(),
             lower_central_series(ut4)[1], quotient_span(ut4, centre)[0]]
    spans += [full_unipotent_span(n, QQ) for n in range(1, 7)]
    for span in spans:
        d = derived_series_length(span)
        assert d == derived_length_ordered_pairs(span)
        assert derived_series_length(span) == d      # cached value agrees


def series_with_closure_checks(span):
    """Lower central series dimensions and derived length, with every term
    built by a LieSpan that re-checks closure under the bracket."""
    dims = [span.dim]
    cur = span
    while cur.dim > 0:
        cur = LieSpan(_bracket_basis(span.field, span.basis, cur.basis),
                      n=span.n, field=span.field, check=True)
        dims.append(cur.dim)
    cur = span
    length = 0
    while cur.dim > 0:
        length += 1
        brackets = (a.bracket(b) for a, b in combinations(cur.basis, 2))
        cur = LieSpan(_independent_matrices(span.field, brackets),
                      n=span.n, field=span.field, check=True)
    return dims, length


def test_series_without_closure_checks_match_checked_terms():
    ut4 = full_unipotent_span(4, QQ)
    spans = [full_unipotent_span(n, QQ) for n in range(1, 7)]
    spans += [quotient_span(ut4, ideal)[0] for ideal in lower_central_series(ut4)[1:]]
    assert len(spans) == 9
    for span in spans:
        dims, length = series_with_closure_checks(span)
        assert [term.dim for term in lower_central_series(span)] == dims
        assert derived_series_length(span) == length


def test_derived_length_of_full_groups_is_ceil_log2():
    for n in range(1, 7):
        assert derived_series_length(full_unipotent_span(n, QQ)) == (n - 1).bit_length()


# ---------------------------------------------------------------------------
# membership: shape decides full spans, the solve decides the rest
# ---------------------------------------------------------------------------

def test_require_element_agrees_with_log_solve():
    rng = random.Random(605)
    ut4 = full_unipotent_span(4, QQ)
    lcs1 = lower_central_series(ut4)[1]
    for span in (ut4, heisenberg_span(), lcs1, abelian3_span()):
        for q in (0, 2):
            members = [embed_simplex(rand_point(rng, span), q) for _ in range(2)]
            others = [exp_nilpotent(rand_nil_poly(rng, QQ, span.n, q)) for _ in range(4)]
            for u in members + others:
                try:
                    span.coordinates(log_unipotent(u))
                    inside = True
                except MembershipError:
                    inside = False
                if inside:
                    span.require_element(u)
                else:
                    with pytest.raises(MembershipError):
                        span.require_element(u)


def outside_abelian3():
    """exp(E_12) in U_4: outside the abelian span of the first row."""
    ring = PolyRing(QQ, 0)
    return exp_nilpotent(NilMatrix.from_entries(ring, 4, {(1, 2): 1}))


def sqrt2_point(n):
    field = sqrt2_field()
    ring = PolyRing(field, 0)
    return exp_nilpotent(NilMatrix.from_entries(ring, n, {(0, n - 1): field.gen}))


def test_non_full_span_membership_enforced_everywhere():
    ab = abelian3_span()
    inside = rand_point(random.Random(606), ab)
    bad = outside_abelian3()
    with pytest.raises(MembershipError):
        SectionTuple(ab, [inside, bad])
    with pytest.raises(MembershipError):
        transition(inside, bad, group=ab)
    cover = FiniteCover(["x"], [("x",)])
    with pytest.raises(MembershipError):
        LocalSection(0, {"x": bad}).check_against(cover, ab)
    field = sqrt2_field()
    bad_nf = exp_nilpotent(NilMatrix.from_entries(PolyRing(field, 0), 4, {(1, 2): 1}))
    with pytest.raises(MembershipError):
        GaloisOrbit(abelian3_span(field), GaloisAction(field, [[0, -1]]), [bad_nf])


def test_full_span_field_mismatch_enforced_everywhere():
    ut4 = full_unipotent_span(4, QQ)
    rational = rand_point(random.Random(607), ut4)
    foreign = sqrt2_point(4)
    with pytest.raises(RingMismatch):
        SectionTuple(ut4, [foreign, foreign])
    with pytest.raises(RingMismatch):
        transition(foreign, foreign, group=ut4)
    with pytest.raises(RingMismatch):
        ut4.require_element(foreign)
    cover = FiniteCover(["x"], [("x",)])
    with pytest.raises(RingMismatch):
        LocalSection(0, {"x": foreign}).check_against(cover, ut4)
    field = sqrt2_field()
    with pytest.raises(RingMismatch):
        GaloisOrbit(full_unipotent_span(4, field), GaloisAction(field, [[0, -1]]),
                    [rational])
    SectionTuple(ut4, [rational, rational])


def tampered_level_failures(span, value):
    """Build a one-open section over span, swap its level-0 value for
    `value`, and return the validator's condition (i) failures."""
    point = UniMatrix.identity(span.ring, span.n)
    cover = FiniteCover(["x"], [("x",)])
    s = build_simplicial_section(cover, [LocalSection(0, {"x": point})], span, max_q=1)
    assert validate_simplicial_section(s).ok
    levels = dict(s.levels)
    levels[0] = {(0,): {"x": value}}
    broken = type(s)(cover, span, levels, s.max_q)
    rep = validate_simplicial_section(broken)
    assert not rep.ok
    return [f for f in rep.failures if f["detail"] == "value lies outside the group"]


def test_validator_condition_i_still_checks_membership():
    assert tampered_level_failures(abelian3_span(), outside_abelian3())
    assert tampered_level_failures(full_unipotent_span(4, QQ), sqrt2_point(4))
    # a value of the right field in a full span is never flagged
    ut4 = full_unipotent_span(4, QQ)
    assert not tampered_level_failures(ut4, rand_point(random.Random(608), ut4))
