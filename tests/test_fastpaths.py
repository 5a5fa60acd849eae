"""Exact cross-checks of the averaging core's shortcuts against the paths
they replace: `wav` stopping once the tuple agrees, group membership
decided by shape for full spans, tuples built by the operators trusted
without a membership check, the derived and lower central series
built from the brackets of basis pairs i < j without closure checks, the
triangular row kernels that skip structural zeros, the sparse echelon
solve against the augmented-identity solver, and the quotient structure
and hom bracket checks done on structure-constant tables against the
matrix rules.  The tower outputs are pinned to digests of the dense
kernels' output bytes."""

import hashlib
import json
import random
import sys
from fractions import Fraction
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
    LieHom,
    LieSpan,
    LocalSection,
    MembershipError,
    NilMatrix,
    NonConstantError,
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
    tower_compatibility,
    transition,
    validate_simplicial_section,
    wav,
    wsym,
)
from unipavg.average import wav_by_passes
from unipavg.fixtures import (
    abelian3_span,
    heisenberg_span,
    sqrt2_field,
    strictness_witness,
    two_point_tuple,
    u2_span,
)
from unipavg.serialize import (matrix_to_json, span_to_json, tower_report_to_json,
                               tuple_to_json)
from helpers import rand_nil_poly, rand_point, rand_scalar, rand_tuple


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


def count_wsym_calls(monkeypatch, t, average=wav, **kwargs):
    """Run average (`wav`, or its pass loop `wav_by_passes`) and return
    (result, wsym calls, the lift's included), checking that no call acts
    on a tuple that already agrees."""
    calls = []
    real = average_module.wsym

    def counting(tup):
        calls.append(tup.is_constant_tuple())
        return real(tup)

    monkeypatch.setattr(average_module, "wsym", counting)
    result = average(t, **kwargs)
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
    fast, calls = count_wsym_calls(monkeypatch, t, average=wav_by_passes)
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


# ---------------------------------------------------------------------------
# wav: the derived series only when a third pass, the override check or the
# failure message needs it
# ---------------------------------------------------------------------------

def count_series_builds(monkeypatch):
    """Count `LieTable._series` calls from here on, one per derived or lower
    central series built."""
    builds = []
    real = nilpotent_module.LieTable._series

    def counting(table, *args):
        builds.append(table)
        return real(table, *args)

    monkeypatch.setattr(nilpotent_module.LieTable, "_series", counting)
    return builds


def test_u4_and_u5_averages_build_no_derived_series(monkeypatch):
    rng = random.Random(605)
    cases = [(4, q) for q in (1, 2, 3, 4)] + [(5, q) for q in (1, 2, 3)]
    wants = []
    for n, q in cases:
        t = rand_tuple(rng, full_unipotent_span(n, QQ), q)
        wants.append((t, wav_all_passes(t)))
    builds = count_series_builds(monkeypatch)
    for t, want in wants:
        # a fresh span, so no earlier call has cached the derived length
        fresh = SectionTuple(full_unipotent_span(t.group.n, QQ), t.sections)
        assert wav(fresh) == want
        assert fresh.table._derived_length is None
    assert builds == []


def test_the_override_check_builds_the_derived_series_once(monkeypatch):
    rng = random.Random(606)
    ut5 = full_unipotent_span(5, QQ)
    t = rand_tuple(rng, ut5, 2)
    want = wav_all_passes(t)
    fresh = SectionTuple(full_unipotent_span(5, QQ), t.sections)
    builds = count_series_builds(monkeypatch)
    assert wav(fresh, d_override=4) == want
    assert len(builds) == 1
    with pytest.raises(InputError, match="integer >= 3"):
        wav(fresh, d_override=2)
    assert len(builds) == 1


@pytest.mark.parametrize("group,d", [(abelian3_span, 1), (heisenberg_span, 2),
                                     (lambda: full_unipotent_span(4, QQ), 2),
                                     (lambda: full_unipotent_span(5, QQ), 3)],
                         ids=["abelian", "heisenberg", "U4", "U5"])
def test_a_tuple_that_never_agrees_fails_after_d_passes(monkeypatch, group, d):
    # a pass that changes nothing keeps the tuple disagreeing, so the pass
    # loop runs out of passes: the lift, then d passes, with d in the message
    rng = random.Random(607)
    span = group()
    t = rand_tuple(rng, span, 2)
    assert not t.is_constant_tuple()
    monkeypatch.setattr(average_module, "wsym", lambda tup: tup)
    builds = count_series_builds(monkeypatch)
    calls = []
    real_more = nilpotent_module.LieTable.derived_length_exceeds

    def more(table, k):
        calls.append(k)
        return real_more(table, k)

    monkeypatch.setattr(nilpotent_module.LieTable, "derived_length_exceeds", more)
    with pytest.raises(NonConstantError,
                       match=r"^tuple components still disagree after %d passes$" % d):
        wav_by_passes(t)
    assert calls == list(range(d + 1))
    # only a question about a third pass builds the series, once
    assert len(builds) == (1 if d >= 2 else 0)
    assert span.table.derived_length == d
    with pytest.raises(NonConstantError, match="after %d passes" % (d + 2)):
        wav_by_passes(t, d_override=d + 2)


def log_calls_from_operator_tuples(monkeypatch, t, checked=False):
    """Run the pass loop `wav_by_passes` and return (result, number of
    log_unipotent calls made while a SectionTuple is built inside wsym or
    lift_w).  With checked=True, every tuple the operators build checks
    membership again."""
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
    result = wav_by_passes(t)
    monkeypatch.undo()
    return result, len(calls)


def test_operator_tuples_on_a_quotient_skip_the_membership_check(monkeypatch):
    rng = random.Random(609)
    for q in (1, 2):
        t = quotient_tuple(rng, q)
        assert t.group.dim < t.group.n * (t.group.n - 1) // 2
        fast, trusted_logs = log_calls_from_operator_tuples(monkeypatch, t)
        checked, checked_logs = log_calls_from_operator_tuples(monkeypatch, t, checked=True)
        assert fast == checked == wav_all_passes(t) == wav(t)
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

def independent_matrices(field, mats):
    """The matrices independent of the ones kept before them, picked by the
    library's echelon store; the matrix series below are built from them."""
    ech = nilpotent_module._Echelon(field)
    return [m for m in mats if ech.add([e.constant_value() for e in m.strict_upper()])]


def bracket_basis(field, left, right):
    return independent_matrices(field, (a.bracket(b) for a in left for b in right))


def derived_length_ordered_pairs(span):
    cur = span
    count = 0
    while cur.dim > 0:
        count += 1
        cur = LieSpan(bracket_basis(span.field, cur.basis, cur.basis),
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
        cur = LieSpan(bracket_basis(span.field, span.basis, cur.basis),
                      n=span.n, field=span.field, check=True)
        dims.append(cur.dim)
    cur = span
    length = 0
    while cur.dim > 0:
        length += 1
        brackets = (a.bracket(b) for a, b in combinations(cur.basis, 2))
        cur = LieSpan(independent_matrices(span.field, brackets),
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


def test_lower_central_series_keeps_the_matrix_brackets():
    """The table keeps the same brackets [b, c] (b in g, c in the previous
    term) as the matrix series, in the same order, so every term has the
    same basis matrices."""
    spans = [full_unipotent_span(n, field) for n in range(1, 6)
             for field in (QQ, sqrt2_field())]
    ut4 = full_unipotent_span(4, QQ)
    spans += [heisenberg_span(), abelian3_span(), LieSpan((), n=3, field=QQ)]
    spans += [quotient_span(ut4, ideal)[0] for ideal in lower_central_series(ut4)[1:]]
    for span in spans:
        series = lower_central_series(span)
        for prev, term in zip(series, series[1:]):
            assert list(term.basis) == bracket_basis(span.field, span.basis, prev.basis)
        assert series[-1].dim == 0


# ---------------------------------------------------------------------------
# quotients: the structure checks quotient_span no longer runs
# ---------------------------------------------------------------------------

def quotient_cases():
    """Every floor of the U_4 and U_5 lower central series, and Heisenberg
    modulo its centre, over Q and Q(sqrt2)."""
    for field in (QQ, sqrt2_field()):
        for n in (4, 5):
            group = full_unipotent_span(n, field)
            for ideal in lower_central_series(group):
                yield group, ideal
        heis = heisenberg_span(field)
        yield heis, lower_central_series(heis)[1]


def matrix_hom_rule(source, target, images):
    """The check LieHom ran on matrices, written out: every image lies in
    the target span, then hom([b_i, b_j]) == [image_i, image_j] for each
    basis pair i < j in order.  Returns "ok" or the message."""
    for img in images:
        if not target.contains(img):
            return "a basis image lies outside the target span"
    for i, j in combinations(range(source.dim), 2):
        coords = source.coordinates(source.basis[i].bracket(source.basis[j]))
        lhs = NilMatrix.zero(target.ring, target.n)
        for c, img in zip(coords, images):
            lhs = lhs + img.scale(c.constant_value())
        if lhs != images[i].bracket(images[j]):
            return "images do not preserve the bracket (basis pair %d, %d)" % (i, j)
    return "ok"


def coordinate_hom_rule(source, target, images):
    try:
        LieHom(source, target, images)
    except InputError as exc:
        return str(exc)
    return "ok"


def test_quotients_pass_the_checks_quotient_span_skips():
    floors = 0
    for group, ideal in quotient_cases():
        quot, proj = quotient_span(group, ideal)
        seeded = quot.table
        fresh = LieSpan(quot.basis, n=quot.n, field=quot.field, check=True)
        assert fresh.table.struct == seeded.struct
        checked = LieHom(group, quot, proj.images, check=True)
        assert checked.image_coords == proj.image_coords
        assert matrix_hom_rule(group, quot, proj.images) == "ok"
        if 0 < ideal.dim < group.dim:
            floors += 1
            assert seeded._class is not None        # seeded, not computed
        rebuilt = nilpotent_module.LieTable(quot.field, quot.dim, seeded.struct)
        assert seeded.nilpotency_class == rebuilt.nilpotency_class
    assert floors == 2 * (2 + 3 + 1)


def random_images(rng, source, target):
    """Basis images for a candidate hom from source to target: the zero
    map, the identity, images on one line, or random combinations of the
    target basis; sometimes one image is then moved by an elementary
    matrix, which for a non-full target may leave it."""
    ring, field = target.ring, target.field
    zero = NilMatrix.zero(ring, target.n)

    def combination(density):
        return target.from_coordinates([rand_scalar(rng, field) if rng.random() < density
                                        else field.zero for _ in range(target.dim)])

    kind = rng.choice(("zero", "identity", "line", "random", "random"))
    if kind == "identity" and source is target:
        images = list(target.basis)
    elif kind == "zero":
        images = [zero] * source.dim
    elif kind == "line":
        v = combination(0.7)
        images = [v.scale(rand_scalar(rng, field)) if rng.random() < 0.6 else zero
                  for _ in range(source.dim)]
    else:
        images = [combination(rng.choice((0.2, 0.5, 1.0))) for _ in range(source.dim)]
    if rng.random() < 0.25:
        i, j = sorted(rng.sample(range(target.n), 2))
        k = rng.randrange(source.dim)
        images[k] = images[k] + NilMatrix.from_entries(ring, target.n, {(i, j): 1})
    return images


@pytest.mark.parametrize("field", [QQ, sqrt2_field()], ids=["Q", "Q(sqrt2)"])
def test_coordinate_hom_check_matches_the_matrix_rule(field):
    rng = random.Random(625)
    ut4 = full_unipotent_span(4, field)
    spans = [heisenberg_span(field), abelian3_span(field)]
    spans += [quotient_span(ut4, ideal)[0] for ideal in lower_central_series(ut4)[1:3]]
    seen = set()
    for source in spans:
        for target in spans:
            for _ in range(8):
                images = random_images(rng, source, target)
                want = matrix_hom_rule(source, target, images)
                assert coordinate_hom_rule(source, target, images) == want
                seen.add(want)
    assert "ok" in seen
    assert "a basis image lies outside the target span" in seen
    pairs = [m for m in seen if m.startswith("images do not preserve")]
    assert len(pairs) > 3        # rejections at several different pairs


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


# ---------------------------------------------------------------------------
# triangular row kernels against the dense loops they replace
# ---------------------------------------------------------------------------

def dense_matmul(a, b, ring):
    n = len(a)
    z = ring.zero()
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(n):
            acc = z
            for k in range(n):
                x = ai[k]
                if not x.is_zero:
                    y = b[k][j]
                    if not y.is_zero:
                        acc = acc + x * y
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def dense_add_rows(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def dense_sub_rows(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def dense_scale_rows(rows, s):
    return tuple(tuple(x * s for x in row) for row in rows)


class BelowDiagonal:
    """Stands in for an entry on or below the diagonal of a triangular
    input, which its kind fixes, so the product must never read it."""

    @property
    def is_zero(self):
        raise AssertionError("a kernel read an entry on or below the diagonal")

    nums = is_zero


def below_diagonal_unreadable(rows):
    return tuple(tuple(BelowDiagonal() if j <= i else x for j, x in enumerate(row))
                 for i, row in enumerate(rows))


KERNEL_FIELDS = {"Q": QQ, "Q(sqrt2)": sqrt2_field()}
DENSITIES = (0.05, 0.2, 0.5, 1.0)


def rand_entry(rng, ring, density):
    """Zero with probability 1 - density, else a constant or (for q > 0)
    a polynomial of degree at most 1 in the simplex coordinates."""
    if rng.random() >= density:
        return ring.zero()
    p = ring.constant(rand_scalar(rng, ring.field))
    for v in range(ring.q):
        if rng.random() < 0.5:
            p = p + ring.coordinate(v).scale(rand_scalar(rng, ring.field))
    return p


def rand_upper_rows(rng, ring, n, density, diagonal):
    """Upper triangular rows; the diagonal is 0, 1 or random entries."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j < i or (j == i and diagonal == "zero"):
                row.append(ring.zero())
            elif j == i and diagonal == "one":
                row.append(ring.one())
            else:
                row.append(rand_entry(rng, ring, density))
        rows.append(tuple(row))
    return tuple(rows)


def kernel_cases(rng, field):
    """(ring, n, density, diagonal) over sizes 1..12, every density, and
    simplex dimensions 0..2."""
    for n in range(1, 13):
        for density in DENSITIES:
            ring = PolyRing(field, rng.randrange(3))
            yield ring, n, density, rng.choice(("zero", "one", "random"))


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_sparse_matmul_matches_dense(name):
    """Two strictly upper or two unit upper factors, the two kinds the
    triangular product takes."""
    rng = random.Random(621)
    for ring, n, density, _ in kernel_cases(rng, KERNEL_FIELDS[name]):
        for unit, diagonal in ((False, "zero"), (True, "one")):
            a = rand_upper_rows(rng, ring, n, density, diagonal)
            b = rand_upper_rows(rng, ring, n, density, diagonal)
            want = dense_matmul(a, b, ring)
            got = nilpotent_module._matmul(below_diagonal_unreadable(a),
                                           below_diagonal_unreadable(b), ring, unit=unit)
            assert got == want


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_sparse_row_sums_and_scaling_match_dense(name):
    field = KERNEL_FIELDS[name]
    rng = random.Random(622)
    for ring, n, density, diagonal in kernel_cases(rng, field):
        a = rand_upper_rows(rng, ring, n, density, diagonal)
        b = rand_upper_rows(rng, ring, n, density, rng.choice(("zero", "one", "random")))
        assert nilpotent_module._add_rows(a, b) == dense_add_rows(a, b)
        assert nilpotent_module._sub_rows(a, b) == dense_sub_rows(a, b)
        assert nilpotent_module._sub_rows(b, a) == dense_sub_rows(b, a)
        for s in (-1, Fraction(1, 3), 0, rand_scalar(rng, field), field.zero,
                  rand_entry(rng, ring, 1.0), ring.zero()):
            scaled = nilpotent_module._scale_rows(a, s)
            assert scaled == dense_scale_rows(a, s)
            assert all(y is x for ra, rs in zip(a, scaled) for x, y in zip(ra, rs)
                       if x.is_zero)


class AugmentedSolver:
    """The solver the echelon store replaced, written out as the reference.
    For independent columns b_1..b_m in field^E it brings [B | I_E] to
    reduced echelon form on the first m columns, which gives S with
    S B = [I_m; 0].  A solve reads the coordinates off the first m entries
    of S v and demands that the other E - m vanish; S is invertible, so
    that holds exactly when v lies in the column span."""

    def __init__(self, field, columns, length):
        zero, one = field.zero, field.one
        self.m, self.length = len(columns), length
        aug = [[c[r] for c in columns] + [one if r == s else zero for s in range(length)]
               for r in range(length)]
        pivot_row = 0
        for col in range(self.m):
            sel = next((r for r in range(pivot_row, length) if not aug[r][col].is_zero), None)
            if sel is None:
                raise InputError("the basis is linearly dependent")
            aug[pivot_row], aug[sel] = aug[sel], aug[pivot_row]
            inv = aug[pivot_row][col].inverse()
            aug[pivot_row] = [x * inv for x in aug[pivot_row]]
            pivot = [(i, y) for i, y in enumerate(aug[pivot_row]) if not y.is_zero]
            for r in range(length):
                f, row = aug[r][col], aug[r]
                if r != pivot_row and not f.is_zero:
                    for i, y in pivot:
                        row[i] = row[i] - f * y
            pivot_row += 1
        self.srows = [row[self.m:] for row in aug]

    def solve(self, vec, zero):
        nonzero = [(i, v) for i, v in enumerate(vec) if not v.is_zero]
        out = []
        for r, srow in enumerate(self.srows):
            acc = zero
            for i, v in nonzero:
                if not srow[i].is_zero:
                    acc = acc + v * srow[i]
            if r < self.m:
                out.append(acc)
            elif not acc.is_zero:
                raise MembershipError("vector lies outside the span")
        return out


def outcome(solve):
    try:
        return solve()
    except MembershipError:
        return "outside"


def solve_spans(field):
    """The spans of the solve test: U_4 with two subalgebras and two of its
    quotients, and the quotients of U_5 by its lower central series, the
    largest of them on 52 x 52 matrices."""
    ut4, ut5 = full_unipotent_span(4, field), full_unipotent_span(5, field)
    spans = [ut4, heisenberg_span(field), abelian3_span(field),
             lower_central_series(ut4)[1]]
    spans += [quotient_span(ut4, ideal)[0] for ideal in lower_central_series(ut4)[1:3]]
    spans += [quotient_span(ut5, ideal)[0] for ideal in lower_central_series(ut5)[1:4]]
    return spans


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_sparse_solve_matches_dense(name):
    field = KERNEL_FIELDS[name]
    rng = random.Random(623)
    constants = PolyRing(field, 0)
    outside = 0
    for span in solve_spans(field):
        length = span.n * (span.n - 1) // 2
        ref = AugmentedSolver(field, [[e.constant_value() for e in b.strict_upper()]
                                      for b in span.basis], length)
        # sparse vectors on the large quotients keep the reference's dense walk short
        for density in DENSITIES if length < 100 else DENSITIES[:2]:
            ring = PolyRing(field, rng.randrange(3))
            coords = [rand_entry(rng, ring, density) for _ in range(span.dim)]
            inside = span.from_coordinates(coords, ring)
            other = NilMatrix.from_entries(ring, span.n, {
                (i, j): rand_entry(rng, ring, density)
                for i in range(span.n) for j in range(i + 1, span.n)})
            scalars = tuple(rand_entry(rng, constants, density).constant_value()
                            for _ in range(length))
            for mat in (inside, other):
                want = outcome(lambda: ref.solve(mat.strict_upper(), ring.zero()))
                assert outcome(lambda: span.coordinates(mat)) == want
                outside += want == "outside"
            want = outcome(lambda: ref.solve(scalars, field.zero))
            assert outcome(lambda: span._echelon.solve(scalars, field.zero)) == want
            outside += want == "outside"
            assert span.coordinates(inside) == coords
    assert outside > 0           # the random vectors reach the MembershipError path


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_echelon_add_matches_augmented_rank(name):
    """add keeps a vector exactly when the reference still finds the kept
    vectors plus it independent, and the kept vectors then solve like the
    reference built on them."""
    field = KERNEL_FIELDS[name]
    rng = random.Random(624)
    for length in (1, 3, 6, 10):
        ech, kept, answers = nilpotent_module._Echelon(field), [], []
        for _ in range(2 * length):
            if kept and rng.random() < 0.4:
                # a combination of kept vectors, sometimes with a new entry
                vec = [field.zero] * length
                for v in rng.sample(kept, rng.randint(1, len(kept))):
                    c = rand_scalar(rng, field)
                    vec = [x + c * y for x, y in zip(vec, v)]
                if rng.random() < 0.3:
                    vec[rng.randrange(length)] += rand_scalar(rng, field)
            else:
                vec = [rand_entry(rng, PolyRing(field, 0), 0.4).constant_value()
                       for _ in range(length)]
            try:
                AugmentedSolver(field, kept + [vec], length)
                want = True
            except InputError:
                want = False
            got = ech.add(vec)
            assert got == want
            answers.append(got)
            if got:
                kept.append(vec)
        assert True in answers and False in answers
        ref = AugmentedSolver(field, kept, length)
        for vec in kept + [[rand_scalar(rng, field) for _ in range(length)]]:
            assert (outcome(lambda: ech.solve(vec, field.zero))
                    == outcome(lambda: ref.solve(vec, field.zero)))


# ---------------------------------------------------------------------------
# tower outputs on U_4 pinned to the dense kernels' output bytes
# ---------------------------------------------------------------------------

# sha256 digests of the JSON documents below, taken with the dense row
# kernels; the sparse kernels must reproduce them byte for byte
TOWER_DIGESTS = {
    "projected-0-q1": "e5f68f1432cb283f5f01c838cac1b213050ba2944597389893bbcc5f055b7973",
    "projected-0-q2": "0918f644c45878ff82fdc5edf3a8234869c70433e02237993368cf01d1e5f4a8",
    "projected-1-q1": "8bb92237c39ae440d518b6a6e0d923d0a6a36569dbfb1621f401d35c667bd9a3",
    "projected-1-q2": "cc6f13823d431a047e39161a1c20b8eec6b82b2a53e25ff40ec9913a38426f70",
    "projected-2-q1": "7ca3b3732b3a4d36406b7a3bafb8f3a4f7f04cb2b334979ed0321c2ea287fb9b",
    "projected-2-q2": "96c41edc176a575b318281a433e206f88376dbe5ec9d6f4f50ccfa9a79d8f6a7",
    "quotient-0": "a5a9e5d52fb64d449a6ff41d0dbfe46a8a1fa32390d1d636c9afe0ffa038fac6",
    "quotient-1": "1ed1fab7b3858564b42ecbcfcb447922f6c64822ea90aa00b105277a9e9db938",
    "quotient-2": "59c355fcc83e3dd1602afccd55a56da82281a8fddabe006503af03c4818eafa5",
    "report-q1": "7684b6e3241340eea9ff70d44ef76404773b62768743ac2f241cf60c30f70bf0",
    "report-q2": "7684b6e3241340eea9ff70d44ef76404773b62768743ac2f241cf60c30f70bf0",
    "wav-0-q1": "ec25fbfce98aa4b919637b9387afb6cf8ba4051e78e40b3e44e216e4a6170890",
    "wav-0-q2": "ed9ff454ddc4536a61782fabd244ce3e761f112e87e404eafc402931550599f2",
    "wav-1-q1": "b448da1d04958ac1cc43941355bdf6b9131a2810321edf94ccf76ca16a1775ec",
    "wav-1-q2": "9d24c37b4be06b9a3fcb1caa734164a567de04390def5dbcda90e8daa4a36698",
    "wav-2-q1": "57f4cb196f2d91e64d7815f457a17b93738c2846fd079d98832539afcbeba9e7",
    "wav-2-q2": "b9151c5690a6785967e0f6f2a4a7f3e87336fd47040ad900e55e0efc4513a7a4",
}


def tower_documents():
    """The quotient targets and basis projections for the three ideals of
    the lower central series of U_4, the projected tuples and their `wav`
    at q = 1 and q = 2, and the tower reports of those tuples."""
    ut4 = full_unipotent_span(4, QQ)
    ideals = lower_central_series(ut4)[1:]
    rng = random.Random(624)
    tuples = {q: rand_tuple(rng, ut4, q) for q in (1, 2)}
    docs = {}
    for k, ideal in enumerate(ideals):
        quot, proj = quotient_span(ut4, ideal)
        docs["quotient-%d" % k] = {"target": span_to_json(quot),
                                   "images": [matrix_to_json(m) for m in proj.images]}
        for q, t in tuples.items():
            projected = SectionTuple(quot, [apply_hom(proj, s) for s in t.sections])
            docs["projected-%d-q%d" % (k, q)] = tuple_to_json(projected)
            docs["wav-%d-q%d" % (k, q)] = matrix_to_json(wav(projected))
    for q, t in tuples.items():
        docs["report-q%d" % q] = tower_report_to_json(tower_compatibility(t, ideals))
    return docs


def tower_digests():
    return {key: hashlib.sha256(json.dumps(doc).encode()).hexdigest()
            for key, doc in tower_documents().items()}


def test_tower_outputs_are_byte_identical():
    assert tower_digests() == TOWER_DIGESTS
