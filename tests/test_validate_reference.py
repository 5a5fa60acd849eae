"""Exact cross-check of `validate_simplicial_section` against a reference
that pulls every datum back along every coface and codegeneracy.  The
library certifies a section that passes with one pullback per degenerate
datum and one per coface of each nondegenerate datum (a fresh build's
own degenerate data, still the objects it recorded, need none), and
pulls every generator back only for a section that fails; on every tampered document
the two must still give the same report, or raise the same exception."""

from itertools import combinations, combinations_with_replacement

import pytest

from unipavg import (
    QQ,
    InputError,
    MembershipError,
    RingMismatch,
    SimplexMap,
    SimplicialSection,
    UniMatrix,
    build_simplicial_section,
    serialize,
    simplicial,
    validate_simplicial_section,
)
from unipavg.fixtures import cover_local_sections, six_point_cover, sqrt2_field
from unipavg.nilpotent import pull_back
from unipavg.simplicial import ValidationReport, _reindex

MAX_Q = 3


def reference_validate(s, max_q=None):
    if max_q is None:
        max_q = s.max_q
    if max_q < 0:
        raise InputError("max_q must be nonnegative, got %d" % max_q)
    if max_q > s.max_q:
        raise InputError("levels are only populated up to q = %d" % s.max_q)
    cover = s.cover
    report = ValidationReport(ok=True, checks=0)

    def fail(**info):
        report.ok = False
        report.failures.append(info)

    for q in range(max_q + 1):
        level = s.levels.get(q)
        if level is None:
            fail(map=None, multi_index=None, point=None,
                 detail="level %d missing" % q)
            continue
        expected_indices = {mi for mi in cover.multi_indices(q) if cover.intersection(mi)}
        if set(level) != expected_indices:
            fail(map=None, multi_index=sorted(set(level) ^ expected_indices)[0],
                 point=None, detail="level %d indexes the wrong multi-indices" % q)
        for mi, per_point in level.items():
            pts = cover.intersection(mi)
            report.checks += 1
            if set(per_point) != set(pts):
                fail(map=None, multi_index=mi, point=None,
                     detail="datum not defined on exactly the intersection")
                continue
            for x, mat in per_point.items():
                report.checks += 1
                if not isinstance(mat, UniMatrix) or mat.ring.q != q:
                    fail(map=None, multi_index=mi, point=x,
                         detail="value is not a UniMatrix on the %d-simplex" % q)
                    continue
                try:
                    s.group.require_element(mat)
                except (MembershipError, RingMismatch):
                    fail(map=None, multi_index=mi, point=x,
                         detail="value lies outside the group")

    # condition (ii), every map pulled back
    maps = [(SimplexMap.coface(q, i), q, q - 1)
            for q in range(1, max_q + 1) for i in range(q + 1)]
    maps += [(SimplexMap.codegeneracy(q, i), q, q + 1)
             for q in range(max_q) for i in range(q + 1)]
    for alpha, q, p in maps:
        for mi, per_point in s.levels.get(q, {}).items():
            for x, mat in per_point.items():
                pulled = pull_back(mat, alpha)
                other = s.levels[p].get(_reindex(mi, alpha), {}).get(x)
                report.checks += 1
                if other is None:
                    fail(map=alpha.describe(), multi_index=mi, point=x,
                         detail="reindexed datum missing")
                elif pulled != other:
                    fail(map=alpha.describe(), multi_index=mi, point=x,
                         detail="pullback does not match reindexed datum")
    return report


def outcome(validate, s):
    try:
        report = validate(s)
    except Exception as exc:        # the comparison is of the exception itself
        return ("raised", type(exc), str(exc))
    return ("report", report.ok, report.checks, report.failures)


def built_section(field=QQ):
    span, local = cover_local_sections(field)
    return build_simplicial_section(six_point_cover(), local, span, max_q=MAX_Q)


def with_datum(s, q, mi, x, mat):
    """A copy of s whose datum at (mi, x) is mat, or deleted when mat is None."""
    levels = {k: dict(level) for k, level in s.levels.items()}
    per_point = levels[q][mi] = dict(levels[q][mi])
    if mat is None:
        del per_point[x]
    else:
        per_point[x] = mat
    return SimplicialSection(s.cover, s.group, levels, s.max_q)


def raised_coefficient(mat):
    """mat with the constant coefficient of its (0, 1) entry raised by 1."""
    rows = [list(row) for row in mat.rows]
    rows[0][1] = rows[0][1] + 1
    return UniMatrix(mat.ring, rows)


def raised_q(mat):
    """mat seen on the simplex one dimension up, along s^0."""
    return pull_back(mat, SimplexMap.codegeneracy(mat.ring.q, 0))


def test_every_tampered_datum_gets_the_reference_outcome():
    s = built_section()
    data = [(q, mi, x, mat) for q, level in s.levels.items()
            for mi, per_point in level.items() for x, mat in per_point.items()]
    kinds = {"report": 0, "raised": 0}
    for q, mi, x, mat in data:
        for tampered in (raised_coefficient(mat), None, raised_q(mat)):
            t = with_datum(s, q, mi, x, tampered)
            expect = outcome(reference_validate, t)
            assert outcome(validate_simplicial_section, t) == expect, (q, mi, x, tampered)
            assert expect[0] == "raised" or not expect[1]
            kinds[expect[0]] += 1
    # a raised q reaches a pullback whose map does not fit it
    assert kinds == {"report": 2 * len(data), "raised": len(data)} and len(data) == 74


def counted_pullbacks(monkeypatch, s, max_q):
    """The maps validate_simplicial_section(s, max_q) pulls back along,
    after checking that its outcome is the reference's, a pass."""
    expect = outcome(lambda s: reference_validate(s, max_q), s)
    calls = []

    def counted(mat, alpha):
        calls.append(alpha)
        return pull_back(mat, alpha)

    monkeypatch.setattr(simplicial, "pull_back", counted)
    assert outcome(lambda s: validate_simplicial_section(s, max_q), s) == expect
    monkeypatch.undo()
    assert expect[1] is True
    if max_q == MAX_Q:
        assert expect[2] == 416
    return calls


def pullback_counts(s, max_q):
    """The degenerate data and the cofaces of nondegenerate data at levels
    1 .. max_q, each counted once per point."""
    degenerate = sum(len(per_point) for q in range(max_q + 1)
                     for mi, per_point in s.levels[q].items() if len(set(mi)) < len(mi))
    cofaces = sum((q + 1) * len(per_point) for q in range(1, max_q + 1)
                  for mi, per_point in s.levels[q].items() if len(set(mi)) == len(mi))
    return degenerate, cofaces


@pytest.mark.parametrize("max_q", range(MAX_Q + 1))
def test_the_untampered_section_passes_with_fewer_pullbacks(monkeypatch, max_q):
    """Every generator check is counted, but a section fresh from the build
    is certified by one pullback per coface of each nondegenerate datum at
    a level q >= 1: each degenerate datum is the build's own pullback of
    its source, which is not pulled back again."""
    s = built_section()
    calls = counted_pullbacks(monkeypatch, s, max_q)
    _, cofaces = pullback_counts(s, max_q)
    assert len(calls) == cofaces == (0, 10, 13, 13)[max_q]
    assert not any(a.p > a.q for a in calls)


@pytest.mark.parametrize("max_q", range(MAX_Q + 1))
def test_a_section_read_back_passes_with_one_pullback_per_degenerate_datum(monkeypatch,
                                                                          max_q):
    """The same section read from its build document carries no record of
    the build, so it is certified by one pullback per degenerate datum,
    along its surjection, and one per coface of each nondegenerate datum
    at a level q >= 1."""
    built = built_section()
    s = serialize.simplicial_from_json(serialize.simplicial_to_json(built))
    calls = counted_pullbacks(monkeypatch, s, max_q)
    degenerate, cofaces = pullback_counts(s, max_q)
    assert len(calls) == degenerate + cofaces == (0, 20, 43, 71)[max_q]
    assert [a.p > a.q for a in calls].count(True) == degenerate


def degenerate_places(s):
    """(level, multi-index, point, distinct opens) of every degenerate
    datum of s."""
    return [(q, mi, x, tuple(sorted(set(mi)))) for q, level in s.levels.items()
            for mi, per_point in level.items() if len(set(mi)) < len(mi)
            for x in per_point]


def fresh_copy(mat):
    """An equal matrix that is a different object."""
    return UniMatrix(mat.ring, [list(row) for row in mat.rows])


@pytest.mark.parametrize("change", ["equal", "tampered"])
@pytest.mark.parametrize("where", ["datum", "source"])
def test_a_replaced_datum_or_source_of_a_build_gets_the_reference_outcome(monkeypatch,
                                                                          change, where):
    """A degenerate datum of a built section, or the nondegenerate datum
    it was pulled back from, replaced in place by an equal fresh object or
    by a tampered one: the build's record no longer names the objects
    stored, so (C2) is computed for that datum, and the outcome is the
    reference's."""
    places = degenerate_places(built_section())
    assert len(places) == 58
    # one place per (distinct opens, level) is enough to reach every
    # surjection the build used
    chosen = {(q, distinct): (q, mi, x, distinct) for q, mi, x, distinct in places}
    for q, mi, x, distinct in chosen.values():
        s = built_section()
        at = (len(distinct) - 1, distinct) if where == "source" else (q, mi)
        per_point = s.levels[at[0]][at[1]]
        old = per_point[x]
        per_point[x] = fresh_copy(old) if change == "equal" else raised_coefficient(old)
        expect = outcome(reference_validate, s)
        calls = []

        def counted(mat, alpha):
            calls.append((mat, alpha))
            return pull_back(mat, alpha)

        monkeypatch.setattr(simplicial, "pull_back", counted)
        assert outcome(validate_simplicial_section, s) == expect, (q, mi, x, where)
        monkeypatch.undo()
        assert expect[1] is (change == "equal")
        if change == "equal":
            # the replaced object's degenerate data were pulled back again
            sigma_calls = [mat for mat, alpha in calls if alpha.p > alpha.q]
            assert sigma_calls and all(
                mat is s.levels[len(distinct) - 1][distinct][x] for mat in sigma_calls)


def consistently_tampered(s, distinct, x):
    """A copy of s whose nondegenerate datum at (distinct, x) has a raised
    coefficient, and whose every degenerate datum over the same opens, at
    x, is that datum pulled back along its surjection.  Every degenerate
    datum is still the pullback of its nondegenerate one, so only a coface
    check can fail."""
    mat = raised_coefficient(s.levels[len(distinct) - 1][distinct][x])
    levels = {q: dict(level) for q, level in s.levels.items()}
    for q, level in levels.items():
        for mi in level:
            if set(mi) == set(distinct):
                sigma = SimplexMap(len(distinct) - 1, [distinct.index(i) for i in mi])
                level[mi] = dict(level[mi])
                level[mi][x] = pull_back(mat, sigma)
    return SimplicialSection(s.cover, s.group, levels, s.max_q)


@pytest.mark.parametrize("distinct", [(0, 1), (1,)])
def test_a_consistently_tampered_datum_fails_only_a_coface_check(distinct):
    t = consistently_tampered(built_section(), distinct, "d")
    expect = outcome(reference_validate, t)
    assert outcome(validate_simplicial_section, t) == expect
    assert expect[0] == "report" and expect[1] is False
    assert all(f["map"].startswith("d^") for f in expect[3])


def surjections(q, k):
    """Every order-preserving surjection [q] -> [k]."""
    return [SimplexMap(k, v) for v in combinations_with_replacement(range(k + 1), q + 1)
            if len(set(v)) == k + 1]


def generators(q):
    """The cofaces and codegeneracies into [q], up to level MAX_Q."""
    maps = [SimplexMap.coface(q, i) for i in range(q + 1)] if q else []
    if q < MAX_Q:
        maps += [SimplexMap.codegeneracy(q, j) for j in range(q + 1)]
    return maps


@pytest.mark.parametrize("field", [QQ, sqrt2_field()], ids=["Q", "Q(sqrt2)"])
def test_pullback_along_the_certificates_composites_is_functorial(field):
    """alpha* sigma* = (sigma alpha)* for a surjection sigma and a
    generator alpha, and tau* iota* = (iota tau)* for an injection iota
    and a surjection tau: the two factorizations the certificate uses."""
    s = built_section(field)
    pairs = [(sigma, alpha) for q in range(MAX_Q + 1) for k in range(q + 1)
             for sigma in surjections(q, k) for alpha in generators(q)]
    pairs += [(SimplexMap(k, iota), tau) for k in range(MAX_Q + 1) for l in range(k + 1)
              for iota in combinations(range(k + 1), l + 1)
              for p in range(l, MAX_Q + 1) for tau in surjections(p, l)]
    for beta, alpha in pairs:
        # a datum over the most distinct opens at its level, at the point
        # every open holds
        m = s.levels[beta.q][max(s.levels[beta.q], key=lambda mi: len(set(mi)))]["d"]
        assert pull_back(pull_back(m, beta), alpha) == pull_back(m, beta.compose(alpha)), (
            beta, alpha)
