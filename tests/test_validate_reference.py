"""Exact cross-check of `validate_simplicial_section` against the validator
it replaced, written out here as the reference: it pulls every datum back
along every coface and codegeneracy.  The library counts a coface check
that a passed codegeneracy check implies without its pullback, so on every
tampered document the two must still give the same report, or raise the
same exception."""

import pytest

from unipavg import (
    InputError,
    MembershipError,
    RingMismatch,
    SimplexMap,
    SimplicialSection,
    UniMatrix,
    build_simplicial_section,
    simplicial,
    validate_simplicial_section,
)
from unipavg.fixtures import cover_local_sections, six_point_cover
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


def built_section():
    span, local = cover_local_sections()
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


@pytest.mark.parametrize("max_q", range(MAX_Q + 1))
def test_the_untampered_section_passes_with_fewer_pullbacks(monkeypatch, max_q):
    """Every check is counted, but a coface d^i whose multi-index repeats at
    i - 1, i or at i, i + 1 needs no pullback: every codegeneracy check
    passed."""
    s = built_section()
    expect = outcome(lambda s: reference_validate(s, max_q), s)
    calls = []

    def counted(mat, alpha):
        calls.append(alpha)
        return pull_back(mat, alpha)

    monkeypatch.setattr(simplicial, "pull_back", counted)
    assert outcome(lambda s: validate_simplicial_section(s, max_q), s) == expect
    assert expect[1] is True
    degeneracies = sum((q + 1) * len(per_point) for q in range(max_q)
                       for per_point in s.levels[q].values())
    cofaces = sum(len(per_point) for q in range(1, max_q + 1)
                  for mi, per_point in s.levels[q].items() for i in range(q + 1)
                  if not any(0 <= j < q and mi[j] == mi[j + 1] for j in (i - 1, i)))
    assert len(calls) == degeneracies + cofaces
    assert [a.p > a.q for a in calls].count(True) == degeneracies
    if max_q == MAX_Q:
        assert (expect[2], len(calls)) == (416, 142)
