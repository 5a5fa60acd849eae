"""Covers, glued simplicial sections, validation and quotient towers."""

import random
from fractions import Fraction

import pytest

from unipavg import (
    QQ,
    FiniteCover,
    InputError,
    LieSpan,
    LocalSection,
    NilMatrix,
    PolyRing,
    SectionTuple,
    UniMatrix,
    build_simplicial_section,
    exp_nilpotent,
    full_unipotent_span,
    lower_central_series,
    tower_compatibility,
    validate_simplicial_section,
    wav,
)
from unipavg.fixtures import (
    cover_local_sections,
    heisenberg_span,
    point_from_coordinates,
    six_point_cover,
)
from helpers import rand_tuple

R0 = PolyRing(QQ, 0)


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------

def test_cover_accessors():
    cover = six_point_cover()
    assert cover.m == 2
    assert cover.intersection((0, 1)) == ("c", "d")
    assert cover.intersection((0, 1, 2)) == ("d",)
    assert cover.intersection((2,)) == ("d", "e", "f")
    assert len(cover.multi_indices(1)) == 6     # C(3+1, 2)
    assert len(cover.multi_indices(2)) == 10


def test_cover_validation():
    with pytest.raises(InputError):
        FiniteCover(["a", "a"], [("a",)])
    with pytest.raises(InputError):
        FiniteCover(["a", "b"], [("a", "z")])
    with pytest.raises(InputError):
        FiniteCover(["a", "b"], [("a",)])       # b uncovered
    with pytest.raises(InputError):
        FiniteCover(["a"], [])
    with pytest.raises(InputError):
        FiniteCover(["a", "b"], [("a", "a", "b")])


def test_local_section_checks():
    span, locals_ = cover_local_sections()
    cover = six_point_cover()
    locals_[0].check_against(cover, span)
    missing = LocalSection(0, {k: v for k, v in locals_[0].values.items() if k != "a"})
    with pytest.raises(InputError):
        missing.check_against(cover, span)
    with pytest.raises(InputError):
        LocalSection(5, locals_[0].values).check_against(cover, span)


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------

def test_build_level_zero_restricts_to_inputs():
    cover = six_point_cover()
    span, locals_ = cover_local_sections()
    s = build_simplicial_section(cover, locals_, span, max_q=2)
    for ls in locals_:
        for x, val in ls.values.items():
            assert s.value((ls.open_index,), x) == val


def test_build_overlap_is_pairwise_average():
    cover = six_point_cover()
    span, locals_ = cover_local_sections()
    s = build_simplicial_section(cover, locals_, span, max_q=1)
    for x in ("c", "d"):
        pair = SectionTuple(span, [locals_[0].values[x], locals_[1].values[x]])
        assert s.value((0, 1), x) == wav(pair)


def test_build_skips_empty_intersections():
    cover = FiniteCover(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    span = heisenberg_span()
    vals = {lbl: point_from_coordinates(span, [k, 0, 1])
            for k, lbl in enumerate("abcd")}
    locals_ = [LocalSection(0, {k: vals[k] for k in ("a", "b")}),
               LocalSection(1, {k: vals[k] for k in ("c", "d")})]
    s = build_simplicial_section(cover, locals_, span, max_q=2)
    assert (0, 1) not in s.levels[1]
    rep = validate_simplicial_section(s)
    assert rep.ok


def test_build_requires_one_local_per_open():
    cover = six_point_cover()
    span, locals_ = cover_local_sections()
    with pytest.raises(InputError):
        build_simplicial_section(cover, locals_[:2], span)
    with pytest.raises(InputError):
        build_simplicial_section(cover, locals_ + [locals_[0]], span)
    dup = [locals_[0], LocalSection(0, locals_[1].values), locals_[2]]
    with pytest.raises(InputError):
        build_simplicial_section(cover, dup, span)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_built_section_validates():
    cover = six_point_cover()
    span, locals_ = cover_local_sections()
    s = build_simplicial_section(cover, locals_, span, max_q=2)
    rep = validate_simplicial_section(s)
    assert rep.ok
    assert rep.checks > 100
    assert rep.first_failure() is None
    assert rep.summary().startswith("pass")


def test_corrupted_value_is_caught_with_named_map():
    cover = six_point_cover()
    span, locals_ = cover_local_sections()
    s = build_simplicial_section(cover, locals_, span, max_q=2)
    # perturb one level-1 value
    bad = dict(s.levels[1])
    ring1 = PolyRing(QQ, 1)
    bump = exp_nilpotent(NilMatrix.from_entries(ring1, 3, {(0, 1): 1}))
    per_point = dict(bad[(0, 1)])
    per_point["c"] = per_point["c"] * bump
    bad[(0, 1)] = per_point
    levels = dict(s.levels)
    levels[1] = bad
    broken = type(s)(cover, span, levels, s.max_q)
    rep = validate_simplicial_section(broken)
    assert not rep.ok
    named = [f["map"] for f in rep.failures if f.get("map")]
    assert named, "expected at least one named violating map"
    assert all(m.startswith(("d^", "s^")) for m in named)
    assert rep.summary().startswith("FAIL")


def test_missing_point_fails_domain_condition():
    cover = six_point_cover()
    span, locals_ = cover_local_sections()
    s = build_simplicial_section(cover, locals_, span, max_q=1)
    levels = dict(s.levels)
    lvl0 = dict(levels[0])
    shrunk = dict(lvl0[(0,)])
    del shrunk["a"]
    lvl0[(0,)] = shrunk
    levels[0] = lvl0
    rep = validate_simplicial_section(type(s)(cover, span, levels, s.max_q))
    assert not rep.ok
    assert any("intersection" in f["detail"] for f in rep.failures)


def test_validate_beyond_populated_levels_rejected():
    cover = six_point_cover()
    span, locals_ = cover_local_sections()
    s = build_simplicial_section(cover, locals_, span, max_q=1)
    with pytest.raises(InputError):
        validate_simplicial_section(s, max_q=3)


def test_swapping_opens_permutes_the_glued_values():
    # relabelling the opens relabels multi-indices and permutes the
    # barycentric coordinates of each glued value
    from unipavg import permute_coordinates

    cover = six_point_cover()
    span, locals_ = cover_local_sections()
    s = build_simplicial_section(cover, locals_, span, max_q=1)

    swapped_cover = FiniteCover(cover.points,
                                [cover.opens[1], cover.opens[0], cover.opens[2]])
    relabel = {0: 1, 1: 0, 2: 2}
    swapped_locals = [LocalSection(relabel[ls.open_index], ls.values)
                      for ls in locals_]
    s2 = build_simplicial_section(swapped_cover, swapped_locals, span, max_q=1)
    # (0,1) in the swapped cover is (open 1, open 0) of the original
    for x in ("c", "d"):
        orig = s.value((0, 1), x)
        got = s2.value((0, 1), x)
        expect = orig.map_entries(lambda e: permute_coordinates(e, (1, 0)), orig.ring)
        assert got == expect


# ---------------------------------------------------------------------------
# towers of quotients
# ---------------------------------------------------------------------------

def elem(n, i, j):
    rows = [[R0.zero()] * n for _ in range(n)]
    rows[i][j] = R0.one()
    return NilMatrix(R0, rows)


def test_tower_over_central_series():
    rng = random.Random(501)
    ut4 = full_unipotent_span(4, QQ)
    chain = lower_central_series(ut4)[1:]    # strictly smaller ideals
    t = rand_tuple(rng, ut4, 1)
    rep = tower_compatibility(t, chain)
    assert rep.ok
    assert [lv["ideal_dim"] for lv in rep.levels] == [3, 1, 0]
    assert "pass" in rep.summary()


@pytest.mark.parametrize("n, qs", [(5, (1, 2)), (6, (1,))])
def test_tower_over_central_series_of_larger_groups(n, qs):
    rng = random.Random(506 + n)
    group = full_unipotent_span(n, QQ)
    chain = lower_central_series(group)[1:]
    for q in qs:
        rep = tower_compatibility(rand_tuple(rng, group, q), chain)
        assert rep.ok, rep.failures
        assert [lv["ideal_dim"] for lv in rep.levels] == [k * (k + 1) // 2
                                                         for k in range(n - 2, -1, -1)]
        assert "pass" in rep.summary()


def test_tower_heisenberg_center():
    rng = random.Random(502)
    heis = heisenberg_span()
    center = LieSpan([elem(3, 0, 2)], n=3, field=QQ)
    zero = LieSpan([], n=3, field=QQ)
    t = rand_tuple(rng, heis, 2)
    rep = tower_compatibility(t, [center, zero])
    assert rep.ok


def test_tower_rejects_non_descending_chain():
    rng = random.Random(503)
    ut4 = full_unipotent_span(4, QQ)
    series = lower_central_series(ut4)
    t = rand_tuple(rng, ut4, 1)
    with pytest.raises(InputError):
        tower_compatibility(t, [series[2], series[1]])


def test_tower_rejects_non_ideal():
    rng = random.Random(504)
    heis = heisenberg_span()
    not_ideal = LieSpan([elem(3, 0, 1)], n=3, field=QQ)
    t = rand_tuple(rng, heis, 1)
    with pytest.raises(InputError):
        tower_compatibility(t, [not_ideal])


def test_tower_requires_constant_tuple():
    rng = random.Random(505)
    heis = heisenberg_span()
    t = rand_tuple(rng, heis, 1)
    from unipavg import embed_simplex

    lifted = SectionTuple(heis, [embed_simplex(p, 1) for p in t.sections])
    with pytest.raises(InputError):
        tower_compatibility(lifted, [])
