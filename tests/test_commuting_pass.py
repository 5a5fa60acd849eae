"""The one-component passes of `wsym`.

A pass computes f_0^{-1} and L_j = log(f_j f_0^{-1}) first.  Lemma A: when
the L_j generate a Lie algebra of class <= 2, BCH gives
sum_j t_j log(f_j f_k^{-1}) = S - L_k - [S, L_k]/2 with S = sum_j t_j L_j,
and BCH with L_k turns every component into exp(S) f_0.  Lemma B: when
every transition lies in Gamma_m, Lemma A holds modulo Gamma_{3m}, so after
the pass every transition lies in Gamma_{3m}.  The rule: with m the
tuple's depth, a pass computes one component when q = 1 or 3m exceeds
the nilpotency class; otherwise all q+1 components are.  Both branches are
compared here, component by component, with the pass written out in full:
every component from its own inverse and its own q logs.
"""

import random
from functools import reduce

import pytest

from unipavg import (
    QQ,
    NilMatrix,
    PolyRing,
    SectionTuple,
    UniMatrix,
    derived_series_length,
    embed_simplex,
    exp_nilpotent,
    full_unipotent_span,
    lift_w,
    lower_central_series,
    quotient_span,
    wav,
    wsym,
)
from unipavg import average as average_module
from unipavg import nilpotent as nilpotent_module
from unipavg.average import CoordinateTuple
from unipavg.fixtures import abelian3_span, heisenberg_span, sqrt2_field, strictness_witness
from helpers import rand_scalar, rand_tuple

FIELDS = [QQ, sqrt2_field()]
FIELD_IDS = ["Q", "Q(sqrt2)"]


def full_pass(t):
    """One symmetrization pass with no shortcut: for each i, f_i^{-1}, the q
    logs log(f_j f_i^{-1}), and exp(sum_{j != i} t_j log(f_j f_i^{-1})) f_i."""
    law, ring, f = t.law, t.ring, t.sections
    coords = [ring.coordinate(j) for j in range(t.q + 1)]
    out = []
    for i in range(t.q + 1):
        inverse = law.inverse(f[i])
        terms = [law.scale(law.log(law.mul(f[j], inverse)), coords[j])
                 for j in range(t.q + 1) if j != i]
        out.append(law.mul(law.exp(reduce(law.add, terms)), f[i]))
    return out


def assert_pass_matches(t):
    got = wsym(t)
    want = full_pass(t)
    assert len(got.sections) == len(want)
    for i, (a, b) in enumerate(zip(got.sections, want)):
        assert a == b, "component %d differs" % i
    return got


def rand_poly(rng, ring):
    """A random affine polynomial in the simplex coordinates, sometimes 0."""
    if rng.random() < 0.2:
        return ring.zero()
    p = ring.constant(rand_scalar(rng, ring.field, -2, 2, 2))
    for v in range(ring.q):
        if rng.random() < 0.5:
            p = p + ring.coordinate(v).scale(rand_scalar(rng, ring.field, -2, 2, 2))
    return p


def rand_simplex_tuple(rng, span, q):
    """q+1 random group elements over the q-simplex: exp of span elements
    whose coordinates are affine polynomials."""
    ring = PolyRing(span.field, q)
    return SectionTuple(span, [
        exp_nilpotent(span.from_coordinates([rand_poly(rng, ring) for _ in range(span.dim)],
                                            ring))
        for _ in range(q + 1)])


def groups(field):
    return [("U_3", full_unipotent_span(3, field)), ("U_4", full_unipotent_span(4, field)),
            ("U_5", full_unipotent_span(5, field)), ("Heisenberg", heisenberg_span(field)),
            ("abelian", abelian3_span(field))]


# ---------------------------------------------------------------------------
# both branches against the full pass
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_lifted_tuples_and_their_next_pass(field):
    rng = random.Random(1001 + field.degree)
    for name, span in groups(field):
        for q in range(1, 5 if span.n < 5 else 3):
            t = rand_tuple(rng, span, q)
            embedded = SectionTuple(span, [embed_simplex(s, q) for s in t.sections])
            lifted = lift_w(t)
            assert list(lifted.sections) == full_pass(embedded), (name, q)
            assert_pass_matches(lifted)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_random_tuples_over_the_simplex(field):
    rng = random.Random(1011 + field.degree)
    for name, span in groups(field):
        for q in range(1, 5 if span.n < 5 else 3):
            assert_pass_matches(rand_simplex_tuple(rng, span, q))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_strictness_witness_passes(field):
    t = strictness_witness(field)
    embedded = SectionTuple(t.group, [embed_simplex(s, t.q) for s in t.sections])
    first = assert_pass_matches(embedded)
    assert not first.is_constant_tuple()
    second = assert_pass_matches(first)
    assert second.is_constant_tuple()


def last_pair_witness(field, f0=None):
    """A q = 3 tuple over the simplex in U_4 whose logs L_j = log(f_j f_0^{-1})
    are e_03, e_01 and e_12 + e_23: the pairs (1, 2) and (1, 3) commute, since
    e_03 is central, and only the last pair (2, 3) does not.  The last two
    generate all of U_4, so the pass leaves the components distinct."""
    span = full_unipotent_span(4, field)
    ring = span.ring
    f0 = UniMatrix.identity(ring, 4) if f0 is None else f0
    logs = [NilMatrix.from_entries(ring, 4, entries)
            for entries in [{(0, 3): 1}, {(0, 1): 1}, {(1, 2): 1, (2, 3): 1}]]
    assert not logs[1].bracket(logs[2]).is_zero
    assert all(a.bracket(b).is_zero for a, b in [(logs[0], logs[1]), (logs[0], logs[2])])
    points = [f0] + [exp_nilpotent(x) * f0 for x in logs]
    return SectionTuple(span, [embed_simplex(p, 3) for p in points])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_only_the_last_pair_fails_to_commute(field):
    span = full_unipotent_span(4, field)
    shifted = exp_nilpotent(NilMatrix.from_entries(span.ring, 4, {(2, 3): 1, (0, 2): 2}))
    for f0 in (None, shifted):
        got = assert_pass_matches(last_pair_witness(field, f0))
        assert not got.is_constant_tuple()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_coordinate_tuples_on_every_floor_of_the_u4_tower(field):
    rng = random.Random(1021 + field.degree)
    ut4 = full_unipotent_span(4, field)
    tables = [ut4.table] + [quotient_span(ut4, ideal)[0].table
                            for ideal in lower_central_series(ut4)[1:]]
    for table in tables:
        for q in range(1, 5):
            ring = PolyRing(field, q)
            t = CoordinateTuple(table, [[rand_poly(rng, ring) for _ in range(table.dim)]
                                        for _ in range(q + 1)], ring)
            assert_pass_matches(t)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_wav_equals_the_full_pass_iteration(field):
    """wav against lift and derived-length passes, all of them full."""
    rng = random.Random(1031 + field.degree)
    cases = [rand_tuple(rng, span, q) for _, span in groups(field) for q in (1, 2)]
    cases.append(strictness_witness(field))
    for t in cases:
        cur = SectionTuple(t.group, [embed_simplex(s, t.q) for s in t.sections])
        cur = SectionTuple(t.group, full_pass(cur), check=False)
        for _ in range(derived_series_length(t.group)):
            cur = SectionTuple(t.group, full_pass(cur), check=False)
        assert cur.is_constant_tuple()
        assert wav(t) == cur.sections[0]


# ---------------------------------------------------------------------------
# the work a pass does
# ---------------------------------------------------------------------------

def count_calls(monkeypatch):
    """Count exp, log, inverse and group products while wsym runs."""
    counts = {"exp": 0, "log": 0, "inverse": 0, "mul": 0}

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(average_module, "exp_nilpotent",
                        counting("exp", average_module.exp_nilpotent))
    monkeypatch.setattr(average_module, "log_unipotent",
                        counting("log", average_module.log_unipotent))
    monkeypatch.setattr(UniMatrix, "inverse", counting("inverse", UniMatrix.inverse))
    monkeypatch.setattr(UniMatrix, "__mul__", counting("mul", UniMatrix.__mul__))
    return counts


@pytest.mark.parametrize("q", [1, 2, 3])
def test_a_commuting_pass_computes_one_component(monkeypatch, q):
    rng = random.Random(1041 + q)
    t = rand_simplex_tuple(rng, abelian3_span(), q)
    want = full_pass(t)
    counts = count_calls(monkeypatch)
    got = wsym(t)
    monkeypatch.undo()
    assert counts == {"exp": 1, "log": q, "inverse": 1, "mul": q + 1}
    assert list(got.sections) == want


def test_a_non_commuting_pass_reuses_the_first_row(monkeypatch):
    t = last_pair_witness(QQ)
    want = full_pass(t)
    counts = count_calls(monkeypatch)
    got = wsym(t)
    monkeypatch.undo()
    # q = 3: logs for the pairs i < j only, no inverse of the last section
    assert counts == {"exp": 4, "log": 6, "inverse": 3, "mul": 6 + 4}
    assert list(got.sections) == want


def test_the_table_law_takes_one_component_on_the_abelian_floor(monkeypatch):
    """A coordinate pass on the abelian floor (class 1 < 3) computes one
    component, chosen by the class rule with no bracket: q logs and one
    component make q + 1 group products."""
    rng = random.Random(1051)
    ut4 = full_unipotent_span(4, QQ)
    abelian_floor = quotient_span(ut4, lower_central_series(ut4)[1])[0].table
    ring = PolyRing(QQ, 2)
    t = CoordinateTuple(abelian_floor, [[rand_poly(rng, ring) for _ in range(3)]
                                        for _ in range(3)], ring)
    assert t.depth == 1 and abelian_floor.nilpotency_class == 1
    calls = []
    for name in ("mul", "bracket"):
        real = getattr(nilpotent_module.LieTable, name)
        monkeypatch.setattr(nilpotent_module.LieTable, name,
                            lambda self, *args, name=name, real=real:
                            calls.append(name) or real(self, *args))
    got = wsym(t)
    monkeypatch.undo()
    assert calls == ["mul"] * 3         # q = 2
    assert got.is_constant_tuple()
    assert list(got.sections) == full_pass(t)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_q1_wav_makes_one_pass(monkeypatch, n):
    rng = random.Random(1061 + n)
    t = rand_tuple(rng, full_unipotent_span(n, QQ), 1)
    assert t.sections[0] != t.sections[1]
    calls = []
    real = average_module.wsym
    monkeypatch.setattr(average_module, "wsym", lambda tup: calls.append(1) or real(tup))
    got = wav(t)
    monkeypatch.undo()
    assert len(calls) == 1
    embedded = SectionTuple(t.group, [embed_simplex(s, 1) for s in t.sections])
    assert got == full_pass(embedded)[0]
