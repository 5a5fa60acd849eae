"""The class rule that decides `wsym`'s one-component passes.

Lemma A: if the transition logs L_j = log(f_j f_0^{-1}) generate a Lie
algebra of class <= 2, every component of the pass equals
exp(sum_j t_j L_j) f_0.  Lemma B: if every transition lies in Gamma_m,
then after the pass every transition lies in Gamma_{3m}.  A tuple's
`depth` is such an m (1 when constructed, 3m after a full pass), and a
pass computes one component exactly when q = 1 or 3m exceeds the
nilpotency class c.  So pass k (the lift is pass 0) leaves every
transition log in gamma_{3^(k+1)}, checked here by exact membership in the
lower central series along `wav_by_passes` (`wav` itself takes no pass
where it averages through the universal polynomial), and every pass is
compared with the pass written out in full (`full_pass`).
"""

import random

import pytest

from unipavg import (
    QQ,
    NilMatrix,
    PolyRing,
    SectionTuple,
    UniMatrix,
    embed_simplex,
    full_unipotent_span,
    lift_w,
    log_unipotent,
    lower_central_series,
    quotient_span,
    wav,
    wsym,
)
from unipavg import average as average_module
from unipavg import nilpotent as nilpotent_module
from unipavg.average import CoordinateTuple, wav_by_passes
from unipavg.fixtures import heisenberg_span, sqrt2_field
from helpers import rand_tuple
from test_commuting_pass import full_pass, rand_poly, rand_simplex_tuple
from test_linear_pass import is_linear

FIELDS = [QQ, sqrt2_field()]
FIELD_IDS = ["Q", "Q(sqrt2)"]


def record_passes(monkeypatch):
    """Record (input, output) of every wsym pass, the lift's included."""
    passes = []
    real = average_module.wsym

    def recording(t):
        out = real(t)
        passes.append((t, out))
        return out

    monkeypatch.setattr(average_module, "wsym", recording)
    return passes


def term(series, m):
    """gamma_m from a lower central series listed down to zero."""
    return series[min(m, len(series)) - 1]


def matrix_logs(t):
    """log(f_j f_i^{-1}) for every pair i < j of a section tuple."""
    f = t.sections
    return [log_unipotent(f[j] * f[i].inverse())
            for i in range(len(f)) for j in range(i + 1, len(f))]


def coordinate_logs(t, span):
    """The same for a coordinate tuple, as matrices of span."""
    law, f = t.law, t.sections
    return [span.from_coordinates(law.mul(f[j], law.inverse(f[i])), t.ring)
            for i in range(len(f)) for j in range(i + 1, len(f))]


def check_lemma_b(passes, series, logs):
    """After pass k every transition log lies in gamma_{3^(k+1)} and in
    gamma_depth, depth claims no more than 3^(k+1), and a pass that leaves
    the components distinct records exactly that depth."""
    assert passes
    for k, (before, after) in enumerate(passes):
        assert list(after.sections) == full_pass(before), k
        bound = 3 ** (k + 1)
        assert after.depth <= bound
        if not after.is_constant_tuple():
            assert after.depth == bound
        for x in logs(after):
            assert term(series, bound).contains(x), (k, bound)
            assert term(series, after.depth).contains(x), (k, after.depth)


def groups(field):
    u5 = full_unipotent_span(5, field)
    out = [("U_%d" % n, full_unipotent_span(n, field)) for n in range(3, 10)]
    out.append(("Heisenberg", heisenberg_span(field)))
    out += [("gamma_%d(U_5)" % k, lower_central_series(u5)[k - 1]) for k in (2, 3)]
    return out


# ---------------------------------------------------------------------------
# (a) Lemma B along every wav
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_each_pass_leaves_transitions_in_gamma_3_to_the_k(monkeypatch, field):
    rng = random.Random(1401 + field.degree)
    for name, span in groups(field):
        series = lower_central_series(span)
        for q in (2, 3) if span.n < 7 else (2,):
            t = rand_tuple(rng, span, q, lo=-1, hi=1, max_den=2)
            passes = record_passes(monkeypatch)
            got = wav_by_passes(t)
            monkeypatch.undo()
            assert got == passes[-1][1].sections[0], (name, q)
            check_lemma_b(passes, series, matrix_logs)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_coordinate_passes_on_every_u4_floor(monkeypatch, field):
    rng = random.Random(1411 + field.degree)
    ut4 = full_unipotent_span(4, field)
    const = PolyRing(field, 0)
    for ideal in lower_central_series(ut4)[1:]:
        floor = quotient_span(ut4, ideal)[0]
        series = lower_central_series(floor)
        for q in (1, 2, 3):
            t = CoordinateTuple(floor.table, [[rand_poly(rng, const) for _ in range(floor.dim)]
                                              for _ in range(q + 1)], const)
            passes = record_passes(monkeypatch)
            wav_by_passes(t)
            monkeypatch.undo()
            check_lemma_b(passes, series, lambda t: coordinate_logs(t, floor))


# ---------------------------------------------------------------------------
# (b) the work of a one-component pass
# ---------------------------------------------------------------------------

def count_matrix_work(monkeypatch):
    counts = {"exp": 0, "inverse": 0, "bracket": 0}

    def counting(owner, name, key):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args: counts.__setitem__(key, counts[key] + 1) or real(*args))

    counting(average_module, "exp_nilpotent", "exp")
    counting(UniMatrix, "inverse", "inverse")
    counting(NilMatrix, "bracket", "bracket")
    return counts


def assert_one_component(monkeypatch, t):
    assert not is_linear(t)
    want = full_pass(t)
    counts = count_matrix_work(monkeypatch)
    got = wsym(t)
    monkeypatch.undo()
    assert counts == {"exp": 1, "inverse": 1, "bracket": 0}
    assert got.is_constant_tuple()
    assert list(got.sections) == want


@pytest.mark.parametrize("q", [2, 3])
def test_a_heisenberg_pass_is_one_component(monkeypatch, q):
    t = rand_simplex_tuple(random.Random(1421 + q), heisenberg_span(), q)
    assert t.depth == 1 and t.table.nilpotency_class == 2
    assert_one_component(monkeypatch, t)


@pytest.mark.parametrize("n", [7, 8])
def test_the_pass_after_the_lift_is_one_component(monkeypatch, n):
    span = full_unipotent_span(n, QQ)
    lifted = lift_w(rand_tuple(random.Random(1431 + n), span, 2, lo=-1, hi=1, max_den=1))
    assert not lifted.is_constant_tuple()
    assert lifted.depth == 3 and span.table.nilpotency_class == n - 1
    assert_one_component(monkeypatch, lifted)


def test_a_pass_on_the_class_2_floor_is_one_component(monkeypatch):
    """Each of the q+1 group products (q logs and the component) is a BCH
    product with one bracket at class 2; no other bracket is formed."""
    ut4 = full_unipotent_span(4, QQ)
    table = quotient_span(ut4, lower_central_series(ut4)[2])[0].table
    assert table.nilpotency_class == 2
    q = 2
    ring = PolyRing(QQ, q)
    rng = random.Random(1441)
    t = CoordinateTuple(table, [[rand_poly(rng, ring) for _ in range(table.dim)]
                                for _ in range(q + 1)], ring)
    want = full_pass(t)
    calls = []
    for name in ("mul", "bracket"):
        real = getattr(nilpotent_module.LieTable, name)
        monkeypatch.setattr(nilpotent_module.LieTable, name,
                            lambda self, *args, name=name, real=real:
                            calls.append(name) or real(self, *args))
    got = wsym(t)
    monkeypatch.undo()
    assert calls.count("mul") == calls.count("bracket") == q + 1
    assert got.is_constant_tuple()
    assert list(got.sections) == want


# ---------------------------------------------------------------------------
# (c) wav against the lift and full passes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [7, 8, 9])
def test_wav_equals_the_lift_and_full_passes(n):
    span = full_unipotent_span(n, QQ)
    t = rand_tuple(random.Random(1451 + n), span, 2, lo=-1, hi=1, max_den=1)
    cur = SectionTuple(span, [embed_simplex(s, 2) for s in t.sections])
    passes = 0
    while not cur.is_constant_tuple():
        cur = SectionTuple(span, full_pass(cur), check=False)
        passes += 1
    # the lift and one more pass: 9 > n - 1
    assert passes == 2
    assert wav(t) == cur.sections[0]
