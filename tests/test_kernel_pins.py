"""sha256 digests of CLI output bytes, taken before the integer-numerator
polynomial kernel replaced the ScalarValue-coefficient one.  The inputs
cover symbolic averages over Q and a cubic field, Galois descent, and
wsym/exp/log/bch on polynomial entries, with a parameter and over
Q[x]/(x^2 - 1/2), whose power table is not integral.  The number of
kernel calls per wav, and of brackets per Lie-coordinate product, is
pinned too: a deterministic operation count."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from unipavg import (
    QQ,
    NilMatrix,
    PolyRing,
    ScalarField,
    SectionTuple,
    exp_nilpotent,
    full_unipotent_span,
)
from unipavg import serialize
from unipavg.cli import main
from unipavg.fixtures import cubic_field, cubic_orbit, sqrt2_field, sqrt2_orbit
from helpers import rand_scalar, rand_tuple


def half_field():
    """Q[x]/(x^2 - 1/2): x^2 reduces to 1/2, not to an integer vector."""
    return ScalarField.extension("x", (Fraction(-1, 2), 0, 1))


def rand_entry(rng, ring, nterms=3, max_exp=2):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        terms[exp] = rand_scalar(rng, ring.field, -3, 3, 3)
    return ring.poly(terms)


def rand_nil(rng, ring, n):
    return NilMatrix.from_entries(ring, n, {(i, j): rand_entry(rng, ring)
                                            for i in range(n) for j in range(i + 1, n)})


def field_tuple(rng, field, n, q):
    """q + 1 constant points of U_n whose log coordinates use every
    coordinate of the field."""
    span = full_unipotent_span(n, field)
    return SectionTuple(span, [
        exp_nilpotent(span.from_coordinates([rand_scalar(rng, field, -2, 2, 2)
                                             for _ in range(span.dim)]))
        for _ in range(q + 1)])


def simplex_tuple(rng, field, n, q, params=()):
    span = full_unipotent_span(n, field)
    ring = PolyRing(field, q, params)
    return SectionTuple(span, [exp_nilpotent(rand_nil(rng, ring, n)) for _ in range(q + 1)])


def _matrix_doc(field, key, mat):
    return {"field": serialize.field_to_json(field), key: serialize.matrix_to_json(mat)}


def cases():
    out = {}
    out["wav-u5-q3-Q"] = (["wav"], serialize.tuple_to_json(
        rand_tuple(random.Random(5101), full_unipotent_span(5, QQ), 3)))
    out["wav-u4-q2-cubic"] = (["wav"], serialize.tuple_to_json(
        field_tuple(random.Random(5102), cubic_field(), 4, 2)))
    out["galois-sqrt2"] = (["galois"], serialize.orbit_to_json(sqrt2_orbit()))
    out["galois-cubic"] = (["galois"], serialize.orbit_to_json(cubic_orbit()))
    out["wsym-param-sqrt2"] = (["wsym"], serialize.tuple_to_json(
        simplex_tuple(random.Random(5103), sqrt2_field(), 3, 2, ("a",))))
    out["wsym-half"] = (["wsym"], serialize.tuple_to_json(
        simplex_tuple(random.Random(5104), half_field(), 3, 1)))
    rng = random.Random(5105)
    half = half_field()
    ring = PolyRing(half, 1)
    out["exp-half"] = (["exp"], _matrix_doc(half, "matrix", rand_nil(rng, ring, 4)))
    out["log-half"] = (["log"], _matrix_doc(
        half, "matrix", exp_nilpotent(rand_nil(rng, ring, 4))))
    pring = PolyRing(QQ, 2, ("a", "b"))
    out["exp-param"] = (["exp"], _matrix_doc(QQ, "matrix", rand_nil(rng, pring, 4)))
    out["bch-param"] = (["bch"], {"field": serialize.field_to_json(QQ),
                                  "a": serialize.matrix_to_json(rand_nil(rng, pring, 4)),
                                  "b": serialize.matrix_to_json(rand_nil(rng, pring, 4))})
    out["bch-half"] = (["bch"], {"field": serialize.field_to_json(half),
                                 "a": serialize.matrix_to_json(rand_nil(rng, ring, 3)),
                                 "b": serialize.matrix_to_json(rand_nil(rng, ring, 3))})
    return out


PINNED = {
    "bch-half": "c94bbc9f59e3ba1e9f4aa42074b3ed4489d8be3d78d6e2a0d550f47cdbd21c92",
    "bch-param": "61015e60584f0fcc14e89506bdbfcff0d9ce6bbbd47d0c7428648c6db32ab4bf",
    "exp-half": "90dada8dbd5a3ca7effd69af81769aa5c5d2b3933b603600daaa6e71ec58444e",
    "exp-param": "d7b602488b6df32bdf160eb7f789e5671f4375de2518339a4cf1e11692ed2dc8",
    "galois-cubic": "e7921ec01b85f9df507c61f937a995ec92436e463139e78306ec8abadb957dd2",
    "galois-sqrt2": "dcf078e60bad279d800acc084a1608e47a0e9b5a841c4654ef8ac154706b6488",
    "log-half": "ac1238a218abbcbe4c05c16e61f60487935c4253ad22ce9a8ced5da723c49136",
    "wav-u4-q2-cubic": "184ba316c2b13ae05e741629d13c9bd04d53568b8fa98d5e4f4d2597cc155cde",
    "wav-u5-q3-Q": "750c1db216419fe93aac4186907e26125803669c91e3dbac8f45508c8698d9bc",
    "wsym-half": "0a8ebb03cd3af5f46ca8af7db2fd90e88a1f3c1eef7aa9d7314ec4b2004202da",
    "wsym-param-sqrt2": "94d2da1a7dee03aca943d488616aded693c3a7327e782203d69d3cb923707262",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes_are_pinned(tmp_path, capsys, name):
    argv, doc = cases()[name]
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(doc))
    assert main(argv + ["--input", str(path)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED[name]


# sum_of_products calls per average on one tuple of each wav-symbolic
# benchmark class (n, q), drawn as the benchmark draws them: by the pass
# loop, which before the unit product, the back-substitution inverse and the
# lone terms times 1 made 247, 352, 279 and 425, and by `wav`, through the
# universal polynomial once it is built.  There f_0^{-1}, the logs, the
# brackets and Phi's sum are constant matrices and integer sums, so only
# the exp and the product on the simplex call the kernel (82, 125, 118 and
# 153 when every constant entry was a sum of products too, and 19, 19, 36
# and 36 while Phi's sum was one sum of products per entry)
KERNEL_CALLS = {(4, 3): 154, (4, 4): 219, (5, 2): 197, (5, 3): 291}
UNIVERSAL_KERNEL_CALLS = {(4, 3): 13, (4, 4): 13, (5, 2): 26, (5, 3): 26}

# integer-form operations per universal `wav` on fresh copies of the same
# tuples: integer sums (one per product and bracket, n - 2 per exp, log or
# inverse series, and one per t-monomial of Phi's coefficients), the q + 1
# points converted in once each, and no form converted out: Phi's sum
# builds each entry once from its monomials' sums.  Lifting each term of
# Phi onto the simplex made 20, 32, 14 and 24 sums and 9, 16, 4 and 9
# conversions out
INT_FORM_CALLS = {(4, 3): {"sum": 29, "in": 4, "out": 0},
                  (4, 4): {"sum": 46, "in": 5, "out": 0},
                  (5, 2): {"sum": 19, "in": 3, "out": 0},
                  (5, 3): {"sum": 33, "in": 4, "out": 0}}


def benchmark_tuples():
    from unipavg.fixtures import point_from_coordinates

    rng = random.Random(1812)
    for n, q in KERNEL_CALLS:
        span = full_unipotent_span(n, QQ)
        yield (n, q), SectionTuple(span, [point_from_coordinates(span, [
            Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))
            for _ in range(span.dim)]) for _ in range(q + 1)])


def count_kernel_calls(monkeypatch, average, t):
    from unipavg import average as average_module, exactring, nilpotent

    calls = []
    original = exactring.sum_of_products

    def counting(ring, pairs):
        calls.append(len(pairs))
        return original(ring, pairs)

    for module in (exactring, nilpotent, average_module):
        monkeypatch.setattr(module, "sum_of_products", counting)
    try:
        average(t)
    finally:
        monkeypatch.undo()
    return len(calls)


def test_kernel_calls_per_wav_are_pinned(monkeypatch):
    from unipavg.average import wav_by_passes

    for key, t in benchmark_tuples():
        assert count_kernel_calls(monkeypatch, wav_by_passes, t) == KERNEL_CALLS[key], key


def test_kernel_calls_per_universal_wav_are_pinned(monkeypatch):
    from unipavg import wav

    for key, t in benchmark_tuples():
        wav(t)          # builds the universal polynomial on first use
        assert count_kernel_calls(monkeypatch, wav, t) == UNIVERSAL_KERNEL_CALLS[key], key


def count_int_form_calls(monkeypatch, t):
    """The integer-form sums and conversions of one `wav` on a fresh copy
    of t, whose points hold no integer form yet."""
    from unipavg import UniMatrix, nilpotent, wav

    expected = wav(t)       # builds the universal polynomial on first use
    fresh = SectionTuple(t.group, [UniMatrix(s.ring, s.rows, check=False)
                                   for s in t.sections], check=False)
    calls = {"sum": 0, "in": 0, "out": 0}
    for name, attr in (("sum", "_int_sum"), ("in", "_int_from_rows"), ("out", "_int_rows")):
        def wrapper(*args, _name=name, _fn=getattr(nilpotent, attr)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(nilpotent, attr, wrapper)
    try:
        got = wav(fresh)
    finally:
        monkeypatch.undo()
    assert got == expected
    return calls


def test_integer_form_calls_per_universal_wav_are_pinned(monkeypatch):
    for key, t in benchmark_tuples():
        assert count_int_form_calls(monkeypatch, t) == INT_FORM_CALLS[key], key


# one `wav` through Lemma A's Phi = sum_j t_j e_j, on U_4 at q = 1 and on
# the Heisenberg group at q = 3: f_0^{-1}, the q logs and their sum (one
# integer sum per t-monomial, q + 1 of them) in the integer form, then the
# exp and the product on the simplex.  The lift and the pass loop made 35
# and 20 kernel calls and no integer-form sum; lifting each log onto the
# simplex made 19 and 8 kernel calls, 5 and 7 sums, and 1 and 3
# conversions out
LINEAR_CALLS = {"u4-q1": {"kernel": 13, "sum": 7, "in": 2, "out": 0},
                "heisenberg-q3": {"kernel": 5, "sum": 11, "in": 4, "out": 0}}


def linear_tuples():
    from unipavg.fixtures import heisenberg_span, point_from_coordinates

    rng = random.Random(1814)
    for name, span, q in (("u4-q1", full_unipotent_span(4, QQ), 1),
                          ("heisenberg-q3", heisenberg_span(QQ), 3)):
        yield name, SectionTuple(span, [point_from_coordinates(span, [
            Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))
            for _ in range(span.dim)]) for _ in range(q + 1)])


def test_kernel_calls_per_lemma_a_wav_are_pinned(monkeypatch):
    from unipavg import wav

    for name, t in linear_tuples():
        calls = dict(count_int_form_calls(monkeypatch, t),
                     kernel=count_kernel_calls(monkeypatch, wav, t))
        assert calls == LINEAR_CALLS[name], name


# kernel calls of one `rational_point`, on an orbit of each galois-descent
# benchmark class, through the pointwise average: one inverse (f_0^{-1}), q
# logs, one exp and one `eval_at_weights` per term of Phi (sum_j t_j e_j at
# q = 1, the four terms of Phi_{3,2} at q = 2); the averaged section is
# never built, so `eval_matrix_at_weights` is not reached
POINTWISE_CALLS = {
    "sqrt2-n5-q1": {"inverse": 1, "log": 1, "exp": 1, "eval": 1, "eval_matrix": 0},
    "cubic-n4-q2": {"inverse": 1, "log": 2, "exp": 1, "eval": 4, "eval_matrix": 0},
}


def benchmark_orbits():
    from unipavg import GaloisOrbit
    from test_symmetric_lift import conjugates, cubic_action, rand_point, sqrt2_action

    rng = random.Random(1813)
    for name, action, n, q in (("sqrt2-n5-q1", sqrt2_action(), 5, 1),
                               ("cubic-n4-q2", cubic_action(), 4, 2)):
        span = full_unipotent_span(n, action.field)
        points = conjugates(rand_point(rng, span), action.generators[0], q + 1)
        yield name, GaloisOrbit(span, action, points)


def test_pointwise_kernel_calls_per_rational_point_are_pinned(monkeypatch):
    from unipavg import UniMatrix, average as average_module, rational_point

    for name, orbit in benchmark_orbits():
        rational_point(orbit)       # builds the universal polynomial on first use
        calls = dict.fromkeys(POINTWISE_CALLS[name], 0)

        def counting(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        for key, owner, attr in (("inverse", UniMatrix, "inverse"),
                                 ("log", average_module, "log_unipotent"),
                                 ("exp", average_module, "exp_nilpotent"),
                                 ("eval", average_module, "eval_at_weights"),
                                 ("eval_matrix", average_module, "eval_matrix_at_weights")):
            monkeypatch.setattr(owner, attr, counting(key, getattr(owner, attr)))
        try:
            rational_point(orbit)
        finally:
            monkeypatch.undo()
        assert calls == POINTWISE_CALLS[name], name


# `LieTable.bracket` calls of one Lie-coordinate product on the table of the
# full U_{c+1}, of class c: one per Lyndon word that BCH's terms reach
# through standard factorization.  Right-nested words, one bracket per
# suffix, made 0, 1, 3, 5, 13, 29, 55 and 125
BCH_BRACKETS = {1: 0, 2: 1, 3: 3, 4: 4, 5: 12, 6: 17, 7: 39, 8: 56}


def test_brackets_per_coordinate_product_are_pinned(monkeypatch):
    from unipavg import LieTable

    rng = random.Random(1815)
    ring = PolyRing(QQ, 0)
    for c, expected in BCH_BRACKETS.items():
        span = full_unipotent_span(c + 1, QQ)
        table = span.table
        assert table.nilpotency_class == c
        x, y = ([ring.constant(rand_scalar(rng, QQ, -2, 2, 2)) for _ in range(span.dim)]
                for _ in range(2))
        calls = [0]

        def counting(self, *args, _fn=LieTable.bracket):
            calls[0] += 1
            return _fn(self, *args)

        monkeypatch.setattr(LieTable, "bracket", counting)
        try:
            table.mul(x, y)
        finally:
            monkeypatch.undo()
        assert calls[0] == expected, c
