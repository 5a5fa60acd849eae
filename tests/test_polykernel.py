"""Exact cross-check of the integer-numerator polynomial kernel against the
kernel it replaced, written out here as the reference: a polynomial is a
{exponent: ScalarValue} map with no zero coefficient, and every operation
is done in ScalarValue arithmetic.  Every rewritten operation must give
the same coefficients, and every result must be in canonical form."""

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from unipavg import (
    QQ,
    FieldAutomorphism,
    NilMatrix,
    PolyRing,
    RingMismatch,
    ScalarField,
    SectionTuple,
    SimplexMap,
    UniMatrix,
    WeightSeq,
    derived_series_length,
    embed_simplex,
    eval_at_weights,
    exp_nilpotent,
    extend_to_simplex,
    full_unipotent_span,
    permute_coordinates,
    serialize,
    substitute_simplex_map,
    wav,
)
from unipavg.fixtures import cubic_field, sqrt2_field
from unipavg.nilpotent import pull_back
from helpers import rand_fraction, rand_scalar


def half_field():
    """Q[x]/(x^2 - 1/2): its power table is not integral."""
    return ScalarField.extension("x", (Fraction(-1, 2), 0, 1))


def conjugate_field():
    """Q[x]/(x^2 + x/2 - 1): the conjugate root -1/2 - x has a coordinate
    off the integers, and so does x^2."""
    return ScalarField.extension("x", (-1, Fraction(1, 2), 1))


FIELDS = {"Q": QQ, "Q(sqrt2)": sqrt2_field(), "cubic": cubic_field(), "x^2-1/2": half_field(),
          "x^2+x/2-1": conjugate_field()}
# an automorphism other than the identity for each extension
GENERATOR_IMAGES = {"Q(sqrt2)": (0, -1), "cubic": (-2, 0, 1), "x^2-1/2": (0, -1),
                    "x^2+x/2-1": (Fraction(-1, 2), -1)}


# ---------------------------------------------------------------------------
# the reference kernel: {exponent: nonzero ScalarValue}
# ---------------------------------------------------------------------------

def ref_add_term(out, exp, coef):
    cur = out.get(exp)
    total = coef if cur is None else cur + coef
    if total.is_zero:
        out.pop(exp, None)
    else:
        out[exp] = total


def ref_add(a, b):
    out = dict(a)
    for exp, coef in b.items():
        ref_add_term(out, exp, coef)
    return out


def ref_neg(a):
    return {e: -c for e, c in a.items()}


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            ref_add_term(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def ref_scale(field, a, s):
    v = field.value(s)
    return {} if v.is_zero else {e: c * v for e, c in a.items()}


def ref_pow(ring, a, k):
    out = ref_constant(ring, 1)
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_constant(ring, x):
    v = ring.field.value(x)
    return {} if v.is_zero else {(0,) * ring.nvars: v}


def ref_coordinate(ring, j):
    one = ring.field.one
    unit = [(0,) * ring.nvars]
    for i in range(ring.q):
        exp = [0] * ring.nvars
        exp[i] = 1
        unit.append(tuple(exp))
    if ring.q == 0:
        return {unit[0]: one}
    if j < ring.q:
        return {unit[j + 1]: one}
    out = {unit[0]: one}
    for exp in unit[1:]:
        out[exp] = -one
    return out


def ref_poly(ring, raw):
    out = {}
    for exp, coef in raw.items():
        v = ring.field.value(coef)
        if not v.is_zero:
            ref_add_term(out, tuple(exp), v)
    return out


def ref_evaluate(ring, a, images):
    """a at a full list of variable images, which are reference polys."""
    total = {}
    for exp, coef in a.items():
        term = ref_constant(ring, coef)
        for v, e in enumerate(exp):
            for _ in range(e):
                term = ref_mul(term, images[v])
        total = ref_add(total, term)
    return total


def ref_substitute(ring, a, alpha):
    target = PolyRing(ring.field, alpha.p, ring.params)
    images = []
    for j in range(ring.q):
        img = {}
        for i in alpha.preimage(j):
            img = ref_add(img, ref_coordinate(target, i))
        images.append(img)
    for k in range(len(ring.params)):
        exp = [0] * target.nvars
        exp[alpha.p + k] = 1
        images.append({tuple(exp): ring.field.one})
    return ref_evaluate(target, a, images)


def ref_eval(field, a, values):
    acc = field.zero
    for exp, coef in a.items():
        v = coef
        for x, e in zip(values, exp):
            if e:
                v = v * x ** e
        acc = acc + v
    return acc


def ref_map(a, fn):
    out = {}
    for exp, coef in a.items():
        v = fn(coef)
        if not v.is_zero:
            out[exp] = v
    return out


def ref_poly_to_json(p):
    terms = dict(p.terms)
    return {"q": p.ring.q, "params": list(p.ring.params),
            "terms": [{"exp": list(e), "coef": serialize.scalar_to_json(terms[e])}
                      for e in sorted(terms, key=lambda e: (sum(e), e))]}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def assert_canonical(p):
    """One positive denominator, field.degree integer numerators per
    exponent, no zero vector, and the gcd of everything equal to 1."""
    ring = p.ring
    assert type(p.den) is int and p.den > 0
    flat = []
    for exp, vec in p.nums.items():
        assert len(exp) == ring.nvars and all(type(e) is int and e >= 0 for e in exp)
        assert len(vec) == ring.field.degree
        assert all(type(x) is int for x in vec)
        assert any(vec)
        flat.extend(vec)
    assert math.gcd(p.den, *flat) == 1
    if not p.nums:
        assert p.den == 1
    return p


def same(p, ref):
    """p is canonical and has exactly the reference coefficients."""
    assert_canonical(p)
    assert dict(p.terms) == ref
    return True


def rand_poly(rng, ring, nterms=None, max_exp=2):
    if nterms is None:
        nterms = rng.choice([0, 1, 1, 2, 3, 5])
    raw = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        raw[exp] = rand_scalar(rng, ring.field, -4, 4, rng.choice([1, 3, 6]))
    return ring.poly(raw)


def rings_for(field):
    return [PolyRing(field, q, params) for q in range(4) for params in ((), ("a",))]


CASES = [(name, ring) for name, field in FIELDS.items() for ring in rings_for(field)]
IDS = ["%s-q%d%s" % (name, ring.q, "-a" if ring.params else "") for name, ring in CASES]


# ---------------------------------------------------------------------------
# cross-checks, operation by operation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,ring", CASES, ids=IDS)
def test_ring_operations_match_reference(name, ring):
    rng = random.Random("%s/%d/%d" % (name, ring.q, len(ring.params)))
    field = ring.field
    polys = [rand_poly(rng, ring) for _ in range(10)]
    polys += [ring.zero(), ring.one(), ring.constant(Fraction(-3, 2)),
              rand_poly(rng, ring, nterms=1), rand_poly(rng, ring, nterms=6, max_exp=3)]
    for a in polys:
        ra = dict(a.terms)
        assert same(a, ra)
        assert same(-a, ref_neg(ra))
        for k in range(4):
            assert same(a ** k, ref_pow(ring, ra, k))
        scalars = [0, 1, -7, Fraction(3, 4), Fraction(-5, 6), rand_scalar(rng, field),
                   field.zero, field.value(Fraction(2, 9))]
        for s in scalars:
            assert same(a.scale(s), ref_scale(field, ra, s))
            assert same(a * s, ref_scale(field, ra, s))
        for b in polys[:8]:
            rb = dict(b.terms)
            assert same(a + b, ref_add(ra, rb))
            assert same(a - b, ref_add(ra, ref_neg(rb)))
            assert same(a * b, ref_mul(ra, rb))


@pytest.mark.parametrize("name,ring", CASES, ids=IDS)
def test_constructors_match_reference(name, ring):
    rng = random.Random("ctor/%s/%d/%d" % (name, ring.q, len(ring.params)))
    field = ring.field
    for x in [0, 5, Fraction(-7, 3), rand_scalar(rng, field), field.zero,
              [rand_fraction(rng) for _ in range(field.degree)]]:
        assert same(ring.constant(x), ref_constant(ring, x))
    for j in range(ring.q + 1):
        assert same(ring.coordinate(j), ref_coordinate(ring, j))
    for name_ in ring.params:
        assert same(ring.parameter(name_), ref_poly(ring, {
            tuple(int(k == ring.q) for k in range(ring.nvars)): 1}))
    for _ in range(6):
        raw = {}
        for _ in range(5):
            exp = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
            # zero coefficients, unreduced fractions and cancelling pairs
            raw[exp] = rng.choice([0, Fraction(2, 4), Fraction(-6, 9),
                                   rand_scalar(rng, field), field.zero])
        assert same(ring.poly(raw), ref_poly(ring, raw))
        if raw:
            exp, coef = next(iter(raw.items()))
            assert same(ring.poly(raw) - ring.poly({exp: coef}),
                        ref_poly(ring, {e: c for e, c in raw.items() if e != exp}))


@pytest.mark.parametrize("name,ring", CASES, ids=IDS)
def test_pullback_extension_and_evaluation_match_reference(name, ring):
    rng = random.Random("maps/%s/%d/%d" % (name, ring.q, len(ring.params)))
    field = ring.field
    polys = [rand_poly(rng, ring) for _ in range(4)] + [ring.zero(), ring.one()]
    maps = [SimplexMap(ring.q, v) for p in range(3)
            for v in combinations_with_replacement(range(ring.q + 1), p + 1)]
    for a in polys:
        ra = dict(a.terms)
        for alpha in maps:
            assert same(substitute_simplex_map(a, alpha), ref_substitute(ring, ra, alpha))
        for _ in range(3):
            raw = [rand_fraction(rng, 1, 5, 4) for _ in range(ring.q + 1)]
            weights = [w / sum(raw) for w in raw]
            if not field.is_rationals and ring.q:
                # weights off Q that still sum to 1
                shift = field.gen * rand_fraction(rng)
                weights = [field.value(w) for w in weights]
                weights[0], weights[-1] = weights[0] + shift, weights[-1] - shift
            pv = {n: rand_scalar(rng, field) for n in ring.params}
            values = [field.value(w) for w in weights[:ring.q]] + [pv[n] for n in ring.params]
            assert eval_at_weights(a, weights, pv) == ref_eval(field, ra, values)
        if ring.q == 0:
            for q in range(1, 4):
                ext = extend_to_simplex(a, q)
                assert same(ext, {(0,) * q + e: c for e, c in ra.items()})
                target = PolyRing(field, q, ring.params)
                assert extend_to_simplex(a, q, target).ring is target
                with pytest.raises(RingMismatch):
                    extend_to_simplex(a, q, PolyRing(field, q, ring.params + ("z",)))


@pytest.mark.parametrize("field", [QQ, sqrt2_field()], ids=["Q", "Q(sqrt2)"])
def test_permute_coordinates_matches_reference_on_every_permutation(field):
    """t_j -> t_{perm[j]} through the pullback kernel, against evaluation
    at the image coordinates (t_q's image is 1 - t_0 - ... - t_{q-1}),
    over p's own ring."""
    rng = random.Random("perm/%d" % field.degree)
    for q in range(4):
        for ring in (PolyRing(field, q), PolyRing(field, q, ("a",))):
            polys = [rand_poly(rng, ring) for _ in range(4)] + [ring.zero(), ring.one()]
            params = [{tuple(int(v == q + k) for v in range(ring.nvars)): field.one}
                      for k in range(len(ring.params))]
            for perm in permutations(range(q + 1)):
                images = [ref_coordinate(ring, perm[j]) for j in range(q)] + params
                for a in polys:
                    got = permute_coordinates(a, perm)
                    assert got.ring is ring
                    assert same(got, ref_evaluate(ring, dict(a.terms), images)), (perm, a)


@pytest.mark.parametrize("name,ring", CASES, ids=IDS)
def test_coefficient_maps_and_galois_match_reference(name, ring):
    rng = random.Random("galois/%s/%d/%d" % (name, ring.q, len(ring.params)))
    field = ring.field
    polys = [rand_poly(rng, ring) for _ in range(6)] + [ring.zero()]
    half = Fraction(1, 2)
    fns = [lambda c: c * c - half, lambda c: field.zero if c.is_rational else c]
    if name in GENERATOR_IMAGES:
        sigma = FieldAutomorphism(field, GENERATOR_IMAGES[name])
        fns.append(sigma.apply_value)
    for a in polys:
        ra = dict(a.terms)
        for fn in fns:
            assert same(a.map_coefficients(fn), ref_map(ra, fn))
        if name in GENERATOR_IMAGES:
            assert same(sigma(a), ref_map(ra, sigma.apply_value))


@pytest.mark.parametrize("name,ring", CASES, ids=IDS)
def test_json_matches_reference(name, ring):
    rng = random.Random("json/%s/%d/%d" % (name, ring.q, len(ring.params)))
    field = ring.field
    for a in [rand_poly(rng, ring) for _ in range(6)] + [ring.zero()]:
        doc = serialize.poly_to_json(a)
        assert doc == ref_poly_to_json(a)
        assert same(serialize.poly_from_json(field, doc), dict(a.terms))
    # repeated exponents, unreduced and negative denominators, zero sums
    exp = (1,) * ring.nvars
    doc = {"q": ring.q, "params": list(ring.params), "terms": [
        {"exp": list(exp), "coef": {"num": 2, "den": -4}},
        {"exp": list(exp), "coef": serialize.scalar_to_json(field.value(Fraction(1, 2)))},
        {"exp": [0] * ring.nvars, "coef": {"num": 6, "den": 4}},
        {"exp": [0] * ring.nvars, "coef": 2}]}
    assert same(serialize.poly_from_json(field, doc),
                ref_poly(ring, {(0,) * ring.nvars: Fraction(7, 2)}))


# ---------------------------------------------------------------------------
# equality, hashing, rings and the documented output
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FIELDS))
def test_hash_agrees_with_equality(name):
    field = FIELDS[name]
    rng = random.Random("hash/" + name)
    ring, twin = PolyRing(field, 2, ("a",)), PolyRing(field, 2, ("a",))
    for _ in range(20):
        a, b = rand_poly(rng, ring), rand_poly(rng, ring)
        pairs = [(a * b, b * a), ((a + b) - b, a), (a.scale(Fraction(2, 3)) * 3, a + a),
                 (twin.poly(dict(a.terms)), a)]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
        if a != b:
            assert dict(a.terms) != dict(b.terms)
    assert ring.constant(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(ring.zero()) == hash(twin.poly({(1, 0, 0): 0}))


def test_terms_is_a_read_only_scalar_mapping():
    field = half_field()
    ring = PolyRing(field, 1)
    p = ring.coordinate(0).scale(field.gen) + ring.constant(Fraction(1, 3))
    terms = p.terms
    assert len(terms) == 2 and set(terms) == {(0,), (1,)}
    assert terms[(1,)] == field.gen and terms[(0,)] == field.value(Fraction(1, 3))
    with pytest.raises(TypeError):
        terms[(2,)] = field.one
    assert repr(p) == "1/3 + x*t0"


def test_ring_mismatch_still_raises():
    ring = PolyRing(QQ, 1)
    a = ring.coordinate(0)
    assert a + PolyRing(QQ, 1).one() == ring.coordinate(0) + 1
    for other in (PolyRing(QQ, 2).one(), PolyRing(QQ, 1, ("a",)).one(),
                  PolyRing(sqrt2_field(), 1).one()):
        for op in (lambda x, y: x + y, lambda x, y: x * y, lambda x, y: x - y):
            with pytest.raises(RingMismatch):
                op(a, other)
    with pytest.raises(RingMismatch):
        a.scale(sqrt2_field().gen)
    with pytest.raises(RingMismatch):
        QQ.one * sqrt2_field().one
    other = PolyRing(sqrt2_field(), 1)
    with pytest.raises(RingMismatch):
        NilMatrix.zero(ring, 2) + NilMatrix.zero(other, 2)
    with pytest.raises(RingMismatch):
        UniMatrix.identity(ring, 2) * UniMatrix.identity(other, 2)
    with pytest.raises(RingMismatch):
        full_unipotent_span(2, QQ).coordinates(NilMatrix.zero(other, 2))


def test_lifted_and_pulled_back_matrices_share_one_ring():
    rng = random.Random(5201)
    span = full_unipotent_span(4, QQ)
    pts = [exp_nilpotent(span.from_coordinates([rand_fraction(rng) for _ in range(span.dim)]))
           for _ in range(3)]
    lifted = embed_simplex(pts[0], 2)
    assert all(e.ring is lifted.ring for row in lifted.rows for e in row)
    avg = wav(SectionTuple(span, pts))
    assert all(e.ring is avg.ring for row in avg.rows for e in row)
    alpha = SimplexMap.codegeneracy(2, 1)
    back = pull_back(avg, alpha)
    assert back.ring is alpha._plan(avg.ring)[1]
    assert all(e.ring is back.ring for row in back.rows for e in row)


def test_averaging_compares_rings_and_fields_by_identity(monkeypatch):
    """A wav of a read tuple compares no two distinct ring or field objects
    inside the averaging core."""
    rng = random.Random(5202)
    span = full_unipotent_span(5, QQ)
    pts = [exp_nilpotent(span.from_coordinates([rand_fraction(rng) for _ in range(span.dim)]))
           for _ in range(4)]
    t = serialize.tuple_from_json(serialize.tuple_to_json(SectionTuple(span, pts)))
    distinct = []
    for cls in (PolyRing, ScalarField):
        original = cls.__eq__

        def counting(self, other, original=original):
            if self is not other:
                distinct.append((self, other))
            return original(self, other)
        monkeypatch.setattr(cls, "__eq__", counting)
    derived_series_length(t.group)      # its cached spans are built outside the core
    del distinct[:]
    result = wav(t)
    assert distinct == []
    assert result == wav(SectionTuple(span, pts))


def test_readme_quick_start_output():
    G = full_unipotent_span(3, QQ)
    ring = G.ring
    f0 = exp_nilpotent(NilMatrix.from_entries(ring, 3, {(0, 1): 1}))
    f1 = exp_nilpotent(NilMatrix.from_entries(ring, 3, {(1, 2): 2}))
    f2 = exp_nilpotent(NilMatrix.from_entries(ring, 3, {(0, 2): Fraction(1, 3)}))
    avg = wav(SectionTuple(G, [f0, f1, f2]))
    assert repr(avg.entry(0, 2)) == "1/3 + -1/3*t1 + -1/3*t0 + 1*t0*t1"
    w = WeightSeq(QQ, [Fraction(1, 3)] * 3)
    assert repr(eval_at_weights(avg.entry(0, 2), w.values)) == "2/9"
