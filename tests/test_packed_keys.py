"""A polynomial's exponent vectors are packed into one integer key each:
the bytes (total degree, e_0, ..., e_{nvars-1}) read big-endian.  The
kernel it replaced, which keyed numerator vectors by exponent tuples and
added them with map(add), is written out here as the reference; over Q
and Q(sqrt2), with and without a parameter, every fused sum of products
must give the same denominator and numerators.  The keys add as exponents
do, order terms as the JSON writer does, and bound the total degree by
MAX_DEGREE, which the library, the reader and the kernel enforce."""

import math
import random
from fractions import Fraction
from itertools import chain, permutations
from operator import add

import pytest

from unipavg import (
    QQ,
    InputError,
    PolyRing,
    SectionTuple,
    act_permutation,
    full_unipotent_span,
    permute_coordinates,
    serialize,
)
from unipavg import exactring
from unipavg.average import lift_w
from unipavg.exactring import MAX_DEGREE, _pack, _unpack, sum_of_products
from unipavg.fixtures import sqrt2_field
from helpers import rand_scalar, rand_tuple

FIELDS = {"Q": QQ, "Q(sqrt2)": sqrt2_field()}
RINGS = [(name, PolyRing(field, q, params)) for name, field in FIELDS.items()
         for q in (0, 1, 2, 3) for params in ((), ("a",))]
IDS = ["%s-q%d%s" % (name, ring.q, "-a" if ring.params else "") for name, ring in RINGS]


# ---------------------------------------------------------------------------
# the reference: numerator vectors keyed by exponent tuples
# ---------------------------------------------------------------------------

def tuple_layout(p):
    """(den, {exponent tuple: numerator vector}) of a polynomial."""
    return p.den, {_unpack(key, p.ring.nvars): vec for key, vec in p.nums.items()}


def tuple_sum_of_products(field, pairs):
    """sum_k x_k y_k in the tuple layout, for pairs of a polynomial and a
    polynomial or a rational scalar, as the replaced kernel formed it: one
    integer accumulation over the lcm of the pair denominators, over a
    number field one unreduced convolution per exponent, and one gcd."""
    work = []
    for x, y in pairs:
        xden, a = tuple_layout(x)
        if isinstance(y, (int, Fraction)):
            work.append((a, None, (y.numerator,), xden * y.denominator))
            continue
        yden, b = tuple_layout(y)
        if len(a) < len(b):
            a, b = b, a
        s = None
        if len(b) == 1:
            (e, v), = b.items()
            if not any(e):
                s = v
        work.append((a, b if s is None else None, s, xden * yden))
    den = math.lcm(*[w[3] for w in work])
    width = 2 * field.degree - 1
    conv = {}
    for a, b, s, pden in work:
        m = den // pden
        for ea, u in a.items():
            u = [m * x for x in u]
            products = ([(ea, s)] if b is None
                        else [(tuple(map(add, ea, eb)), v) for eb, v in b.items()])
            for e, v in products:
                c = conv.setdefault(e, [0] * width)
                for i, x in enumerate(u):
                    for j, z in enumerate(v):
                        c[i + j] += x * z
    nums = {}
    for e, c in conv.items():
        v = field._reduce(c) if field.degree > 1 else (c[0],)
        if any(v):
            nums[e] = v
    den *= field._xden if field.degree > 1 else 1
    if not nums:
        return 1, {}
    g = math.gcd(den, *chain.from_iterable(nums.values()))
    return den // g, {e: tuple(x // g for x in v) for e, v in nums.items()}


def rand_poly(rng, ring, nterms, max_exp=3):
    while True:
        p = ring.poly({tuple(rng.randint(0, max_exp) for _ in range(ring.nvars)):
                       rand_scalar(rng, ring.field, -4, 4, rng.choice([1, 2, 3, 6]))
                       for _ in range(nterms)})
        if not p.is_zero:
            return p


@pytest.mark.parametrize("name,ring", RINGS, ids=IDS)
def test_sums_of_products_match_the_tuple_key_kernel(name, ring):
    rng = random.Random("packed/%s/%d/%d" % (name, ring.q, len(ring.params)))
    for npairs in (1, 1, 2, 3, 5, 8):
        pairs = []
        for _ in range(npairs):
            x = rand_poly(rng, ring, rng.choice([1, 2, 4, 6]))
            y = (rng.choice([1, -3, Fraction(5, 6)]) if rng.random() < 0.25
                 else ring.constant(rand_scalar(rng, ring.field)) if rng.random() < 0.2
                 else rand_poly(rng, ring, rng.choice([1, 2, 3])))
            pairs.append((x, y))
        got = sum_of_products(ring, pairs)
        assert tuple_layout(got) == tuple_sum_of_products(ring.field, pairs)


# ---------------------------------------------------------------------------
# the keys
# ---------------------------------------------------------------------------

def test_keys_add_as_exponents_and_sort_as_the_writer_does():
    rng = random.Random(1801)
    for nvars in range(5):
        exps = {tuple(rng.randint(0, 9) for _ in range(nvars)) for _ in range(40)}
        for e in exps:
            assert _unpack(_pack(e), nvars) == e
            f = tuple(rng.randint(0, 9) for _ in range(nvars))
            assert _pack(e) + _pack(f) == _pack(tuple(map(add, e, f)))
        assert sorted(exps, key=lambda e: (sum(e), e)) == [
            _unpack(key, nvars) for key in sorted(map(_pack, exps))]
    ring = PolyRing(QQ, 2, ("a",))
    p = rand_poly(rng, ring, 12)
    assert [t["exp"] for t in serialize.poly_to_json(p)["terms"]] == sorted(
        (list(e) for e in p.terms), key=lambda e: (sum(e), e))


def test_terms_and_degree_read_the_keys():
    ring = PolyRing(QQ, 2, ("a",))
    p = ring.poly({(3, 0, 1): 2, (0, 0, 0): 1, (1, 1, 0): Fraction(1, 2)})
    assert len(p.terms) == 3 and set(p.terms) == {(3, 0, 1), (0, 0, 0), (1, 1, 0)}
    assert p.terms[(1, 1, 0)] == Fraction(1, 2) and p.total_degree() == 4
    for missing in [(1, 0, 0), (1, 1), (1, 1, 0, 0), (-1, 2, 0), ("x", 0, 0), 5]:
        assert missing not in p.terms
        with pytest.raises(KeyError):
            p.terms[missing]
    assert not p.is_constant and ring.constant(3).is_constant and ring.zero().is_constant
    assert repr(p) == "1 + 1/2*t0*t1 + 2*t0^3*a"


# ---------------------------------------------------------------------------
# the degree limit
# ---------------------------------------------------------------------------

def test_products_past_the_degree_limit_raise():
    ring = PolyRing(QQ, 1)
    p = ring.coordinate(0) * ring.coordinate(0) + 1
    with pytest.raises(InputError, match="exceeds the limit of 255"):
        p ** 200
    with pytest.raises(InputError, match="exceeds the limit of 255"):
        sum_of_products(ring, [(ring.one(), ring.one()), (p ** 127, p)])
    # the last squaring of a power is not formed, so degree 254 is reached
    top = p ** 127
    assert top.total_degree() == 254 and top.terms[(254,)] == 1
    assert (top * ring.coordinate(0)).total_degree() == MAX_DEGREE == 255


def test_the_library_refuses_exponents_past_the_limit():
    ring = PolyRing(QQ, 2)
    assert ring.poly({(200, 55): 1}).total_degree() == 255
    for exp in [(256, 0), (200, 56), (255, 255)]:
        with pytest.raises(InputError, match="above the limit of 255"):
            ring.poly({exp: 1})


# ---------------------------------------------------------------------------
# one pullback plan per permutation of a tuple
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
def test_act_permutation_matches_the_per_entry_path(field, monkeypatch):
    rng = random.Random(1802 + field.degree)
    plans = []
    original = exactring._pullback_plan
    monkeypatch.setattr(exactring, "_pullback_plan",
                        lambda *args: plans.append(1) or original(*args))
    for q in (1, 2, 3):
        for n in (3, 4):
            t = lift_w(rand_tuple(rng, full_unipotent_span(n, field), q))
            for perm in permutations(range(q + 1)):
                plans.clear()
                got = act_permutation(t, perm)
                assert len(plans) == 1
                moved = [None] * (q + 1)
                for i, s in enumerate(t.sections):
                    moved[perm[i]] = s.map_entries(lambda e: permute_coordinates(e, perm),
                                                   t.ring)
                want = SectionTuple(t.group, moved)
                assert got.sections == want.sections
                assert [repr(s) for s in got] == [repr(s) for s in want]
