"""serialize.poly_from_json reads coefficients as integer literals and
builds the canonical form with one lcm and one gcd reduction.  The reader
it replaced, which went through Fraction, field.value and ring.poly, is
written out here as the reference: on generated term lists over Q,
Q(sqrt2) and the cubic field the two give equal polynomials, or raise the
same exception class with the same message.  A grid of constant entries
in the common spellings is read straight into the integer form of
constant matrices; on every spelling, and on values that == takes for 1
or 0, it gives the general reader's matrix or error, builds no
polynomial, and leaves every other grid to the general reader.  A grid
with a nonconstant entry has its entries on and below the diagonal
compared with the writer's 0 and 1, not read; every respelling of them
gives the general reader's matrix or error."""

import json
import random
from fractions import Fraction
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipavg import QQ, NilMatrix, PolyRing, UniMatrix, serialize
from unipavg.errors import InputError
from unipavg.fixtures import cubic_field, sqrt2_field
from unipavg.serialize import (FormatError, _expect, fraction_from_json, nil_from_json,
                               poly_from_json, scalar_from_json, uni_from_json)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

FIELDS = [QQ, sqrt2_field(), cubic_field()]


# ---------------------------------------------------------------------------
# the replaced reader
# ---------------------------------------------------------------------------

def old_fraction_from_json(obj):
    if isinstance(obj, bool):
        raise FormatError("booleans are not numbers")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, dict) and set(obj) <= {"num", "den"}:
        num = _expect(obj.get("num", 0), int, "num")
        den = _expect(obj.get("den", 1), int, "den")
        if den == 0:
            raise FormatError("zero denominator")
        return Fraction(num, den)
    raise FormatError("expected an integer or a num/den object")


def old_scalar_from_json(field, obj):
    if isinstance(obj, dict) and "coords" in obj:
        coords = [old_fraction_from_json(c) for c in _expect(obj["coords"], list, "coords")]
        return field.value(coords)
    return field.value(old_fraction_from_json(obj))


def old_poly_from_json(field, obj):
    _expect(obj, dict, "polynomial")
    q = obj.get("q", 0)
    if type(q) is bool:          # a wrong type like 1.0 or "1", not a q of 0 or 1
        raise FormatError("expected int for q, got bool")
    q = _expect(q, int, "q")
    params = tuple(_expect(n, str, "parameter name")
                   for n in _expect(obj.get("params", []), list, "params"))
    ring = PolyRing(field, q, params)
    coords = {}
    for term in _expect(obj.get("terms", []), list, "terms"):
        _expect(term, dict, "term")
        exp = tuple(_expect(e, int, "exponent")
                    for e in _expect(term.get("exp"), list, "exp"))
        if len(exp) != ring.nvars:
            raise FormatError("exponent length %d, ring has %d variables"
                              % (len(exp), ring.nvars))
        coef = old_scalar_from_json(field, term.get("coef")).coords
        cur = coords.get(exp)
        coords[exp] = coef if cur is None else tuple(map(add, cur, coef))
    return ring.poly(coords)


def outcome(read, *args):
    try:
        return "value", read(*args)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


def assert_same_outcome(new, old):
    assert new[0] is old[0], (new, old)
    if new[0] == "value":
        a, b = new[1], old[1]
        assert a == b and a.ring == b.ring
        assert (a.den, a.nums) == (b.den, b.nums)
        assert all(type(x) is int for v in a.nums.values() for x in v)
        assert all(type(key) is int for key in a.nums)
        assert all(type(e) is int for exp in a.terms for e in exp)
    else:
        assert new[1] == old[1]


# ---------------------------------------------------------------------------
# generated documents
# ---------------------------------------------------------------------------

small = st.integers(-6, 6)
good_literal = (small | st.integers(-10 ** 30, 10 ** 30)
                | st.fixed_dictionaries({"num": small, "den": st.integers(-6, 6).filter(bool)})
                | st.fixed_dictionaries({"num": small}) | st.fixed_dictionaries({"den": small}))
bad_literal = st.sampled_from([True, False, None, 1.5, "1", [1],
                               {"num": 1, "den": 0}, {"num": "1"}, {"den": 2.0},
                               {"num": 1, "extra": 2}, {"num": True, "den": 2},
                               {"num": 3, "den": False}, {"num": -2, "den": True}])

def coefs(degree, literal):
    vector = st.lists(literal, min_size=degree, max_size=degree)
    return st.one_of(literal, vector.map(lambda v: {"coords": v}),
                     vector.map(lambda v: {"coords": v, "num": 5}))


def bad_coefs(degree):
    literal = st.one_of(good_literal, bad_literal)
    return st.one_of(coefs(degree, literal),
                     st.lists(literal, max_size=degree + 1).map(lambda v: {"coords": v}),
                     st.sampled_from([{"coords": 3}, {"coords": None}]))


def good_exps(nvars):
    return st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars)


def bad_exps(nvars):
    return st.one_of(st.lists(st.integers(-1, 2), min_size=nvars, max_size=nvars),
                     st.lists(st.integers(0, 2), max_size=nvars + 1),
                     st.lists(st.sampled_from([0, 1, True, False, 1.0, "1", None]),
                              min_size=nvars, max_size=nvars),
                     st.sampled_from([None, 0, "0", {"e": 0}]))


@st.composite
def poly_docs(draw, malformed):
    """A polynomial document; when malformed, some terms may have bad
    literals, exponents, coordinate counts or shapes."""
    field = draw(st.sampled_from(FIELDS))
    q = draw(st.integers(0, 2))
    params = draw(st.sampled_from([[], ["a"]]))
    nvars = q + len(params)
    terms, seen = [], []
    for _ in range(draw(st.integers(0, 5))):
        if seen and draw(st.booleans()):
            # a repeated exponent, sometimes the negation of an earlier term
            exp = draw(st.sampled_from(seen))
            coef = draw(st.sampled_from([-1, {"num": -1, "den": -1}, {"num": 1, "den": -3},
                                         {"coords": [0] * field.degree}]))
        elif malformed and draw(st.booleans()):
            exp = draw(st.one_of(good_exps(nvars), bad_exps(nvars)))
            coef = draw(bad_coefs(field.degree))
        else:
            exp = draw(good_exps(nvars))
            coef = draw(coefs(field.degree, good_literal))
            seen.append(exp)
        term = {"exp": exp, "coef": coef}
        if malformed and draw(st.integers(0, 7)) == 5:
            term = draw(st.sampled_from([{"coef": coef}, [term]]))
        terms.append(term)
    return field, {"q": q, "params": params, "terms": terms}


@SETTINGS
@given(poly_docs(malformed=False))
def test_reader_matches_the_old_reader(case):
    field, doc = case
    assert_same_outcome(outcome(poly_from_json, field, doc),
                        outcome(old_poly_from_json, field, doc))


@SETTINGS
@given(poly_docs(malformed=True))
def test_reader_rejects_what_the_old_reader_rejects(case):
    field, doc = case
    assert_same_outcome(outcome(poly_from_json, field, doc),
                        outcome(old_poly_from_json, field, doc))


@st.composite
def cancelling_docs(draw):
    """Terms that sum to zero at some exponents: each drawn term comes back
    with the negated coefficient."""
    field = draw(st.sampled_from(FIELDS))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        exp = draw(st.lists(st.integers(0, 2), min_size=2, max_size=2))
        vec = draw(st.lists(st.tuples(small, st.integers(1, 6)),
                            min_size=field.degree, max_size=field.degree))
        pos = {"coords": [{"num": n, "den": d} for n, d in vec]}
        neg = {"coords": [{"num": n, "den": -d} for n, d in vec]}
        terms += [{"exp": exp, "coef": pos}, {"exp": list(exp), "coef": neg}]
        if draw(st.booleans()):
            terms.append({"exp": exp, "coef": draw(good_literal)})
    order = draw(st.permutations(range(len(terms))))
    return field, {"q": 2, "terms": [terms[i] for i in order]}


@SETTINGS
@given(cancelling_docs())
def test_cancelling_terms_match_the_old_reader(case):
    field, doc = case
    assert_same_outcome(outcome(poly_from_json, field, doc),
                        outcome(old_poly_from_json, field, doc))


# every shape a coefficient literal takes: the int and num/den forms the
# reader takes inline, negative denominators among them, and booleans,
# floats, strings, nulls, zero denominators, and missing and extra keys,
# which it leaves to the general literal reader
inline_literal = st.one_of(
    small, st.integers(-10 ** 30, 10 ** 30),
    st.fixed_dictionaries({"num": st.integers(-10 ** 20, 10 ** 20),
                           "den": st.integers(-6, 6).filter(bool)}))
other_literal = st.one_of(
    st.booleans(), st.sampled_from([1.0, -0.5, 2.5]), st.sampled_from(["1", "", "1/2"]),
    st.none(), st.fixed_dictionaries({"num": small, "den": st.just(0)}),
    st.fixed_dictionaries({"num": small, "den": st.integers(1, 6)},
                          optional={"x": st.just(0), "coords": st.just([1])}),
    st.fixed_dictionaries({}, optional={"num": st.one_of(small, st.booleans(), st.none()),
                                        "den": st.one_of(small, st.booleans(),
                                                         st.just(2.0))}))


@st.composite
def literal_term_lists(draw):
    """A polynomial over Q or Q(sqrt2) whose terms have a literal or a
    coords list of literals, some lists of the wrong length, at exponents
    drawn with repeats and in no order.  Three literals in four are of the
    inline forms, so many documents are read to the end."""
    field = draw(st.sampled_from(FIELDS[:2]))
    q = draw(st.integers(0, 2))
    exps = draw(st.lists(good_exps(q), min_size=1, max_size=3))

    def literal():
        return draw(inline_literal if draw(st.integers(0, 3)) < 3 else other_literal)

    terms = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            coef = literal()
        else:
            size = field.degree + (draw(st.integers(0, 5)) == 0)
            coef = {"coords": [literal() for _ in range(size)]}
        terms.append({"exp": list(draw(st.sampled_from(exps))), "coef": coef})
    return field, {"q": q, "terms": terms}


@SETTINGS
@given(literal_term_lists())
def test_inline_literals_match_the_old_reader(case):
    field, doc = case
    assert_same_outcome(outcome(poly_from_json, field, doc),
                        outcome(old_poly_from_json, field, doc))


# ---------------------------------------------------------------------------
# named cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("doc, kind, message", [
    ({"q": 1, "terms": [{"exp": [-1], "coef": 1}]}, InputError, "bad exponent vector (-1,)"),
    ({"q": 1, "terms": [{"exp": [-1], "coef": 1}, {"exp": [0], "coef": True}]},
     FormatError, "booleans are not numbers"),
    ({"q": 1, "terms": [{"exp": [-1], "coef": 1}, {"exp": [0, 0], "coef": 1}]},
     FormatError, "exponent length 2, ring has 1 variables"),
    ({"q": 1, "terms": [{"exp": [True], "coef": {"num": 1, "den": 0}}]},
     FormatError, "zero denominator"),
    ({"q": 1, "terms": [{"exp": [1.0], "coef": 1}]},
     FormatError, "expected int for exponent, got float"),
    ({"q": 1, "terms": [{"exp": [0], "coef": {"coords": [1, 2]}}]},
     InputError, "expected 1 coordinates, got 2"),
    ({"q": 2, "terms": [{"exp": [200, 100], "coef": 1}]},
     InputError, "exponent vector (200, 100) has total degree 300, above the limit of 255"),
])
def test_rejections_keep_their_class_and_message(doc, kind, message):
    with pytest.raises(kind) as info:
        poly_from_json(QQ, doc)
    assert type(info.value) is kind and str(info.value) == message
    assert_same_outcome(outcome(poly_from_json, QQ, doc), outcome(old_poly_from_json, QQ, doc))


def test_boolean_exponents_and_numerators_read_as_integers():
    doc = {"q": 1, "terms": [{"exp": [True], "coef": {"num": True, "den": 2}},
                             {"exp": [1], "coef": {"num": -3, "den": -2}}]}
    new = poly_from_json(QQ, doc)
    assert_same_outcome(("value", new), outcome(old_poly_from_json, QQ, doc))
    assert new.den == 1 and list(new.nums.values()) == [(2,)]
    assert dict(new.terms) == {(1,): 2}


@pytest.mark.parametrize("obj", [0, -7, 10 ** 40, {"num": 3, "den": -6}, {"den": 5}, {},
                                 True, None, {"num": 1, "den": 0}, {"num": 1, "x": 1}])
def test_scalar_and_fraction_readers_match_the_old_ones(obj):
    assert outcome(fraction_from_json, obj) == outcome(old_fraction_from_json, obj)
    for field in FIELDS:
        for doc in (obj, {"coords": [obj] * field.degree}, {"coords": [obj]}):
            assert outcome(scalar_from_json, field, doc) == outcome(old_scalar_from_json,
                                                                    field, doc)


# a coords item the inline coords reader leaves to the general one:
# booleans, floats, strings, nulls, lists, zero, negative and non-integer
# denominators, and missing or extra keys
HOSTILE_ITEMS = [True, False, 1.0, -0.5, "1", None, [1], {"num": 1, "den": 0},
                 {"num": 3, "den": -2}, {"num": -1, "den": -1}, {"num": True, "den": 2},
                 {"num": 1, "den": True}, {"num": 1, "den": False}, {"num": 1, "den": 2.0},
                 {"num": 1.0, "den": 2}, {"num": 1}, {"den": 3}, {},
                 {"num": 1, "den": 2, "x": 0}]


def hostile_coefs(field):
    """Coefficients with one hostile item at each place of a good coords
    list, good lists of every wrong length, an extra key beside a good
    list, and coords that are not a list."""
    good = [{"num": k - 1, "den": k + 1} for k in range(field.degree)]
    out = [{"coords": good[:k] + [item] + good[k + 1:]}
           for item in HOSTILE_ITEMS for k in range(field.degree)]
    out += [{"coords": good[:k]} for k in range(field.degree)]
    out += [{"coords": good + [1]}, {"coords": good + good},
            {"coords": good, "x": 1}, {"coords": good, "num": 5},
            {"coords": tuple(good)}, {"coords": 3}, {"coords": None}, {"coords": {}}]
    return out


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(sqrt2)", "cubic"])
def test_hostile_coords_match_the_old_reader(field):
    for coef in hostile_coefs(field):
        for terms in ([{"exp": [1], "coef": coef}],
                      [{"exp": [0], "coef": {"coords": [1] * field.degree}},
                       {"exp": [1], "coef": coef}]):
            doc = {"q": 1, "terms": terms}
            assert_same_outcome(outcome(poly_from_json, field, doc),
                                outcome(old_poly_from_json, field, doc))


@pytest.mark.parametrize("item, kind, message", [
    (True, FormatError, "booleans are not numbers"),
    (1.5, FormatError, "expected an integer or a num/den object"),
    ({"num": 1, "den": 0}, FormatError, "zero denominator"),
    ({"num": 1, "den": 2.0}, FormatError, "expected int for den, got float"),
    ({"num": 1, "den": 2, "x": 0}, FormatError, "expected an integer or a num/den object"),
])
def test_hostile_coords_keep_their_class_and_message(item, kind, message):
    field = cubic_field()
    doc = {"q": 0, "terms": [{"exp": [], "coef": {"coords": [1, item, {"num": 1, "den": 2}]}}]}
    with pytest.raises(kind) as info:
        poly_from_json(field, doc)
    assert type(info.value) is kind and str(info.value) == message


def test_coords_with_a_negative_or_boolean_denominator_read_as_the_old_reader():
    field = sqrt2_field()
    for coords, value in (([{"num": 3, "den": -2}, 1], [Fraction(-3, 2), 1]),
                          ([{"num": 3, "den": True}, {"num": False, "den": 5}], [3, 0])):
        doc = {"q": 0, "terms": [{"exp": [], "coef": {"coords": coords}}]}
        got = poly_from_json(field, doc)
        assert got == PolyRing(field, 0).constant(field.value(value))
        assert_same_outcome(("value", got), outcome(old_poly_from_json, field, doc))


def test_coords_of_the_wrong_length_keep_their_message():
    for field in FIELDS:
        for size in {0, field.degree - 1, field.degree + 1}:
            doc = {"q": 0, "terms": [{"exp": [], "coef": {"coords": [1] * size}}]}
            with pytest.raises(InputError) as info:
                poly_from_json(field, doc)
            assert str(info.value) == "expected %d coordinates, got %d" % (field.degree, size)


# ---------------------------------------------------------------------------
# malformed q, params and terms, with and without terms
# ---------------------------------------------------------------------------

TERM = {"exp": [1], "coef": {"num": 1, "den": 2}}
ABSENT = object()
CONTAINER_VALUES = {
    "q": [ABSENT, 1, 0, -1, "1", True, False, None, 1.5, [1]],
    "params": [ABSENT, [], ["a"], "a", [1], ["a", 2], ["a", "a"], ("a",), None, {}],
    "terms": [ABSENT, [], [TERM], [TERM, TERM], {}, None, "x", 0, (TERM,), {"exp": [1]}],
}


def test_every_container_shape_matches_the_old_reader():
    """The reader returns a polynomial with no terms early, after the same
    checks of q, params and the term list as the old reader, whose
    generated documents never have a malformed container."""
    for field in FIELDS:
        for q, params, terms in product(*CONTAINER_VALUES.values()):
            doc = {k: v for k, v in zip(CONTAINER_VALUES, (q, params, terms)) if v is not ABSENT}
            assert_same_outcome(outcome(poly_from_json, field, doc),
                                outcome(old_poly_from_json, field, doc))
    for doc in ([], None, "p", 0, [{"q": 1}]):
        assert_same_outcome(outcome(poly_from_json, QQ, doc),
                            outcome(old_poly_from_json, QQ, doc))


def test_zero_polynomials_share_their_ring_within_a_read():
    a = poly_from_json(QQ, {"q": 1, "terms": []})
    b = poly_from_json(QQ, {"q": 1, "params": [], "terms": [{"exp": [0], "coef": 0}]})
    assert a is b and a.ring is PolyRing(QQ, 1) and a.is_zero


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def old_grid_from_json(field, obj, kind):
    _expect(obj, dict, "matrix")
    n = _expect(obj.get("n"), int, "n")
    if n < 1:
        raise FormatError("matrix size must be at least 1")
    entries = _expect(obj.get("entries"), list, "entries")
    if len(entries) != n or any(len(_expect(r, list, "matrix row")) != n for r in entries):
        raise FormatError("matrix entries must form an n x n grid")
    rows = [[old_poly_from_json(field, e) for e in row] for row in entries]
    if len({e.ring for row in rows for e in row}) > 1:
        raise FormatError("matrix entries mix different rings")
    return kind(rows[0][0].ring, rows)


def assert_same_matrix_outcome(new, old):
    assert new[0] is old[0], (new, old)
    if new[0] == "value":
        a, b = new[1], old[1]
        assert type(a) is type(b) and a == b and a.ring == b.ring
        assert [[(x.den, x.nums) for x in row] for row in a.rows] == \
               [[(x.den, x.nums) for x in row] for row in b.rows]
    else:
        assert new[1] == old[1]


def const(value, q=0, params=()):
    terms = [{"exp": [0] * (q + len(params)), "coef": value}] if value else []
    return {"q": q, "params": list(params), "terms": terms}


GRID_ENTRIES = [const(0), const(1), const(-2), const(0, 1), const(1, 1), const(0, 0, ["a"]),
                {"q": 1, "terms": [{"exp": [1], "coef": 1}]}, "x", None]


@st.composite
def grid_docs(draw):
    n = draw(st.integers(1, 3))
    size = draw(st.sampled_from([n, n, n, n + 1, 0, True, "2", None]))
    rows = [draw(st.lists(st.sampled_from(GRID_ENTRIES), min_size=n, max_size=n))
            for _ in range(n)]
    if draw(st.booleans()):
        # a unit or strictly upper shape, so most documents get past the diagonal
        one = draw(st.sampled_from([const(1), const(0)]))
        rows = [[one if i == j else const(0) if j < i else rows[i][j] for j in range(n)]
                for i in range(n)]
    if draw(st.integers(0, 5)) == 0:
        rows = draw(st.sampled_from([rows[:-1], rows + [rows[0]], [rows[0][:-1]] + rows[1:],
                                     {"0": rows}, [tuple(rows[0])] + rows[1:]]))
    doc = {"n": size, "entries": rows}
    if draw(st.integers(0, 7)) == 0:
        doc = draw(st.sampled_from([{"entries": rows}, {"n": size}, [doc]]))
    return doc


@SETTINGS
@given(grid_docs())
def test_grid_reader_matches_the_old_reader(doc):
    assert_same_matrix_outcome(outcome(nil_from_json, QQ, doc),
                               outcome(old_grid_from_json, QQ, doc, NilMatrix))
    assert_same_matrix_outcome(outcome(uni_from_json, QQ, doc),
                               outcome(old_grid_from_json, QQ, doc, UniMatrix))


@pytest.mark.parametrize("read, kind, entries, message", [
    (nil_from_json, NilMatrix, [[const(0), const(1, 1)], [const(0), const(0)]],
     "matrix entries mix different rings"),
    (uni_from_json, UniMatrix, [[const(1), const(1, 0, ["a"])], [const(0), const(1)]],
     "matrix entries mix different rings"),
    (nil_from_json, NilMatrix, [[const(0), const(1)], [const(0), const(2)]],
     "entry (1, 1) below or on the diagonal is nonzero"),
    (uni_from_json, UniMatrix, [[const(1), const(1)], [const(1), const(1)]],
     "entry (1, 0) below the diagonal is nonzero"),
    (uni_from_json, UniMatrix, [[const(1), const(1)], [const(0), const(0)]],
     "diagonal entry (1, 1) is not 1"),
    (uni_from_json, UniMatrix, [[const(1), const(1)], [const(0), const(-2)]],
     "diagonal entry (1, 1) is not 1"),
    (uni_from_json, UniMatrix, [[const({"num": 2, "den": 1}), const(1)], [const(0), const(1)]],
     "diagonal entry (0, 0) is not 1"),
    (nil_from_json, NilMatrix, [[const(1), const(1)], [const(0), const(0)]],
     "entry (0, 0) below or on the diagonal is nonzero"),
    (uni_from_json, UniMatrix, [[const(1), const(1)], [const(-2), const(1)]],
     "entry (1, 0) below the diagonal is nonzero"),
    (nil_from_json, NilMatrix, [[const(0), const(1)]], "matrix entries must form an n x n grid"),
    (uni_from_json, UniMatrix, "x", "expected list for entries, got str"),
])
def test_grid_rejections_keep_their_class_and_message(read, kind, entries, message):
    doc = {"n": 2, "entries": entries}
    new = outcome(read, QQ, doc)
    assert new[1] == message
    assert_same_matrix_outcome(new, outcome(old_grid_from_json, QQ, doc, kind))


# ---------------------------------------------------------------------------
# constant grids, read straight into the integer form
# ---------------------------------------------------------------------------

def general_outcome(read, field, doc):
    """The reader's outcome with the constant-grid path switched off, so
    every entry goes through `poly_from_json`."""
    original = serialize._constant_grid
    serialize._constant_grid = lambda *args: None
    try:
        return outcome(read, field, doc)
    finally:
        serialize._constant_grid = original


def entry_doc(*coefs):
    return {"q": 0, "params": [], "terms": [{"exp": [], "coef": c} for c in coefs]}


def spellings(value):
    """(entry document, read by the constant-grid path?) for ways of
    writing the constant ScalarValue value: the writer's, the other shapes
    that path takes, and shapes it leaves to the general reader."""
    field, den, nums = value.field, value.den, value.nums
    writer = serialize.poly_to_json(PolyRing(field, 0).constant(value))
    out = [(writer, True),
           (entry_doc({"coords": [{"num": 2 * x, "den": 2 * den} for x in nums]}), True),
           (entry_doc({"coords": [{"num": -x, "den": -den} for x in nums]}), False),
           ({k: v for k, v in writer.items() if k != "q"}, False),
           ({k: v for k, v in writer.items() if k != "params"}, False),
           (entry_doc(*[{"coords": [{"num": x, "den": 2 * den} for x in nums]}] * 2), False)]
    if den == 1:
        out.append((entry_doc({"coords": list(nums)}), True))
    if not any(nums[1:]):
        out += [(entry_doc({"num": 3 * nums[0], "den": 3 * den}), True),
                (entry_doc({"num": -nums[0], "den": -den}), False)]
        if den == 1:
            out.append((entry_doc(nums[0]), True))
    if not any(nums):
        out += [(entry_doc(0), True), (entry_doc({"num": 0, "den": 5}), True),
                ({"q": 0, "params": []}, False), ({"q": 0, "terms": []}, False)]
    return out


def rand_value(rng, field):
    """A field scalar: zero, an integer, a rational, or any element."""
    kind = rng.randrange(4)
    if kind == 0:
        return field.zero
    if kind == 1:
        return field.value(rng.randint(-3, 3))
    if kind == 2:
        return field.value(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    return field.value([Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                        for _ in range(field.degree)])


def spelled_grid(rng, field, n, unit, fast_only):
    """A grid of constant entries over field, each spelled by a random
    choice from `spellings`, with 1 (unit) or 0 on the diagonal and 0 below
    it; and whether every spelling is one the constant-grid path reads."""
    rows, fast = [], True
    for i in range(n):
        row = []
        for j in range(n):
            value = (rand_value(rng, field) if j > i
                     else field.one if j == i and unit else field.zero)
            options = [s for s in spellings(value) if s[1] or not fast_only]
            doc, ok = rng.choice(options)
            row.append(doc)
            fast = fast and ok
        rows.append(row)
    return {"n": n, "entries": rows}, fast


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(sqrt2)", "cubic"])
@pytest.mark.parametrize("read, kind", [(nil_from_json, NilMatrix), (uni_from_json, UniMatrix)],
                         ids=["nil", "uni"])
def test_constant_grids_match_the_general_reader(field, read, kind):
    rng = random.Random("grid-%d-%s" % (field.degree, kind.__name__))
    taken = {True: 0, False: 0}
    for k in range(120):
        doc, fast = spelled_grid(rng, field, 1 + k % 5, kind is UniMatrix, k % 2 == 0)
        new = outcome(read, field, doc)
        assert new[0] == "value", new
        # the constant-grid path builds no row, so no polynomial
        assert (new[1]._rows is None) == fast
        taken[fast] += 1
        assert_same_matrix_outcome(new, general_outcome(read, field, doc))
        assert_same_matrix_outcome(new, outcome(old_grid_from_json, field, doc, kind))
        if fast:
            # the form read is the one the canonical rows convert to
            rebuilt = kind(new[1].ring, new[1].rows, check=False)
            assert rebuilt._int_form() == new[1]._int
    assert taken[True] and taken[False]


def test_a_constant_grid_builds_no_polynomial(monkeypatch):
    from unipavg import exactring

    made = []
    original = exactring.SimplexPoly.__init__

    def counting(self, *args):
        made.append(args)
        original(self, *args)

    field = sqrt2_field()
    rng = random.Random(3301)
    docs = [spelled_grid(rng, field, 5, unit, True)[0] for unit in (True, False)]
    monkeypatch.setattr(exactring.SimplexPoly, "__init__", counting)
    u, a = uni_from_json(field, docs[0]), nil_from_json(field, docs[1])
    span = serialize.span_from_json(field, {"n": 5, "basis": [docs[1]]})
    assert made == []
    monkeypatch.undo()
    # the span keeps the basis matrix read, and its sparse row
    assert u._rows is None and a._rows is None and span.basis[0]._rows is None
    assert span._rows[0] == {k: x.constant_value() for k, x in a.nonzero_upper().items()}


# values that == takes for 1 or 0 but the reader refuses or reads through
# the general path, in each place of an entry: the coefficient, its num or
# den, a coords item, q, params, terms and exp
def hostile_entries(value, degree):
    return [entry_doc(value), entry_doc({"num": value, "den": 1}),
            entry_doc({"num": 1, "den": value}),
            entry_doc({"coords": [value] + [0] * (degree - 1)}),
            {"q": value, "params": [], "terms": []},
            {"q": 0, "params": value, "terms": []},
            {"q": 0, "params": [], "terms": value},
            {"q": 0, "params": [], "terms": [{"exp": value, "coef": 1}]}]


@pytest.mark.parametrize("value", [1.0, 0.0, True, False, "1", None, [], {}])
@pytest.mark.parametrize("read, unit", [(nil_from_json, False), (uni_from_json, True)],
                         ids=["nil", "uni"])
def test_hostile_constant_entries_keep_the_general_outcome(value, read, unit):
    for field in FIELDS:
        one, zero = (serialize.poly_to_json(PolyRing(field, 0).constant(x))
                     for x in (field.one, field.zero))
        for entry in hostile_entries(value, field.degree):
            for i, j in ((0, 0), (1, 1), (1, 0), (0, 1)):
                rows = [[one if a == b and unit else zero for b in range(2)] for a in range(2)]
                rows[i][j] = entry
                doc = {"n": 2, "entries": rows}
                new = outcome(read, field, doc)
                assert_same_matrix_outcome(new, general_outcome(read, field, doc))
                # a value read is the general reader's, with its rows
                assert new[0] != "value" or new[1]._rows is not None


def test_a_diagonal_entry_off_the_rationals_is_not_1():
    field = sqrt2_field()
    one_plus = entry_doc({"coords": [1, 1]})
    one, zero = entry_doc({"coords": [1, 0]}), {"q": 0, "params": [], "terms": []}
    doc = {"n": 2, "entries": [[one, one_plus], [zero, one_plus]]}
    new = outcome(uni_from_json, field, doc)
    assert new == (InputError, "diagonal entry (1, 1) is not 1")
    assert_same_matrix_outcome(new, general_outcome(uni_from_json, field, doc))
    doc["entries"][1][1] = one
    assert outcome(uni_from_json, field, doc)[0] == "value"


# ---------------------------------------------------------------------------
# grids with a nonconstant entry: the fixed entries compared, not read
# ---------------------------------------------------------------------------

def reader_outcome(read, field, doc):
    """The general reader's outcome, with both the constant-grid and the
    fixed-entry paths switched off."""
    originals = serialize._constant_grid, serialize._fixed_grid
    serialize._constant_grid = serialize._fixed_grid = lambda *args: None
    try:
        return outcome(read, field, doc)
    finally:
        serialize._constant_grid, serialize._fixed_grid = originals


RINGS = [PolyRing(field, q, params) for field in FIELDS for q in (1, 2, 3)
         for params in ((), ("a",))]


def rand_poly(rng, ring):
    """A polynomial over ring with a nonconstant term."""
    terms = {}
    for k in range(rng.randint(1, 3)):
        exp = [rng.randint(0, 2) for _ in range(ring.nvars)]
        if k == 0:
            exp[rng.randrange(ring.nvars)] += 1
        terms[tuple(exp)] = rand_value(rng, ring.field) if k else ring.field.one
    return ring.poly(terms)


def written_grid(rng, ring, kind, n=3):
    """The writer's document of a random kind matrix over ring."""
    mat = kind.from_entries(ring, n, {(i, j): rand_poly(rng, ring)
                                      for i in range(n) for j in range(i + 1, n)})
    return json.loads(json.dumps(serialize.matrix_to_json(mat)))


def respellings(ring, entry):
    """Ways of writing the fixed entry (the writer's 0 or 1 over ring) that
    differ from it in spelling, type or value, by name."""
    q, params, terms = entry["q"], entry["params"], entry["terms"]
    zeros = [0] * ring.nvars
    one = terms[0] if terms else {"exp": zeros, "coef": {"num": 1, "den": 1}}

    def with_coef(coef):
        return dict(entry, terms=[{"exp": zeros, "coef": coef}])
    out = {"1.0": with_coef(1.0), "true": with_coef(True), "'1'": with_coef("1"),
           "2/2": with_coef({"num": 2, "den": 2}), "num only": with_coef({"num": 1}),
           "-1/-1": with_coef({"num": -1, "den": -1}),
           "num true": with_coef({"num": True, "den": 1}),
           "exp floats": dict(entry, terms=[dict(one, exp=[0.0] * ring.nvars)]),
           "exp false": dict(entry, terms=[dict(one, exp=[False] * ring.nvars)]),
           "reordered": {"terms": terms, "params": params, "q": q},
           "extra key": dict(entry, extra=0),
           "duplicated term": dict(entry, terms=terms * 2),
           "zero term": dict(entry, terms=terms + [{"exp": zeros, "coef": 0}]),
           "q true": dict(entry, q=True), "q 1.0": dict(entry, q=float(q)),
           "another q": dict(entry, q=q + 1), "another params": dict(entry, params=["b"]),
           "no params": {"q": q, "terms": terms}}
    if ring.field.degree > 1:
        out["coords"] = with_coef({"coords": [1] + [0] * (ring.field.degree - 1)})
        out["coords 1.0"] = with_coef({"coords": [1.0] + [0] * (ring.field.degree - 1)})
    return out


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: "%d-%d-%d" % (r.field.degree, r.q,
                                                                      len(r.params)))
@pytest.mark.parametrize("read, kind", [(nil_from_json, NilMatrix), (uni_from_json, UniMatrix)],
                         ids=["nil", "uni"])
def test_fixed_entries_are_compared_and_respellings_keep_the_general_outcome(ring, read,
                                                                             kind):
    rng = random.Random("fixed-%r-%s" % (ring, kind.__name__))
    doc = written_grid(rng, ring, kind)
    general = reader_outcome(read, ring.field, doc)
    assert general[0] == "value"
    parsed = []
    original = serialize.poly_from_json

    def counting(field, obj):
        parsed.append(obj)
        return original(field, obj)

    serialize.poly_from_json = counting
    try:
        new = outcome(read, ring.field, doc)
    finally:
        serialize.poly_from_json = original
    assert_same_matrix_outcome(new, general)
    # only the strictly upper entries are read, in row order
    assert parsed == [e for i, row in enumerate(doc["entries"]) for e in row[i + 1:]]
    outcomes = set()
    for i, j in ((0, 0), (1, 1), (1, 0), (2, 0)):
        for name, entry in respellings(ring, doc["entries"][i][j]).items():
            bad = json.loads(json.dumps(doc))
            bad["entries"][i][j] = entry
            expect = reader_outcome(read, ring.field, bad)
            assert_same_matrix_outcome(outcome(read, ring.field, bad), expect)
            outcomes.add(expect[0])
    assert outcomes == {"value", FormatError, InputError}


def test_a_grid_of_one_nonconstant_entry_is_read_by_the_general_reader():
    ring = RINGS[0]
    for read, entry in ((uni_from_json, serialize.poly_to_json(ring.one())),
                        (nil_from_json, serialize.poly_to_json(ring.coordinate(0)))):
        doc = {"n": 1, "entries": [[entry]]}
        assert_same_matrix_outcome(outcome(read, QQ, doc), reader_outcome(read, QQ, doc))


def test_fixed_documents_are_never_handed_out():
    for ring in RINGS:
        zero, one = serialize._fixed_docs(ring)
        assert zero == serialize.poly_to_json(ring.zero())
        assert one == serialize.poly_to_json(ring.one())
        doc = written_grid(random.Random(3302), ring, UniMatrix)
        mat = uni_from_json(ring.field, doc)
        assert serialize.matrix_to_json(mat)["entries"][0][0] is not one
