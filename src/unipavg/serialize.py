"""JSON encoding and decoding for every value the CLI touches.

All numbers travel as exact integers: rationals are {"num", "den"}
objects, extension scalars are {"coords": [rational]} in the power basis.
Emitted documents parse back to equal values; term lists are sorted so
output is deterministic, though equality is of canonical forms, not bytes.

Each document is built once with its matrices left as NilMatrix or
UniMatrix objects (`span_doc`, `tuple_doc`, `simplicial_doc`): the CLI
hands that document to its emitter, which writes each matrix in one
piece, and the public `*_to_json` writers return its dict form
(`to_json`), a new dict for every entry.

A matrix of constant entries in the common spellings is read straight
into the integer form of `nilpotent`, building no polynomial
(`_constant_grid`); a matrix whose entries on and below the diagonal are
exactly the writer's 0 and 1 has only its strictly upper entries read
(`_fixed_grid`); every other matrix is read entry by entry.  All three
give the same values and messages.  A group document that is exactly the
writer's document of the full unipotent group is compared with it, not
read (`_is_full_span`), and gives the span built in the integer form.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain
from operator import add

from .errors import InputError
from .exactring import (QQ, GaloisAction, PolyRing, ScalarField, ScalarValue, SimplexPoly,
                        _canonical, _canonical_scalar, _degree_error, _pack, _unpack)
from .nilpotent import LieSpan, NilMatrix, UniMatrix, _upper_positions, full_unipotent_span
from .average import SectionTuple
from .simplicial import (FiniteCover, LocalSection, SimplicialSection,
                         TowerReport, ValidationReport)
from .descent import GaloisOrbit


class FormatError(InputError):
    """Malformed or inconsistent JSON input."""


def _expect(obj, kind, what):
    if not isinstance(obj, kind):
        raise FormatError("expected %s for %s, got %s"
                          % (kind.__name__, what, type(obj).__name__))
    return obj


# ---------------------------------------------------------------------------
# numbers and fields
# ---------------------------------------------------------------------------

def fraction_to_json(f: Fraction):
    return {"num": f.numerator, "den": f.denominator}


_NUM_DEN = frozenset(("num", "den"))
_INT, _STR = frozenset((int,)), frozenset((str,))


def _literal(obj):
    """A number literal, an integer or a num/den object, as integers
    (numerator, denominator) with a positive denominator; every number
    read is parsed here.  num and den may be booleans, read as 0 and 1."""
    if isinstance(obj, bool):
        raise FormatError("booleans are not numbers")
    if isinstance(obj, int):
        return obj, 1
    if isinstance(obj, dict) and obj.keys() <= _NUM_DEN:
        num, den = obj.get("num", 0), obj.get("den", 1)
        if type(num) is not int:
            num = int(_expect(num, int, "num"))
        if type(den) is not int:
            den = int(_expect(den, int, "den"))
        if den == 0:
            raise FormatError("zero denominator")
        return (-num, -den) if den < 0 else (num, den)
    raise FormatError("expected an integer or a num/den object")


def fraction_from_json(obj) -> Fraction:
    return Fraction(*_literal(obj))


def field_to_json(field: ScalarField):
    if field.is_rationals:
        return {"rationals": True}
    return {"var": field.var,
            "minpoly": [fraction_to_json(c) for c in field.minpoly]}


def field_from_json(obj) -> ScalarField:
    if obj is None:
        return QQ
    _expect(obj, dict, "field")
    if obj.get("rationals"):
        return QQ
    if "minpoly" not in obj or "var" not in obj:
        raise FormatError("a field needs either rationals:true or var+minpoly")
    coeffs = [fraction_from_json(c) for c in _expect(obj["minpoly"], list, "minpoly")]
    return ScalarField.extension(_expect(obj["var"], str, "var"), coeffs)


def _ratio_to_json(num, den):
    g = math.gcd(num, den)
    return {"num": num // g, "den": den // g}


def _coef_to_json(vec, den, rational):
    """A scalar given by its integer power-basis numerators over den."""
    if rational:
        return _ratio_to_json(vec[0], den)
    return {"coords": [_ratio_to_json(x, den) for x in vec]}


def scalar_to_json(v: ScalarValue):
    return _coef_to_json(v.nums, v.den, v.field.is_rationals)


def _scalar_numerators(field: ScalarField, obj):
    """A scalar's power-basis coordinates, a {"coords": [...]} object or one
    number for the first coordinate, as the lcm of their denominators and
    the integer numerators over it."""
    if isinstance(obj, dict) and "coords" in obj:
        lits = [_literal(c) for c in _expect(obj["coords"], list, "coords")]
        if len(lits) != field.degree:
            raise InputError("expected %d coordinates, got %d" % (field.degree, len(lits)))
    else:
        lits = [_literal(obj)] + [(0, 1)] * (field.degree - 1)
    den = math.lcm(*[d for _, d in lits])
    return den, tuple([num * (den // d) for num, d in lits])


def _exact_coords(coords):
    """A coords list of exact ints and two-key num/den objects of exact
    ints with den > 0, as `_scalar_numerators` reads it, or None when any
    item has another shape."""
    lits = []
    for c in coords:
        if type(c) is int:
            lits.append((c, 1))
        elif (type(c) is dict and len(c) == 2 and type(num := c.get("num")) is int
              and type(den := c.get("den")) is int and den > 0):
            lits.append((num, den))
        else:
            return None
    den = math.lcm(*[d for _, d in lits])
    return den, tuple([num * (den // d) for num, d in lits])


def _inline_scalar(coef, degree):
    """A coefficient of one of the common shapes, an int, a two-key num/den
    object of exact ints with den > 0, or a one-key {"coords": [...]}
    object of degree such literals (`_exact_coords`), as
    `_scalar_numerators` reads it; None for any other shape."""
    if type(coef) is int:
        return 1, (coef,) + (0,) * (degree - 1)
    if type(coef) is dict:
        if len(coef) == 2:
            num, den = coef.get("num"), coef.get("den")
            if type(num) is int and type(den) is int and den > 0:
                return den, (num,) + (0,) * (degree - 1)
        elif len(coef) == 1:
            coords = coef.get("coords")
            if type(coords) is list and len(coords) == degree:
                return _exact_coords(coords)
    return None


def scalar_from_json(field: ScalarField, obj) -> ScalarValue:
    return _canonical_scalar(field, *_scalar_numerators(field, obj))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def poly_to_json(p: SimplexPoly):
    """Terms in order of total degree, then exponents: the order of the
    exponent keys."""
    den, nums, nvars = p.den, p.nums, p.ring.nvars
    rational = p.ring.field.is_rationals
    terms = [{"exp": list(_unpack(key, nvars)), "coef": _coef_to_json(nums[key], den, rational)}
             for key in sorted(nums)]
    return {"q": p.ring.q, "params": list(p.ring.params), "terms": terms}


def poly_from_json(field: ScalarField, obj) -> SimplexPoly:
    """Read a polynomial over the one PolyRing of its (field, q, params).
    Coefficients are read as integer literals and put over their least
    common denominator, so the canonical form takes one gcd reduction.  The
    common shapes of a coefficient are read by `_inline_scalar`;
    `_scalar_numerators` reads every other shape, with the same values and
    messages.  An
    exponent list of the ring's length becomes its key through
    `exactring._pack`, which takes only
    integers (booleans among them) in 0..MAX_DEGREE summing to at most
    MAX_DEGREE; any other list is checked again, element by element, for
    the message of the check it fails.  Types are tested inline; `_expect`
    runs only on a value that fails the test, so subclasses pass and every
    message is `_expect`'s.  A negative exponent, and then a
    total degree above MAX_DEGREE, is reported after every term is read."""
    if type(obj) is not dict:
        _expect(obj, dict, "polynomial")
    q = obj.get("q", 0)
    if type(q) is not int:
        if type(q) is bool:
            # an int to isinstance, so _expect would let it through
            raise FormatError("expected int for q, got bool")
        _expect(q, int, "q")
    params = obj.get("params", [])
    if type(params) is not list:
        _expect(params, list, "params")
    params = tuple(params)
    if params and not all(type(n) is str for n in params):
        for n in params:
            _expect(n, str, "parameter name")
    # the ring table first: a call costs more than the lookup, and a q that
    # is not exactly an int (a subclass) goes to PolyRing
    ring = PolyRing._table.get((field, q, params)) if type(q) is int else None
    if ring is None:
        ring = PolyRing(field, q, params)
    doc_terms = obj.get("terms", [])
    if type(doc_terms) is not list:
        _expect(doc_terms, list, "terms")
    if not doc_terms:
        return ring.zero()
    terms = []              # (key, numerators, their denominator) per term
    den = 1                 # the lcm of the terms' denominators
    nvars = ring.nvars
    degree = field.degree
    negative = None         # the first exponent vector with a negative entry
    high = None             # the first one of total degree above MAX_DEGREE
    for term in doc_terms:
        if type(term) is not dict:
            _expect(term, dict, "term")
        exp = term.get("exp")
        if type(exp) is not list:
            _expect(exp, list, "exp")
        try:
            key = _pack(exp) if len(exp) == nvars else None
        except (TypeError, ValueError):
            key = None
        if key is None:
            exp = tuple(int(_expect(e, int, "exponent")) for e in exp)
            if len(exp) != nvars:
                raise FormatError("exponent length %d, ring has %d variables"
                                  % (len(exp), nvars))
            if min(exp) < 0:
                negative = negative or exp
            else:
                high = high or exp
        coef = term.get("coef")
        read = _inline_scalar(coef, degree)
        d, vec = read if read is not None else _scalar_numerators(field, coef)
        if d != den:
            den = math.lcm(den, d)
        terms.append((key, vec, d))
    if negative is not None:
        raise InputError("bad exponent vector %r" % (negative,))
    if high is not None:
        raise _degree_error(high)
    # every coefficient over the common denominator, duplicates summed
    nums = {}
    for key, vec, d in terms:
        if d != den:
            vec = tuple([x * (den // d) for x in vec])
        if key in nums:
            vec = tuple(map(add, nums[key], vec))
        nums[key] = vec
    if not all(map(any, nums.values())):
        nums = {e: v for e, v in nums.items() if any(v)}
    return _canonical(ring, den, nums)


# ---------------------------------------------------------------------------
# matrices, spans, tuples
# ---------------------------------------------------------------------------

_MATRICES = (NilMatrix, UniMatrix)


def to_json(doc):
    """The dict form of a document that holds matrix objects (a `*_doc`
    builder's, or one the CLI assembles): each matrix as {"n", "entries"},
    each entry through `poly_to_json`, so every entry is a new dict; dicts
    and lists are copied, and every other value is kept."""
    if type(doc) is dict:
        return {key: to_json(value) for key, value in doc.items()}
    if type(doc) is list:
        return [to_json(value) for value in doc]
    if isinstance(doc, _MATRICES):
        return {"n": doc.n, "entries": [[poly_to_json(e) for e in row] for row in doc.rows]}
    return doc


def matrix_to_json(mat):
    return to_json(mat)


def _constant_grid(field, entries, unit):
    """The integer form (see `nilpotent`) of a square grid of constant
    entries over (field, q = 0, no parameters), or None.  Each entry must
    have the int q 0, the params [] and a terms list of at most one term,
    whose exp is [] and whose coefficient is an int, a two-key num/den
    object of ints with den > 0, or a one-key {"coords": [...]} object of
    field.degree such literals: shapes that `poly_from_json` reads inline,
    to the same values.  The diagonal (1 when unit, else 0) and the lower
    triangle are checked on the parsed integers.  Any other entry or value
    gives None, and the general reader then reads and reports the grid."""
    degree = field.degree
    upper = []              # (denominator, numerators) of each strictly upper entry
    for i, row in enumerate(entries):
        for j, entry in enumerate(row):
            if type(entry) is not dict:
                return None
            q, params, terms = entry.get("q"), entry.get("params"), entry.get("terms")
            if (type(q) is not int or q or type(params) is not list or params
                    or type(terms) is not list or len(terms) > 1):
                return None
            den, vec = 1, None
            if terms:
                term = terms[0]
                if type(term) is not dict:
                    return None
                exp, read = term.get("exp"), _inline_scalar(term.get("coef"), degree)
                if type(exp) is not list or exp or read is None:
                    return None
                den, vec = read
                if not any(vec):
                    vec = None
            if j > i:
                upper.append((den, vec))
            elif j < i or not unit:
                if vec is not None:
                    return None
            elif vec is None or vec[0] != den or any(vec[1:]):
                return None
    den = math.lcm(*[d for d, vec in upper if vec is not None])
    zero = (0,) * degree
    planes = [list(plane) for plane in zip(*[
        zero if vec is None else vec if d == den else tuple([x * (den // d) for x in vec])
        for d, vec in upper])] if upper else [[] for _ in range(degree)]
    g = math.gcd(den, *chain.from_iterable(planes))
    if g != 1:
        den //= g
        planes = [[x // g for x in plane] for plane in planes]
    return den, planes


@functools.cache
def _fixed_docs(ring):
    """poly_to_json of 0 and of 1 over ring, for comparison only: these
    dicts are never handed out, so nothing edits them."""
    return poly_to_json(ring.zero()), poly_to_json(ring.one())


def _is_fixed(entry, doc):
    """Whether the parsed entry is doc, one of `_fixed_docs`, with the
    same types: `==` alone takes 1.0 and true for 1, and false for 0, so
    once the two are equal every container is checked to be a dict or a
    list and every number an int."""
    if type(entry) is not dict or entry != doc:
        return False
    terms = entry["terms"]
    if type(entry["q"]) is not int or type(entry["params"]) is not list or type(terms) is not list:
        return False
    for term in terms:
        exp, coef = term["exp"], term["coef"]
        if type(term) is not dict or type(exp) is not list or type(coef) is not dict:
            return False
        items = coef["coords"] if "coords" in coef else [coef]
        if (type(items) is not list or not _INT.issuperset(map(type, exp))
                or not all([type(c) is dict and _INT.issuperset(map(type, c.values()))
                            for c in items])):
            return False
    return True


def _fixed_grid(field, entries, kind):
    """The kind (NilMatrix or UniMatrix) of a square grid whose entries on
    and below the diagonal are exactly the writer's documents
    (`_fixed_docs`) for 0, or 1 on a UniMatrix diagonal, over the ring
    named by the q and params of the first entry: only the strictly upper
    entries are read, in row order, and the diagonal needs no check.  Any
    other fixed entry, in spelling, type or value, gives None, and the
    general reader then reads and reports the grid.  Every fixed entry is
    valid, so an upper entry that fails to read, or lies over another
    ring, gets the general reader's error: row by row, each row's fixed
    entries are compared before its upper entries are read."""
    first = entries[0][0]
    if type(first) is not dict:
        return None
    q, params = first.get("q"), first.get("params")
    if type(q) is not int or type(params) is not list or not _STR.issuperset(map(type, params)):
        return None
    try:
        ring = PolyRing(field, q, params)
    except InputError:
        return None
    zero, one = _fixed_docs(ring)
    unit = kind is UniMatrix
    fixed, diagonal = (one, ring.one()) if unit else (zero, ring.zero())
    zeros = (ring.zero(),) * len(entries)
    rows = []
    for i, row in enumerate(entries):
        if not _is_fixed(row[i], fixed) or not all([_is_fixed(e, zero) for e in row[:i]]):
            return None
        rows.append(zeros[:i] + (diagonal,) + tuple([poly_from_json(field, e)
                                                      for e in row[i + 1:]]))
    if any(e.ring is not ring for i, row in enumerate(rows) for e in row[i + 1:]):
        raise FormatError("matrix entries mix different rings")
    return kind(ring, tuple(rows), check=False)


def _grid_from_json(field, obj, kind):
    """A NilMatrix or UniMatrix (kind) from its n x n grid.  A grid of
    constant entries in the common shapes is read straight into the
    integer form (`_constant_grid`), building no polynomial; a grid whose
    fixed entries are the writer's 0 and 1 has only its strictly upper
    entries read (`_fixed_grid`).  Otherwise the entries are read as
    polynomials over one ring and the grid is square: only the diagonal is
    left for the matrix to check."""
    _expect(obj, dict, "matrix")
    n = _expect(obj.get("n"), int, "n")
    if n < 1:
        raise FormatError("matrix size must be at least 1")
    entries = _expect(obj.get("entries"), list, "entries")
    if len(entries) != n or any(len(_expect(r, list, "matrix row")) != n for r in entries):
        raise FormatError("matrix entries must form an n x n grid")
    form = _constant_grid(field, entries, kind is UniMatrix)
    if form is not None:
        return kind._from_int(PolyRing(field, 0), n, form)
    mat = _fixed_grid(field, entries, kind)
    if mat is not None:
        return mat
    rows = tuple([tuple([poly_from_json(field, e) for e in row]) for row in entries])
    ring = rows[0][0].ring
    if any(e.ring is not ring for row in rows for e in row):
        raise FormatError("matrix entries mix different rings")
    mat = kind(ring, rows, check=False)
    mat._check_diagonal()
    return mat


def nil_from_json(field, obj) -> NilMatrix:
    return _grid_from_json(field, obj, NilMatrix)


def uni_from_json(field, obj) -> UniMatrix:
    return _grid_from_json(field, obj, UniMatrix)


def span_doc(span: LieSpan):
    """The group's document with its basis matrices as objects; its dict
    form is `span_to_json`'s, and likewise for the `*_doc` builders
    below."""
    return {"n": span.n, "basis": list(span.basis)}


def span_to_json(span: LieSpan):
    return to_json(span_doc(span))


@functools.lru_cache(maxsize=16)
def _full_span_doc(field, n):
    """The writer's document of `full_unipotent_span(n, field)`, for
    comparison only: it is never handed out, so nothing edits it.  Each
    E_ij is put together from the writer's documents of 0 and 1
    (`_fixed_docs`), shared, so the first read of a size does not write a
    span."""
    zero, one = _fixed_docs(PolyRing(field, 0))
    basis = []
    for i, j in _upper_positions(n)[0]:
        entries = [[zero] * n for _ in range(n)]
        entries[i][j] = one
        basis.append({"n": n, "entries": entries})
    return {"n": n, "basis": basis}


def _is_full_span(field, n, obj):
    """Whether the group object obj, of int size n, is exactly the writer's
    document of `full_unipotent_span(n, field)`.  The basis length is
    checked first, so the reference built is never larger than the input.
    `==` takes 1.0 and true for 1 and false for 0, so once the two are
    equal the type of every number is checked: each matrix's n, each
    entry's q and the num and den of the one term of each E_ij (every
    other entry has no term)."""
    basis = obj.get("basis")
    size = n * (n - 1) // 2
    if type(basis) is not list or len(basis) != size or obj != _full_span_doc(field, n):
        return False
    for mat, (i, j) in zip(basis, _upper_positions(n)[0]):
        entries = mat["entries"]
        if (type(mat["n"]) is not int
                or not _INT.issuperset([type(e["q"]) for row in entries for e in row])):
            return False
        coef = entries[i][j]["terms"][0]["coef"]
        for c in coef["coords"] if "coords" in coef else (coef,):
            if type(c["num"]) is not int or type(c["den"]) is not int:
                return False
    return True


def span_from_json(field, obj) -> LieSpan:
    """A group span.  The writer's document of the full group,
    `span_to_json(full_unipotent_span(n, field))`, is compared, not read
    (`_is_full_span`), and gives that span, built in the integer form;
    every other document, the same basis in another order among them, is
    read matrix by matrix and checked by `LieSpan`."""
    _expect(obj, dict, "group span")
    n = obj.get("n")
    if type(n) is not int:
        raise FormatError("expected int for n, got %s" % type(n).__name__)
    if n < 1:
        raise FormatError("matrix size must be at least 1")
    if _is_full_span(field, n, obj):
        return full_unipotent_span(n, field)
    basis = [nil_from_json(field, b)
             for b in _expect(obj.get("basis", []), list, "basis")]
    return LieSpan(basis, n=n, field=field)


def tuple_doc(t: SectionTuple):
    return {"field": field_to_json(t.group.field), "group": span_doc(t.group),
            "sections": list(t.sections)}


def tuple_to_json(t: SectionTuple):
    return to_json(tuple_doc(t))


def tuple_from_json(obj) -> SectionTuple:
    _expect(obj, dict, "section tuple")
    field = field_from_json(obj.get("field"))
    group = span_from_json(field, _expect(obj.get("group"), dict, "group"))
    sections = [uni_from_json(field, s)
                for s in _expect(obj.get("sections"), list, "sections")]
    return SectionTuple(group, sections)


# ---------------------------------------------------------------------------
# covers, local and simplicial sections
# ---------------------------------------------------------------------------

def cover_to_json(cover: FiniteCover):
    return {"points": list(cover.points), "opens": [list(op) for op in cover.opens]}


def cover_from_json(obj) -> FiniteCover:
    _expect(obj, dict, "cover")
    points = [_expect(x, str, "point label")
              for x in _expect(obj.get("points"), list, "points")]
    opens = [[_expect(x, str, "point label") for x in _expect(op, list, "open")]
             for op in _expect(obj.get("opens"), list, "opens")]
    return FiniteCover(points, opens)


def locals_to_json(local_sections):
    return to_json({str(ls.open_index): ls.values for ls in local_sections})


def locals_from_json(field, obj):
    _expect(obj, dict, "local sections")
    parsed = []
    for key, values in obj.items():
        try:
            idx = int(key)
        except (TypeError, ValueError):
            raise FormatError("local-section keys must be open indices") from None
        parsed.append((idx, values))
    out = []
    for idx, values in sorted(parsed):
        vals = {_expect(x, str, "point label"): uni_from_json(field, v)
                for x, v in _expect(values, dict, "local values").items()}
        out.append(LocalSection(idx, vals))
    return out


def _mi_key(mi):
    return ".".join(str(i) for i in mi)


def _mi_from_key(key, nopens):
    """The multi-index a level key names.  Only the writer's spelling
    (`_mi_key`) of a weakly increasing multi-index of opens 0..nopens-1 is
    read, so no two keys name one multi-index."""
    try:
        mi = tuple(int(p) for p in key.split("."))
    except ValueError:
        mi = None
    if (mi is None or _mi_key(mi) != key or mi[0] < 0 or mi[-1] >= nopens
            or any(a > b for a, b in zip(mi, mi[1:]))):
        raise FormatError("bad multi-index key %r: expected weakly increasing open "
                          "indices from 0 to %d joined by '.'" % (key, nopens - 1))
    return mi


def simplicial_doc(s: SimplicialSection):
    levels = {}
    for q in sorted(s.levels):
        for mi, per_point in sorted(s.levels[q].items()):
            levels[_mi_key(mi)] = per_point
    return {"field": field_to_json(s.group.field),
            "cover": cover_to_json(s.cover),
            "group": span_doc(s.group),
            "max_q": s.max_q,
            "levels": levels}


def simplicial_to_json(s: SimplicialSection):
    return to_json(simplicial_doc(s))


def simplicial_from_json(obj) -> SimplicialSection:
    _expect(obj, dict, "simplicial section")
    field = field_from_json(obj.get("field"))
    cover = cover_from_json(_expect(obj.get("cover"), dict, "cover"))
    group = span_from_json(field, _expect(obj.get("group"), dict, "group"))
    max_q = obj.get("max_q")
    if type(max_q) is not int:
        raise FormatError("expected int for max_q, got %s" % type(max_q).__name__)
    if max_q < 0:
        raise FormatError("max_q must be nonnegative, got %d" % max_q)
    levels = {q: {} for q in range(max_q + 1)}
    for key, per_point in _expect(obj.get("levels"), dict, "levels").items():
        mi = _mi_from_key(key, len(cover.opens))
        q = len(mi) - 1
        if q not in levels:
            raise FormatError("multi-index %r exceeds max_q=%d" % (key, max_q))
        vals = {_expect(x, str, "point label"): uni_from_json(field, v)
                for x, v in _expect(per_point, dict, "level datum").items()}
        levels[q][mi] = vals
    return SimplicialSection(cover, group, levels, max_q)


def validation_report_to_json(rep: ValidationReport):
    return {"ok": rep.ok, "checks": rep.checks,
            "failures": [dict(f) for f in rep.failures],
            "summary": rep.summary()}


def tower_report_to_json(rep: TowerReport):
    return {"ok": rep.ok, "levels": rep.levels, "failures": list(rep.failures),
            "summary": rep.summary()}


# ---------------------------------------------------------------------------
# Galois orbits
# ---------------------------------------------------------------------------

def orbit_to_json(orbit: GaloisOrbit):
    return to_json({"field": field_to_json(orbit.action.field),
                    "generators": [scalar_to_json(g.image) for g in orbit.action.generators],
                    "group": span_doc(orbit.group),
                    "points": list(orbit.points)})


def orbit_from_json(obj) -> GaloisOrbit:
    _expect(obj, dict, "orbit")
    field = field_from_json(obj.get("field"))
    if field.is_rationals:
        raise FormatError("an orbit needs an extension field")
    gens = [scalar_from_json(field, g)
            for g in _expect(obj.get("generators"), list, "generators")]
    action = GaloisAction(field, gens)
    group = span_from_json(field, _expect(obj.get("group"), dict, "group"))
    points = [uni_from_json(field, z)
              for z in _expect(obj.get("points"), list, "points")]
    orbit = GaloisOrbit(group, action, points)
    # the field has at most field.degree automorphisms, and by Artin's
    # theorem a group of them fixes exactly Q when it has that many; with
    # fewer, an orbit's average may be irrational through no fault of the
    # averaging, so the document is refused here
    count = _automorphism_count(action)
    if count < field.degree:
        raise InputError("the Galois generators generate a group of order %d, less than "
                         "the field degree %d, so they fix more than Q" % (count, field.degree))
    return orbit


def _automorphism_count(action):
    """The order of the group the generators generate: an automorphism is
    fixed by its image of the field generator, so this is the size of the
    closure of the generators' images under the generators."""
    images = {g.image for g in action.generators}
    frontier = list(images)
    while frontier:
        value = frontier.pop()
        for g in action.generators:
            image = g.apply_value(value)
            if image not in images:
                images.add(image)
                frontier.append(image)
    return len(images)