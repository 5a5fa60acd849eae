"""JSON encoding and decoding for every value the CLI touches.

All numbers travel as exact integers: rationals are {"num", "den"}
objects, extension scalars are {"coords": [rational]} in the power basis.
Emitted documents parse back to equal values; term lists are sorted so
output is deterministic, though equality is of canonical forms, not bytes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

from .errors import InputError
from .exactring import (QQ, GaloisAction, PolyRing, ScalarField, ScalarValue,
                        SimplexPoly, _canonical, _canonical_scalar)
from .nilpotent import LieSpan, NilMatrix, UniMatrix
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


def _literal(obj):
    """A number literal, an integer or a num/den object, as integers
    (numerator, denominator) with a positive denominator; every number
    read is parsed here.  num and den may be booleans, read as 0 and 1."""
    if isinstance(obj, bool):
        raise FormatError("booleans are not numbers")
    if isinstance(obj, int):
        return obj, 1
    if isinstance(obj, dict) and set(obj) <= {"num", "den"}:
        num = int(_expect(obj.get("num", 0), int, "num"))
        den = int(_expect(obj.get("den", 1), int, "den"))
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


def _scalar_literals(field: ScalarField, obj):
    """A scalar's power-basis coordinates as (numerator, denominator)
    literals: a {"coords": [...]} object, or one number for the first
    coordinate."""
    if isinstance(obj, dict) and "coords" in obj:
        lits = [_literal(c) for c in _expect(obj["coords"], list, "coords")]
        if len(lits) != field.degree:
            raise InputError("expected %d coordinates, got %d" % (field.degree, len(lits)))
        return lits
    return [_literal(obj)] + [(0, 1)] * (field.degree - 1)


def scalar_from_json(field: ScalarField, obj) -> ScalarValue:
    lits = _scalar_literals(field, obj)
    den = math.lcm(*(d for _, d in lits))
    return _canonical_scalar(field, den, tuple([num * (den // d) for num, d in lits]))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def poly_to_json(p: SimplexPoly):
    den = p.den
    rational = p.ring.field.is_rationals
    terms = []
    for exp in sorted(p.nums, key=lambda e: (sum(e), e)):
        terms.append({"exp": list(exp), "coef": _coef_to_json(p.nums[exp], den, rational)})
    return {"q": p.ring.q, "params": list(p.ring.params), "terms": terms}


def poly_from_json(field: ScalarField, obj, rings=None) -> SimplexPoly:
    """Read a polynomial.  ``rings`` maps (q, params) to the PolyRing already
    built in the same read, so the values of one document share ring
    objects and compare them by identity.  Coefficients are read as integer
    literals and put over their least common denominator, so the canonical
    form takes one lcm and one gcd reduction."""
    _expect(obj, dict, "polynomial")
    q = _expect(obj.get("q", 0), int, "q")
    params = tuple(_expect(n, str, "parameter name")
                   for n in _expect(obj.get("params", []), list, "params"))
    if rings is None:
        rings = {}
    ring = rings.get((q, params))
    if ring is None:
        ring = rings[(q, params)] = PolyRing(field, q, params)
    terms = []
    negative = None         # the first exponent vector with a negative entry
    for term in _expect(obj.get("terms", []), list, "terms"):
        _expect(term, dict, "term")
        exp = tuple(_expect(term.get("exp"), list, "exp"))
        if not all(type(e) is int for e in exp):
            exp = tuple(int(_expect(e, int, "exponent")) for e in exp)
        if len(exp) != ring.nvars:
            raise FormatError("exponent length %d, ring has %d variables"
                              % (len(exp), ring.nvars))
        if negative is None and any(e < 0 for e in exp):
            negative = exp
        terms.append((exp, _scalar_literals(field, term.get("coef"))))
    if negative is not None:
        raise InputError("bad exponent vector %r" % (negative,))
    # every coefficient over one common denominator, duplicates summed
    den = math.lcm(*(d for _, lits in terms for _, d in lits))
    nums = {}
    for exp, lits in terms:
        vec = tuple([num * (den // d) for num, d in lits])
        cur = nums.get(exp)
        nums[exp] = vec if cur is None else tuple(map(add, cur, vec))
    return _canonical(ring, den, {e: v for e, v in nums.items() if any(v)})


# ---------------------------------------------------------------------------
# matrices, spans, tuples
# ---------------------------------------------------------------------------

def matrix_to_json(mat):
    return {"n": mat.n, "entries": [[poly_to_json(e) for e in row] for row in mat.rows]}


def _grid_from_json(field, obj, what, rings=None):
    _expect(obj, dict, what)
    n = _expect(obj.get("n"), int, "n")
    if n < 1:
        raise FormatError("matrix size must be at least 1")
    entries = _expect(obj.get("entries"), list, "entries")
    if len(entries) != n or any(len(_expect(r, list, "matrix row")) != n for r in entries):
        raise FormatError("matrix entries must form an n x n grid")
    if rings is None:
        rings = {}
    rows = [[poly_from_json(field, e, rings) for e in row] for row in entries]
    if len({e.ring for row in rows for e in row}) > 1:
        raise FormatError("matrix entries mix different rings")
    return n, rows, rows[0][0].ring if rows else PolyRing(field, 0)


def nil_from_json(field, obj, rings=None) -> NilMatrix:
    n, rows, ring = _grid_from_json(field, obj, "matrix", rings)
    return NilMatrix(ring, rows)


def uni_from_json(field, obj, rings=None) -> UniMatrix:
    n, rows, ring = _grid_from_json(field, obj, "matrix", rings)
    return UniMatrix(ring, rows)


def span_to_json(span: LieSpan):
    return {"n": span.n, "basis": [matrix_to_json(b) for b in span.basis]}


def span_from_json(field, obj, rings=None) -> LieSpan:
    _expect(obj, dict, "group span")
    n = _expect(obj.get("n"), int, "n")
    basis = [nil_from_json(field, b, rings)
             for b in _expect(obj.get("basis", []), list, "basis")]
    return LieSpan(basis, n=n, field=field)


def tuple_to_json(t: SectionTuple):
    return {"field": field_to_json(t.group.field),
            "group": span_to_json(t.group),
            "sections": [matrix_to_json(s) for s in t.sections]}


def tuple_from_json(obj) -> SectionTuple:
    _expect(obj, dict, "section tuple")
    field = field_from_json(obj.get("field"))
    rings = {}
    group = span_from_json(field, _expect(obj.get("group"), dict, "group"), rings)
    sections = [uni_from_json(field, s, rings)
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
    return {str(ls.open_index): {x: matrix_to_json(v) for x, v in ls.values.items()}
            for ls in local_sections}


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


def _mi_from_key(key):
    try:
        return tuple(int(p) for p in key.split("."))
    except ValueError:
        raise FormatError("bad multi-index key %r" % (key,)) from None


def simplicial_to_json(s: SimplicialSection):
    levels = {}
    for q in sorted(s.levels):
        for mi, per_point in sorted(s.levels[q].items()):
            levels[_mi_key(mi)] = {x: matrix_to_json(v) for x, v in per_point.items()}
    return {"field": field_to_json(s.group.field),
            "cover": cover_to_json(s.cover),
            "group": span_to_json(s.group),
            "max_q": s.max_q,
            "levels": levels}


def simplicial_from_json(obj) -> SimplicialSection:
    _expect(obj, dict, "simplicial section")
    field = field_from_json(obj.get("field"))
    cover = cover_from_json(_expect(obj.get("cover"), dict, "cover"))
    rings = {}
    group = span_from_json(field, _expect(obj.get("group"), dict, "group"), rings)
    max_q = _expect(obj.get("max_q"), int, "max_q")
    if max_q < 0:
        raise FormatError("max_q must be nonnegative, got %d" % max_q)
    levels = {q: {} for q in range(max_q + 1)}
    for key, per_point in _expect(obj.get("levels"), dict, "levels").items():
        mi = _mi_from_key(key)
        q = len(mi) - 1
        if q not in levels:
            raise FormatError("multi-index %r exceeds max_q=%d" % (key, max_q))
        vals = {_expect(x, str, "point label"): uni_from_json(field, v, rings)
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
    return {"field": field_to_json(orbit.action.field),
            "generators": [scalar_to_json(g.image) for g in orbit.action.generators],
            "group": span_to_json(orbit.group),
            "points": [matrix_to_json(z) for z in orbit.points]}


def orbit_from_json(obj) -> GaloisOrbit:
    _expect(obj, dict, "orbit")
    field = field_from_json(obj.get("field"))
    if field.is_rationals:
        raise FormatError("an orbit needs an extension field")
    gens = [scalar_from_json(field, g)
            for g in _expect(obj.get("generators"), list, "generators")]
    action = GaloisAction(field, gens)
    rings = {}
    group = span_from_json(field, _expect(obj.get("group"), dict, "group"), rings)
    points = [uni_from_json(field, z, rings)
              for z in _expect(obj.get("points"), list, "points")]
    return GaloisOrbit(group, action, points)