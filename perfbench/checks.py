"""The correctness gate: every job's output is checked, outside the timed
region, from the JSON files alone.

Per job (exact arithmetic on the JSON, no unipavg code):
  wav       the average at vertex i equals the input f_i, entry by entry;
  galois    the point is unit upper triangular with rational entries, so
            every field automorphism fixes it;
  sections  a build reports ok and its level-0 data equal the local
            values; a validate job reports ok with the build's check count;
  tower     the report is ok and every projection commutes.
Once per size class per run, an independent sympy computation
(oracle.py) is compared with the output at an interior rational weight.
A verdict depends only on (input, output bytes), so it is computed once
per distinct pair.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction


def _frac(obj):
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Fraction(obj)
    return Fraction(obj["num"], obj["den"])


def _scalar(obj):
    """A scalar as a tuple of power-basis coordinates."""
    if isinstance(obj, dict) and "coords" in obj:
        return tuple(_frac(c) for c in obj["coords"])
    return (_frac(obj),)


def _terms(poly):
    return [(tuple(t["exp"]), _scalar(t["coef"])) for t in poly["terms"]]


def _constant(poly):
    """Value of a t-constant polynomial (zero is the empty term list)."""
    terms = _terms(poly)
    if not terms:
        return None
    if len(terms) != 1 or any(terms[0][0]):
        raise ValueError("entry is not constant")
    return terms[0][1]


def _is_zero(v):
    return v is None or not any(v)


def _same(u, v):
    if _is_zero(u) or _is_zero(v):
        return _is_zero(u) and _is_zero(v)
    return u == v


def _at_vertex(poly, i, q):
    """Value at vertex i of the q-simplex (t_q = 1 - t_0 - ... eliminated)."""
    acc = None
    for exp, coef in _terms(poly):
        if all(e == 0 for j, e in enumerate(exp) if j != i):
            acc = coef if acc is None else tuple(a + b for a, b in zip(acc, coef))
    return acc


def _at_weights(poly, weights):
    """Value of a rational polynomial at exact weights (last one eliminated)."""
    acc = Fraction(0)
    for exp, coef in _terms(poly):
        term = coef[0]
        for w, e in zip(weights, exp):
            term *= w ** e
        acc += term
    return acc


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# per-job checks; each raises on a wrong output
# ---------------------------------------------------------------------------

def _check_wav(inp, out):
    doc = _load(inp["path"])
    q = len(doc["sections"]) - 1
    if out["q"] != q:
        raise ValueError("output q %r, expected %d" % (out["q"], q))
    entries = out["wav"]["entries"]
    n = doc["group"]["n"]
    if out["wav"]["n"] != n:
        raise ValueError("output matrix size differs from the input")
    for i, f in enumerate(doc["sections"]):
        for r in range(n):
            for c in range(n):
                if entries[r][c]["q"] != q:
                    raise ValueError("entry (%d, %d) is not on the %d-simplex" % (r, c, q))
                if not _same(_at_vertex(entries[r][c], i, q), _constant(f["entries"][r][c])):
                    raise ValueError("average at vertex %d differs from f_%d at (%d, %d)"
                                     % (i, i, r, c))


def _check_galois(inp, out):
    point = out["rational_point"]
    n = point["n"]
    for r in range(n):
        for c in range(n):
            v = _constant(point["entries"][r][c])
            if v is not None and len(v) != 1:
                raise ValueError("entry (%d, %d) is not rational" % (r, c))
            expect = (Fraction(1),) if r == c else None
            if r >= c and not _same(v, expect):
                raise ValueError("point is not unit upper triangular at (%d, %d)" % (r, c))


def _check_sections_build(inp, out):
    if not out["report"]["ok"]:
        raise ValueError("build report is not ok: %s" % out["report"]["summary"])
    doc = _load(inp["path"])
    for open_idx, values in doc["locals"].items():
        level0 = out["levels"][open_idx]
        if set(level0) != set(values):
            raise ValueError("level-0 datum of open %s has the wrong points" % open_idx)
        for x, mat in values.items():
            got = level0[x]["entries"]
            for r, row in enumerate(mat["entries"]):
                for c, entry in enumerate(row):
                    if not _same(_constant(got[r][c]), _constant(entry)):
                        raise ValueError("level-0 datum of open %s at %s differs from "
                                         "the local value" % (open_idx, x))


def _check_sections_validate(inp, out):
    rep = out["report"]
    if out.get("mode") != "validate" or not rep["ok"]:
        raise ValueError("validate report is not ok: %s" % rep.get("summary"))
    if rep["checks"] != inp["built_checks"]:
        raise ValueError("validate ran %d checks, the build ran %d"
                         % (rep["checks"], inp["built_checks"]))


def _check_tower(inp, out):
    if not out["ok"] or out["failures"]:
        raise ValueError("tower report is not ok: %s" % out["summary"])
    if len(out["levels"]) != 3 or not all(lv["commutes"] for lv in out["levels"]):
        raise ValueError("tower report does not cover three commuting floors")


_CHECKS = {
    "wav": _check_wav,
    "galois": _check_galois,
    "sections-build": _check_sections_build,
    "sections-validate": _check_sections_validate,
    "tower": _check_tower,
}


def output_terms(inp, out):
    """Number of polynomial terms in the averaged output, for the size record."""
    kind = inp["kind"]
    if kind == "wav":
        mats = [out["wav"]]
    elif kind == "galois":
        mats = [out["rational_point"]]
    elif kind == "sections-build":
        mats = [m for per_point in out["levels"].values() for m in per_point.values()]
    else:
        return 0
    return sum(len(e["terms"]) for m in mats for row in m["entries"] for e in row)


# ---------------------------------------------------------------------------
# the independent sympy check
# ---------------------------------------------------------------------------

def _passes(n):
    """Lift plus the derived length of U_n, which is ceil(log2 n)."""
    return 1 + math.ceil(math.log2(n))


def _sympy_matrix(mat, var):
    import sympy as sp
    n = mat["n"]
    out = sp.zeros(n, n)
    for r in range(n):
        for c in range(n):
            v = _constant(mat["entries"][r][c])
            if v is not None:
                out[r, c] = sum(sp.Rational(x.numerator, x.denominator) * var ** k
                                for k, x in enumerate(v))
    return out


def _sympy_compare(points_json, weights, expected, minpoly_json=None):
    """Compare the oracle's average at `weights` with `expected`, an
    n x n grid of Fractions."""
    import sympy as sp
    from oracle import wav_at
    var = sp.Symbol("a")
    minpoly = None
    if minpoly_json is not None:
        minpoly = sum(sp.Rational(c.numerator, c.denominator) * var ** k
                      for k, c in enumerate(_frac(c) for c in minpoly_json))
    points = [_sympy_matrix(p, var) for p in points_json]
    got = wav_at(points, weights, _passes(points[0].shape[0]), minpoly, var)
    n = len(expected)
    for r in range(n):
        for c in range(n):
            e = expected[r][c]
            if sp.expand(got[r, c] - sp.Rational(e.numerator, e.denominator)) != 0:
                raise ValueError("sympy oracle disagrees at entry (%d, %d)" % (r, c))


def _interior_weights(rng, q):
    raw = [Fraction(rng.randint(1, 5)) for _ in range(q + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def _sympy_check(inp, out, rng):
    kind = inp["kind"]
    if kind == "wav":
        doc = _load(inp["path"])
        w = _interior_weights(rng, len(doc["sections"]) - 1)
        expected = [[_at_weights(e, w[:-1]) for e in row] for row in out["wav"]["entries"]]
        _sympy_compare(doc["sections"], w, expected)
    elif kind == "galois":
        doc = _load(inp["path"])
        q = len(doc["points"]) - 1
        expected = [[(_constant(e) or (Fraction(0),))[0] for e in row]
                    for row in out["rational_point"]["entries"]]
        _sympy_compare(doc["points"], [Fraction(1, q + 1)] * (q + 1), expected,
                       doc["field"]["minpoly"])
    elif kind == "sections-build":
        # the top-level datum over the point that lies in every open
        doc = _load(inp["path"])
        key, per_point = max(out["levels"].items(),
                             key=lambda kv: (len(set(kv[0].split("."))), len(kv[0]), kv[0]))
        mi = [int(i) for i in key.split(".")]
        x = sorted(per_point)[0]
        w = _interior_weights(rng, len(mi) - 1)
        expected = [[_at_weights(e, w[:-1]) for e in row] for row in per_point[x]["entries"]]
        _sympy_compare([doc["locals"][str(i)][x] for i in mi], w, expected)


class Gate:
    """Checks outputs of one run, memoised on (input index, output digest)."""

    def __init__(self, manifest, seed):
        self.inputs = manifest["inputs"]
        self.rng = random.Random("weights/%d" % seed)
        self.verdicts = {}
        self.sympy_done = set()
        self.sympy_checks = 0
        self.terms = {}

    def check(self, idx, path):
        """Return None if the output of a job on input idx is correct, else
        the reason it is not."""
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return "no output: %s" % exc
        key = (idx, hashlib.sha256(data).hexdigest())
        if key not in self.verdicts:
            self.verdicts[key] = self._verdict(self.inputs[idx], data)
        return self.verdicts[key]

    def _verdict(self, inp, data):
        try:
            out = json.loads(data)
            _CHECKS[inp["kind"]](inp, out)
            self.terms.setdefault(inp["class"], output_terms(inp, out))
            if inp["class"] not in self.sympy_done and inp["kind"] != "tower" \
                    and inp["kind"] != "sections-validate":
                _sympy_check(inp, out, self.rng)
                self.sympy_done.add(inp["class"])
                self.sympy_checks += 1
        except Exception as exc:  # any error while checking fails the job
            return "%s: %s" % (type(exc).__name__, exc)
        return None


def corrupt(path, kind):
    """Change one exact value in the result part of an output file: the
    first numerator, or else the first true flag."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    part = {"wav": "wav", "galois": "rational_point", "sections-build": "levels"}.get(kind)

    def bump(node):
        if isinstance(node, dict):
            if "num" in node:
                node["num"] += 1
                return True
            return any(bump(v) for v in node.values())
        if isinstance(node, list):
            return any(bump(v) for v in node)
        return False

    def flip(node):
        if isinstance(node, dict):
            for k, v in node.items():
                if v is True:
                    node[k] = False
                    return True
                if flip(v):
                    return True
        return False

    if not (part is not None and bump(doc[part])) and not flip(doc):
        raise RuntimeError("nothing to corrupt in %s" % path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
