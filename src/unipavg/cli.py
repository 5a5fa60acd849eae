"""Command-line front-end.

One job per invocation: read UTF-8 JSON from --input, write JSON to
--output (or stdout).  Exit codes: 0 on success, 2 for bad input, 3 when
an internal guarantee fails (for example a tuple that is still not
constant after the requested number of passes) or on any other
unexpected error, so no input ends in a traceback.  Errors are emitted as a
machine-readable object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from . import serialize
from .average import WeightSeq, eval_matrix_at_weights, wav, wsym
from .errors import InputError, InvariantViolation
from .exactring import _unpack
from .nilpotent import NilMatrix, UniMatrix, bch, exp_nilpotent, log_unipotent
from .serialize import FormatError
from .simplicial import build_simplicial_section, validate_simplicial_section


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from None
    except ValueError as exc:
        # malformed JSON, text that is not UTF-8, or an integer over
        # Python's digit limit for integer string conversion
        raise FormatError("invalid JSON in %s: %s" % (path, exc)) from None


def _digit_limit_error():
    return InputError("an output integer has more than %d digits, Python's limit "
                      "for integer string conversion (sys.get_int_max_str_digits)"
                      % sys.get_int_max_str_digits())


def _leaf(obj):
    """The JSON text of a string, number, boolean or None."""
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, float):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        try:
            return int.__repr__(obj)
        except ValueError:
            raise _digit_limit_error() from None
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


@functools.cache
def _term_format(nvars, ncoords, pad):
    """The indent=2 text at pad of one polynomial term, with a %d for each
    integer: nvars exponents, then num and den of the coefficient, or of
    each of its ncoords coordinates when ncoords is not 0.  It is json.dumps
    of a term whose integers are all 0, a digit no key contains."""
    coef = {"num": 0, "den": 0}
    if ncoords:
        coef = {"coords": [coef] * ncoords}
    text = json.dumps({"exp": [0] * nvars, "coef": coef}, indent=2)
    return text.replace("0", "%d").replace("\n", pad)


def _block(texts, pad):
    """A nonempty list at pad of items given in their indent=2 text."""
    at = pad + "  "
    return "[" + at + ("," + at).join(texts) + pad + "]"


def _poly_object_text(p, pad):
    """The indent=2 text at pad of serialize.poly_to_json(p), formatted
    straight from p's canonical denominator and numerators: terms in key
    order, each coefficient reduced over the denominator, all of their
    integers put into the terms' `_term_format` texts in one % call."""
    ring = p.ring
    nvars, den, nums = ring.nvars, p.den, p.nums
    rational = ring.field.is_rationals
    inner, at = pad + "  ", pad + "    "
    formats = []
    values = []
    for key in sorted(nums):
        vec = nums[key]
        values += _unpack(key, nvars)
        for x in vec:
            g = math.gcd(x, den)
            values += (x // g, den // g)
        formats.append(_term_format(nvars, 0 if rational else len(vec), at))
    names = _block(list(map(_quote, ring.params)), inner) if ring.params else "[]"
    try:
        body = _block(formats, inner) % tuple(values) if formats else "[]"
    except ValueError:
        raise _digit_limit_error() from None
    return ('{%s"q": %d,%s"params": %s,%s"terms": %s%s}'
            % (inner, ring.q, inner, names, inner, body, pad))


def _matrix_text(mat, pad, texts):
    """The indent=2 text at pad of serialize.matrix_to_json(mat), in one
    piece.  texts keeps each entry's text by (id of the polynomial,
    indent) and by (its canonical form, indent), so equal polynomials,
    one object or not, are formatted once per indent
    (`_poly_object_text`)."""
    inner, row_pad = pad + "  ", pad + "    "
    at = row_pad + "  "
    rows = []
    for row in mat.rows:
        cells = []
        for p in row:
            text = texts.get((id(p), at))
            if text is None:
                key = (p.ring, p.den, frozenset(p.nums.items()), at)
                text = texts.get(key)
                if text is None:
                    text = texts[key] = _poly_object_text(p, at)
                texts[id(p), at] = text
            cells.append(text)
        rows.append(_block(cells, row_pad))
    return '{%s"n": %d,%s"entries": %s%s}' % (inner, mat.n, inner, _block(rows, inner), pad)


_MATRICES = (NilMatrix, UniMatrix)
_NESTED = (dict, list, tuple) + _MATRICES


def _emit_json(obj, write, pad="\n", lead="", texts=None):
    """Write obj in pieces, byte for byte as json.dumps prints it with
    indent=2 once each matrix object in it is written as
    serialize.matrix_to_json writes it.  json.dumps uses its C encoder
    only without an indent, and its pure-Python one passes each piece up
    through every enclosing level, so outputs are written here, straight
    to `write`: one piece per leaf and per closing bracket, and one per
    matrix object (`_matrix_text`).  Documents hold dicts with string
    keys, lists, tuples, strings, numbers, booleans, None and NilMatrix or
    UniMatrix objects; `pad` is the newline and indent of obj's own level,
    and `lead` the text before obj, written with its first piece.  `texts`
    holds the polynomial texts of one top-level call for `_matrix_text`, so
    a polynomial the document holds at several places (the zeros and ones
    of a ring) is formatted once per indent; no id in it is reused while
    the document lives."""
    if texts is None:
        texts = {}
    if isinstance(obj, dict):
        members = ((_quote(key) + ": ", value) for key, value in obj.items())
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        members = (("", item) for item in obj)
        brackets = "[]"
    elif isinstance(obj, _MATRICES):
        write(lead + _matrix_text(obj, pad, texts))
        return
    else:
        write(lead + _leaf(obj))
        return
    if not obj:
        write(lead + brackets)
        return
    inner = pad + "  "
    lead += brackets[0] + inner
    for head, value in members:
        if isinstance(value, _NESTED):
            _emit_json(value, write, inner, lead + head, texts)
        else:
            write(lead + head + _leaf(value))
        lead = "," + inner
    write(pad + brackets[1])


def _write_json(doc, path):
    """Write doc and a final newline to path, or to stdout for None or -,
    in one write.  The whole text is formed first, so a document that
    cannot be written leaves nothing behind."""
    pieces = []
    _emit_json(doc, pieces.append)
    pieces.append("\n")
    text = "".join(pieces)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_weights(spec_text, field, expected_len):
    try:
        raw = json.loads(spec_text)
    except json.JSONDecodeError:
        raise FormatError("weights must be a JSON array") from None
    except ValueError as exc:
        # an integer over the digit limit
        raise FormatError("invalid weights: %s" % exc) from None
    if not isinstance(raw, list):
        raise FormatError("weights must be a JSON array")
    values = [serialize.scalar_from_json(field, w) for w in raw]
    if len(values) != expected_len:
        raise InputError("expected %d weights, got %d" % (expected_len, len(values)))
    return WeightSeq(field, values)


# ---------------------------------------------------------------------------
# subcommand handlers, each given the parsed argparse namespace
# ---------------------------------------------------------------------------

# figure-data builds every point of its grid, C(R + q, q) of them, before
# evaluating any, so the resolution R is bounded
MAX_RESOLUTION = 64

# sections builds and checks every level up to max_q, and a cover with m
# opens has C(m + q, q + 1) multi-indices at level q, so max_q is bounded:
# the --max-q of a build, and the max_q of a validate-mode document, for
# which the reader makes one dict per level before reading any
MAX_Q = 8

# and so is their total up to the levels built or validated, C(m + max_q + 1,
# max_q + 1) - 1, counted before any is read.  A multi-index costs more the
# larger the group and the level (about 10 ms each for U_7 on four opens at
# max_q 8), so the terms of a build are bounded as well (MAX_SECTION_TERMS)
MAX_MULTI_INDICES = 1000

# wav, wsym, galois and figure-data average q+1 sections of n x n matrices,
# taking n and q from the document.  If the entry on superdiagonal d has
# total degree <= d in t, the average has at most sum_{d=1}^{n-1} (n - d)
# C(q + d, d) terms; that count is bounded, after reading and before any
# averaging.  The degree bound is proved for every average that
# `average.wav` computes as exp(Phi(L)) f_0 with t-constant L_j, since a
# weight-k bracket of strictly upper matrices lies on superdiagonals >= k:
# for q = 1 or class <= 2 it computes exp(sum_j t_j L_j) f_0 (Lemma A), and
# for a cached Phi (q >= 2, class >= 3, within average.MAX_UNIVERSAL_DIM)
# tests/test_universal.py checks that its weight-k coordinates have t-degree
# <= max(1, k - 1).  It is only observed for the rest, which the pass loop
# averages (full U_n, n <= 8, q <= 4 computed).  The limit admits U_3 up
# to q = 137, U_5 up to q = 17, U_8 up to q = 6, U_10 up to q = 4 and, at
# q = 1, U_n up to n = 38; U_5 at q = 32 (73,810 terms) took 5.5 s.
MAX_AVERAGE_TERMS = 10000

# every reader of a group checks that its basis is closed under the bracket,
# bracketing and solving each of the C(k, 2) pairs of its k basis matrices,
# so that count is bounded, on the raw document before any basis matrix is
# read.  The limit admits full U_n up to n = 12 (66 matrices, 2,145 pairs,
# read in 0.045 s) and the planned jet groups up to dimension 48 (1,128
# pairs); U_38 (703 matrices, 246,753 pairs) took 16.4 s to read.
MAX_SPAN_PAIRS = 2500

# a sections build writes every datum at every level, and pullbacks keep
# degrees, so a level-q datum at one point of n x n matrices has at most the
# per-average count of MAX_AVERAGE_TERMS.  That count times the number of
# intersection points of each multi-index, summed up to max_q, is bounded
# once the cover and the group size are known and before any averaging.
# The limit admits every sections input of the tests and the benchmark (at
# most 971 terms on the benchmark's covers) and full U_4 on a one-point
# cover with four opens at max_q 4 (7,104 terms, 1.2 MB written); it
# refuses U_5 there at max_q 6 (103,455 terms), and U_6 at max_q 8 (1.2
# million terms), which wrote 194 MB, and U_8 at max_q 8, which ran out of
# 3 GB of memory.
MAX_SECTION_TERMS = 100000

# every polynomial's total degree is at most exactring.MAX_DEGREE (255), the
# largest its packed exponent keys hold: the reader refuses an exponent
# vector beyond it, and the kernel a product that would pass it


def _read_group_doc(path):
    """The JSON document at path, refused when its group basis, if it has a
    list there, has more than MAX_SPAN_PAIRS pairs."""
    doc = _read_json(path)
    group = doc.get("group") if isinstance(doc, dict) else None
    basis = group.get("basis") if isinstance(group, dict) else None
    pairs = math.comb(len(basis), 2) if isinstance(basis, list) else 0
    if pairs > MAX_SPAN_PAIRS:
        raise InputError("a group basis of %d matrices has %d pairs to bracket, more than "
                         "MAX_SPAN_PAIRS = %d" % (len(basis), pairs, MAX_SPAN_PAIRS))
    return doc


def _check_max_q(max_q):
    if type(max_q) is int and max_q > MAX_Q:
        raise InputError("max_q must be at most %d, got %d" % (MAX_Q, max_q))


def _check_multi_indices(cover, max_q):
    m = len(cover.opens)
    if max_q >= 0 and math.comb(m + max_q + 1, max_q + 1) - 1 > MAX_MULTI_INDICES:
        raise InputError("a cover with %d opens has more than %d multi-indices up to max_q %d"
                         % (m, MAX_MULTI_INDICES, max_q))


def _average_terms(n, q):
    return sum((n - d) * math.comb(q + d, d) for d in range(1, n))


def _check_average_terms(n, q):
    bound = _average_terms(n, q)
    if bound > MAX_AVERAGE_TERMS:
        raise InputError("an average of %d sections of %d x %d matrices may have %d terms, "
                         "more than MAX_AVERAGE_TERMS = %d" % (q + 1, n, n, bound,
                                                              MAX_AVERAGE_TERMS))


def _check_section_terms(cover, n, max_q):
    # a point in k opens lies in the intersection of C(k + q, q + 1)
    # multi-indices at level q
    counts = Counter(chain.from_iterable(cover.opens)).values()
    bound = sum(_average_terms(n, q) * sum(math.comb(k + q, q + 1) for k in counts)
                for q in range(max_q + 1))
    if bound > MAX_SECTION_TERMS:
        raise InputError("a sections build of %d x %d matrices on this cover up to max_q %d "
                         "may write %d terms, more than MAX_SECTION_TERMS = %d"
                         % (n, n, max_q, bound, MAX_SECTION_TERMS))


def cmd_wav(args):
    t = serialize.tuple_from_json(_read_group_doc(args.input))
    if t.r != 0:
        raise InputError("wav expects t-constant sections")
    _check_average_terms(t.group.n, t.q)
    averaged = wav(t, d_override=args.iterations)
    doc = {"q": t.q, "wav": averaged}
    if args.weights is not None:
        field = t.group.field
        weights = _parse_weights(args.weights, field, t.q + 1)
        point = eval_matrix_at_weights(averaged, weights)
        doc["weights"] = [serialize.scalar_to_json(w) for w in weights]
        doc["evaluated"] = point
    _write_json(doc, args.output)
    return 0


def cmd_wsym(args):
    t = serialize.tuple_from_json(_read_group_doc(args.input))
    if t.r != t.q:
        raise InputError("wsym expects sections over the q-simplex")
    _check_average_terms(t.group.n, t.q)
    out = wsym(t)
    _write_json(serialize.tuple_doc(out), args.output)
    return 0


def _map_matrix(args, read, fn):
    """Read one matrix (optionally under "matrix", with a "field"), apply
    fn and write the result."""
    doc = _read_json(args.input)
    field = serialize.field_from_json(doc.get("field") if isinstance(doc, dict) else None)
    mat = read(field, doc.get("matrix", doc) if isinstance(doc, dict) else doc)
    _write_json(fn(mat), args.output)
    return 0


def cmd_exp(args):
    return _map_matrix(args, serialize.nil_from_json, exp_nilpotent)


def cmd_log(args):
    return _map_matrix(args, serialize.uni_from_json, log_unipotent)


def cmd_bch(args):
    doc = _read_json(args.input)
    if not isinstance(doc, dict) or "a" not in doc or "b" not in doc:
        raise FormatError("bch input needs keys a and b")
    field = serialize.field_from_json(doc.get("field"))
    a = serialize.nil_from_json(field, doc["a"])
    b = serialize.nil_from_json(field, doc["b"])
    _write_json(bch(a, b), args.output)
    return 0


def cmd_sections(args):
    doc = _read_group_doc(args.input)
    if not isinstance(doc, dict):
        raise FormatError("sections input must be an object")
    if "levels" in doc:
        # validate mode: the document already carries a simplicial section
        max_q = doc.get("max_q")
        _check_max_q(max_q)
        if type(max_q) is int:
            _check_multi_indices(serialize.cover_from_json(doc.get("cover")),
                                 min(args.max_q, max_q))
        section = serialize.simplicial_from_json(doc)
        report = validate_simplicial_section(section, min(args.max_q, section.max_q))
        out = {"mode": "validate",
               "report": serialize.validation_report_to_json(report)}
        _write_json(out, args.output)
        return 0 if report.ok else 2
    _check_max_q(args.max_q)
    field = serialize.field_from_json(doc.get("field"))
    cover = serialize.cover_from_json(doc.get("cover"))
    _check_multi_indices(cover, args.max_q)
    group = serialize.span_from_json(field, doc.get("group"))
    local_sections = serialize.locals_from_json(field, doc.get("locals"))
    _check_section_terms(cover, group.n, args.max_q)
    section = build_simplicial_section(cover, local_sections, group, max_q=args.max_q)
    report = validate_simplicial_section(section, args.max_q)
    out = serialize.simplicial_doc(section)
    out["report"] = serialize.validation_report_to_json(report)
    _write_json(out, args.output)
    if not report.ok:
        # the builder guarantees validity; reaching this is a broken invariant
        raise InvariantViolation("freshly built simplicial section failed validation: %s"
                                 % report.summary())
    return 0


def cmd_galois(args):
    from .descent import rational_point
    orbit = serialize.orbit_from_json(_read_group_doc(args.input))
    _check_average_terms(orbit.group.n, orbit.q)
    point = rational_point(orbit)
    doc = {"q": orbit.q, "rational_point": point}
    _write_json(doc, args.output)
    return 0


def _simplex_grid(q, resolution):
    """All exact rational points (k_0/R, ..., k_q/R) with sum k_i = R."""
    out = []

    def rec(i, left, partial):
        if i == q:
            out.append(partial + [Fraction(left, resolution)])
            return
        for k in range(left + 1):
            rec(i + 1, left - k, partial + [Fraction(k, resolution)])

    rec(0, resolution, [])
    return out


def cmd_figure_data(args):
    t = serialize.tuple_from_json(_read_group_doc(args.input))
    if t.r != 0:
        raise InputError("figure data expects t-constant sections")
    if t.q not in (1, 2):
        raise InputError("figure data supports q = 1 or q = 2, got q = %d" % t.q)
    _check_average_terms(t.group.n, t.q)
    resolution = args.resolution if args.resolution is not None else 4
    if not 1 <= resolution <= MAX_RESOLUTION:
        raise InputError("resolution must be an integer from 1 to %d, got %d"
                         % (MAX_RESOLUTION, resolution))
    field = t.group.field
    averaged = wav(t, d_override=args.iterations)
    samples = []
    for weights in _simplex_grid(t.q, resolution):
        value = eval_matrix_at_weights(averaged, WeightSeq(field, weights))
        entries = []
        for i in range(value.n):
            row = []
            for j in range(value.n):
                c = value.entry(i, j).constant_value()
                cell = {"value": serialize.scalar_to_json(c)}
                if c.is_rational:
                    try:
                        cell["decimal"] = format(float(c.as_fraction()), ".12g")
                    except OverflowError:
                        pass    # beyond the float range: the exact value alone
                row.append(cell)
            entries.append(row)
        samples.append({
            "weights": [serialize.fraction_to_json(w) for w in weights],
            "entries": entries,
        })
    doc = {"q": t.q, "resolution": resolution, "n": t.group.n, "samples": samples}
    _write_json(doc, args.output)
    return 0


_HANDLERS = {
    "wav": cmd_wav,
    "wsym": cmd_wsym,
    "exp": cmd_exp,
    "log": cmd_log,
    "bch": cmd_bch,
    "sections": cmd_sections,
    "galois": cmd_galois,
    "figure-data": cmd_figure_data,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (a missing or unknown argument,
    a bad value, an unknown subcommand) raise InputError, so they reach
    stderr as the same JSON object as any other bad input, with exit 2.
    Subcommand parsers are made by the same class."""

    def error(self, message):
        raise InputError("%s: %s" % (self.prog, message))


def build_parser():
    parser = _Parser(
        prog="unipavg",
        description="Exact weighted averages of sections of unipotent-group torsors.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in [
        ("wav", "average a tuple of constant sections over the simplex"),
        ("wsym", "one symmetrization pass on a tuple over the simplex"),
        ("exp", "matrix exponential of a strictly upper matrix"),
        ("log", "matrix logarithm of a unit upper matrix"),
        ("bch", "log of the product of two exponentials"),
        ("sections", "build or validate a simplicial section over a cover"),
        ("galois", "rational point from a Galois orbit by uniform averaging"),
        ("figure-data", "sample the averaged section on an exact simplex grid"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True,
                       help="input JSON path, or - for stdin")
        p.add_argument("--output", default=None,
                       help="output JSON path, or - for stdout (default)")
        if name in ("wav",):
            p.add_argument("--weights", default=None,
                           help="JSON array of weights summing to 1")
        if name in ("wav", "figure-data"):
            p.add_argument("--iterations", type=int, default=None,
                           help="symmetrization pass override (>= derived length)")
        if name == "figure-data":
            p.add_argument("--resolution", type=int, default=None,
                           help="grid resolution R, at most %d; samples at "
                                "multiples of 1/R" % MAX_RESOLUTION)
        if name == "sections":
            p.add_argument("--max-q", type=int, default=3, dest="max_q",
                           help="highest simplex level to build (at most %d) or "
                                "validate" % MAX_Q)
    return parser


# parsing leaves a parser unchanged, so one is built per process, on first use
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _HANDLERS[args.subcommand](args)
    except InputError as exc:
        _emit_error("input-error", exc)
        return 2
    except InvariantViolation as exc:
        _emit_error("invariant-violation", exc)
        return 3
    except Exception as exc:
        # last resort: any other failure is a defect, reported as one; the
        # traceback module is loaded only here, off the common path
        import traceback
        _emit_error("internal-error", exc, traceback.format_exc())
        return 3


def _emit_error(kind, exc, trace=None):
    error = {"kind": kind, "type": type(exc).__name__, "message": str(exc)}
    if trace is not None:
        error["traceback"] = trace
    sys.stderr.write(json.dumps({"error": error}) + "\n")


if __name__ == "__main__":
    sys.exit(main())