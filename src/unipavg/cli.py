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
import sys
import traceback
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import serialize
from .average import WeightSeq, eval_matrix_at_weights, wav, wsym
from .errors import InputError, InvariantViolation
from .nilpotent import bch, exp_nilpotent, log_unipotent
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


def _leaf(obj):
    """The JSON text of a string, integer, boolean or None."""
    if isinstance(obj, str):
        return _quote(obj)
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
            raise InputError("an output integer has more than %d digits, Python's limit "
                             "for integer string conversion (sys.get_int_max_str_digits)"
                             % sys.get_int_max_str_digits()) from None
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def _emit_json(obj, write, pad="\n"):
    """Write obj in pieces, byte for byte as json.dumps(obj, indent=2)
    prints it.  json.dumps uses its C encoder only without an indent, and
    its pure-Python one passes each piece up through every enclosing level,
    so outputs are written here, straight to `write`, one piece per member.
    Documents hold dicts with string keys, lists, tuples, strings,
    integers, booleans and None; `pad` is the newline and indent of obj's
    own level."""
    if isinstance(obj, dict):
        members = ((_quote(key) + ": ", value) for key, value in obj.items())
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        members = (("", item) for item in obj)
        brackets = "[]"
    else:
        write(_leaf(obj))
        return
    if not obj:
        write(brackets)
        return
    inner = pad + "  "
    lead = brackets[0] + inner
    for head, value in members:
        if isinstance(value, (dict, list, tuple)):
            write(lead + head)
            _emit_json(value, write, inner)
        else:
            write(lead + head + _leaf(value))
        lead = "," + inner
    write(pad + brackets[1])


def _write_json(doc, path):
    """Write doc and a final newline to path, or to stdout for None or -.
    Every piece is formed before the first is written, so a document that
    cannot be written leaves nothing behind."""
    pieces = []
    _emit_json(doc, pieces.append)
    pieces.append("\n")
    if path is None or path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


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

def cmd_wav(args):
    t = serialize.tuple_from_json(_read_json(args.input))
    if t.r != 0:
        raise InputError("wav expects t-constant sections")
    averaged = wav(t, d_override=args.iterations)
    doc = {"q": t.q, "wav": serialize.matrix_to_json(averaged)}
    if args.weights is not None:
        field = t.group.field
        weights = _parse_weights(args.weights, field, t.q + 1)
        point = eval_matrix_at_weights(averaged, weights)
        doc["weights"] = [serialize.scalar_to_json(w) for w in weights]
        doc["evaluated"] = serialize.matrix_to_json(point)
    _write_json(doc, args.output)
    return 0


def cmd_wsym(args):
    t = serialize.tuple_from_json(_read_json(args.input))
    if t.r != t.q:
        raise InputError("wsym expects sections over the q-simplex")
    out = wsym(t)
    _write_json(serialize.tuple_to_json(out), args.output)
    return 0


def _map_matrix(args, read, fn):
    """Read one matrix (optionally under "matrix", with a "field"), apply
    fn and write the result."""
    doc = _read_json(args.input)
    field = serialize.field_from_json(doc.get("field") if isinstance(doc, dict) else None)
    mat = read(field, doc.get("matrix", doc) if isinstance(doc, dict) else doc)
    _write_json(serialize.matrix_to_json(fn(mat)), args.output)
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
    _write_json(serialize.matrix_to_json(bch(a, b)), args.output)
    return 0


def cmd_sections(args):
    doc = _read_json(args.input)
    if not isinstance(doc, dict):
        raise FormatError("sections input must be an object")
    if "levels" in doc:
        # validate mode: the document already carries a simplicial section
        section = serialize.simplicial_from_json(doc)
        report = validate_simplicial_section(section, min(args.max_q, section.max_q))
        out = {"mode": "validate",
               "report": serialize.validation_report_to_json(report)}
        _write_json(out, args.output)
        return 0 if report.ok else 2
    field = serialize.field_from_json(doc.get("field"))
    cover = serialize.cover_from_json(doc.get("cover"))
    group = serialize.span_from_json(field, doc.get("group"))
    local_sections = serialize.locals_from_json(field, doc.get("locals"))
    section = build_simplicial_section(cover, local_sections, group, max_q=args.max_q)
    report = validate_simplicial_section(section, args.max_q)
    out = serialize.simplicial_to_json(section)
    out["report"] = serialize.validation_report_to_json(report)
    _write_json(out, args.output)
    if not report.ok:
        # the builder guarantees validity; reaching this is a broken invariant
        raise InvariantViolation("freshly built simplicial section failed validation: %s"
                                 % report.summary())
    return 0


def cmd_galois(args):
    from .descent import rational_point
    orbit = serialize.orbit_from_json(_read_json(args.input))
    point = rational_point(orbit)
    doc = {"q": orbit.q, "rational_point": serialize.matrix_to_json(point)}
    _write_json(doc, args.output)
    return 0


# figure-data builds every point of its grid, C(R + q, q) of them, before
# evaluating any, so the resolution R is bounded
MAX_RESOLUTION = 64


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
    t = serialize.tuple_from_json(_read_json(args.input))
    if t.r != 0:
        raise InputError("figure data expects t-constant sections")
    if t.q not in (1, 2):
        raise InputError("figure data supports q = 1 or q = 2, got q = %d" % t.q)
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
                           help="highest simplex level to build/validate")
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
        # last resort: any other failure is a defect, reported as one
        _emit_error("internal-error", exc, traceback.format_exc())
        return 3


def _emit_error(kind, exc, trace=None):
    error = {"kind": kind, "type": type(exc).__name__, "message": str(exc)}
    if trace is not None:
        error["traceback"] = trace
    sys.stderr.write(json.dumps({"error": error}) + "\n")


if __name__ == "__main__":
    sys.exit(main())