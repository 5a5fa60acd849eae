"""End-to-end runs of the command line driver."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from unipavg import (
    QQ,
    NilMatrix,
    PolyRing,
    SectionTuple,
    UniMatrix,
    bch,
    embed_simplex,
    exp_nilpotent,
    full_unipotent_span,
    wav,
    wsym,
)
import unipavg
from unipavg.cli import _HANDLERS, main
from unipavg.errors import InvariantViolation
from unipavg import serialize
from unipavg.fixtures import (
    cover_local_sections,
    heisenberg_span,
    six_point_cover,
    sqrt2_field,
    sqrt2_orbit,
    two_point_tuple,
)
from helpers import rand_tuple


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


# ---------------------------------------------------------------------------
# wav
# ---------------------------------------------------------------------------

def test_wav_roundtrip(tmp_path, capsys):
    t = two_point_tuple()
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(t))
    code, out, err = run(capsys, ["wav", "--input", path])
    assert code == 0 and err is None
    assert out["q"] == 1
    assert serialize.uni_from_json(QQ, out["wav"]) == wav(t)


def test_wav_with_vertex_weights(tmp_path, capsys):
    t = two_point_tuple()
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(t))
    code, out, _ = run(capsys, ["wav", "--input", path, "--weights", "[0, 1]"])
    assert code == 0
    assert serialize.uni_from_json(QQ, out["evaluated"]) == t.sections[1]


def test_wav_weight_errors(tmp_path, capsys):
    t = two_point_tuple()
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(t))
    code, _, err = run(capsys, ["wav", "--input", path, "--weights",
                                '[{"num":1,"den":2},{"num":1,"den":4}]'])
    assert code == 2
    assert err["error"]["kind"] == "input-error"
    code, _, err = run(capsys, ["wav", "--input", path, "--weights", "[1]"])
    assert code == 2


def test_wav_iteration_override(tmp_path, capsys):
    t = two_point_tuple()
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(t))
    code, out, _ = run(capsys, ["wav", "--input", path, "--iterations", "3"])
    assert code == 0
    assert serialize.uni_from_json(QQ, out["wav"]) == wav(t)
    code, _, err = run(capsys, ["wav", "--input", path, "--iterations", "1"])
    assert code == 2
    assert err["error"]["kind"] == "input-error"


def test_wav_rejects_simplex_sections(tmp_path, capsys):
    rng = random.Random(701)
    heis = heisenberg_span()
    t = rand_tuple(rng, heis, 1)
    lifted = SectionTuple(heis, [embed_simplex(p, 1) for p in t.sections])
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(lifted))
    code, _, err = run(capsys, ["wav", "--input", path])
    assert code == 2


@pytest.mark.parametrize("keep, message", [
    ([0, 1, 2, 0], "the span basis is linearly dependent"),
    ([0, 2], "span is not closed under the bracket (basis pair 0, 1)"),
], ids=["dependent", "not-closed"])
def test_wav_rejects_a_bad_span_basis(tmp_path, capsys, keep, message):
    # the Heisenberg basis is E_01, E_02, E_12, and [E_01, E_12] = E_02
    doc = serialize.tuple_to_json(two_point_tuple())
    doc["group"]["basis"] = [doc["group"]["basis"][k] for k in keep]
    path = write_doc(tmp_path, "t.json", doc)
    code, out, err = run(capsys, ["wav", "--input", path])
    assert code == 2 and out is None
    assert err["error"] == {"kind": "input-error", "type": "InputError", "message": message}


def test_wav_output_file(tmp_path, capsys):
    t = two_point_tuple()
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(t))
    out_path = tmp_path / "out.json"
    code = main(["wav", "--input", path, "--output", str(out_path)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert serialize.uni_from_json(QQ, doc["wav"]) == wav(t)


def test_stdin_input(capsys, monkeypatch):
    t = two_point_tuple()
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(serialize.tuple_to_json(t))))
    code, out, _ = run(capsys, ["wav", "--input", "-"])
    assert code == 0
    assert out["q"] == 1


# ---------------------------------------------------------------------------
# wsym, exp, log, bch
# ---------------------------------------------------------------------------

def test_wsym_roundtrip(tmp_path, capsys):
    rng = random.Random(702)
    heis = heisenberg_span()
    t = rand_tuple(rng, heis, 1)
    lifted = SectionTuple(heis, [embed_simplex(p, 1) for p in t.sections])
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(lifted))
    code, out, _ = run(capsys, ["wsym", "--input", path])
    assert code == 0
    assert serialize.tuple_from_json(out) == wsym(lifted)


def test_wsym_rejects_constant_sections(tmp_path, capsys):
    rng = random.Random(703)
    t = rand_tuple(rng, heisenberg_span(), 1)
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(t))
    code, _, err = run(capsys, ["wsym", "--input", path])
    assert code == 2


def test_exp_log_inverse_through_cli(tmp_path, capsys):
    ring = PolyRing(QQ, 1)
    N = NilMatrix.from_entries(ring, 3, {(0, 1): ring.coordinate(0),
                                         (1, 2): ring.one(),
                                         (0, 2): ring.constant(Fraction(1, 3))})
    path = write_doc(tmp_path, "n.json", serialize.matrix_to_json(N))
    code, out, _ = run(capsys, ["exp", "--input", path])
    assert code == 0
    assert serialize.uni_from_json(QQ, out) == exp_nilpotent(N)
    path2 = write_doc(tmp_path, "u.json", out)
    code, out2, _ = run(capsys, ["log", "--input", path2])
    assert code == 0
    assert serialize.nil_from_json(QQ, out2) == N


def test_bch_through_cli(tmp_path, capsys):
    ring = PolyRing(QQ, 0)
    a = NilMatrix.from_entries(ring, 3, {(0, 1): 1})
    b = NilMatrix.from_entries(ring, 3, {(1, 2): 1})
    doc = {"a": serialize.matrix_to_json(a), "b": serialize.matrix_to_json(b)}
    path = write_doc(tmp_path, "ab.json", doc)
    code, out, _ = run(capsys, ["bch", "--input", path])
    assert code == 0
    assert serialize.nil_from_json(QQ, out) == bch(a, b)
    path = write_doc(tmp_path, "bad.json", {"a": serialize.matrix_to_json(a)})
    code, _, err = run(capsys, ["bch", "--input", path])
    assert code == 2


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

def build_sections_doc(field=QQ):
    cover = six_point_cover()
    span, locals_ = cover_local_sections(field)
    return {"field": serialize.field_to_json(field),
            "cover": serialize.cover_to_json(cover),
            "group": serialize.span_to_json(span),
            "locals": serialize.locals_to_json(locals_)}


def test_sections_build(tmp_path, capsys):
    path = write_doc(tmp_path, "cover.json", build_sections_doc())
    code, out, _ = run(capsys, ["sections", "--input", path, "--max-q", "2"])
    assert code == 0
    assert out["report"]["ok"] is True
    assert out["max_q"] == 2
    assert "0.1" in out["levels"]


def test_sections_validate_mode(tmp_path, capsys):
    path = write_doc(tmp_path, "cover.json", build_sections_doc())
    code, built, _ = run(capsys, ["sections", "--input", path, "--max-q", "2"])
    assert code == 0
    built.pop("report")
    path2 = write_doc(tmp_path, "built.json", built)
    code, out, _ = run(capsys, ["sections", "--input", path2, "--max-q", "2"])
    assert code == 0
    assert out["mode"] == "validate"
    assert out["report"]["ok"] is True


def test_sections_validate_catches_corruption(tmp_path, capsys):
    path = write_doc(tmp_path, "cover.json", build_sections_doc())
    code, built, _ = run(capsys, ["sections", "--input", path, "--max-q", "2"])
    built.pop("report")
    # tamper with one glued value: clear the level-1 datum at (0,1), point c
    poly = built["levels"]["0.1"]["c"]["entries"][0][1]
    poly["terms"] = [{"exp": [0], "coef": {"num": 9, "den": 1}}]
    path2 = write_doc(tmp_path, "broken.json", built)
    code, out, _ = run(capsys, ["sections", "--input", path2, "--max-q", "2"])
    assert code == 2
    assert out["report"]["ok"] is False
    named = [f["map"] for f in out["report"]["failures"] if f.get("map")]
    assert named and named[0].startswith(("d^", "s^"))


def test_sections_negative_max_q_is_bad_input(tmp_path, capsys):
    path = write_doc(tmp_path, "cover.json", build_sections_doc())
    code, out, err = run(capsys, ["sections", "--input", path, "--max-q", "-1"])
    assert code == 2 and out is None
    assert "max_q" in err["error"]["message"]
    code, built, _ = run(capsys, ["sections", "--input", path, "--max-q", "1"])
    assert code == 0
    built.pop("report")
    path2 = write_doc(tmp_path, "built.json", built)
    code, out, err = run(capsys, ["sections", "--input", path2, "--max-q", "-2"])
    assert code == 2 and out is None
    assert "max_q" in err["error"]["message"]
    built["max_q"] = -1
    path3 = write_doc(tmp_path, "negative.json", built)
    code, out, err = run(capsys, ["sections", "--input", path3])
    assert code == 2 and out is None
    assert err["error"]["type"] == "FormatError"


# sha256 digests of `sections --max-q 3` output bytes for the six-point
# cover, from the build that averaged every multi-index; building the
# degenerate levels by pullback must reproduce them exactly
SEED_SECTIONS_DIGESTS = {
    "Q": "f6cc984bdc46bbaea5daaa3f65e5491286b1d5c2583480996601468c479990ee",
    "Q(sqrt2)": "1d4e148d895bf25cfd098dfcdcec097f90bc2dddbf57b94111096269f8c94869",
}


@pytest.mark.parametrize("name", sorted(SEED_SECTIONS_DIGESTS))
def test_built_sections_are_byte_identical(tmp_path, capsys, name):
    field = QQ if name == "Q" else sqrt2_field()
    path = write_doc(tmp_path, "cover.json", build_sections_doc(field))
    assert main(["sections", "--input", path, "--max-q", "3"]) == 0
    text = capsys.readouterr().out
    assert json.loads(text)["report"]["checks"] == 416
    assert hashlib.sha256(text.encode()).hexdigest() == SEED_SECTIONS_DIGESTS[name]


# ---------------------------------------------------------------------------
# galois
# ---------------------------------------------------------------------------

def test_galois_rational_point(tmp_path, capsys):
    from unipavg import rational_point

    orbit = sqrt2_orbit()
    path = write_doc(tmp_path, "orbit.json", serialize.orbit_to_json(orbit))
    code, out, _ = run(capsys, ["galois", "--input", path])
    assert code == 0
    assert serialize.uni_from_json(QQ, out["rational_point"]) == rational_point(orbit)


def test_galois_rejects_broken_orbit(tmp_path, capsys):
    orbit = sqrt2_orbit()
    doc = serialize.orbit_to_json(orbit)
    doc["points"] = doc["points"][:1]
    path = write_doc(tmp_path, "orbit.json", doc)
    code, _, err = run(capsys, ["galois", "--input", path])
    assert code == 2
    assert "closed" in err["error"]["message"]


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

def test_figure_data_line(tmp_path, capsys):
    t = two_point_tuple()
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(t))
    code, out, _ = run(capsys, ["figure-data", "--input", path, "--resolution", "4"])
    assert code == 0
    assert out["resolution"] == 4 and len(out["samples"]) == 5
    # endpoints are the input sections: the grid starts at w = (0, 1)
    first, last = out["samples"][0], out["samples"][-1]
    assert first["weights"] == [{"num": 0, "den": 1}, {"num": 1, "den": 1}]
    assert last["weights"] == [{"num": 1, "den": 1}, {"num": 0, "den": 1}]
    a01 = serialize.scalar_from_json(QQ, first["entries"][0][1]["value"])
    assert a01 == t.sections[1].entry(0, 1).constant_value()
    b01 = serialize.scalar_from_json(QQ, last["entries"][0][1]["value"])
    assert b01 == t.sections[0].entry(0, 1).constant_value()
    # decimal advisory renders the exact value
    cell = out["samples"][2]["entries"][0][1]
    val = serialize.scalar_from_json(QQ, cell["value"]).as_fraction()
    assert cell["decimal"] == format(float(val), ".12g")


def test_figure_data_leaves_out_a_decimal_beyond_the_float_range(tmp_path, capsys):
    """A rational cell too large for a float carries its exact value alone;
    the in-range cells keep their decimals."""
    span = full_unipotent_span(3, QQ)
    big = 10 ** 400
    pts = [UniMatrix.from_entries(span.ring, 3, {(0, 1): big, (1, 2): 1}),
           UniMatrix.from_entries(span.ring, 3, {(1, 2): 2})]
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(SectionTuple(span, pts)))
    code = main(["figure-data", "--input", path, "--resolution", "2"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    f0 = json.loads(captured.out)["samples"][-1]["entries"]     # weights (1, 0)
    assert serialize.scalar_from_json(QQ, f0[0][1]["value"]) == QQ.value(big)
    assert "decimal" not in f0[0][1]
    assert f0[1][2]["decimal"] == "1"


def test_figure_data_triangle_count(tmp_path, capsys):
    rng = random.Random(704)
    t = rand_tuple(rng, heisenberg_span(), 2)
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(t))
    code, out, _ = run(capsys, ["figure-data", "--input", path, "--resolution", "3"])
    assert code == 0
    assert len(out["samples"]) == 10     # C(3+2, 2)


def test_figure_data_rejections(tmp_path, capsys):
    rng = random.Random(705)
    t3 = rand_tuple(rng, heisenberg_span(), 3)
    path = write_doc(tmp_path, "t3.json", serialize.tuple_to_json(t3))
    code, _, err = run(capsys, ["figure-data", "--input", path])
    assert code == 2
    t1 = two_point_tuple()
    path = write_doc(tmp_path, "t1.json", serialize.tuple_to_json(t1))
    code, _, err = run(capsys, ["figure-data", "--input", path, "--resolution", "0"])
    assert code == 2


def test_figure_data_resolution_limit(tmp_path, capsys):
    # only the exit code: a resolution past the limit is refused before any
    # grid point is built
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(two_point_tuple()))
    code, out, err = run(capsys, ["figure-data", "--input", path, "--resolution", "65"])
    assert code == 2 and out is None
    assert err["error"]["kind"] == "input-error"


# ---------------------------------------------------------------------------
# failure plumbing
# ---------------------------------------------------------------------------

def test_invalid_json_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["wav", "--input", str(bad)])
    assert code == 2
    assert err["error"]["kind"] == "input-error"
    code, _, err = run(capsys, ["wav", "--input", str(tmp_path / "absent.json")])
    assert code == 2


def _digit_limit():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("integer string conversion is unlimited")
    return limit


@pytest.mark.parametrize("subcommand", ["wav", "wsym", "exp", "sections", "galois"])
def test_an_integer_over_the_digit_limit_is_bad_input(tmp_path, capsys, subcommand):
    big = "1" * (_digit_limit() + 700)
    path = tmp_path / "big.json"
    path.write_text('{"field": {"rationals": true}, "matrix": {"num": %s, "den": 3}}' % big)
    code, out, err = run(capsys, [subcommand, "--input", str(path)])
    assert code == 2 and out is None
    assert err["error"]["type"] == "FormatError"
    assert str(sys.get_int_max_str_digits()) in err["error"]["message"]


def test_input_that_is_not_utf8_is_bad_input(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"a": "\xff"}')
    code, out, err = run(capsys, ["wav", "--input", str(path)])
    assert code == 2 and out is None
    assert err["error"]["type"] == "FormatError"
    assert "utf-8" in err["error"]["message"]


def test_weights_over_the_digit_limit_are_bad_input(tmp_path, capsys):
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(two_point_tuple()))
    big = "1" * (_digit_limit() + 700)
    code, out, err = run(capsys, ["wav", "--input", path, "--weights", "[%s, 0]" % big])
    assert code == 2 and out is None
    assert err["error"]["type"] == "FormatError"
    assert str(sys.get_int_max_str_digits()) in err["error"]["message"]


def test_an_output_integer_over_the_digit_limit_writes_nothing(tmp_path, capsys):
    # entries of 0.7 times the limit read back fine, but the log's corner
    # entry has a product of three of them
    big = 10 ** (_digit_limit() * 7 // 10) + 1
    span = unipavg.full_unipotent_span(4, QQ)
    far = unipavg.UniMatrix.from_entries(span.ring, 4, {(i, j): big for i in range(4)
                                                         for j in range(i + 1, 4)})
    t = SectionTuple(span, [unipavg.UniMatrix.identity(span.ring, 4), far])
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(t))
    out_path = tmp_path / "out.json"
    for argv in (["wav", "--input", path], ["wav", "--input", path, "--output", str(out_path)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["kind"] == "input-error"
        assert "more than %d digits" % sys.get_int_max_str_digits() in err["message"]
    assert not out_path.exists()


def test_a_span_whose_basis_disagrees_with_its_size_is_bad_input(tmp_path, capsys):
    doc = serialize.tuple_to_json(two_point_tuple())
    doc["group"]["n"] = 2
    code, out, err = run(capsys, ["wav", "--input", write_doc(tmp_path, "t.json", doc)])
    assert code == 2 and out is None
    assert err["error"] == {"kind": "input-error", "type": "InputError",
                            "message": "span size n = 2, but its basis matrices are 3 x 3"}


@pytest.mark.parametrize("argv, message", [
    (["wav"], "unipavg wav: the following arguments are required: --input"),
    (["sections", "--input", "x.json", "--max-q", "abc"],
     "unipavg sections: argument --max-q: invalid int value: 'abc'"),
    (["figure-data", "--input", "x.json", "--resolution", "x"],
     "unipavg figure-data: argument --resolution: invalid int value: 'x'"),
    (["wav", "--input", "x.json", "--iterations", "1.5"],
     "unipavg wav: argument --iterations: invalid int value: '1.5'"),
    (["frobnicate", "--input", "x.json"], "unipavg: argument subcommand: invalid choice"),
    ([], "unipavg: the following arguments are required: subcommand"),
    (["wav", "--input", "x.json", "--bogus"], "unipavg: unrecognized arguments: --bogus"),
])
def test_usage_errors_are_json_input_errors(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert err["error"]["kind"] == "input-error"
    assert err["error"]["type"] == "InputError"
    assert err["error"]["message"].startswith(message)


def test_usage_error_exit_status_from_the_entry_point():
    proc = _run_cli_process(["wav"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["kind"] == "input-error"


@pytest.mark.parametrize("argv", [["--help"], ["wav", "--help"], ["sections", "-h"]])
def test_help_still_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    prog = " ".join(["unipavg"] + argv[:-1])
    assert captured.out.startswith("usage: %s [-h]" % prog)


def test_invariant_violation_exit_code(tmp_path, capsys, monkeypatch):
    def boom(job):
        raise InvariantViolation("averaging failed to converge")

    monkeypatch.setitem(_HANDLERS, "wav", boom)
    t = two_point_tuple()
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(t))
    code, _, err = run(capsys, ["wav", "--input", path])
    assert code == 3
    assert err["error"]["kind"] == "invariant-violation"


def test_unexpected_error_exits_3_with_json(tmp_path, capsys, monkeypatch):
    def boom(job):
        raise ZeroDivisionError("a defect outside the error hierarchy")

    monkeypatch.setitem(_HANDLERS, "wav", boom)
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(two_point_tuple()))
    code, out, err = run(capsys, ["wav", "--input", path])
    assert code == 3 and out is None
    assert err["error"]["kind"] == "internal-error"
    assert err["error"]["type"] == "ZeroDivisionError"
    assert "in boom" in err["error"]["traceback"]


def _poly_doc(coords):
    terms = [] if coords is None else [{"exp": [], "coef": {"coords": coords}}]
    return {"q": 0, "params": [], "terms": terms}


def test_reducible_minimal_polynomial_is_bad_input(tmp_path, capsys):
    # x^4 - 1 = (x^2 + 1)(x^2 - 1): the basis entry 1 + x^2 has no inverse
    z, one, b = _poly_doc(None), _poly_doc([1, 0, 0, 0]), _poly_doc([1, 0, 1, 0])
    doc = {"field": {"var": "x", "minpoly": [-1, 0, 0, 0, 1]},
           "group": {"n": 2, "basis": [{"n": 2, "entries": [[z, b], [z, z]]}]},
           "sections": [{"n": 2, "entries": [[one, z], [z, one]]},
                        {"n": 2, "entries": [[one, b], [z, one]]}]}
    path = write_doc(tmp_path, "reducible.json", doc)
    code, out, err = run(capsys, ["wav", "--input", path])
    assert code == 2 and out is None
    assert err["error"]["kind"] == "input-error"
    assert "reducible" in err["error"]["message"]
    assert "1 + x^2" in err["error"]["message"]


def _run_cli_process(args):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(unipavg.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "unipavg.cli"] + args,
                          capture_output=True, text=True, env=env, timeout=30)


def test_huge_quadratic_constant_term_is_fast(tmp_path):
    # a 22-digit constant term: the rational-root test is exact but does
    # not scan divisors
    z, one = _poly_doc(None), _poly_doc([1, 0])
    field = {"var": "a", "minpoly": [1000000000000000000003, 0, 1]}
    doc = {"field": field, "matrix": {"n": 2, "entries": [[z, one], [z, z]]}}
    proc = _run_cli_process(["exp", "--input", write_doc(tmp_path, "big.json", doc)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n"] == 2
    # the same field with a bare-list matrix is a format error, also at once
    doc = {"field": field, "matrix": [[0, 1], [0, 0]]}
    proc = _run_cli_process(["exp", "--input", write_doc(tmp_path, "list.json", doc)])
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"]["kind"] == "input-error"


# sha256 digests of the output bytes of the implementation that evaluated
# `wav --weights` by averaging a second time, and figure-data by its own
# inline evaluation; the shared evaluation must reproduce them exactly
SEED_OUTPUT_DIGESTS = {
    "pair": ("ec991cdf89108a36f5d2d4c9535722b5b7fa67c23d70e94a85c402527fde4846",
             "ac93debdccf5366c04900678f94c5629f7ceac8112347733dd906050d66c5c45"),
    "heis": ("2fa495d39c82bf6be35d210677bd517419425bcdef03aabe9e7d4256dcfd3a82",
             "2bbb6b9a300dcdd7dca5de1cd7410390cd5946ff1da3e6152a3528b301833726"),
}


def test_evaluated_outputs_are_byte_identical(tmp_path, capsys):
    cases = {
        "pair": (two_point_tuple(), '[{"num":1,"den":3},{"num":2,"den":3}]'),
        "heis": (rand_tuple(random.Random(2024), heisenberg_span(), 2),
                 '[{"num":1,"den":6},{"num":1,"den":3},{"num":1,"den":2}]'),
    }
    for name, (t, weights) in cases.items():
        path = write_doc(tmp_path, name + ".json", serialize.tuple_to_json(t))
        digests = []
        for argv in (["wav", "--input", path, "--weights", weights],
                     ["figure-data", "--input", path, "--resolution", "3"]):
            assert main(argv) == 0
            digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        assert tuple(digests) == SEED_OUTPUT_DIGESTS[name]
