"""End-to-end runs of the command line driver."""

import functools
import hashlib
import io
import json
import math
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
from unipavg import cli
from unipavg.cli import _HANDLERS, MAX_Q, main
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


# (exit code, sha256 of stdout) of `sections` validate at max_q 3 on the
# built six-point document over Q with one datum tampered, written before
# validation counted the coface checks that passed codegeneracy checks imply
# without pulling back: a coefficient of the degenerate level-2 datum at
# (0, 0, 1), point c, and of the nondegenerate level-1 datum at (0, 1),
# point d, each raised by 1, and the level-1 datum at (1, 2), point e, deleted
TAMPERED_VALIDATE_DIGESTS = {
    "degenerate": (2, "7c88e3af960e017808735c636743101db80d3d0a72ec1e6d97a4f0d98e1c59c6"),
    "nondegenerate": (2, "a849ca39fade21f7bd325ca9a89092f3882714acaa847237113a85e958311859"),
    "deleted": (2, "f42f9599f3561c2d6372a31c61d0177b2739441d0754519352515342b569faa3"),
}


def test_tampered_validate_reports_are_byte_identical(tmp_path, capsys):
    path = write_doc(tmp_path, "cover.json", build_sections_doc())
    assert main(["sections", "--input", path, "--max-q", "3"]) == 0
    text = capsys.readouterr().out
    for name, (mi, x) in {"degenerate": ("0.0.1", "c"), "nondegenerate": ("0.1", "d"),
                          "deleted": ("1.2", "e")}.items():
        built = json.loads(text)
        built.pop("report")
        if name == "deleted":
            del built["levels"][mi][x]
        else:
            built["levels"][mi][x]["entries"][0][1]["terms"][0]["coef"]["num"] += 1
        code = main(["sections", "--input", write_doc(tmp_path, name + ".json", built)])
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert (code, digest) == TAMPERED_VALIDATE_DIGESTS[name], name


def test_sections_max_q_limit(tmp_path, capsys, monkeypatch):
    # only the exit code: a max_q past the limit, on the command line of a
    # build or in a validate-mode document, is refused before any level is
    # read or built, so reading or building here fails the test
    assert MAX_Q >= 4
    path = write_doc(tmp_path, "cover.json", build_sections_doc())
    code, built, _ = run(capsys, ["sections", "--input", path, "--max-q", "1"])
    assert code == 0
    built.pop("report")

    def no_work(*args, **kwargs):
        raise AssertionError("work started past the max_q limit")

    monkeypatch.setattr(cli.serialize, "simplicial_from_json", no_work)
    monkeypatch.setattr(cli, "build_simplicial_section", no_work)
    for max_q in (MAX_Q + 1, 10 ** 8):
        code, out, err = run(capsys, ["sections", "--input", path, "--max-q", str(max_q)])
        assert code == 2 and out is None
        assert err["error"]["message"] == "max_q must be at most %d, got %d" % (MAX_Q, max_q)
        path2 = write_doc(tmp_path, "built.json", dict(built, max_q=max_q))
        code, out, err = run(capsys, ["sections", "--input", path2])
        assert code == 2 and out is None
        assert err["error"]["message"] == "max_q must be at most %d, got %d" % (MAX_Q, max_q)


def test_sections_multi_index_limit(tmp_path, capsys, monkeypatch):
    # only the exit code: a cover whose levels up to max_q hold more than
    # MAX_MULTI_INDICES multi-indices is refused before any local section,
    # group or level is read, so reading or building here fails the test
    def no_work(*args, **kwargs):
        raise AssertionError("work started past the multi-index limit")

    for name in ("span_from_json", "locals_from_json", "simplicial_from_json"):
        monkeypatch.setattr(cli.serialize, name, no_work)
    monkeypatch.setattr(cli, "build_simplicial_section", no_work)
    for opens, max_q in ((12, 3), (30, 8), (10 ** 4, 0)):
        assert math.comb(opens + max_q + 1, max_q + 1) - 1 > cli.MAX_MULTI_INDICES
        message = ("a cover with %d opens has more than %d multi-indices up to max_q %d"
                   % (opens, cli.MAX_MULTI_INDICES, max_q))
        cover = {"points": ["x"], "opens": [["x"]] * opens}
        path = write_doc(tmp_path, "cover.json", {"cover": cover})
        code, out, err = run(capsys, ["sections", "--input", path, "--max-q", str(max_q)])
        assert code == 2 and out is None and err["error"]["message"] == message
        # validate mode counts the levels it checks, up to the smaller max_q
        path = write_doc(tmp_path, "built.json", {"cover": cover, "max_q": max_q,
                                                  "levels": {}})
        code, out, err = run(capsys, ["sections", "--input", path, "--max-q", str(MAX_Q)])
        assert code == 2 and out is None and err["error"]["message"] == message


def full_group_on_four_opens(n):
    """Full U_n on a one-point cover with four identical opens, one local
    value per open with log coordinates in {+-1, +-2, +-1/2}."""
    from unipavg import FiniteCover, LocalSection
    from unipavg.fixtures import point_from_coordinates
    span = full_unipotent_span(n, QQ)
    values = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))
    local = [LocalSection(i, {"x": point_from_coordinates(
        span, [values[(3 * i + k) % 6] for k in range(span.dim)])}) for i in range(4)]
    return {"field": serialize.field_to_json(QQ),
            "cover": serialize.cover_to_json(FiniteCover(["x"], [["x"]] * 4)),
            "group": serialize.span_to_json(span), "locals": serialize.locals_to_json(local)}


def test_sections_term_limit(tmp_path, capsys, monkeypatch):
    # sum over levels q <= max_q of the intersection points of each
    # multi-index times sum_{d=1}^{n-1} (n - d) C(q + d, d); full U_4 on
    # four opens of one point at max_q 4 holds 7,104 terms
    path = write_doc(tmp_path, "u4.json", full_group_on_four_opens(4))
    assert cli.MAX_SECTION_TERMS >= 7104
    code, out, _ = run(capsys, ["sections", "--input", path, "--max-q", "4"])
    assert code == 0 and out["report"]["ok"] is True and out["max_q"] == 4
    monkeypatch.setattr(cli, "MAX_SECTION_TERMS", 7104)
    code, out, _ = run(capsys, ["sections", "--input", path, "--max-q", "4"])
    assert code == 0 and out["report"]["ok"] is True
    monkeypatch.setattr(cli, "MAX_SECTION_TERMS", 7103)
    code, out, err = run(capsys, ["sections", "--input", path, "--max-q", "4"])
    assert code == 2 and out is None
    assert err["error"]["message"] == (
        "a sections build of 4 x 4 matrices on this cover up to max_q 4 may write 7104 "
        "terms, more than MAX_SECTION_TERMS = 7103")
    monkeypatch.undo()

    # past the limit a build is refused after reading and before any
    # averaging, so building here fails the test
    def no_work(*args, **kwargs):
        raise AssertionError("work started past the term limit")

    monkeypatch.setattr(cli, "build_simplicial_section", no_work)
    for n, max_q, terms in ((5, 6, 103455), (6, 8, 1245530)):
        path = write_doc(tmp_path, "u%d.json" % n, full_group_on_four_opens(n))
        code, out, err = run(capsys, ["sections", "--input", path, "--max-q", str(max_q)])
        assert code == 2 and out is None
        assert err["error"]["message"] == (
            "a sections build of %d x %d matrices on this cover up to max_q %d may write %d "
            "terms, more than MAX_SECTION_TERMS = %d"
            % (n, n, max_q, terms, cli.MAX_SECTION_TERMS))


def test_sections_validate_mode_caps_a_large_max_q_option(tmp_path, capsys):
    path = write_doc(tmp_path, "cover.json", build_sections_doc())
    code, built, _ = run(capsys, ["sections", "--input", path, "--max-q", "1"])
    built.pop("report")
    path2 = write_doc(tmp_path, "built.json", built)
    code, out, _ = run(capsys, ["sections", "--input", path2, "--max-q", str(MAX_Q + 1)])
    assert code == 0 and out["mode"] == "validate" and out["report"]["ok"] is True


def built_sections_doc(tmp_path, capsys):
    """The six-point section built at max_q 2, as a validate-mode document."""
    path = write_doc(tmp_path, "cover.json", build_sections_doc())
    code, built, _ = run(capsys, ["sections", "--input", path, "--max-q", "2"])
    assert code == 0
    built.pop("report")
    return built


# each key with the datum of a key it could be confused with: an open past
# the three of the cover, a negative open, spellings int() reads as another
# key's multi-index, and a decreasing multi-index
@pytest.mark.parametrize("key, like", [("9", "0"), ("0.9", "0.1"), ("-1", "2"),
                                       ("0_1", "1"), (" 0", "0"), ("1.0", "0.1")])
def test_sections_validate_refuses_a_multi_index_key_the_writer_never_writes(
        tmp_path, capsys, key, like):
    built = built_sections_doc(tmp_path, capsys)
    built["levels"][key] = built["levels"][like]
    code, out, err = run(capsys, ["sections", "--input", write_doc(tmp_path, "bad.json", built)])
    assert code == 2 and out is None
    assert err["error"]["type"] == "FormatError"
    assert err["error"]["message"].startswith("bad multi-index key %r" % key)


def test_sections_validate_refuses_a_boolean_max_q(tmp_path, capsys):
    built = built_sections_doc(tmp_path, capsys)
    built["max_q"] = True
    code, out, err = run(capsys, ["sections", "--input", write_doc(tmp_path, "bool.json", built)])
    assert code == 2 and out is None
    assert err["error"] == {"kind": "input-error", "type": "FormatError",
                            "message": "expected int for max_q, got bool"}


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


def undersized_orbit(field):
    """The one-point orbit of a Heisenberg point with the irrational entry
    theta, closed under theta -> theta, which fixes all of the field."""
    from unipavg import GaloisAction, GaloisOrbit

    span = heisenberg_span(field)
    z = UniMatrix.from_entries(span.ring, 3, {(0, 1): span.ring.constant(field.gen)})
    return GaloisOrbit(span, GaloisAction(field, [field.gen]), [z])


@pytest.mark.parametrize("name", ["sqrt2", "cubic", "cbrt2"])
def test_galois_refuses_an_action_that_fixes_more_than_q(tmp_path, capsys, name):
    # the identity alone on Q(sqrt2), on the cyclic cubic field and on the
    # non-normal Q(2^(1/3)): the input is at fault, so it exits 2, not 3
    from unipavg import ScalarField
    from unipavg.fixtures import cubic_field

    field = {"sqrt2": sqrt2_field(), "cubic": cubic_field(),
             "cbrt2": ScalarField.extension("x", (-2, 0, 0, 1))}[name]
    path = write_doc(tmp_path, "orbit.json", serialize.orbit_to_json(undersized_orbit(field)))
    code, out, err = run(capsys, ["galois", "--input", path])
    assert code == 2 and out is None
    assert err["error"] == {
        "kind": "input-error", "type": "InputError",
        "message": "the Galois generators generate a group of order 1, less than the field "
                   "degree %d, so they fix more than Q" % field.degree}


def test_the_automorphism_count_is_the_order_of_the_generated_group():
    # Q(sqrt2 + sqrt3), theta^4 - 10 theta^2 + 1 = 0: theta -> -theta has
    # order 2, and with theta -> 1/theta = 10 theta - theta^3 the group is
    # all four automorphisms
    from unipavg import GaloisAction, ScalarField

    field = ScalarField.extension("x", (1, 0, -10, 0, 1))
    theta = field.gen
    negate, invert = -theta, theta * 10 - theta ** 3
    for images, order in (([theta], 1), ([negate], 2), ([invert], 2), ([negate, invert], 4),
                          ([negate, negate, theta], 2)):
        assert serialize._automorphism_count(GaloisAction(field, images)) == order


def test_galois_accepts_the_fixture_actions(tmp_path, capsys):
    from unipavg.fixtures import cubic_orbit

    for k, orbit in enumerate((sqrt2_orbit(), cubic_orbit())):
        path = write_doc(tmp_path, "orbit%d.json" % k, serialize.orbit_to_json(orbit))
        code, out, _ = run(capsys, ["galois", "--input", path])
        assert code == 0 and out["q"] == orbit.q


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


@pytest.mark.parametrize("n, message", [
    (True, "expected int for n, got bool"), (1.0, "expected int for n, got float"),
    ("2", "expected int for n, got str"), (0, "matrix size must be at least 1"),
    (-1, "matrix size must be at least 1")])
def test_a_span_size_that_is_not_a_positive_int_is_bad_input(tmp_path, capsys, n, message):
    # n is checked as read, before the basis: next to the document's own
    # basis, next to a 1 x 1 one, and next to an empty one, which takes its
    # size from n alone
    t = two_point_tuple()
    lifted = SectionTuple(t.group, [embed_simplex(s, 1) for s in t.sections])
    docs = {"wav": serialize.tuple_to_json(t), "wsym": serialize.tuple_to_json(lifted),
            "galois": serialize.orbit_to_json(sqrt2_orbit()), "build": build_sections_doc(),
            "validate": built_sections_doc(tmp_path, capsys)}
    one_by_one = {"n": 1, "entries": [[{"q": 0, "params": [], "terms": []}]]}
    for name, doc in docs.items():
        for basis in (doc["group"]["basis"], [one_by_one], []):
            doc["group"] = {"n": n, "basis": basis}
            path = write_doc(tmp_path, name + ".json", doc)
            argv = ["sections" if name in ("build", "validate") else name, "--input", path]
            code, out, err = run(capsys, argv)
            assert code == 2 and out is None, argv
            assert err["error"] == {"kind": "input-error", "type": "FormatError",
                                    "message": message}, argv


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


# sha256 digests of the output bytes over number fields, written before
# fields and rings were made unique objects: the jobs of
# `.github/scripts/same_outputs.py` over Q(sqrt2) (wav with and without
# weights on its Heisenberg tuple, wsym on that tuple's lift, log and bch)
# and the galois path on both fixture orbits
NUMBER_FIELD_DIGESTS = {
    "wav": "5df870c1eda53ee7b235eea15ef7656f4f5ace15ee6f26ea114c8964db71c798",
    "wav-weights": "d5233ae371ba58690e66be7cf5443032f917b6947cf81312d10cca62755a94cb",
    "wsym": "ba9af4a9d1f17b4d3816044f146893769ef339b6b554126fba11e3c4500e1645",
    "log": "8bd7732283da71c02e7cdea5029e06defb641a0f0ee9f29191b4008a07940f99",
    "bch": "ead703b61ba2d962a62bd2008c446afad9a4c1ecd3db3d951617ab873f0ee5f6",
    "galois-sqrt2": "dcf078e60bad279d800acc084a1608e47a0e9b5a841c4654ef8ac154706b6488",
    "galois-cubic": "e7921ec01b85f9df507c61f937a995ec92436e463139e78306ec8abadb957dd2",
}


def _number_field_jobs(tmp_path):
    from unipavg.fixtures import cubic_orbit, point_from_coordinates
    from unipavg.nilpotent import log_unipotent

    sqrt2 = sqrt2_field()
    span = heisenberg_span(sqrt2)
    half = Fraction(1, 2)
    pts = [point_from_coordinates(span, c) for c in (
        [[1, 1], [0, 2], [half, -1]], [[-2, half], [1, 0], [0, 3]], [[0, -1], [3, 1], [1, 1]])]
    surd = write_doc(tmp_path, "surd.json", serialize.tuple_to_json(SectionTuple(span, pts)))
    lifted = SectionTuple(span, [embed_simplex(p, 2) for p in pts])
    field = {"field": serialize.field_to_json(sqrt2)}
    a, b = (serialize.matrix_to_json(log_unipotent(p)) for p in pts[:2])
    weights = '[{"num":1,"den":6},{"coords":[{"num":1,"den":3},0]},{"num":1,"den":2}]'
    return {
        "wav": ["wav", "--input", surd],
        "wav-weights": ["wav", "--input", surd, "--weights", weights],
        "wsym": ["wsym", "--input", write_doc(tmp_path, "lifted.json",
                                              serialize.tuple_to_json(lifted))],
        "log": ["log", "--input", write_doc(tmp_path, "log.json", dict(
            field, matrix=serialize.matrix_to_json(pts[2])))],
        "bch": ["bch", "--input", write_doc(tmp_path, "bch.json", dict(field, a=a, b=b))],
        "galois-sqrt2": ["galois", "--input", write_doc(
            tmp_path, "sqrt2.json", serialize.orbit_to_json(sqrt2_orbit()))],
        "galois-cubic": ["galois", "--input", write_doc(
            tmp_path, "cubic.json", serialize.orbit_to_json(cubic_orbit()))],
    }


def test_number_field_outputs_are_byte_identical(tmp_path, capsys):
    for name, argv in _number_field_jobs(tmp_path).items():
        assert main(argv) == 0, name
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == NUMBER_FIELD_DIGESTS[name], name


# sha256 digests of the output bytes of the jobs over Q, written before
# polynomial exponents were packed into one integer key: wav on one tuple
# of each wav-symbolic benchmark class (n, q), with coordinates drawn as
# the benchmark draws them, wsym on a lifted tuple, exp, log and bch on
# matrices with polynomial entries, figure-data, and sections build and
# validate over the six-point cover
Q_JOB_DIGESTS = {
    "wav-n4-q3": "49159bc36047e66c3e0c3061f9304d46262bbdcaaf8dfcb66f40cbffd70f47ee",
    "wav-n4-q4": "d9eb6d3ddc53b36fa6148fc4a81f4114b5a92715ef609037d0869ad330a2806f",
    "wav-n5-q2": "e3784c1e1caa5908a936bec6e0ca90de63a62fc13dd0055f5616ff7a758377fd",
    "wav-n5-q3": "e46d53e213dc0258eb2a1b9f53de6aab1c6f8720e78125a5ae508fa9102df646",
    "wsym": "6de6e57cf0d966e69fda5f09d97171c1bd50579462256736970f675293a2e368",
    "exp": "7b6ed74e05ed1ba4ae31809c57c58f2234f32315ea5eebf44ce25914f1513e4b",
    "log": "db715841d593e024c66ce938f8cddb11acda350621d75cef8fe7176793634c1c",
    "bch": "b1b8acdf5d217a243708e9736cb27dc32c05074b10d1f32ab09fb4ffa402e8c6",
    "figure-data": "f407271c53baa5fd302ef0372b9709a8d5e7983771614b48fe01d3e64ba49f79",
    "sections-build": "258af7e2c2a8acce0d2c0a90a4dd99aa8f2acfdc8b4daecc2c4aca753161ac29",
    "sections-validate": "d79dc3568c155067ec21c65c7f888b0391cb3b05c6ff37ff6928d6e2e3605810",
}


def _q_jobs(tmp_path):
    from unipavg.fixtures import point_from_coordinates
    from unipavg.nilpotent import log_unipotent

    rng = random.Random(1812)

    def points(n, q):
        span = full_unipotent_span(n, QQ)
        return span, [point_from_coordinates(span, [
            Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))
            for _ in range(span.dim)]) for _ in range(q + 1)]

    jobs = {}
    for n, q in ((4, 3), (4, 4), (5, 2), (5, 3)):
        t = SectionTuple(*points(n, q))
        jobs["wav-n%d-q%d" % (n, q)] = ["wav", "--input", write_doc(
            tmp_path, "wav-n%d-q%d.json" % (n, q), serialize.tuple_to_json(t))]
    span, pts = points(4, 2)
    lifted = SectionTuple(span, [embed_simplex(p, 2) for p in pts])
    jobs["wsym"] = ["wsym", "--input", write_doc(tmp_path, "lifted.json",
                                                 serialize.tuple_to_json(lifted))]
    jobs["figure-data"] = ["figure-data", "--input", write_doc(
        tmp_path, "figure.json", serialize.tuple_to_json(SectionTuple(span, pts))),
        "--resolution", "4"]
    # averages over the 2-simplex give matrices with polynomial entries
    avg = wav(SectionTuple(span, pts))
    other = wav(SectionTuple(*points(4, 2)))
    a, b = log_unipotent(avg), log_unipotent(other)
    jobs["exp"] = ["exp", "--input", write_doc(tmp_path, "exp.json",
                                               serialize.matrix_to_json(a))]
    jobs["log"] = ["log", "--input", write_doc(tmp_path, "log.json",
                                               serialize.matrix_to_json(avg))]
    jobs["bch"] = ["bch", "--input", write_doc(tmp_path, "bch.json", {
        "a": serialize.matrix_to_json(a), "b": serialize.matrix_to_json(b)})]
    cover = write_doc(tmp_path, "cover.json", build_sections_doc())
    jobs["sections-build"] = ["sections", "--input", cover, "--max-q", "2"]
    built = str(tmp_path / "built.json")
    assert main(["sections", "--input", cover, "--max-q", "2", "--output", built]) == 0
    jobs["sections-validate"] = ["sections", "--input", built, "--max-q", "2"]
    return jobs


def test_q_outputs_are_byte_identical(tmp_path, capsys):
    for name, argv in _q_jobs(tmp_path).items():
        assert main(argv) == 0, name
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == Q_JOB_DIGESTS[name], name


# ---------------------------------------------------------------------------
# exponent vectors: the degree limit and malformed entries
# ---------------------------------------------------------------------------

BAD_EXPONENTS = {"true": [True], "false": [False], "float": [1.5], "whole-float": [1.0],
                 "string": ["1"], "null": [None], "negative": [-1], "over-limit": [256],
                 "too-long": [1, 0], "empty": [], "nested": [[1]]}


@functools.cache
def _exponent_doc(sub):
    """A document for the subcommand with one variable per polynomial, and
    the path in it of a polynomial to put an exponent vector into: wav on
    sections with a parameter, log and exp over the 1-simplex, and
    sections validate."""
    from unipavg.simplicial import build_simplicial_section

    if sub == "wav":
        ring = PolyRing(QQ, 0, ("a",))
        a = ring.parameter("a")
        tup = SectionTuple(full_unipotent_span(3, QQ), [
            UniMatrix.identity(ring, 3),
            UniMatrix.from_entries(ring, 3, {(0, 1): a, (1, 2): 1, (0, 2): a * a})])
        return serialize.tuple_to_json(tup), ("sections", 1, "entries", 0, 1)
    if sub == "sections":
        span, local = cover_local_sections(QQ)
        built = build_simplicial_section(six_point_cover(), local, span, max_q=1)
        return serialize.simplicial_to_json(built), ("levels", "0.1", "d", "entries", 0, 1)
    line = PolyRing(QQ, 1)
    t = line.coordinate(0)
    nil = NilMatrix.from_entries(line, 3, {(0, 1): t, (1, 2): t + 2, (0, 2): t * t})
    mat = exp_nilpotent(nil) if sub == "log" else nil
    return {"matrix": serialize.matrix_to_json(mat)}, ("matrix", "entries", 0, 1)


def _exponent_job(tmp_path, sub, case):
    doc, where = _exponent_doc(sub)
    bad = json.loads(json.dumps(doc))
    poly = bad
    for key in where:
        poly = poly[key]
    poly["terms"][0]["exp"] = BAD_EXPONENTS[case]
    argv = [sub, "--input", write_doc(tmp_path, "%s-%s.json" % (sub, case), bad)]
    return argv + (["--max-q", "1"] if sub == "sections" else [])


# exit code and error message of each job, None for no error; every one
# but the over-limit vectors is what the reader wrote before exponent
# vectors were packed into one integer, which took them all
_LIMIT = "exponent vector (256,) has total degree 256, above the limit of 255"
EXPONENT_OUTCOMES = {
    ("exp", "true"): (0, None),
    ("exp", "false"): (0, None),
    ("exp", "float"): (2, "expected int for exponent, got float"),
    ("exp", "whole-float"): (2, "expected int for exponent, got float"),
    ("exp", "string"): (2, "expected int for exponent, got str"),
    ("exp", "null"): (2, "expected int for exponent, got NoneType"),
    ("exp", "negative"): (2, "bad exponent vector (-1,)"),
    ("exp", "over-limit"): (2, _LIMIT),
    ("exp", "too-long"): (2, "exponent length 2, ring has 1 variables"),
    ("exp", "empty"): (2, "exponent length 0, ring has 1 variables"),
    ("exp", "nested"): (2, "expected int for exponent, got list"),
    ("log", "true"): (0, None),
    ("log", "false"): (0, None),
    ("log", "float"): (2, "expected int for exponent, got float"),
    ("log", "whole-float"): (2, "expected int for exponent, got float"),
    ("log", "string"): (2, "expected int for exponent, got str"),
    ("log", "null"): (2, "expected int for exponent, got NoneType"),
    ("log", "negative"): (2, "bad exponent vector (-1,)"),
    ("log", "over-limit"): (2, _LIMIT),
    ("log", "too-long"): (2, "exponent length 2, ring has 1 variables"),
    ("log", "empty"): (2, "exponent length 0, ring has 1 variables"),
    ("log", "nested"): (2, "expected int for exponent, got list"),
    ("sections", "true"): (2, None),
    ("sections", "false"): (0, None),
    ("sections", "float"): (2, "expected int for exponent, got float"),
    ("sections", "whole-float"): (2, "expected int for exponent, got float"),
    ("sections", "string"): (2, "expected int for exponent, got str"),
    ("sections", "null"): (2, "expected int for exponent, got NoneType"),
    ("sections", "negative"): (2, "bad exponent vector (-1,)"),
    ("sections", "over-limit"): (2, _LIMIT),
    ("sections", "too-long"): (2, "exponent length 2, ring has 1 variables"),
    ("sections", "empty"): (2, "exponent length 0, ring has 1 variables"),
    ("sections", "nested"): (2, "expected int for exponent, got list"),
    ("wav", "true"): (0, None),
    ("wav", "false"): (0, None),
    ("wav", "float"): (2, "expected int for exponent, got float"),
    ("wav", "whole-float"): (2, "expected int for exponent, got float"),
    ("wav", "string"): (2, "expected int for exponent, got str"),
    ("wav", "null"): (2, "expected int for exponent, got NoneType"),
    ("wav", "negative"): (2, "bad exponent vector (-1,)"),
    ("wav", "over-limit"): (2, _LIMIT),
    ("wav", "too-long"): (2, "exponent length 2, ring has 1 variables"),
    ("wav", "empty"): (2, "exponent length 0, ring has 1 variables"),
    ("wav", "nested"): (2, "expected int for exponent, got list"),
}


@pytest.mark.parametrize("sub, case", sorted(EXPONENT_OUTCOMES))
def test_malformed_exponent_vectors_keep_their_outcome(tmp_path, capsys, sub, case):
    code = main(_exponent_job(tmp_path, sub, case))
    err = capsys.readouterr().err
    message = json.loads(err)["error"]["message"] if err else None
    assert (code, message) == EXPONENT_OUTCOMES[sub, case]
    assert code in (0, 2)


def test_a_product_past_the_degree_limit_is_bad_input(tmp_path, capsys):
    # each entry is within the limit; exp's square N^2 multiplies two of them
    line = PolyRing(QQ, 1)
    t = line.coordinate(0)
    nil = NilMatrix.from_entries(line, 3, {(0, 1): t ** 200, (1, 2): t ** 100})
    path = write_doc(tmp_path, "exp.json", {"matrix": serialize.matrix_to_json(nil)})
    code, out, err = run(capsys, ["exp", "--input", path])
    assert code == 2 and out is None
    assert err["error"]["message"] == ("a product of total degrees 200 and 100 exceeds "
                                       "the limit of 255")


# ---------------------------------------------------------------------------
# the bound on an average's terms
# ---------------------------------------------------------------------------

def term_bound(n, q):
    return sum((n - d) * math.comb(q + d, d) for d in range(1, n))


def term_limit_message(n, q):
    return ("an average of %d sections of %d x %d matrices may have %d terms, more than "
            "MAX_AVERAGE_TERMS = %d" % (q + 1, n, n, term_bound(n, q), cli.MAX_AVERAGE_TERMS))


def sqrt2_pair_orbit(rng, n, q):
    """q + 1 points of U_n over Q(sqrt 2): conjugate pairs, and the identity
    when q + 1 is odd."""
    from unipavg import GaloisAction, GaloisOrbit
    field = sqrt2_field()
    action = GaloisAction(field, [[0, -1]])
    span = full_unipotent_span(n, field)
    points = [UniMatrix.identity(span.ring, n)] * ((q + 1) % 2)
    while len(points) < q + 1:
        z = UniMatrix.from_entries(span.ring, n, {
            (i, j): field.value([rng.randint(-3, 3), rng.randint(-3, 3)])
            for i in range(n) for j in range(i + 1, n)})
        points += [z, z.map_entries(action.generators[0], span.ring)]
    return GaloisOrbit(span, action, points)


def limit_jobs(tmp_path, rng, n, q):
    """wav, wsym and galois jobs averaging q + 1 sections of U_n."""
    t = rand_tuple(rng, full_unipotent_span(n, QQ), q)
    lifted = SectionTuple(t.group, [embed_simplex(s, q) for s in t.sections])
    return [["wav", "--input", write_doc(tmp_path, "wav.json", serialize.tuple_to_json(t))],
            ["wsym", "--input", write_doc(tmp_path, "wsym.json",
                                          serialize.tuple_to_json(lifted))],
            ["galois", "--input", write_doc(tmp_path, "galois.json", serialize.orbit_to_json(
                sqrt2_pair_orbit(rng, n, q)))]]


@pytest.mark.parametrize("n,q", [(5, 32), (8, 10)])
def test_an_average_past_the_term_limit_is_refused_before_any_averaging(
        tmp_path, capsys, monkeypatch, n, q):
    assert term_bound(n, q) > cli.MAX_AVERAGE_TERMS
    jobs = limit_jobs(tmp_path, random.Random(1201 + n), n, q)

    def no_work(*args, **kwargs):
        raise AssertionError("averaging started past the term limit")

    for name in ("wav", "wsym"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(unipavg.descent, "rational_point", no_work)
    for argv in jobs:
        code, out, err = run(capsys, argv)
        assert code == 2 and out is None, argv
        assert err["error"]["message"] == term_limit_message(n, q), argv


def test_the_term_limit_admits_its_bound_and_refuses_one_less(tmp_path, capsys, monkeypatch):
    rng = random.Random(1211)
    jobs = [(4, 2, argv) for argv in limit_jobs(tmp_path, rng, 4, 2)]
    pair = write_doc(tmp_path, "pair.json", serialize.tuple_to_json(two_point_tuple()))
    jobs.append((3, 1, ["figure-data", "--input", pair, "--resolution", "2"]))
    for n, q, argv in jobs:
        monkeypatch.setattr(cli, "MAX_AVERAGE_TERMS", term_bound(n, q))
        code, out, err = run(capsys, argv)
        assert code == 0 and err is None, argv
        monkeypatch.setattr(cli, "MAX_AVERAGE_TERMS", term_bound(n, q) - 1)
        code, out, err = run(capsys, argv)
        assert code == 2 and out is None, argv
        assert err["error"]["message"] == term_limit_message(n, q), argv


def test_the_term_limit_admits_the_largest_q_its_comment_names():
    # U_5 at q = 17, U_8 at q = 6 and U_10 at q = 4 each average in under
    # a second as CLI jobs
    for n, q in ((3, 137), (4, 35), (5, 17), (8, 6), (10, 4)):
        assert term_bound(n, q) <= cli.MAX_AVERAGE_TERMS < term_bound(n, q + 1)


# ---------------------------------------------------------------------------
# the bound on a group's closure-check pairs
# ---------------------------------------------------------------------------

# the reader's error on a null basis entry, reached only past the pair limit
NULL_MATRIX = "expected dict for matrix, got NoneType"


def pair_limit_message(k):
    return ("a group basis of %d matrices has %d pairs to bracket, more than "
            "MAX_SPAN_PAIRS = %d" % (k, math.comb(k, 2), cli.MAX_SPAN_PAIRS))


def group_jobs(tmp_path, capsys, k):
    """A job of every subcommand that reads a group, each on a valid document
    whose group basis is replaced by k nulls: the reader fails on the first
    basis entry, so no job reaches the closure check."""
    t = two_point_tuple()
    lifted = SectionTuple(t.group, [embed_simplex(s, 1) for s in t.sections])
    docs = {"wav": serialize.tuple_to_json(t), "wsym": serialize.tuple_to_json(lifted),
            "figure-data": serialize.tuple_to_json(t),
            "galois": serialize.orbit_to_json(sqrt2_orbit()),
            "build": build_sections_doc(), "validate": built_sections_doc(tmp_path, capsys)}
    jobs = []
    for name, doc in docs.items():
        doc["group"]["basis"] = [None] * k
        path = write_doc(tmp_path, name + ".json", doc)
        jobs.append(["sections" if name in ("build", "validate") else name, "--input", path])
    return jobs


@pytest.mark.parametrize("k", [2, 5])
def test_the_pair_limit_admits_its_bound_and_refuses_one_less(tmp_path, capsys, monkeypatch,
                                                               k):
    for argv in group_jobs(tmp_path, capsys, k):
        monkeypatch.setattr(cli, "MAX_SPAN_PAIRS", math.comb(k, 2))
        code, out, err = run(capsys, argv)
        assert code == 2 and out is None, argv
        assert err["error"]["message"] == NULL_MATRIX, argv
        monkeypatch.setattr(cli, "MAX_SPAN_PAIRS", math.comb(k, 2) - 1)
        code, out, err = run(capsys, argv)
        assert code == 2 and out is None, argv
        assert err["error"]["message"] == pair_limit_message(k), argv


def test_the_pair_limit_refuses_a_large_group_before_reading_its_basis(tmp_path, capsys):
    # 71 matrices have 2,485 pairs and 72 have 2,556
    assert math.comb(71, 2) <= cli.MAX_SPAN_PAIRS < math.comb(72, 2)
    for argv in group_jobs(tmp_path, capsys, 72):
        code, out, err = run(capsys, argv)
        assert code == 2 and out is None, argv
        assert err["error"]["message"] == pair_limit_message(72), argv
    for argv in group_jobs(tmp_path, capsys, 71):
        code, out, err = run(capsys, argv)
        assert code == 2 and out is None, argv
        assert err["error"]["message"] == NULL_MATRIX, argv


def test_the_pair_limit_admits_the_groups_its_comment_names():
    # full U_9 (36 matrices) and U_12 (66), and jets of dimension 48, but
    # not full U_13 (78)
    for k in (36, 48, 66):
        assert math.comb(k, 2) <= cli.MAX_SPAN_PAIRS
    assert math.comb(78, 2) > cli.MAX_SPAN_PAIRS
