"""The CLI writes its JSON with its own emitter, because json.dumps runs
its C encoder only without an indent.  These tests hold the emitter to
json.dumps(doc, indent=2) byte for byte: on the document of every
subcommand, on failing validation reports (tuple multi-indices), on
non-ASCII labels, empty containers and long integers, and on generated
documents.  The CLI hands the emitter documents that hold matrix
objects, each written in one piece, and never a polynomial dict, which
takes the generic walk like any other dict; the public dict writers
give every entry its own dict, so two documents share nothing.  The
last tests hold the CLI's bytes to json.dumps of the public dict
writers' documents on every subcommand."""

import io
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipavg import (QQ, FiniteCover, NilMatrix, PolyRing, SectionTuple, UniMatrix, WeightSeq,
                     bch, embed_simplex, exp_nilpotent, full_unipotent_span, rational_point,
                     tower_compatibility, validate_simplicial_section, wav, wsym)
from unipavg import cli, serialize
from unipavg.average import eval_matrix_at_weights
from unipavg.errors import InputError
from unipavg.fixtures import (cover_local_sections, cubic_field, cubic_orbit, heisenberg_span,
                              point_from_coordinates, six_point_cover, sqrt2_field, sqrt2_orbit,
                              two_point_tuple)
from unipavg.nilpotent import log_unipotent, lower_central_series
from unipavg.simplicial import LocalSection, build_simplicial_section
from helpers import rand_scalar, rand_tuple

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def emitted(doc):
    pieces = []
    cli._emit_json(doc, pieces.append)
    return "".join(pieces)


def assert_like_dumps(doc):
    assert emitted(doc) == json.dumps(doc, indent=2)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def dict_form(doc):
    """doc with each matrix object mapped through serialize.matrix_to_json."""
    if isinstance(doc, (NilMatrix, UniMatrix)):
        return serialize.matrix_to_json(doc)
    if isinstance(doc, dict):
        return {k: dict_form(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [dict_form(v) for v in doc]
    return doc


def containers(doc):
    """Every dict and list in doc, with repeats."""
    if isinstance(doc, dict):
        yield doc
        for v in doc.values():
            yield from containers(v)
    elif isinstance(doc, list):
        yield doc
        for v in doc:
            yield from containers(v)


POLY_KEYS = frozenset(("q", "params", "terms"))


def run_and_compare(monkeypatch, capsys, argv):
    """Run one CLI job, keep the document it writes, and check that it
    holds no polynomial dict and that its stdout is json.dumps of its dict
    form with a final newline; return the exit code, the dict form and the
    document itself."""
    docs = []
    write = cli._write_json

    def keep(doc, path):
        docs.append(doc)
        write(doc, path)

    monkeypatch.setattr(cli, "_write_json", keep)
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert len(docs) == 1
    assert not any(isinstance(c, dict) and POLY_KEYS <= c.keys() for c in containers(docs[0]))
    doc = dict_form(docs[0])
    assert out == json.dumps(doc, indent=2) + "\n"
    return code, doc, docs[0]


def sections_doc(cover, span, locals_):
    return {"field": serialize.field_to_json(span.field),
            "cover": serialize.cover_to_json(cover),
            "group": serialize.span_to_json(span),
            "locals": serialize.locals_to_json(locals_)}


# ---------------------------------------------------------------------------
# every subcommand
# ---------------------------------------------------------------------------

def test_averaging_subcommands(tmp_path, monkeypatch, capsys):
    t = rand_tuple(random.Random(901), heisenberg_span(), 2)
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(t))
    weights = '[{"num":1,"den":6},{"num":1,"den":3},{"num":1,"den":2}]'
    for argv in (["wav", "--input", path],
                 ["wav", "--input", path, "--weights", weights],
                 ["figure-data", "--input", path, "--resolution", "3"]):
        assert run_and_compare(monkeypatch, capsys, argv)[0] == 0
    lifted = SectionTuple(t.group, [embed_simplex(p, 2) for p in t.sections])
    path = write_doc(tmp_path, "lifted.json", serialize.tuple_to_json(lifted))
    assert run_and_compare(monkeypatch, capsys, ["wsym", "--input", path])[0] == 0


def test_matrix_subcommands(tmp_path, monkeypatch, capsys):
    a, b = (log_unipotent(s) for s in two_point_tuple().sections)
    field = {"field": serialize.field_to_json(QQ)}
    docs = {"exp": dict(field, matrix=serialize.matrix_to_json(a)),
            "log": dict(field, matrix=serialize.matrix_to_json(two_point_tuple().sections[0])),
            "bch": dict(field, a=serialize.matrix_to_json(a), b=serialize.matrix_to_json(b))}
    for name, doc in docs.items():
        path = write_doc(tmp_path, name + ".json", doc)
        assert run_and_compare(monkeypatch, capsys, [name, "--input", path])[0] == 0


def test_galois_subcommand(tmp_path, monkeypatch, capsys):
    for orbit in (sqrt2_orbit(), cubic_orbit()):
        path = write_doc(tmp_path, "orbit.json", serialize.orbit_to_json(orbit))
        assert run_and_compare(monkeypatch, capsys, ["galois", "--input", path])[0] == 0


def test_sections_build_and_validate(tmp_path, monkeypatch, capsys):
    for field in (QQ, sqrt2_field()):
        span, locals_ = cover_local_sections(field)
        path = write_doc(tmp_path, "cover.json", sections_doc(six_point_cover(), span, locals_))
        code, built, _ = run_and_compare(monkeypatch, capsys,
                                         ["sections", "--input", path, "--max-q", "2"])
        assert code == 0 and built["report"]["ok"] is True
        built.pop("report")
        path2 = write_doc(tmp_path, "built.json", built)
        code, out, _ = run_and_compare(monkeypatch, capsys,
                                       ["sections", "--input", path2, "--max-q", "2"])
        assert code == 0 and out["mode"] == "validate"


def test_failing_validation_report_with_tuple_multi_indices(tmp_path, monkeypatch, capsys):
    span, locals_ = cover_local_sections(QQ)
    path = write_doc(tmp_path, "cover.json", sections_doc(six_point_cover(), span, locals_))
    assert cli.main(["sections", "--input", path, "--max-q", "2"]) == 0
    built = json.loads(capsys.readouterr().out)
    built.pop("report")
    built["levels"]["0.1"]["c"]["entries"][0][1]["terms"] = [
        {"exp": [0], "coef": {"num": 9, "den": 1}}]
    path2 = write_doc(tmp_path, "broken.json", built)
    code, out, _ = run_and_compare(monkeypatch, capsys,
                                   ["sections", "--input", path2, "--max-q", "2"])
    assert code == 2 and out["report"]["ok"] is False
    assert any(isinstance(f["multi_index"], tuple) for f in out["report"]["failures"])


def test_non_ascii_point_labels(tmp_path, monkeypatch, capsys):
    span = heisenberg_span()
    cover = FiniteCover(["été", "点", "x\U0001d54f"],
                        [("été", "点"), ("点", "x\U0001d54f")])
    rng = random.Random(902)
    locals_ = [LocalSection(i, {x: p for x, p in zip(op, rand_tuple(rng, span, 1).sections)})
               for i, op in enumerate(cover.opens)]
    path = write_doc(tmp_path, "cover.json", sections_doc(cover, span, locals_))
    code, out, _ = run_and_compare(monkeypatch, capsys,
                                   ["sections", "--input", path, "--max-q", "2"])
    assert code == 0 and "点" in out["levels"]["0.1"]


def test_tower_report():
    group = full_unipotent_span(4, QQ)
    rep = tower_compatibility(rand_tuple(random.Random(903), group, 2),
                              lower_central_series(group)[1:])
    assert rep.ok
    assert_like_dumps(serialize.tower_report_to_json(rep))


def test_output_file_gets_the_same_bytes(tmp_path, capsys):
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(two_point_tuple()))
    out = tmp_path / "out.json"
    assert cli.main(["wav", "--input", path, "--output", str(out)]) == 0
    assert cli.main(["wav", "--input", path]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode()


# ---------------------------------------------------------------------------
# edge values and generated documents
# ---------------------------------------------------------------------------

def test_empty_containers_signs_and_long_integers():
    big = 7 ** 200
    assert len(str(big)) > 100
    for doc in ({}, [], (), "", 0, -1, None, True, False, big, -big,
                {"a": [], "b": {}, "c": [[], [{}], {"d": ()}], "": [[[]]]},
                [{"num": -big, "den": big + 1}, -3, "é\n\"\\\t\x00"],
                {"multi_index": (0, 1, 1), "point": None, "ok": False}):
        assert_like_dumps(doc)


json_leaves = (st.none() | st.booleans() | st.integers() | st.integers(-10 ** 120, 10 ** 120)
               | st.text(max_size=6))
json_docs = st.recursive(
    json_leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=25)


@SETTINGS
@given(json_docs)
def test_generated_documents(doc):
    assert_like_dumps(doc)


# ---------------------------------------------------------------------------
# polynomial dicts, through the generic walk, and matrix objects
# ---------------------------------------------------------------------------

FIELDS = [QQ, sqrt2_field(), cubic_field()]

numerators = (st.integers(-6, 6) | st.integers(10 ** 99, 10 ** 100)
              | st.integers(-10 ** 100, -10 ** 99))


@st.composite
def poly_docs(draw):
    """poly_to_json of a polynomial over Q, Q(sqrt2) or the cubic field, on
    the q-simplex for q from 0 to 4, with or without parameters, with mixed
    denominators and some 100-digit coefficients; sometimes zero."""
    field = draw(st.sampled_from(FIELDS))
    ring = PolyRing(field, draw(st.integers(0, 4)),
                    draw(st.sampled_from([(), ("a",), ("a", "b%")])))
    scalar = st.lists(st.builds(Fraction, numerators, st.integers(1, 12)),
                      min_size=field.degree, max_size=field.degree)
    exps = st.lists(st.integers(0, 3), min_size=ring.nvars, max_size=ring.nvars).map(tuple)
    return serialize.poly_to_json(ring.poly(draw(st.dictionaries(exps, scalar, max_size=4))))


def nest(draw, doc):
    """doc inside 0 to 4 levels of lists and dicts, next to other members."""
    for _ in range(draw(st.integers(0, 4))):
        doc = draw(st.sampled_from([[doc], [0, doc, "x"], {"p": doc}, {"a": [], "p": doc}]))
    return doc


@st.composite
def nested_poly_docs(draw):
    return nest(draw, [draw(poly_docs()) for _ in range(draw(st.integers(1, 3)))])


def pieces(doc):
    out = []
    cli._emit_json(doc, out.append)
    return out


def skeleton(doc):
    """doc with every matrix object replaced by the integer 0."""
    if isinstance(doc, (NilMatrix, UniMatrix)):
        return 0
    if isinstance(doc, dict):
        return {k: skeleton(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [skeleton(v) for v in doc]
    return doc


@SETTINGS
@given(poly_docs())
def test_polynomials_at_depth_zero(doc):
    assert_like_dumps(doc)


@SETTINGS
@given(nested_poly_docs())
def test_nested_polynomials_are_one_piece_each(doc):
    assert_like_dumps(doc)


def one_term_doc(coef):
    return {"q": 2, "params": ["a"], "terms": [{"exp": [1, 0, 2], "coef": coef}]}


def near_misses():
    """Documents one step away from the shape poly_to_json writes."""
    rat = {"num": -3, "den": 4}
    base = one_term_doc(rat)
    term = base["terms"][0]
    yield dict(base, q=True)
    yield dict(base, q=1.0)
    yield dict(base, params=["a", 1])
    yield dict(base, params=("a",))
    yield dict(base, terms=[dict(term, exp=[True, 0, 2])])
    yield dict(base, terms=[dict(term, exp=(1, 0, 2))])
    yield dict(base, terms=[dict(term, exp=[1, 0.0, 2])])
    yield dict(base, terms=[(term,)])
    yield one_term_doc({"num": True, "den": 4})
    yield one_term_doc({"num": -3, "den": False})
    yield one_term_doc({"num": 1.5, "den": 4})
    yield one_term_doc(1.5)
    yield one_term_doc(3)
    yield one_term_doc({"num": 3})
    yield one_term_doc({"den": 4, "num": -3})
    yield one_term_doc({"num": -3, "den": 4, "x": 0})
    yield one_term_doc({"coords": []})
    yield one_term_doc({"coords": [rat, 2]})
    yield one_term_doc({"coords": [rat, {"num": 1, "den": True}]})
    yield one_term_doc({"coords": (rat,)})
    yield one_term_doc({"coords": [rat], "num": 1})
    yield dict(base, extra=1)
    yield {"params": ["a"], "q": 2, "terms": base["terms"]}
    yield dict(base, terms=[{"coef": rat, "exp": [1, 0, 2]}])
    yield dict(base, terms=[dict(term, extra=None)])
    yield dict(base, terms=[term, {"exp": [0, 0, 0]}])
    yield {"q": 2, "params": ["a"]}


def test_near_miss_shapes_take_the_generic_walk():
    for doc in near_misses():
        for wrapped in (doc, [doc], {"m": [[doc, doc]]}):
            assert_like_dumps(wrapped)
        assert len(pieces([doc])) > len(pieces([0]))


def test_parameter_names_with_percent_signs_and_escapes():
    for params in (["%d"], ["%s", "a%%b"], ["é\n\"", "%"]):
        assert_like_dumps([{"q": 1, "params": params, "terms": [
            {"exp": [1] + [0] * len(params), "coef": {"num": 1, "den": 2}}]}])
        # a matrix over the ring of these names, written by `_poly_object_text`
        ring = PolyRing(sqrt2_field(), 1, tuple(params))
        entry = ring.parameter(params[-1]) * ring.coordinate(0) + Fraction(1, 2)
        mat = NilMatrix.from_entries(ring, 2, {(0, 1): entry})
        assert emitted([mat]) == json.dumps(serialize.to_json([mat]), indent=2)


def test_term_integer_over_the_digit_limit_writes_nothing(tmp_path, capsys):
    if not sys.get_int_max_str_digits():
        pytest.skip("integer string conversion is unlimited")
    big = 10 ** (sys.get_int_max_str_digits() + 1)
    with pytest.raises(InputError) as generic:
        cli._write_json([big], None)
    for coef in ({"num": big, "den": 1}, {"coords": [{"num": 1, "den": big}]}):
        doc = {"wav": {"n": 1, "entries": [[one_term_doc(coef)]]}}
        out = tmp_path / "out.json"
        for path in (None, str(out)):
            with pytest.raises(InputError) as info:
                cli._write_json(doc, path)
            assert type(info.value) is InputError
            assert str(info.value) == str(generic.value)
        assert not out.exists()
    assert capsys.readouterr().out == ""


def test_wav_document_is_one_piece_per_polynomial(tmp_path, monkeypatch, capsys):
    t = rand_tuple(random.Random(904), full_unipotent_span(4, QQ), 2)
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(t))
    code, doc, objects = run_and_compare(monkeypatch, capsys, ["wav", "--input", path])
    assert code == 0
    polys = len(json.dumps(doc).split('"terms"')) - 1
    assert polys == 16
    # one piece per matrix object, whatever its polynomials
    assert isinstance(objects["wav"], UniMatrix)
    assert len(pieces(objects)) == len(pieces(skeleton(objects)))


def test_output_is_written_in_one_call(tmp_path, monkeypatch):
    writes = []

    class Sink(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

        def writelines(self, lines):
            raise AssertionError("writelines called")

    monkeypatch.setattr(sys, "stdout", Sink())
    doc = {"q": 1, "wav": serialize.matrix_to_json(two_point_tuple().sections[0])}
    cli._write_json(doc, None)
    assert writes == [json.dumps(doc, indent=2) + "\n"]


# ---------------------------------------------------------------------------
# equal polynomials at several places, and documents that share no dict
# ---------------------------------------------------------------------------

def test_one_polynomial_dict_at_two_depths():
    ring = PolyRing(sqrt2_field(), 1, ("a",))
    value = ring.parameter("a") * ring.coordinate(0) + ring.field.gen
    poly = serialize.poly_to_json(value)
    doc = {"p": poly, "nested": [[poly, {"again": poly}], poly], "list": [poly]}
    assert_like_dumps(doc)
    # one matrix object at depths 1, 3 and 2, and an equal entry held by
    # another object at depths 4 and 2
    mat = NilMatrix.from_entries(ring, 2, {(0, 1): value})
    other = NilMatrix.from_entries(ring, 2, {(0, 1): ring.parameter("a") * ring.coordinate(0)
                                             + ring.field.gen})
    assert other.rows[0][1] is not mat.rows[0][1] and other.rows[0][1] == mat.rows[0][1]
    doc = {"p": mat, "nested": [[mat, {"again": other}], mat], "list": [other]}
    assert emitted(doc) == json.dumps(serialize.to_json(doc), indent=2)


def test_number_field_and_parameterised_polynomials_in_one_document():
    rng = random.Random(905)
    sqrt2 = sqrt2_field()
    ring = PolyRing(sqrt2, 2, ("a",))
    a, t0 = ring.parameter("a"), ring.coordinate(0)
    mat = UniMatrix.from_entries(ring, 3, {(0, 1): a * t0 + sqrt2.gen, (1, 2): a * a,
                                           (0, 2): t0})
    doc = {"surd": serialize.matrix_to_json(mat),
           "rational": serialize.tuple_to_json(rand_tuple(rng, heisenberg_span(), 2)),
           "cubic": serialize.orbit_to_json(cubic_orbit()),
           "log": serialize.matrix_to_json(log_unipotent(mat))}
    assert emitted(doc) == json.dumps(doc, indent=2)
    # equal entries are distinct dicts: the zeros below the diagonal of a
    # unit matrix, and the ones on it
    entries = [e for row in doc["surd"]["entries"] for e in row]
    for group in ((3, 6, 7), (0, 4, 8)):
        same = [entries[k] for k in group]
        assert same[0] == same[1] == same[2]
        assert len({id(e) for e in same}) == 3


def test_two_section_documents_share_no_dict():
    span, locals_ = cover_local_sections(sqrt2_field())
    section = build_simplicial_section(six_point_cover(), locals_, span, max_q=2)
    first, second = serialize.simplicial_to_json(section), serialize.simplicial_to_json(section)
    assert not {id(c) for c in containers(first)} & {id(c) for c in containers(second)}
    text = emitted(first)
    assert text == json.dumps(first, indent=2) == json.dumps(second, indent=2)
    for poly in [c for c in containers(first) if "terms" in c]:
        poly["terms"].append({"exp": [], "coef": {"num": 1, "den": 1}})
    assert emitted(first) == json.dumps(first, indent=2) != text
    assert emitted(second) == json.dumps(second, indent=2) == text


# ---------------------------------------------------------------------------
# the CLI's bytes against the public dict writers
# ---------------------------------------------------------------------------

def dumped(doc):
    return json.dumps(doc, indent=2) + "\n"


def cli_bytes(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def field_point(rng, span):
    """A group element whose log has coordinates all over the field."""
    return point_from_coordinates(span, [rand_scalar(rng, span.field) for _ in range(span.dim)])


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(sqrt2)", "cubic"])
def test_every_document_is_the_public_writers_dump(tmp_path, capsys, field):
    """The CLI writes matrix objects in one piece each; its bytes are
    json.dumps, with indent=2 and a final newline, of the document the
    public dict writers make from the same values, on every subcommand
    that writes a matrix."""
    rng = random.Random(906)
    span = heisenberg_span(field)
    t = SectionTuple(span, [field_point(rng, span) for _ in range(3)])
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(t))
    averaged = wav(t)
    assert cli_bytes(capsys, ["wav", "--input", path]) == (0, dumped(
        {"q": 2, "wav": serialize.matrix_to_json(averaged)}))
    weights = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]
    seq = WeightSeq(field, weights)
    assert cli_bytes(capsys, ["wav", "--input", path, "--weights",
                              json.dumps([serialize.fraction_to_json(w) for w in weights])]) == (
        0, dumped({"q": 2, "wav": serialize.matrix_to_json(averaged),
                   "weights": [serialize.scalar_to_json(w) for w in seq],
                   "evaluated": serialize.matrix_to_json(eval_matrix_at_weights(averaged, seq))}))
    lifted = SectionTuple(span, [embed_simplex(p, 2) for p in t.sections])
    path = write_doc(tmp_path, "lifted.json", serialize.tuple_to_json(lifted))
    assert cli_bytes(capsys, ["wsym", "--input", path]) == (
        0, dumped(serialize.tuple_to_json(wsym(lifted))))
    a, b = (log_unipotent(s) for s in t.sections[:2])
    head = {"field": serialize.field_to_json(field)}
    for name, doc, value in (
            ("exp", dict(head, matrix=serialize.matrix_to_json(a)), exp_nilpotent(a)),
            ("log", dict(head, matrix=serialize.matrix_to_json(t.sections[2])),
             log_unipotent(t.sections[2])),
            ("bch", dict(head, a=serialize.matrix_to_json(a), b=serialize.matrix_to_json(b)),
             bch(a, b))):
        path = write_doc(tmp_path, name + ".json", doc)
        assert cli_bytes(capsys, [name, "--input", path]) == (
            0, dumped(serialize.matrix_to_json(value)))
    if field.degree > 1:
        orbit = sqrt2_orbit() if field.degree == 2 else cubic_orbit()
        path = write_doc(tmp_path, "orbit.json", serialize.orbit_to_json(orbit))
        assert cli_bytes(capsys, ["galois", "--input", path]) == (0, dumped(
            {"q": orbit.q, "rational_point": serialize.matrix_to_json(rational_point(orbit))}))
    cover = FiniteCover(["été", "点", "x\U0001d54f"], [("été", "点"), ("点", "x\U0001d54f")])
    locals_ = [LocalSection(i, {x: field_point(rng, span) for x in op})
               for i, op in enumerate(cover.opens)]
    path = write_doc(tmp_path, "cover.json", sections_doc(cover, span, locals_))
    section = build_simplicial_section(cover, locals_, span, max_q=2)
    built = serialize.simplicial_to_json(section)
    built["report"] = serialize.validation_report_to_json(
        validate_simplicial_section(section, 2))
    code, out = cli_bytes(capsys, ["sections", "--input", path, "--max-q", "2"])
    assert (code, out) == (0, dumped(built)) and "点" in json.loads(out)["levels"]["0.1"]
    built.pop("report")
    path = write_doc(tmp_path, "built.json", built)
    read = serialize.simplicial_from_json(json.loads(json.dumps(built)))
    assert cli_bytes(capsys, ["sections", "--input", path, "--max-q", "2"]) == (0, dumped(
        {"mode": "validate",
         "report": serialize.validation_report_to_json(validate_simplicial_section(read, 2))}))


def test_a_tuple_with_parameters_is_the_public_writers_dump(tmp_path, capsys):
    ring = PolyRing(sqrt2_field(), 0, ("a", "b%"))
    a, b = ring.parameter("a"), ring.parameter("b%")
    span = heisenberg_span(ring.field)
    t = SectionTuple(span, [
        UniMatrix.from_entries(ring, 3, {(0, 1): a, (1, 2): ring.field.gen, (0, 2): a * b}),
        UniMatrix.from_entries(ring, 3, {(0, 1): 2, (1, 2): b, (0, 2): Fraction(1, 3)})])
    path = write_doc(tmp_path, "t.json", serialize.tuple_to_json(t))
    assert cli_bytes(capsys, ["wav", "--input", path]) == (
        0, dumped({"q": 1, "wav": serialize.matrix_to_json(wav(t))}))
    lifted = SectionTuple(span, [embed_simplex(p, 1) for p in t.sections])
    path = write_doc(tmp_path, "lifted.json", serialize.tuple_to_json(lifted))
    assert cli_bytes(capsys, ["wsym", "--input", path]) == (
        0, dumped(serialize.tuple_to_json(wsym(lifted))))
