"""sha256 digests of the standard output of generated benchmark-shaped
jobs, taken before the sections writer formatted each distinct polynomial
once and the reader took common number literals inline.

The inputs are made here, in the layout of the benchmark's generators:
`sections` build and validate at max_q 3 on a 7-point and an 8-point
three-open cover over Q (one point in every open, two points in two
different pairs of opens, the rest in one open each), with Heisenberg
local sections, and `galois` on one Q(sqrt2) orbit of U_5 at q = 1 and
one cyclic-cubic orbit of U_4 at q = 2.  Drift in any output byte fails
here without a base checkout to compare with."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from unipavg import QQ, FiniteCover, GaloisAction, GaloisOrbit, full_unipotent_span, serialize
from unipavg.cli import main
from unipavg.fixtures import cubic_field, heisenberg_span, point_from_coordinates, sqrt2_field
from unipavg.simplicial import LocalSection


def _frac(rng):
    return Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))


def three_open_cover(rng, npts):
    labels = ["x%d" % i for i in range(npts)]
    rng.shuffle(labels)
    pair_a, pair_b = rng.sample([(0, 1), (0, 2), (1, 2)], 2)
    member = {labels[0]: (0, 1, 2), labels[1]: pair_a, labels[2]: pair_b}
    for i, x in enumerate(labels[3:]):
        member[x] = (i % 3,) if i < 3 else (rng.randrange(3),)
    points = sorted(labels, key=lambda x: int(x[1:]))
    opens = [[x for x in points if i in member[x]] for i in range(3)]
    return FiniteCover(points, opens)


def cover_doc(seed, npts):
    rng = random.Random(seed)
    span = heisenberg_span()
    cover = three_open_cover(rng, npts)
    local = [LocalSection(i, {x: point_from_coordinates(span, [_frac(rng) for _ in range(3)])
                              for x in op})
             for i, op in enumerate(cover.opens)]
    return {"field": serialize.field_to_json(QQ), "cover": serialize.cover_to_json(cover),
            "group": serialize.span_to_json(span), "locals": serialize.locals_to_json(local)}


def orbit_doc(seed, field, generator, n, q):
    rng = random.Random(seed)
    span = full_unipotent_span(n, field)
    action = GaloisAction(field, [generator])
    z = point_from_coordinates(span, [[_frac(rng) for _ in range(field.degree)]
                                      for _ in range(span.dim)])
    points = [z]
    for _ in range(q):
        points.append(points[-1].map_entries(action.generators[0], z.ring))
    return serialize.orbit_to_json(GaloisOrbit(span, action, points))


COVERS = {"p7": (7107, 7), "p8": (7108, 8)}

SECTIONS_DIGESTS = {
    ("p7", "build"): "66f30316125ba16c70abd1d2ecf16f71f36517d7aa4cc59404c5bad7ed4e88ab",
    ("p7", "validate"): "0fc44fa2ea426c50cdd26da1fb53f9f27585bf1080c55b43b603943f656a809c",
    ("p8", "build"): "560fd6d0291d1b185a9d41e1cd5a55fcc15c99797149f6b0ffdce653c1a53781",
    ("p8", "validate"): "f7546e39b9de4730621f25cbd9d54aaac494b82ce775c1c00591f71803498b08",
}

GALOIS_DIGESTS = {
    "sqrt2-n5-q1": "3f4bf59034cd2217eebb97125f27f5e2df038227a528655b4337926a4dde0b45",
    "cubic-n4-q2": "92283d0853ba2f28d54d94ffc04e6f6dd5277a626581d524a64357e65592957e",
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(COVERS))
def test_sections_build_and_validate_bytes_are_pinned(tmp_path, capsys, name):
    seed, npts = COVERS[name]
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps(cover_doc(seed, npts)))
    assert main(["sections", "--input", str(cover), "--max-q", "3"]) == 0
    built = capsys.readouterr().out
    section = tmp_path / "section.json"
    section.write_text(built)
    assert main(["sections", "--input", str(section), "--max-q", "3"]) == 0
    validated = capsys.readouterr().out
    assert (_digest(built), _digest(validated)) == (SECTIONS_DIGESTS[name, "build"],
                                                   SECTIONS_DIGESTS[name, "validate"])


def test_galois_bytes_are_pinned(tmp_path, capsys):
    sqrt2, cubic = sqrt2_field(), cubic_field()
    docs = {"sqrt2-n5-q1": orbit_doc(7201, sqrt2, sqrt2.value([0, -1]), 5, 1),
            "cubic-n4-q2": orbit_doc(7202, cubic, cubic.gen * cubic.gen - 2, 4, 2)}
    for name, doc in docs.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(doc))
        assert main(["galois", "--input", str(path)]) == 0, name
        assert _digest(capsys.readouterr().out) == GALOIS_DIGESTS[name], name
