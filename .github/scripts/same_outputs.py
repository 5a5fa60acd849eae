"""Check that two source trees write the same bytes on every benchmark job
and on a fixed job of every CLI subcommand.

    python3 .github/scripts/same_outputs.py BASE HEAD [--work DIR]

BASE and HEAD are two checkouts of the repository.  For each seed in SEEDS,
the inputs of every workload named in HEAD's BENCHMARK.json are generated
once with the `generate` function of HEAD's perfbench/workloads.py.  Then,
for each workload, one fresh process per tree imports that tree's
perfbench/worker.py, which puts the tree's own package first on the path,
and runs every job of the input list in order through `worker.Jobs`, just
as the benchmark does.  The exit code, the error text, the standard error
text and the output bytes of each job are compared.

The workloads write no number-field polynomial and leave some subcommands
out, so `cli_jobs` also writes, once with HEAD's package, the inputs of a
fixed list of CLI jobs built from `unipavg.fixtures`: wav, with and
without --weights, over Q and Q(sqrt2), wsym, exp, log, bch, figure-data,
galois on five orbits, on both sides of the pointwise average's dispatch
(two conjugate pairs on U_4 over Q(sqrt2), where the second pair is not
reached from the first, and a cyclic cubic orbit on U_4 in shuffled order,
both through a cached universal polynomial; two conjugate pairs on the
Heisenberg group over Q(sqrt2) at q = 3 and one pair on U_6 over Q(sqrt2)
at q = 1, both through the linear one; and two cubic orbits on U_4 at
q = 5, above the bound, averaged symbolically and then evaluated),
galois on two orbits that fail the closure check, which compares integer
forms (the cyclic cubic orbit with one point dropped, and a conjugate pair
over Q(sqrt2) whose second point is perturbed; exit 2), exp,
log and bch on constant U_4 matrices over Q[x]/(x^2 - 1/2) and galois on
one conjugate pair (x -> -x) of U_4 points over that field, whose power
table has the denominator 2, so the constant-matrix integer form carries
it, wav on
both sides of the universal-polynomial dispatch
(U_6 over Q at q = 2, through Phi_{5,2}; U_5 over Q at q = 3 with
--iterations 4, through Phi_{3,3}; a non-full class-3 subgroup of U_5 over
Q(sqrt2) at q = 3, through Phi_{3,3}; and U_6 over Q at q = 3, whose
Phi_{5,3} lies above the bound, by the pass loop), wav through Lemma A's
Phi = sum_j t_j e_j (with --weights on the Heisenberg group over Q(sqrt2)
at q = 3, and with --iterations 3 on U_4 over Q at q = 1), wav on U_4
over Q at q = 2 on both sides of the echelon store's axis rule (its group
basis the E_ij shuffled and scaled by 2 and -1, solved by lookup on the
axes, and a unitriangular change of that basis, solved by elimination),
the reader's
constant-grid path and its fallback (wav on that subgroup of U_5 and galois
on the U_4 orbits over Q(sqrt2) and the cubic field, with every constant
polynomial respelled in shapes that path reads: integer coefficients,
unreduced num/den objects and coords items, single numbers for coords
lists, explicit zero terms; then again with one entry of every other matrix
in a shape it leaves to the general reader: a negative denominator, a
duplicated term, a missing q, params or terms; exit 0, so the values are
compared through the outputs; and two malformed copies with 1.0 and true
as the coefficient of a diagonal entry, of a section and of a group basis
matrix, exit 2), sections build and validate over Q(sqrt2), validate on
the built section with every polynomial spelled non-canonically (integer
coefficients, unreduced and negative-denominator num/den objects, single
numbers for coords lists, unsorted and duplicate terms; exit 0, so the
reader's values are compared through the report), validate on three tampered
copies of the built section (a changed datum, a deleted one, and a datum
changed together with every degenerate datum pulled back from it, which
only a coface check catches, so the failure reports are compared; exit
2), then, in the same process, sections build and validate over Q on the
same cover and validate with one datum raised along s^0 to the next
simplex, which no generator of its level fits (exit 2), a sections build
and validate of full U_4 over Q on one point covered by four opens at
--max-q 4, the only job whose data reach level 4 over four distinct
opens, sections build and validate at --max-q 3 over Q(sqrt2) and the
cubic field with irrational local values, and on each of those built
sections a validate whose diagonal and lower entries above level 0 are
respelled (exit 0, so the values the reader's fallback reads are
compared through the report) and one with a tampered degenerate datum
(exit 2, so the certificate's failure report is compared), a wav
whose output has an integer over the digit limit (exit 2), and, since
no other job writes a polynomial with parameters, jobs over Q(sqrt2) on
the Heisenberg group whose entries have the parameters a, b% and é: wav
on three sections, wsym on their lift and exp of one section's log (exit
0), and wav --weights on the same sections (exit 2, a missing parameter
value).
One fresh process per tree runs them through its `cli.main`, and the exit
code, standard output and standard error of each are compared.

No subcommand reaches a quotient, so `tower_jobs` writes, once with HEAD's
package, section tuples for library tower jobs at q = 1 and q = 2: U_4
over Q(sqrt2), the cyclic cubic field and Q[x]/(x^2 - 1/2) and U_5 over Q
along their lower central series, and U_4 over Q along its centre and the
zero ideal.  One fresh process per tree reads each tuple, runs
`tower_compatibility` and then `quotient_span` on every ideal, and writes
the tower report, each quotient target's span, each projection's basis
images and chosen preimages (`section`), and each floor's average in the
quotient's Lie coordinates; the same process also writes the terms of
Phi_{c,q}, the universal polynomial, for (c, q) = (3, 2), (3, 3), (3, 4)
and (5, 2).  Those documents are compared as bytes.

The check stops at the first job that differs, naming it.  Exit status: 0
when every job matches, 1 at the first difference.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPT = Path(__file__).resolve()
SEEDS = (11, 23)


def generate(tree, seed, work):
    """Write each workload's inputs and manifest under work; print the
    manifest paths as one JSON list."""
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    sys.path.insert(0, str(Path(tree).resolve() / "perfbench"))
    import workloads
    with open(Path(tree) / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    paths = []
    for name in names:
        inputs_dir = Path(work) / name / "inputs"
        inputs_dir.mkdir(parents=True)
        manifest = workloads.generate(name, seed, inputs_dir)
        path = Path(work) / name / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        paths.append(str(path))
    print(json.dumps(paths))


def run_jobs(tree, manifest_path, out_dir):
    """Run every job of one manifest with tree's benchmark worker; job k
    writes k.json, and status.json lists each job's exit code, error text
    and standard error text."""
    sys.path.insert(0, str(Path(tree).resolve() / "perfbench"))
    import worker
    with open(manifest_path, encoding="utf-8") as fh:
        jobs = worker.Jobs(json.load(fh), out_dir)
    status = []
    for k in range(len(jobs.inputs)):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, _wall, _cpu, error = jobs.run(k)
        status.append([rc, error, err.getvalue()])
    with open(os.path.join(out_dir, "status.json"), "w", encoding="utf-8") as fh:
        json.dump(status, fh)


def cli_jobs(tree, work):
    """Write the inputs of the fixed CLI jobs under work with tree's
    package; print the argument list of each job as one JSON list."""
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    from fractions import Fraction
    from unipavg import (QQ, FiniteCover, GaloisAction, GaloisOrbit, LieSpan, LocalSection,
                         NilMatrix, PolyRing, ScalarField, SectionTuple, SimplexMap, UniMatrix,
                         cli, embed_simplex, exp_nilpotent, full_unipotent_span, serialize)
    from unipavg.fixtures import (cover_local_sections, cubic_field, heisenberg_span,
                                  point_from_coordinates, six_point_cover, sqrt2_field,
                                  two_point_tuple)
    from unipavg.nilpotent import log_unipotent, pull_back

    def dump(name, doc):
        path = Path(work) / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    sqrt2 = sqrt2_field()
    span = heisenberg_span(sqrt2)
    half = Fraction(1, 2)
    pts = [point_from_coordinates(span, c) for c in (
        [[1, 1], [0, 2], [half, -1]], [[-2, half], [1, 0], [0, 3]], [[0, -1], [3, 1], [1, 1]])]
    rational, surd = two_point_tuple(), SectionTuple(span, pts)
    weights = {QQ: '[{"num":1,"den":3},{"num":2,"den":3}]',
               sqrt2: '[{"num":1,"den":6},{"coords":[{"num":1,"den":3},0]},{"num":1,"den":2}]'}
    jobs = []
    for name, t in (("pair", rational), ("surd", surd)):
        path = dump(name + ".json", serialize.tuple_to_json(t))
        jobs += [["wav", "--input", path],
                 ["wav", "--input", path, "--weights", weights[t.group.field]]]
    lifted = SectionTuple(span, [embed_simplex(p, 2) for p in surd.sections])
    jobs.append(["wsym", "--input", dump("lifted.json", serialize.tuple_to_json(lifted))])
    a, b = (log_unipotent(p) for p in pts[:2])
    field = {"field": serialize.field_to_json(sqrt2)}
    jobs += [["exp", "--input", dump("exp.json", serialize.matrix_to_json(
                 log_unipotent(rational.sections[1])))],
             ["log", "--input", dump("log.json", dict(field, matrix=serialize.matrix_to_json(
                 pts[2])))],
             ["bch", "--input", dump("bch.json", dict(field, a=serialize.matrix_to_json(a),
                                                      b=serialize.matrix_to_json(b)))],
             ["figure-data", "--input", str(Path(work) / "pair.json"), "--resolution", "3"]]
    # galois orbits, each point followed by its conjugates: on U_4, two
    # conjugate pairs over Q(sqrt2) (q = 3, through Phi_{3,3}) and the
    # cyclic cubic orbit z, s(z), s(s(z)) listed as s(s(z)), z, s(z) (q = 2,
    # through Phi_{3,2}); on the Heisenberg group, two conjugate pairs over
    # Q(sqrt2) (q = 3, class 2, so Phi is linear); on U_6, one conjugate
    # pair over Q(sqrt2) (q = 1, linear Phi); and on U_4, two cubic orbits
    # (q = 5, whose Phi_{3,5} lies above the bound, so the average is built
    # symbolically and then evaluated)
    cubic = cubic_field()
    theta = cubic.gen
    conjugate_pairs = GaloisAction(sqrt2, [[0, -1]])
    cyclic = GaloisAction(cubic, [theta * theta - 2])
    orbit_docs = {}
    for name, action, group, coords, count, order in (
            ("pairs", conjugate_pairs, full_unipotent_span(4, sqrt2),
             [[[1, 1], [0, 2], [half, -1], 0, [1, 0], [0, 1]],
              [[-2, half], 1, [0, 3], [1, 1], 0, [3, 1]]], 2, [0, 1, 2, 3]),
            ("cubic", cyclic, full_unipotent_span(4, cubic),
             [[theta, 1, theta * theta - theta, -2, half, theta + 1]], 3, [2, 0, 1]),
            ("heisenberg-pairs", conjugate_pairs, heisenberg_span(sqrt2),
             [[[1, -1], [half, 2], [0, 1]], [[2, 0], [-1, half], [3, -2]]], 2, [0, 1, 2, 3]),
            ("u6-pair", conjugate_pairs, full_unipotent_span(6, sqrt2),
             [[[(k % 3) - 1, half * (k % 2)] for k in range(15)]], 2, [0, 1]),
            ("cubic-two-orbits", cyclic, full_unipotent_span(4, cubic),
             [[theta, 1, theta * theta - theta, -2, half, theta + 1],
              [1, -theta, 0, theta * theta, 2, -half]], 3, [0, 1, 2, 3, 4, 5])):
        points = []
        for c in coords:
            points.append(point_from_coordinates(group, c))
            while len(points) % count:
                points.append(points[-1].map_entries(action.generators[0], group.ring))
        orbit = GaloisOrbit(group, action, [points[k] for k in order])
        orbit_docs[name] = serialize.orbit_to_json(orbit)
        jobs.append(["galois", "--input", dump("galois-%s.json" % name, orbit_docs[name])])
    # two orbits that fail the closure check's comparison (exit 2): the
    # cyclic cubic orbit with its first point dropped, and the first
    # conjugate pair over Q(sqrt2) with its second point moved by
    # exp(E_01), so that it is no longer the first point's conjugate
    dropped = dict(orbit_docs["cubic"], points=orbit_docs["cubic"]["points"][1:])
    pairs = orbit_docs["pairs"]
    moved = serialize.uni_from_json(sqrt2, pairs["points"][1]) * exp_nilpotent(
        NilMatrix.from_entries(PolyRing(sqrt2, 0), 4, {(0, 1): 1}))
    perturbed = dict(pairs, points=[pairs["points"][0], serialize.matrix_to_json(moved)]
                     + pairs["points"][2:])
    jobs += [["galois", "--input", dump("galois-cubic-dropped.json", dropped)],
             ["galois", "--input", dump("galois-pairs-perturbed.json", perturbed)]]
    # constant matrices over Q[x]/(x^2 - 1/2), whose power table has the
    # denominator 2, so the integer form's products carry it: exp, log and
    # bch on U_4, and the conjugate pair of a point under x -> -x (q = 1,
    # linear Phi)
    half_field = ScalarField.extension("x", (-half, 0, 1))
    half_group = full_unipotent_span(4, half_field)
    half_points = [point_from_coordinates(half_group, c) for c in (
        [[1, half], [0, -2], [half, 1], [-1, 0], [2, -half], [0, 1]],
        [[half, -1], [1, 1], [0, half], [-2, 1], [1, 0], [-half, 2]])]
    half_doc = {"field": serialize.field_to_json(half_field)}
    ha, hb = (log_unipotent(p) for p in half_points)
    jobs += [["exp", "--input", dump("exp-half.json", dict(
                 half_doc, matrix=serialize.matrix_to_json(ha)))],
             ["log", "--input", dump("log-half.json", dict(
                 half_doc, matrix=serialize.matrix_to_json(half_points[0])))],
             ["bch", "--input", dump("bch-half.json", dict(
                 half_doc, a=serialize.matrix_to_json(ha), b=serialize.matrix_to_json(hb)))]]
    negate = GaloisAction(half_field, [[0, -1]])
    half_pair = [half_points[1],
                 half_points[1].map_entries(negate.generators[0], half_group.ring)]
    jobs.append(["galois", "--input", dump("galois-half-pair.json", serialize.orbit_to_json(
        GaloisOrbit(half_group, negate, half_pair)))])
    # wav through the universal polynomial Phi_{c',q} and, above its bound,
    # by the pass loop: full U_6 at q = 2 and q = 3, U_5 at q = 3 with an
    # iteration override, and over Q(sqrt2) the subgroup of U_5 spanned by
    # the E_ij with j <= 3 and the corner E_04, which is central there
    # (dimension 7 of 10, class 3); then through Lemma A's sum_j t_j e_j:
    # the Heisenberg group over Q(sqrt2) at q = 3 at irrational weights, and
    # U_4 over Q at q = 1 with an iteration override; and U_4 over Q at
    # q = 2 on both sides of the echelon store's axis rule: its basis the
    # E_ij shuffled and scaled by 2 and -1, which the store solves on its
    # axes, and the unitriangular change b_k + b_{k+1} of that basis, which
    # it solves by elimination
    values = (1, -1, 2, -2, half, -half)
    q_ring = PolyRing(QQ, 0)
    scaled = [NilMatrix.from_entries(q_ring, 4, {ij: s}) for ij, s in zip(
        ((1, 3), (0, 2), (2, 3), (0, 1), (0, 3), (1, 2)), (2, -1, 1, -1, 2, 2))]
    axis_span = LieSpan(scaled)
    unitriangular_span = LieSpan([a + b for a, b in zip(scaled, scaled[1:])] + scaled[-1:])
    ring = PolyRing(sqrt2, 0)
    block = LieSpan([NilMatrix.from_entries(ring, 5, {(i, j): 1})
                     for i in range(5) for j in range(i + 1, 5) if j <= 3 or i == 0])
    for name, span, q, extra in (
            ("phi-5-2", full_unipotent_span(6, QQ), 2, []),
            ("phi-3-3", full_unipotent_span(5, QQ), 3, ["--iterations", "4"]),
            ("phi-3-3-block", block, 3, []),
            ("passes-6-3", full_unipotent_span(6, QQ), 3, []),
            ("lemma-a-heisenberg-3", heisenberg_span(sqrt2), 3, [
                "--weights", '[{"num":1,"den":6},{"coords":[{"num":1,"den":3},'
                '{"num":1,"den":3}]},{"num":1,"den":2},{"coords":[0,{"num":-1,"den":3}]}]']),
            ("lemma-a-4-1", full_unipotent_span(4, QQ), 1, ["--iterations", "3"]),
            ("axes-4-2", axis_span, 2, []),
            ("unitriangular-4-2", unitriangular_span, 2, [])):
        count = span.dim * span.field.degree
        points = []
        for k in range(q + 1):
            coords = [values[(5 * k + 3 * i + k * i) % 6] for i in range(count)]
            if span.field.degree > 1:
                coords = [coords[2 * i:2 * i + 2] for i in range(span.dim)]
            points.append(point_from_coordinates(span, coords))
        path = dump(name + ".json", serialize.tuple_to_json(SectionTuple(span, points)))
        jobs.append(["wav", "--input", path] + extra)
    # the reader's constant-grid path and its fallback: the wav tuple on the
    # class-3 subgroup of U_5 over Q(sqrt2) and the U_4 galois orbits over
    # Q(sqrt2) and the cubic field, with every constant polynomial respelled
    # as the writer never spells it; in the "fast" copies only in shapes the
    # constant-grid path reads, in the "mixed" copies with one entry of every
    # other matrix in a shape it leaves to the general reader; and two
    # malformed copies, with 1.0 as the coefficient of a section's diagonal
    # entry and true as that of a group basis matrix's (exit 2)
    def spell(poly, k, fallback):
        terms = poly["terms"]
        if not terms:
            ways = ([{"q": 0, "params": []}, {"params": [], "terms": []}] if fallback else
                    [dict(poly, terms=[{"exp": [], "coef": 0}]),
                     dict(poly, terms=[{"exp": [], "coef": {"num": 0, "den": 5}}])])
            return ways[k % len(ways)]
        coef = terms[0]["coef"]
        items = coef.get("coords", [coef])

        def wrap(lits):
            return {"coords": lits} if "coords" in coef else lits[0]

        def scaled(a, b):
            return wrap([{"num": a * c["num"], "den": b * c["den"]} for c in items])

        def term(*coefs):
            return {"q": 0, "params": [], "terms": [{"exp": [], "coef": c} for c in coefs]}
        if fallback:
            ways = [term(scaled(-1, -1)), term(scaled(1, 2), scaled(1, 2)),
                    {"params": [], "terms": terms}, {"q": 0, "terms": terms}]
        else:
            ways = [term(scaled(2, 2)), poly]
            if all(c["den"] == 1 for c in items):
                ways.append(term(wrap([c["num"] for c in items])))
            if not any(c["num"] for c in items[1:]):
                first = items[0]
                ways.append(term({"num": 3 * first["num"], "den": 3 * first["den"]}))
                if first["den"] == 1:
                    ways.append(term(first["num"]))
        return ways[k % len(ways)]

    def respelled_doc(name, mixed):
        doc = json.loads((Path(work) / name).read_text(encoding="utf-8"))
        count = [0]

        def walk(node):
            if isinstance(node, dict) and "entries" in node:
                m, n = count[0], len(node["entries"])
                count[0] += 1
                node["entries"] = [[spell(e, m + n * i + j,
                                          mixed and m % 2 == 1 and n * i + j == m % (n * n))
                                    for j, e in enumerate(row)]
                                   for i, row in enumerate(node["entries"])]
            elif isinstance(node, (dict, list)):
                for value in (node.values() if isinstance(node, dict) else node):
                    walk(value)
        walk(doc)
        return doc

    for name, command in (("phi-3-3-block.json", "wav"), ("galois-pairs.json", "galois"),
                          ("galois-cubic.json", "galois")):
        for mixed in (False, True):
            jobs.append([command, "--input", dump("%s-%s" % ("mixed" if mixed else "fast", name),
                                                  respelled_doc(name, mixed))])
    for name, command, key, value in (("phi-3-3-block.json", "wav", "sections", 1.0),
                                      ("galois-pairs.json", "galois", "group", True)):
        doc = json.loads((Path(work) / name).read_text(encoding="utf-8"))
        mat = doc["group"]["basis"][0] if key == "group" else doc[key][1]
        mat["entries"][1][1]["terms"] = [{"exp": [], "coef": value}]
        jobs.append([command, "--input", dump("malformed-" + name, doc)])
    cover_span, local = cover_local_sections(sqrt2)
    cover = dump("cover.json", dict(field, cover=serialize.cover_to_json(six_point_cover()),
                                    group=serialize.span_to_json(cover_span),
                                    locals=serialize.locals_to_json(local)))
    built = str(Path(work) / "built.json")
    if cli.main(["sections", "--input", cover, "--max-q", "2", "--output", built]) != 0:
        raise RuntimeError("building the validate-mode input %s failed" % built)
    jobs += [["sections", "--input", cover, "--max-q", "2"],
             ["sections", "--input", built, "--max-q", "2"]]

    # the built section with every polynomial spelled as the writer never
    # spells it, for the reader: each term twice, as 2c and -c, in reverse
    # order, with whole numbers as integers, the rest unreduced or with
    # both signs flipped, and a coefficient whose other coordinates are 0
    # as one number rather than a coords list
    def respell(c, k):
        num, den = c["num"], c["den"]
        if den == 1 and k % 3 == 0:
            return num
        return {"num": -3 * num, "den": -3 * den} if k % 2 else {"num": 2 * num, "den": 2 * den}

    def respell_all(doc):
        if isinstance(doc, list):
            for item in doc:
                respell_all(item)
        elif isinstance(doc, dict) and "terms" in doc:
            terms = []
            for k, term in enumerate(doc["terms"]):
                for scale in (2, -1):
                    coords = [{"num": scale * c["num"], "den": c["den"]}
                              for c in term["coef"]["coords"]]
                    if not any(c["num"] for c in coords[1:]):
                        coef = respell(coords[0], k)
                    else:
                        coef = {"coords": [respell(c, k + i) for i, c in enumerate(coords)]}
                    terms.append({"exp": term["exp"], "coef": coef})
            doc["terms"] = terms[::-1]
        elif isinstance(doc, dict):
            for value in doc.values():
                respell_all(value)

    respelled = json.loads(Path(built).read_text(encoding="utf-8"))
    respell_all(respelled)
    jobs.append(["sections", "--input", dump("respelled.json", respelled), "--max-q", "2"])
    # two tampered copies of the built section fail validation (exit 2): a
    # term added to the level-1 datum at (0, 1), point d, and the level-2
    # datum at (0, 0, 1), point c, deleted
    for name in ("changed", "deleted"):
        doc = json.loads(Path(built).read_text(encoding="utf-8"))
        if name == "changed":
            doc["levels"]["0.1"]["d"]["entries"][0][1]["terms"].append({"exp": [1], "coef": 7})
        else:
            del doc["levels"]["0.0.1"]["c"]
        jobs.append(["sections", "--input", dump(name + ".json", doc), "--max-q", "2"])
    # the level-1 datum at (0, 1), point d, with its (0, 1) entry raised by
    # 1, and every degenerate datum over opens 0 and 1 at d its pullback
    # along the surjection: each degenerate datum is still the pullback of
    # its nondegenerate one, so only a coface check fails (exit 2)
    section = serialize.simplicial_from_json(json.loads(Path(built).read_text(encoding="utf-8")))
    mat = section.levels[1][(0, 1)]["d"]
    rows = [list(row) for row in mat.rows]
    rows[0][1] = rows[0][1] + 1
    mat = UniMatrix(mat.ring, rows)
    for level in section.levels.values():
        for mi, per_point in level.items():
            if set(mi) == {0, 1}:
                per_point["d"] = pull_back(mat, SimplexMap(1, mi))
    jobs.append(["sections", "--input", dump("consistent.json",
                                             serialize.simplicial_to_json(section)),
                 "--max-q", "2"])
    # after the Q(sqrt2) jobs, in the same process, a build and a validate
    # over Q on the same cover, whose maps meet rings over Q, and a validate
    # with the level-1 datum at (0, 1), point d, raised along s^0 to the
    # 2-simplex, which no generator of level 1 fits (exit 2)
    rational_span, rational_local = cover_local_sections(QQ)
    rational_cover = dump("cover-q.json", {
        "field": serialize.field_to_json(QQ), "cover": serialize.cover_to_json(six_point_cover()),
        "group": serialize.span_to_json(rational_span),
        "locals": serialize.locals_to_json(rational_local)})
    rational_built = str(Path(work) / "built-q.json")
    if cli.main(["sections", "--input", rational_cover, "--max-q", "2",
                 "--output", rational_built]) != 0:
        raise RuntimeError("building the validate-mode input %s failed" % rational_built)
    section = serialize.simplicial_from_json(
        json.loads(Path(rational_built).read_text(encoding="utf-8")))
    mat = section.levels[1][(0, 1)]["d"]
    section.levels[1][(0, 1)]["d"] = pull_back(mat, SimplexMap.codegeneracy(1, 0))
    jobs += [["sections", "--input", rational_cover, "--max-q", "2"],
             ["sections", "--input", rational_built, "--max-q", "2"],
             ["sections", "--input", dump("raised.json", serialize.simplicial_to_json(section)),
              "--max-q", "2"]]
    # full U_4 over Q on a one-point cover with four opens, built and
    # validated at max_q 4: the only data that reach level 4 over four
    # distinct opens, so the degenerate data are pullbacks along
    # surjections onto [3], which no workload builds
    values = (1, -1, 2, -2, half, -half)
    u4 = full_unipotent_span(4, QQ)
    deep_local = [LocalSection(i, {"x": point_from_coordinates(
        u4, [values[(3 * i + k) % 6] for k in range(u4.dim)])}) for i in range(4)]
    deep_cover = dump("cover-u4.json", {
        "field": serialize.field_to_json(QQ),
        "cover": serialize.cover_to_json(FiniteCover(["x"], [["x"]] * 4)),
        "group": serialize.span_to_json(u4), "locals": serialize.locals_to_json(deep_local)})
    deep_built = str(Path(work) / "built-u4.json")
    if cli.main(["sections", "--input", deep_cover, "--max-q", "4",
                 "--output", deep_built]) != 0:
        raise RuntimeError("building the validate-mode input %s failed" % deep_built)
    jobs += [["sections", "--input", deep_cover, "--max-q", "4"],
             ["sections", "--input", deep_built, "--max-q", "4"]]
    # sections build and validate at --max-q 3 on the six-point cover over
    # Q(sqrt2) and the cubic field, with irrational local values: a build
    # certifies the degenerate data it pulled back itself, a validate pulls
    # each back again.  Then, on each built document, a validate with the
    # diagonal and lower entries of every datum above level 0 spelled as
    # the writer never spells 1 and 0 (exit 0, so the general reader's
    # values are compared through the report), and one with a degenerate
    # datum tampered (exit 2, so the failure reports are compared)
    for name, field, values in (("sqrt2", sqrt2, [[1, 1], [0, -1], [half, 2], [-1, half],
                                                  [2, 0], [0, 3]]),
                                ("cubic", cubic, [theta, 1 - theta, theta * theta, -half,
                                                  theta + 2, half * theta])):
        heis = heisenberg_span(field)
        opens = six_point_cover().opens
        field_local = [LocalSection(i, {x: point_from_coordinates(heis, [
            values[(2 * i + k + j) % 6] for j in range(3)]) for k, x in enumerate(op)})
            for i, op in enumerate(opens)]
        field_cover = dump("cover-%s-3.json" % name, {
            "field": serialize.field_to_json(field),
            "cover": serialize.cover_to_json(six_point_cover()),
            "group": serialize.span_to_json(heis),
            "locals": serialize.locals_to_json(field_local)})
        field_built = str(Path(work) / ("built-%s-3.json" % name))
        if cli.main(["sections", "--input", field_cover, "--max-q", "3",
                     "--output", field_built]) != 0:
            raise RuntimeError("building the validate-mode input %s failed" % field_built)
        jobs += [["sections", "--input", field_cover, "--max-q", "3"],
                 ["sections", "--input", field_built, "--max-q", "3"]]
        doc = json.loads(Path(field_built).read_text(encoding="utf-8"))
        doc.pop("report")
        one = {"num": 1, "den": 1}
        unit = one if field.degree == 1 else {"coords": [one] + [0] * (field.degree - 1)}
        k = 0
        for key, per_point in doc["levels"].items():
            for mat in per_point.values():
                q = mat["entries"][0][0]["q"]
                if not q:
                    continue
                zero_exp = [0] * q
                for i, row in enumerate(mat["entries"]):
                    for j in range(i + 1):
                        k += 1
                        if i == j:
                            row[j] = [
                                {"q": q, "terms": [{"exp": zero_exp,
                                                    "coef": {"num": 2, "den": 2}}]},
                                {"params": [], "terms": [{"coef": 1, "exp": zero_exp}],
                                 "q": q},
                                {"q": q, "params": [], "terms": [
                                    {"exp": zero_exp, "coef": {"num": -1, "den": -2}},
                                    {"exp": zero_exp, "coef": {"num": 1, "den": 2}}]},
                                {"q": q, "params": [], "terms": [{"exp": zero_exp,
                                                                 "coef": unit}]},
                                dict(row[j], extra=None)][k % 5]
                        else:
                            row[j] = [{"q": q},
                                      {"q": q, "params": [], "terms": [
                                          {"exp": zero_exp, "coef": 0}]},
                                      {"terms": [], "params": [], "q": q},
                                      {"q": q, "params": [], "terms": [
                                          {"exp": zero_exp, "coef": {"num": 0, "den": -3}}]},
                                      dict(row[j], extra=[])][k % 5]
        jobs.append(["sections", "--input", dump("fixed-%s-3.json" % name, doc),
                     "--max-q", "3"])
        doc = json.loads(Path(field_built).read_text(encoding="utf-8"))
        doc.pop("report")
        doc["levels"]["0.0.1"]["d"]["entries"][0][2]["terms"].append(
            {"exp": [0, 1], "coef": 5})
        jobs.append(["sections", "--input", dump("tampered-%s-3.json" % name, doc),
                     "--max-q", "3"])
    # the log's corner entry is a product of three entries of 0.7 times the
    # digit limit, so writing the average exits 2
    big = 10 ** (sys.get_int_max_str_digits() * 7 // 10) + 1
    u4 = full_unipotent_span(4, QQ)
    far = UniMatrix.from_entries(u4.ring, 4, {(i, j): big for i in range(4)
                                              for j in range(i + 1, 4)})
    path = dump("big.json", serialize.tuple_to_json(
        SectionTuple(u4, [UniMatrix.identity(u4.ring, 4), far])))
    jobs.append(["wav", "--input", path])
    # polynomials with parameters, whose names the writer lays out, over
    # Q(sqrt2) on the Heisenberg group: wav on three sections, wsym on their
    # lift to the 2-simplex and exp of one section's log (exit 0), and wav
    # --weights, which cannot evaluate at a parameter (exit 2)
    param_span, param_ring = heisenberg_span(sqrt2), PolyRing(sqrt2, 0, ("a", "b%", "é"))
    pa, pb, pe = (param_ring.parameter(x) for x in param_ring.params)
    root = sqrt2.gen
    param_points = [
        UniMatrix.from_entries(param_ring, 3, {(0, 1): pa + root, (1, 2): pe, (0, 2): pa * pb}),
        UniMatrix.from_entries(param_ring, 3, {(0, 1): 2, (1, 2): pb * root - half,
                                               (0, 2): pe * pe}),
        UniMatrix.from_entries(param_ring, 3, {(0, 1): half * pb, (1, 2): 1 - pa,
                                               (0, 2): root})]
    path = dump("params.json", serialize.tuple_to_json(SectionTuple(param_span, param_points)))
    param_lift = SectionTuple(param_span, [embed_simplex(p, 2) for p in param_points])
    jobs += [["wav", "--input", path],
             ["wsym", "--input", dump("params-lifted.json", serialize.tuple_to_json(param_lift))],
             ["exp", "--input", dump("params-exp.json", {
                 "field": serialize.field_to_json(sqrt2),
                 "matrix": serialize.matrix_to_json(log_unipotent(param_points[0]))})],
             ["wav", "--input", path, "--weights", weights[sqrt2]]]
    print(json.dumps(jobs))


def run_cli_jobs(tree, jobs_path, result_path):
    """Run each job of jobs_path with tree's cli.main; result_path lists
    each job's exit code, standard output and standard error."""
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    from unipavg import cli
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    results = []
    for argv in jobs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        results.append([rc, out.getvalue(), err.getvalue()])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def tower_jobs(tree, work):
    """Write the section tuples of the library tower jobs under work with
    tree's package; print each job, [tuple path, "series" or "centre"], and
    each Phi job, ["phi", [c, q]], as one JSON list."""
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    import random
    from fractions import Fraction
    from unipavg import QQ, ScalarField, SectionTuple, full_unipotent_span, serialize
    from unipavg.fixtures import cubic_field, point_from_coordinates, sqrt2_field

    rng = random.Random(3901)
    jobs = []
    half = ScalarField.extension("x", (Fraction(-1, 2), 0, 1))
    for n, field, ideals in ((4, sqrt2_field(), "series"), (5, QQ, "series"),
                             (4, QQ, "centre"), (4, cubic_field(), "series"),
                             (4, half, "series")):
        span = full_unipotent_span(n, field)
        for q in (1, 2):
            pts = [point_from_coordinates(span, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                                 for _ in range(span.dim)])
                   for _ in range(q + 1)]
            path = Path(work) / ("tower-%d.json" % len(jobs))
            path.write_text(json.dumps(serialize.tuple_to_json(SectionTuple(span, pts))),
                            encoding="utf-8")
            jobs.append([str(path), ideals])
    jobs += [["phi", [c, q]] for c, q in ((3, 2), (3, 3), (3, 4), (5, 2))]
    print(json.dumps(jobs))


def run_tower_jobs(tree, jobs_path, result_path):
    """Run each tower job of jobs_path with tree's package; result_path
    lists, per job, the documents it wrote as JSON text."""
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    from unipavg import (LieSpan, NilMatrix, log_unipotent, lower_central_series,
                         quotient_span, serialize, tower_compatibility, wav)
    from unipavg.average import CoordinateTuple, universal_polynomial
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    results = []
    for path, kind in jobs:
        if path == "phi":
            results.append([json.dumps([[list(word), serialize.poly_to_json(x)]
                                        for word, x in universal_polynomial(*kind)])])
            continue
        with open(path, encoding="utf-8") as fh:
            t = serialize.tuple_from_json(json.load(fh))
        group = t.group
        series = lower_central_series(group)
        if kind == "series":
            ideals = series[1:]
        else:
            corner = NilMatrix.from_entries(group.ring, group.n, {(0, group.n - 1): 1})
            ideals = [LieSpan([corner]), series[-1]]
        docs = [serialize.tower_report_to_json(tower_compatibility(t, ideals))]
        logs = [group.coordinates(log_unipotent(s)) for s in t.sections]
        for ideal in ideals:
            target, hom = quotient_span(group, ideal)
            floor = CoordinateTuple(target.table, [hom.map_coordinates(x, t.ring.zero())
                                                   for x in logs], t.ring)
            docs.append([serialize.poly_to_json(x) for x in wav(floor)])
            docs.append(serialize.span_to_json(target))
            docs.append([serialize.matrix_to_json(m) for m in hom.images + hom.section])
        results.append([json.dumps(doc) for doc in docs])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def _self(*args):
    """Run this script in a fresh process; return its standard output."""
    done = subprocess.run([sys.executable, str(SCRIPT)] + [str(a) for a in args],
                          stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, check=True)
    return done.stdout.decode()


def _read(path):
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        return None


def _fixed_jobs(kind, base, head, work):
    """Write the inputs of the fixed jobs of kind ("cli" or "tower") once
    with head's package, run them in one fresh process per tree, and return
    the job list and each tree's results."""
    job_dir = Path(work) / kind
    job_dir.mkdir()
    jobs_path = job_dir / "jobs.json"
    jobs_path.write_text(_self("--%s-jobs" % kind, head, job_dir), encoding="utf-8")
    results = {}
    for label, tree in (("base", base), ("head", head)):
        result_path = job_dir / ("result-%s.json" % label)
        _self("--%s-run" % kind, tree, jobs_path, result_path)
        results[label] = json.loads(result_path.read_text(encoding="utf-8"))
    return json.loads(jobs_path.read_text(encoding="utf-8")), results


def compare(base, head, work):
    total = 0
    for seed in SEEDS:
        seed_dir = Path(work) / ("seed-%d" % seed)
        seed_dir.mkdir()
        manifests = json.loads(_self("--generate", head, seed, seed_dir))
        for manifest_path in manifests:
            name = Path(manifest_path).parent.name
            outs = {}
            for label, tree in (("base", base), ("head", head)):
                out_dir = Path(manifest_path).parent / ("out-" + label)
                out_dir.mkdir()
                _self("--run", tree, manifest_path, out_dir)
                outs[label] = out_dir
            with open(manifest_path, encoding="utf-8") as fh:
                inputs = json.load(fh)["inputs"]
            status = {label: json.loads((d / "status.json").read_text(encoding="utf-8"))
                      for label, d in outs.items()}
            for k, inp in enumerate(inputs):
                what = None
                if status["base"][k] != status["head"][k]:
                    what = "exit code or standard error (base %r, head %r)" % (
                        status["base"][k], status["head"][k])
                elif _read(outs["base"] / ("%d.json" % k)) != _read(outs["head"] / ("%d.json" % k)):
                    what = "output bytes"
                if what is not None:
                    print("DIFFERS: seed %d, workload %s, job %d (%s, input %s): %s"
                          % (seed, name, k, inp["kind"], inp["path"], what))
                    return 1
            total += len(inputs)
            print("same: seed %d, workload %s, %d jobs" % (seed, name, len(inputs)))
    for kind, describe, same in (
            ("cli", lambda k, argv: "subcommand job %d (%s): exit code, standard output or "
             "standard error" % (k, " ".join(argv)), "subcommand jobs"),
            ("tower", lambda k, job: "library job %d (%s, %s): tower report, floor average, "
             "quotient span, hom images or Phi terms" % (k, job[0], job[1]),
             "library tower and Phi jobs")):
        jobs, results = _fixed_jobs(kind, base, head, work)
        for k, job in enumerate(jobs):
            if results["base"][k] != results["head"][k]:
                print("DIFFERS: " + describe(k, job))
                return 1
        total += len(jobs)
        print("same: %d %s" % (len(jobs), same))
    print("every one of %d jobs wrote the same bytes under both trees" % total)
    return 0


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--generate"]:
        generate(argv[1], int(argv[2]), argv[3])
        return 0
    if argv[:1] == ["--run"]:
        run_jobs(*argv[1:4])
        return 0
    if argv[:1] == ["--cli-jobs"]:
        cli_jobs(argv[1], argv[2])
        return 0
    if argv[:1] == ["--cli-run"]:
        run_cli_jobs(*argv[1:4])
        return 0
    if argv[:1] == ["--tower-jobs"]:
        tower_jobs(argv[1], argv[2])
        return 0
    if argv[:1] == ["--tower-run"]:
        run_tower_jobs(*argv[1:4])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="checkout of the base commit")
    ap.add_argument("head", help="checkout of the commit under test")
    ap.add_argument("--work", help="directory for inputs and outputs (default: a fresh "
                    "temporary directory, removed afterwards)")
    args = ap.parse_args(argv)
    base, head = (str(Path(p).resolve()) for p in (args.base, args.head))
    if args.work:
        Path(args.work).mkdir(parents=True, exist_ok=True)
        return compare(base, head, args.work)
    work = tempfile.mkdtemp(prefix="same-outputs-")
    try:
        return compare(base, head, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
