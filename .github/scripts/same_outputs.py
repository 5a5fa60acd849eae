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
galois on two U_4 orbits whose lift computes one component per orbit of
the generator's permutation (two conjugate pairs over Q(sqrt2), where the
second pair is not reached from the first, and a cyclic cubic orbit in
shuffled order), sections build and validate over Q(sqrt2), validate on
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
opens, and a wav whose output has an integer over the digit limit (exit
2).
One fresh process per tree runs them through its `cli.main`, and the exit
code, standard output and standard error of each are compared.

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
    from unipavg import (QQ, FiniteCover, GaloisAction, GaloisOrbit, LocalSection,
                         SectionTuple, SimplexMap, UniMatrix, cli, embed_simplex,
                         full_unipotent_span, serialize)
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
    # galois on U_4, where the lift computes every component that no
    # generator's permutation reaches: two conjugate pairs over Q(sqrt2),
    # and the cyclic cubic orbit z, s(z), s(s(z)) listed as s(s(z)), z, s(z)
    cubic = cubic_field()
    theta = cubic.gen
    for name, action, coords, count, order in (
            ("pairs", GaloisAction(sqrt2, [[0, -1]]),
             [[[1, 1], [0, 2], [half, -1], 0, [1, 0], [0, 1]],
              [[-2, half], 1, [0, 3], [1, 1], 0, [3, 1]]], 2, [0, 1, 2, 3]),
            ("cubic", GaloisAction(cubic, [theta * theta - 2]),
             [[theta, 1, theta * theta - theta, -2, half, theta + 1]], 3, [2, 0, 1])):
        u4 = full_unipotent_span(4, action.field)
        points = []
        for c in coords:
            points.append(point_from_coordinates(u4, c))
            while len(points) % count:
                points.append(points[-1].map_entries(action.generators[0], u4.ring))
        orbit = GaloisOrbit(u4, action, [points[k] for k in order])
        jobs.append(["galois", "--input", dump("galois-%s.json" % name,
                                               serialize.orbit_to_json(orbit))])
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
    # the log's corner entry is a product of three entries of 0.7 times the
    # digit limit, so writing the average exits 2
    big = 10 ** (sys.get_int_max_str_digits() * 7 // 10) + 1
    u4 = full_unipotent_span(4, QQ)
    far = UniMatrix.from_entries(u4.ring, 4, {(i, j): big for i in range(4)
                                              for j in range(i + 1, 4)})
    path = dump("big.json", serialize.tuple_to_json(
        SectionTuple(u4, [UniMatrix.identity(u4.ring, 4), far])))
    jobs.append(["wav", "--input", path])
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
    cli_dir = Path(work) / "cli"
    cli_dir.mkdir()
    jobs_path = cli_dir / "jobs.json"
    jobs_path.write_text(_self("--cli-jobs", head, cli_dir), encoding="utf-8")
    results = {}
    for label, tree in (("base", base), ("head", head)):
        result_path = cli_dir / ("result-%s.json" % label)
        _self("--cli-run", tree, jobs_path, result_path)
        results[label] = json.loads(result_path.read_text(encoding="utf-8"))
    jobs = json.loads(jobs_path.read_text(encoding="utf-8"))
    for k, argv in enumerate(jobs):
        if results["base"][k] != results["head"][k]:
            print("DIFFERS: subcommand job %d (%s): exit code, standard output or "
                  "standard error" % (k, " ".join(argv)))
            return 1
    total += len(jobs)
    print("same: %d subcommand jobs" % len(jobs))
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
