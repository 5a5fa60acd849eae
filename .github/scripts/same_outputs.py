"""Check that two source trees write the same bytes on every benchmark job.

    python3 .github/scripts/same_outputs.py BASE HEAD [--work DIR]

BASE and HEAD are two checkouts of the repository.  For each seed in SEEDS,
the inputs of every workload named in HEAD's BENCHMARK.json are generated
once with the `generate` function of HEAD's perfbench/workloads.py.  Then,
for each workload, one fresh process per tree imports that tree's
perfbench/worker.py, which puts the tree's own package first on the path,
and runs every job of the input list in order through `worker.Jobs`, just
as the benchmark does.  The exit code, the error text, the standard error
text and the output bytes of each job are compared, and the check stops at
the first job that differs, naming it.  Exit status: 0 when every job
matches, 1 at the first difference.
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
