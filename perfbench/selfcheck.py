"""The benchmark's own checks; run from the repository root:

    python3 perfbench/selfcheck.py [--seed N]

1. Two traced runs of one seed give identical per-layer counts, on every
   workload.  Each traced run also checks that its traced and untraced
   outputs are byte for byte identical and fails otherwise.
2. A corrupted job output is counted as a failed job.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py
   exits with a nonzero code and prints no result.

Exits 0 when all hold; prints one line per check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=str(cwd),
                          capture_output=True, text=True, timeout=600)
    return proc


def _result(proc):
    if proc.returncode != 0:
        raise AssertionError("run.py exited %d: %s" % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    ok = True

    def report(name, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        print("%-4s %s %s" % ("ok" if passed else "FAIL", name, detail), flush=True)

    for wl in workloads:
        common = ["--workload", wl, "--seed", str(args.seed), "--seconds", "1", "--trace", "1"]
        first, second = _result(_run(common)), _result(_run(common))
        counts = [m["name"] for m in bench["per_layer"] if m["unit"] != "ms/job"]
        differ = [c for c in counts
                  if first["metrics"][c]["value"] != second["metrics"][c]["value"]]
        report("traced outputs match untraced, %s" % wl,
               first["correct"] and second["correct"] and not first["failed"])
        report("counts repeat, %s" % wl, not differ, ", ".join(differ))

        corrupted = _result(_run(["--workload", wl, "--seed", str(args.seed), "--seconds", "1",
                                  "--trace", "0", "--corrupt-job", "0"]))
        report("corrupted output counted as failed, %s" % wl,
               corrupted["failed"] == 1 and not corrupted["correct"],
               "failed=%d of %d" % (corrupted["failed"], corrupted["attempted"]))

    bare = ROOT / ".perfbench_out" / ("bare-%d" % os.getpid())
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(["--workload", workloads[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0"], cwd=bare)
        report("bare directory fails without a result", proc.returncode != 0
               and not proc.stdout.strip(), "exit %d" % proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
