"""Job-latency benchmark for unipavg.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ./src).  The
workloads and metrics are declared in BENCHMARK.json; layer_map.json says
which end-to-end metric and workload each per-layer metric should move.

--trace 0  Generates the workload's inputs from the seed, measures set-up
           in fresh processes, then one fresh worker process runs jobs
           back to back (a closed loop with one client) for S seconds,
           and on to the workload's minimum job count.  Every output is
           checked outside the timed region.  Times are reported
           calibrated to machine speed (calibrate.py); the uncalibrated
           figures are in the report line.
--trace 1  Runs the workload's fixed trace job list in two fresh workers,
           untraced and traced; checks that their outputs are byte for
           byte identical and that every traced layer was reached, and
           reports per-layer counts and self times per job.

Human-readable lines come first; the last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# set-up is measured in this many extra fresh processes, plus the timed one
SETUP_PROBES = 4
# a timed job is calibrated by the kernel calls after this many jobs on
# either side of it (see calibrate.py)
CAL_WINDOW = 3
# every worker is killed if the whole run is not done by then
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a job failing)."""


def _git_commit(root):
    """HEAD's commit read from .git without leaving the checkout, or None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "unipavg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    """Starts workers one at a time and waits for each."""

    def __init__(self, work, manifest_path, deadline):
        self.work = work
        self.manifest_path = manifest_path
        self.deadline = deadline
        self.count = 0

    def run(self, mode, seconds=0.0):
        """Run one worker; return (seconds from start to ready, result)."""
        self.count += 1
        wdir = self.work / ("%s-%d" % (mode, self.count))
        wdir.mkdir()
        result_path = wdir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--manifest", str(self.manifest_path),
               "--mode", mode, "--result", str(result_path), "--seconds", str(seconds)]
        with open(wdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, stderr=err,
                                    stdin=subprocess.DEVNULL)
            watchdog = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter() - start
                proc.stdout.read()
                proc.wait()
            finally:
                watchdog.cancel()
                watchdog.join()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            tail = (wdir / "stderr.txt").read_text(errors="replace")[-2000:]
            raise BenchError("worker %s exited with %s:\n%s" % (mode, proc.returncode, tail))
        with open(result_path, encoding="utf-8") as fh:
            return ready, json.load(fh)


def _check_worker(gate, manifest, res, corrupt_job=None):
    """Check the cold job and every loop job of one worker result; return
    (indices of the loop jobs that failed, reasons)."""
    out_dir = Path(res["out_dir"])
    n_inputs = len(manifest["inputs"])

    def verdict(rc, err, idx, path):
        return err or (rc != 0 and "exit %d" % rc) or gate.check(idx, path)

    reasons = []
    rc, _, _, err = res["cold"]
    why = verdict(rc, err, 0, out_dir / "cold.json")
    if why:
        reasons.append("cold job: %s" % why)
    failed = set()
    for k, (rc, _, _, err) in enumerate(res["jobs"]):
        path = out_dir / ("%d.json" % k)
        if k == corrupt_job and rc == 0:
            checks.corrupt(path, manifest["inputs"][k % n_inputs]["kind"])
        why = verdict(rc, err, k % n_inputs, path)
        if why:
            failed.add(k)
            reasons.append("job %d: %s" % (k, why))
    return failed, reasons


def _quantile(values, p):
    """The p-quantile of values, interpolated between order statistics;
    in a list of n values it has n - 1 - floor(p (n - 1)) values beyond it."""
    v = sorted(values)
    pos = p * (len(v) - 1)
    i = int(pos)
    if i + 1 >= len(v):
        return v[-1]
    return v[i] + (pos - i) * (v[i + 1] - v[i])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(runner, gate, manifest, bench, seconds, corrupt_job):
    setup, setup_raw = [], []
    reasons = []
    for _ in range(SETUP_PROBES):
        ready, res = runner.run("setup")
        setup_raw.append(ready)
        setup.append(ready * calibrate.scale(res["refs"][0]))
        reasons += _check_worker(gate, manifest, res)[1]
    ready, res = runner.run("timed", seconds)
    setup_raw.append(ready)
    setup.append(ready * calibrate.scale(res["refs"][0]))
    failed_jobs, more = _check_worker(gate, manifest, res, corrupt_job)
    reasons += more
    failed = len(failed_jobs)

    jobs, refs = res["jobs"], res["refs"]
    n = len(jobs)
    # job k is calibrated by the kernel calls of the CAL_WINDOW jobs on
    # either side of it: refs[k - w + 1 .. k + w], clipped to the run
    walls, cpus = [], []
    for k, job in enumerate(jobs):
        window = [c for r in refs[max(0, k - CAL_WINDOW + 1):k + CAL_WINDOW + 1] for c in r]
        walls.append(job[1] * calibrate.scale(window, 0))
        cpus.append(job[2] * calibrate.scale(window, 1))
    # The tail is one fixed percentile for every run of the workload: the
    # highest that has ten jobs beyond it in a run of min_jobs jobs, which
    # every timed run has.  (Taking the highest for this run's own count
    # would move the tail up and down its class as the machine speeds up
    # and slows down.)
    tail_p = 1.0 - 11.0 / manifest["min_jobs"]
    values = {
        "job_p50_ms": 1000.0 * statistics.median(walls),
        "job_tail_ms": 1000.0 * _quantile(walls, tail_p),
        "jobs_per_s": (n - failed) / sum(walls),
        "cpu_ms_per_job": 1000.0 * sum(cpus) / n,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
    }
    raw_walls = sorted(j[1] for j in jobs)
    uncalibrated = {
        "job_p50_ms": 1000.0 * statistics.median(raw_walls),
        "job_tail_ms": 1000.0 * _quantile(raw_walls, tail_p),
        "jobs_per_s": (n - failed) / sum(raw_walls),
        "cpu_ms_per_job": 1000.0 * sum(j[2] for j in jobs) / n,
        "setup_s": statistics.median(setup_raw),
    }
    by_class = {}
    for k, wall in enumerate(walls):
        cls = manifest["inputs"][k % len(manifest["inputs"])]["class"]
        by_class.setdefault(cls, []).append(1000.0 * wall)
    extra = {
        "jobs": n,
        "fail_frac": failed / n,
        "class_p50_ms": {c: statistics.median(v) for c, v in by_class.items()},
        "class_range_ms": {c: [min(v), max(v)] for c, v in by_class.items()},
        "job_tail_percentile": 100.0 * tail_p,
        "timed_loop_s": res["loop_s"],
        "setup_samples_s": setup,
        "uncalibrated": uncalibrated,
        "kernel_ms_p50": 1000.0 * statistics.median(c[0] for r in refs for c in r),
        "kernel_ms_min": 1000.0 * min(c[0] for r in refs for c in r),
    }
    metrics = {m["name"]: _metric(values[m["name"]], m["unit"]) for m in bench["end_to_end"]}
    return n, failed, reasons, metrics, extra


def traced_run(runner, gate, manifest, bench, workload):
    _, plain = runner.run("plain")
    _, traced = runner.run("traced")
    failed, reasons = _check_worker(gate, manifest, traced)
    failed_plain, more = _check_worker(gate, manifest, plain)
    failed |= failed_plain
    reasons += more
    plain_dir, traced_dir = Path(plain["out_dir"]), Path(traced["out_dir"])
    out_bytes = 0
    for k in range(len(traced["jobs"])):
        a = (plain_dir / ("%d.json" % k)).read_bytes()
        b = (traced_dir / ("%d.json" % k)).read_bytes()
        out_bytes += len(b)
        if a != b:
            failed.add(k)
            reasons.append("job %d: traced output differs from the untraced output" % k)
    n = len(traced["jobs"])
    per_job = dict(traced["layers"]["per_job"])
    per_job["serialize.out_bytes"] = out_bytes / n

    with open(HERE / "layer_map.json", encoding="utf-8") as fh:
        layer_map = json.load(fh)["metrics"]
    for name, spec in layer_map.items():
        mapped = any(m["workload"] == workload for m in spec["moves"])
        if mapped and not per_job.get(spec["calls"], 0):
            reasons.append("layer %s recorded no calls (%s) on its mapped workload"
                           % (name, spec["calls"]))
    # the same jobs ran in both workers, so compare their total times
    plain_s = sum(j[1] for j in plain["jobs"])
    traced_s = sum(j[1] for j in traced["jobs"])
    extra = {
        "jobs": n,
        "untraced_ms_per_job": 1000.0 * plain_s / n,
        "traced_ms_per_job": 1000.0 * traced_s / n,
        "trace_overhead_frac": traced_s / plain_s - 1.0,
        "span_calls": traced["layers"]["span_calls"],
        "spans_path": traced["spans_path"],
    }
    metrics = {m["name"]: _metric(per_job.get(m["name"], 0), m["unit"])
               for m in bench["per_layer"]}
    return n, len(failed), reasons, metrics, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt-job", type=int, default=None,
                    help="self-check: corrupt this timed job's output before checking")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    bench_path = ROOT / "BENCHMARK.json"
    if not (SRC / "unipavg" / "__init__.py").is_file() or not bench_path.is_file():
        raise BenchError("run from a unipavg checkout: %s/unipavg or %s is missing"
                         % (SRC, bench_path))
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in why:
        raise BenchError("unknown workload %r; choose from %s" % (args.workload, sorted(why)))

    sys.path.insert(0, str(SRC))
    import unipavg
    if Path(unipavg.__file__).resolve().parent != (SRC / "unipavg").resolve():
        raise BenchError("imported unipavg from %s, not from %s" % (unipavg.__file__, SRC))
    import workloads

    work = ROOT / ".perfbench_out" / ("%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace,
                                                           os.getpid()))
    (work / "inputs").mkdir(parents=True)
    try:
        manifest = workloads.generate(args.workload, args.seed, work / "inputs")
        manifest_path = work / "manifest.json"
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        runner = Runner(work, manifest_path, deadline)
        gate = checks.Gate(manifest, args.seed)
        if args.trace:
            n, failed, reasons, metrics, extra = traced_run(runner, gate, manifest, bench,
                                                            args.workload)
            shutil.copyfile(extra.pop("spans_path"), ROOT / ".perfbench_out" /
                            ("spans-%s-s%d.json" % (args.workload, args.seed)))
        else:
            n, failed, reasons, metrics, extra = timed_run(runner, gate, manifest, bench,
                                                           args.seconds, args.corrupt_job)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sizes = {}
    for inp in manifest["inputs"]:
        sizes.setdefault(inp["class"], dict(inp["size"], output_terms=gate.terms.get(inp["class"])))
    report = {
        "workload": args.workload, "why": why[args.workload], "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "sizes": sizes,
        "sympy_checks": gate.sympy_checks, "failures": reasons[:10],
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(ROOT), "src_sha256": _src_digest(),
    }
    report.update(extra)
    print("report " + json.dumps(report))
    for name, m in metrics.items():
        print("%-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not reasons, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
