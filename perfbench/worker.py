"""One workload process: set up, then run jobs back to back.

Started fresh by run.py for every measurement, so import and first-job
costs are paid here and nowhere else.  It prints "ready" once
`import unipavg` and one cold, untimed job are done, then (unless it is a
set-up probe) runs its jobs in a closed loop with one client and writes
the per-job records to the result file.  Set-up probes and timed workers
also run the calibration kernel (calibrate.py) after "ready" and after
every timed job; the timed loop's clock includes those calls.

    python3 perfbench/worker.py --manifest M --mode setup|timed|plain|traced
                                --result R [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
from unipavg import (QQ, cli, full_unipotent_span, lower_central_series,  # noqa: E402
                     serialize, simplicial)

# calibration kernel calls right after set-up, and after every timed job
SETUP_REF_CALLS = 10
JOB_REF_CALLS = 4


class Jobs:
    """The job sequence of one workload; job k runs input k mod len(inputs)."""

    def __init__(self, manifest, out_dir):
        self.inputs = manifest["inputs"]
        self.out_dir = out_dir
        self.towers = None
        if self.inputs[0]["kind"] == "tower":
            # tower jobs call the library directly on parsed tuples
            self.ideals = lower_central_series(full_unipotent_span(4, QQ))[1:]
            self.towers = []
            for inp in self.inputs:
                with open(inp["path"], encoding="utf-8") as fh:
                    self.towers.append(serialize.tuple_from_json(json.load(fh)))

    def output_path(self, k):
        return os.path.join(self.out_dir, "%d.json" % k)

    def run(self, k, tracer=None):
        """Run job k, traced if a tracer is given; return
        (exit code, wall s, cpu s, error text or None)."""
        idx = k % len(self.inputs)
        out = self.output_path(k)
        error = None
        report = None
        if tracer is not None:
            tracer.begin(k)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            # looked up at call time, so a traced run reaches the wrappers
            if self.towers is None:
                rc = cli.main(self.inputs[idx]["argv"] + ["--output", out])
            else:
                report = simplicial.tower_compatibility(self.towers[idx], self.ideals)
                rc = 0
        except SystemExit as exc:
            rc, error = exc.code if isinstance(exc.code, int) else 1, "SystemExit"
        except Exception as exc:  # a failed job is counted, not fatal
            rc, error = 1, "%s: %s" % (type(exc).__name__, exc)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer is not None:
            tracer.end()
        if report is not None:
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(serialize.tower_report_to_json(report), fh, indent=2)
        return rc, wall, cpu, error


def _peak_rss_kb():
    """Peak resident set of this process image.  ru_maxrss alone would do,
    but Linux carries the spawning parent's peak across exec into it, so
    the kernel's own high-water mark for this image is read first."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "timed", "plain", "traced"])
    ap.add_argument("--result", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    out_dir = os.path.join(os.path.dirname(args.result), "out-" + args.mode)
    os.makedirs(out_dir, exist_ok=True)
    jobs = Jobs(manifest, out_dir)

    # the cold first job belongs to set-up; its output is checked like any other
    cold = jobs.run(0)
    os.replace(jobs.output_path(0), os.path.join(out_dir, "cold.json"))
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    records = []
    refs = []
    tracer = None
    if args.mode in ("setup", "timed"):
        # refs[0] calibrates set-up; refs[k] and refs[k + 1] bracket job k
        refs.append(calibrate.probe(SETUP_REF_CALLS))
    if args.mode == "timed":
        cycle = manifest["cycle"]
        start = time.perf_counter()
        k = 0
        while (time.perf_counter() - start < args.seconds or k < manifest["min_jobs"]
               or k % cycle):
            records.append(jobs.run(k))
            refs.append(calibrate.probe(JOB_REF_CALLS))
            k += 1
        loop_s = time.perf_counter() - start
    elif args.mode in ("plain", "traced"):
        if args.mode == "traced":
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        for k in range(manifest["trace_jobs"]):
            records.append(jobs.run(k, tracer))
        loop_s = time.perf_counter() - start
    else:
        loop_s = 0.0

    result = {"cold": cold, "jobs": records, "refs": refs, "loop_s": loop_s, "out_dir": out_dir,
              "maxrss_kb": _peak_rss_kb()}
    if tracer is not None:
        spans_path = os.path.join(os.path.dirname(args.result), "spans.json")
        tracer.write_spans(spans_path)
        result["layers"] = tracer.summary(len(records))
        result["spans_path"] = spans_path
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
