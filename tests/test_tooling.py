"""Checks on the code itself: the bench tracer still finds every name it
wraps, one job of each workload still reaches every layer the bench maps
to that workload, and no module under src/unipavg keeps an unused import."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "unipavg"


def test_bench_tracer_installs():
    # install() patches unipavg for the whole process, so it runs in a child;
    # a traced name that moved or was renamed makes it raise
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", "from tracing import Tracer; Tracer().install()"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


TRACED_JOB = """
import json, sys, tempfile
from pathlib import Path
import workloads
from tracing import Tracer
from worker import Jobs

workload, job = sys.argv[1], int(sys.argv[2])
tracer = Tracer()
tracer.install()
with tempfile.TemporaryDirectory() as tmp:
    (Path(tmp) / "inputs").mkdir()
    manifest = workloads.generate(workload, 1, Path(tmp) / "inputs")
    rc, _, _, error = Jobs(manifest, tmp).run(job, tracer)
print(json.dumps({"rc": rc, "error": error, "per_job": tracer.summary(1)["per_job"]}))
"""

# the job of each workload that is traced: sections-cover starts with a
# validate job, and its mapped build and wav layers are reached by a build
TRACED_JOBS = {"wav-symbolic": 0, "galois-descent": 0, "sections-cover": 1, "tower": 0}


@pytest.mark.parametrize("workload", sorted(TRACED_JOBS))
def test_one_job_of_each_workload_reaches_every_layer_the_bench_maps_to_it(workload):
    # the bench's trace gate fails a run whose jobs never call a layer mapped
    # to their workload; one job, generated and run as the bench does, must
    # reach them all
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(TRACED_JOBS) == sorted(w["name"] for w in bench["workloads"])
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text(encoding="utf-8"))
    mapped = {metric["calls"] for metric in layer_map["metrics"].values()
              if any(move["workload"] == workload for move in metric["moves"])}
    assert mapped
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_JOB, workload, str(TRACED_JOBS[workload])],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert (result["rc"], result["error"]) == (0, None)
    assert {name: result["per_job"].get(name, 0) for name in sorted(mapped)
            if not result["per_job"].get(name, 0)} == {}


def unused_imports(source):
    """Names a module imports but never reads, in order of first import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # names listed in __all__ are exported, which counts as a use
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for name in dict.fromkeys(imported) if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, math.tau as tau\n"
              "from a import b, c as d\n"
              "from e import f\n"
              "__all__ = ['f']\n"
              "print(b)\n")
    assert unused_imports(source) == ["os", "tau", "d"]


def test_no_unused_imports_in_src():
    # __init__.py imports only to re-export
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
