"""Checks on the code itself: the bench tracer still finds every name it
wraps, a tower job still reaches every layer the bench maps to it, and no
module under src/unipavg keeps an unused import."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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


TOWER_JOB = """
import json
from tracing import Tracer
from unipavg import QQ, SectionTuple, full_unipotent_span, lower_central_series, simplicial
from unipavg.fixtures import point_from_coordinates

tracer = Tracer()
tracer.install()
span = full_unipotent_span(4, QQ)
pts = [point_from_coordinates(span, [(-1) ** (i + k) * (i + k + 1) for i in range(span.dim)])
       for k in range(3)]
t = SectionTuple(span, pts)
tracer.begin(0)
report = simplicial.tower_compatibility(t, lower_central_series(span)[1:])
tracer.end()
print(json.dumps({"ok": report.ok, "per_job": tracer.summary(1)["per_job"]}))
"""


def test_tower_job_reaches_every_layer_the_bench_maps_to_it():
    # the bench's trace gate fails a run whose tower jobs never call a
    # mapped layer; one U_4 job, traced the same way, must reach them all
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text(encoding="utf-8"))
    mapped = {metric["calls"] for metric in layer_map["metrics"].values()
              if any(move["workload"] == "tower" for move in metric["moves"])}
    assert {"nilpotent.quotient_span.calls", "nilpotent.apply_hom.calls",
            "simplicial.tower.calls"} <= mapped
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", TOWER_JOB], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["ok"]
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
