"""Pullback plans live on their source rings, keyed by the map's (q,
values): equal maps share one plan per ring across fields and calls, a
plan kept under the same values for another target does not stand in for
a map that does not fit the polynomial, and a process plans each map of
its sections jobs once."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from unipavg import (
    QQ,
    InputError,
    PolyRing,
    SimplexMap,
    exactring,
    substitute_simplex_map,
    validate_simplicial_section,
)
from unipavg.fixtures import sqrt2_field
from unipavg.nilpotent import pull_back
from helpers import rand_scalar
from test_polykernel import ref_substitute
from test_validate_reference import built_section, raised_q, with_datum
from test_workload_pins import cover_doc

ROOT = Path(__file__).resolve().parent.parent


def test_warm_plans_over_q_then_a_number_field_then_q_again_match_the_reference(
        monkeypatch):
    """The sweep of test_pullback.py's pullback over Q, then Q(sqrt2), then
    Q, with every plan already kept: equal maps share the plan their source
    ring holds, no plan is built, and every pullback still equals the
    reference substitution."""
    rng = random.Random(4133)
    alpha = SimplexMap(3, (0, 0, 2, 3, 3))
    exps = [tuple(rng.randint(0, 2) for _ in range(4)) for _ in range(8)]
    rings = [PolyRing(field, 3, ("a",)) for field in (QQ, sqrt2_field(), QQ)]
    for ring in rings:
        substitute_simplex_map(ring.one(), alpha)
    monkeypatch.setattr(exactring, "_pullback_plan", None)
    for ring in rings:
        assert SimplexMap(3, alpha.values)._plan(ring) is alpha._plan(ring)
        for _ in range(3):
            poly = ring.poly({e: rand_scalar(rng, ring.field) for e in exps})
            pulled = substitute_simplex_map(poly, SimplexMap(3, alpha.values))
            assert pulled.ring is PolyRing(ring.field, 4, ("a",))
            assert dict(pulled.terms) == ref_substitute(ring, dict(poly.terms), alpha)


def test_a_datum_raised_along_s0_still_raises_after_its_ring_holds_plans_of_the_same_values():
    """A level-q datum pulled back along s^0 lives on the (q+1)-simplex.
    Its ring first gets a plan for each level-q generator's values read as a
    map to [q+1]; validation must still refuse to pull the datum back along
    the generator itself, since a plan is kept under the map's q as well."""
    s = built_section()
    for q, level in s.levels.items():
        generators = [SimplexMap.coface(q, i) for i in range(q + 1)] if q else []
        if q < s.max_q:
            generators += [SimplexMap.codegeneracy(q, j) for j in range(q + 1)]
        for mi, per_point in level.items():
            x, mat = next(iter(per_point.items()))
            raised = raised_q(mat)
            for alpha in generators:
                pull_back(raised, SimplexMap(q + 1, alpha.values))
            with pytest.raises(InputError) as exc:
                validate_simplicial_section(with_datum(s, q, mi, x, raised))
            assert str(exc.value) == ("map target [%d] does not match the polynomial's "
                                      "simplex [%d]" % (q, q + 1))


PLAN_COUNTS = """
import json, sys
from unipavg import cli, exactring

built = []
plan = exactring._pullback_plan

def counted(preimages, ring):
    built.append((ring, tuple(preimages)))
    return plan(preimages, ring)

exactring._pullback_plan = counted
counts = []
for argv in json.loads(sys.argv[1]):
    built.clear()
    assert cli.main(argv) == 0, argv
    assert len(set(built)) == len(built), argv
    counts.append(len(built))
print(json.dumps(counts))
"""


def test_a_process_builds_each_plan_of_its_sections_jobs_once(tmp_path):
    """In a fresh process a build at max_q 3 on a three-open cover plans its
    11 surjections and the 5 cofaces its validation pulls back along, each
    once per ring, and a later build, and a validation, plan nothing."""
    argvs = []
    for seed, npts in ((7107, 7), (7108, 8)):
        cover = tmp_path / ("cover-%d.json" % seed)
        cover.write_text(json.dumps(cover_doc(seed, npts)))
        section = tmp_path / ("section-%d.json" % seed)
        argvs.append(["sections", "--input", str(cover), "--max-q", "3",
                      "--output", str(section)])
    argvs.append(["sections", "--input", argvs[0][-1], "--max-q", "3",
                  "--output", str(tmp_path / "report.json")])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", PLAN_COUNTS, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [16, 0, 0]
