"""Seeded input generation for the four benchmark workloads.

Every input is derived from the workload seed alone and written as JSON
before anything is timed.  The manifest lists the inputs, the order jobs
cycle through them, and what the correctness gate needs to know about
each one.  Jobs cycle through the size classes round robin, and a timed
run stops only at the end of a cycle, so every run has the same mix.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from unipavg import QQ, GaloisAction, GaloisOrbit, SectionTuple, cli, serialize
from unipavg.fixtures import (cubic_field, heisenberg_span, point_from_coordinates,
                              sqrt2_field)
from unipavg.nilpotent import full_unipotent_span
from unipavg.simplicial import FiniteCover, LocalSection

# Jobs of the traced run: the first TRACE_JOBS jobs of the schedule, so
# per-layer counts repeat exactly.
TRACE_JOBS = {"wav-symbolic": 5, "galois-descent": 8, "sections-cover": 6, "tower": 3}

# A timed run goes on past --seconds until it has this many jobs, and its
# tail is the percentile with ten jobs beyond it in a run this long.  Each
# is at least 14 jobs of the workload's costliest class, so the tail lies
# inside that class.
MIN_JOBS = {"wav-symbolic": 60, "galois-descent": 40, "sections-cover": 45, "tower": 21}

SECTIONS_MAX_Q = 3


def _frac(rng):
    """A nonzero coordinate in {+-1, +-2, +-1/2}.  Zero coordinates would
    make some inputs sparse and their jobs several times cheaper, so the
    work per run would swing with the seed."""
    return Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))


def _dump(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _wav_symbolic(rng, inputs_dir):
    """Each cycle runs one (4, 3), (4, 4) and (5, 2) tuple and two (5, 3)
    tuples.  The median job then lies among the (4, 4) and (5, 2) jobs,
    whose times overlap, and the tail near the middle of the (5, 3) jobs.
    With one (5, 3) job in four the tail sat at the bottom of that class,
    where it meets the slowest (4, 4) jobs, and moved with the seed."""
    cycle = [(4, 3), (4, 4), (5, 3), (5, 2), (5, 3)]
    # more inputs than a timed run reaches, so a run sees each input at
    # most once and its figures average over many inputs per class
    cycles = 24
    inputs = []
    for _ in range(cycles):
        for n, q in cycle:
            span = full_unipotent_span(n, QQ)
            pts = [point_from_coordinates(span, [_frac(rng) for _ in range(span.dim)])
                   for _ in range(q + 1)]
            path = inputs_dir / ("wav-n%dq%d-%d.json" % (n, q, len(inputs)))
            _dump(path, serialize.tuple_to_json(SectionTuple(span, pts)))
            inputs.append({"kind": "wav", "class": "n%d-q%d" % (n, q),
                           "size": {"n": n, "q": q, "field_degree": 1},
                           "path": str(path), "argv": ["wav", "--input", str(path)]})
    return inputs, len(cycle)


def _orbit(field, generator, span, rng, q):
    action = GaloisAction(field, [generator])
    coords = [[_frac(rng) for _ in range(field.degree)] for _ in range(span.dim)]
    z = point_from_coordinates(span, coords)
    sigma = action.generators[0]
    points = [z]
    for _ in range(q):
        points.append(points[-1].map_entries(sigma, z.ring))
    return GaloisOrbit(span, action, points)


def _galois_descent(rng, inputs_dir):
    sqrt2 = sqrt2_field()
    cubic = cubic_field()
    theta = cubic.gen
    classes = [("sqrt2-n5-q1", sqrt2, sqrt2.value([0, -1]), 5, 1),
               ("cubic-n4-q2", cubic, theta * theta - 2, 4, 2)]
    per_class = 64   # as in _wav_symbolic: no input repeats within a run
    inputs = []
    for k in range(per_class):
        for name, field, gen, n, q in classes:
            orbit = _orbit(field, gen, full_unipotent_span(n, field), rng, q)
            path = inputs_dir / ("galois-%s-%d.json" % (name, k))
            _dump(path, serialize.orbit_to_json(orbit))
            inputs.append({"kind": "galois", "class": name,
                           "size": {"n": n, "q": q, "field_degree": field.degree},
                           "path": str(path), "argv": ["galois", "--input", str(path)]})
    return inputs, len(classes)


def _random_cover(rng, npts):
    """3 opens over npts points: one point in every open, two points in two
    different pairs of opens, the rest in one open each.  Every such cover
    is the same up to relabelling, with 62 + 4 (npts - 3) wav calls per
    build at max_q 3, so runs on different seeds do the same work."""
    labels = ["x%d" % i for i in range(npts)]
    rng.shuffle(labels)
    pair_a, pair_b = rng.sample([(0, 1), (0, 2), (1, 2)], 2)
    member = {labels[0]: (0, 1, 2), labels[1]: pair_a, labels[2]: pair_b}
    for i, x in enumerate(labels[3:]):
        member[x] = (i % 3,) if i < 3 else (rng.randrange(3),)
    points = sorted(labels, key=lambda x: int(x[1:]))
    opens = [[x for x in points if i in member[x]] for i in range(3)]
    return FiniteCover(points, opens)


def _sections_cover(rng, inputs_dir):
    """Every three jobs validate two prebuilt documents and build one cover.
    With half and half the median job would fall between the two classes
    (about 0.13 s against 1.3 s) and jump between them from run to run;
    with one build in three it is a validate job, while builds set the
    tail, the throughput and most of the CPU time.  The cycle starts with
    a validate job, so the cold set-up job is one.

    There are six covers, each three consecutive ones over 6, 7 and 8
    points in some order, and a timed run stops only after a multiple of
    three covers (nine jobs), so every run builds as many covers of each
    size."""
    span = heisenberg_span()
    sizes = rng.sample([6, 7, 8], 3) + rng.sample([6, 7, 8], 3)
    ncovers = len(sizes)
    builds, validates = [], []
    for k in range(ncovers):
        cover = _random_cover(rng, sizes[k])
        local = [LocalSection(i, {x: point_from_coordinates(span, [_frac(rng) for _ in range(3)])
                                  for x in op})
                 for i, op in enumerate(cover.opens)]
        cover_path = inputs_dir / ("cover-%d.json" % k)
        _dump(cover_path, {"field": serialize.field_to_json(QQ),
                           "cover": serialize.cover_to_json(cover),
                           "group": serialize.span_to_json(span),
                           "locals": serialize.locals_to_json(local)})
        # the validate-mode input is this cover's section, built by the CLI
        doc_path = inputs_dir / ("section-%d.json" % k)
        argv = ["sections", "--input", str(cover_path), "--max-q", str(SECTIONS_MAX_Q)]
        if cli.main(argv + ["--output", str(doc_path)]) != 0:
            raise RuntimeError("building the validate-mode input %s failed" % doc_path)
        with open(doc_path, encoding="utf-8") as fh:
            built_checks = json.load(fh)["report"]["checks"]
        size = {"n": 3, "q": SECTIONS_MAX_Q, "field_degree": 1, "points": len(cover.points)}
        builds.append({"kind": "sections-build", "class": "build", "size": size,
                       "path": str(cover_path), "argv": argv})
        validates.append({"kind": "sections-validate", "class": "validate", "size": size,
                          "path": str(doc_path), "built_checks": built_checks,
                          "argv": ["sections", "--input", str(doc_path),
                                   "--max-q", str(SECTIONS_MAX_Q)]})
    inputs = []
    for k in range(ncovers):
        inputs += [validates[k], builds[k], validates[(k + 1) % ncovers]]
    return inputs, 9


def _tower(rng, inputs_dir):
    """Each cycle runs one q = 1 tuple and two q = 2 tuples, so the median
    job lies inside the q = 2 class rather than between the classes."""
    span = full_unipotent_span(4, QQ)
    per_cycle = (1, 2, 2)
    inputs = []
    for k in range(8):
        for q in per_cycle:
            pts = [point_from_coordinates(span, [_frac(rng) for _ in range(span.dim)])
                   for _ in range(q + 1)]
            path = inputs_dir / ("tower-%d.json" % len(inputs))
            _dump(path, serialize.tuple_to_json(SectionTuple(span, pts)))
            inputs.append({"kind": "tower", "class": "n4-q%d" % q,
                           "size": {"n": 4, "q": q, "field_degree": 1},
                           "path": str(path)})
    return inputs, len(per_cycle)


_GENERATORS = {
    "wav-symbolic": _wav_symbolic,
    "galois-descent": _galois_descent,
    "sections-cover": _sections_cover,
    "tower": _tower,
}


def generate(workload, seed, inputs_dir):
    """Write the inputs of one workload and return its manifest."""
    # string seeding keeps each workload's stream independent of the others
    rng = random.Random("%s/%d" % (workload, seed))
    inputs, cycle = _GENERATORS[workload](rng, inputs_dir)
    return {"workload": workload, "seed": seed,
            "inputs": inputs, "cycle": cycle, "trace_jobs": TRACE_JOBS[workload],
            "min_jobs": MIN_JOBS[workload]}
