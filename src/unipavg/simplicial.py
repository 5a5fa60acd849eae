"""Simplicial sections over a finite cover, and quotient-tower checks.

The base space is a finite set of labelled points covered by finitely many
opens.  Local torsor sections (one group element per point per open) are
glued into a system of averaged sections: one matrix-valued polynomial on
the q-simplex for every weakly increasing multi-index of opens and every
point of the corresponding intersection.  The defining compatibility is
that pulling a level-q datum back along any order-preserving map of
simplices reproduces the datum of the reindexed multi-index.

`tower_compatibility` checks the finite content of averaging through a
descending chain of ideals: projections to each quotient commute with the
average, and the quotient averages agree along the induced maps.  Each
quotient floor is averaged in Lie coordinates, with the truncated BCH
product of its structure constants, rather than in its matrix
re-embedding: a section enters as the coordinates of its log, projected
linearly, and every comparison is between exact coordinate vectors.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .average import CoordinateTuple, SectionTuple, wav
from .errors import InputError, MembershipError, RingMismatch
from .exactring import SimplexMap
from .nilpotent import (LieHom, LieSpan, UniMatrix, apply_hom, log_unipotent, pull_back,
                        quotient_span)


class FiniteCover:
    """A finite point set together with a covering family of opens."""

    __slots__ = ("points", "opens")

    def __init__(self, points, opens):
        self.points = tuple(points)
        if len(set(self.points)) != len(self.points):
            raise InputError("duplicate base point labels")
        fixed = []
        pointset = set(self.points)
        for op in opens:
            op = tuple(op)
            if len(set(op)) != len(op):
                raise InputError("an open lists a point twice")
            if not set(op) <= pointset:
                raise InputError("an open contains unknown points")
            fixed.append(op)
        self.opens = tuple(fixed)
        if not self.opens:
            raise InputError("a cover needs at least one open")
        covered = set()
        for op in self.opens:
            covered.update(op)
        if covered != pointset:
            missing = sorted(pointset - covered, key=str)
            raise InputError("opens do not cover the base; missing %s" % (missing,))

    @property
    def m(self):
        """Largest open index."""
        return len(self.opens) - 1

    def intersection(self, multi_index):
        """Points of the intersection of the opens named by a multi-index,
        in base order."""
        sets = [set(self.opens[i]) for i in multi_index]
        common = set.intersection(*sets) if sets else set(self.points)
        return tuple(x for x in self.points if x in common)

    def multi_indices(self, q):
        """All weakly increasing multi-indices (i_0 <= ... <= i_q)."""
        return list(combinations_with_replacement(range(len(self.opens)), q + 1))

    def __repr__(self):
        return "FiniteCover(%d points, %d opens)" % (len(self.points), len(self.opens))


class LocalSection:
    """A section over one open: a constant group element per point."""

    __slots__ = ("open_index", "values")

    def __init__(self, open_index, values):
        self.open_index = int(open_index)
        self.values = dict(values)

    def check_against(self, cover, group):
        if not 0 <= self.open_index < len(cover.opens):
            raise InputError("local section references open %d of %d"
                             % (self.open_index, len(cover.opens)))
        expected = set(cover.opens[self.open_index])
        if set(self.values) != expected:
            raise InputError("local section for open %d is not defined on exactly "
                             "its points" % self.open_index)
        for x, mat in self.values.items():
            if not isinstance(mat, UniMatrix):
                raise InputError("local section values must be UniMatrix constants")
            if mat.ring.q != 0:
                raise InputError("local section values must be constant in t")
            group.require_element(mat, "local value at point %r" % (x,))

    def __repr__(self):
        return "LocalSection(open %d, %d points)" % (self.open_index, len(self.values))


class SimplicialSection:
    """Averaged sections for every multi-index of opens, level by level.

    ``levels[q]`` maps each weakly increasing multi-index (i_0, ..., i_q)
    with nonempty intersection to a {point: UniMatrix on the q-simplex} map.
    ``_pullbacks`` is `build_simplicial_section`'s record of the degenerate
    data it made, by (multi-index, point): the datum object and the source
    object it was pulled back from; it is empty for any other section.
    """

    __slots__ = ("cover", "group", "levels", "max_q", "_pullbacks")

    def __init__(self, cover, group, levels, max_q):
        self.cover = cover
        self.group = group
        self.levels = levels
        self.max_q = max_q
        self._pullbacks = {}

    def value(self, multi_index, point):
        q = len(multi_index) - 1
        return self.levels[q][tuple(multi_index)][point]

    def __repr__(self):
        counts = {q: len(lv) for q, lv in self.levels.items()}
        return "SimplicialSection(max_q=%d, indices per level %s)" % (self.max_q, counts)


class _Report:
    """A record of the fields named in `__slots__`, compared and shown
    field by field; a plain class, so that importing the package loads no
    dataclass machinery."""

    __slots__ = ()
    __hash__ = None

    def _fields(self):
        return tuple(getattr(self, k) for k in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (k, getattr(self, k)) for k in self.__slots__))


class ValidationReport(_Report):
    __slots__ = ("ok", "checks", "failures")

    def __init__(self, ok, checks, failures=None):
        self.ok = ok
        self.checks = checks
        self.failures = [] if failures is None else failures

    def first_failure(self):
        return self.failures[0] if self.failures else None

    def summary(self):
        if self.ok:
            return "pass (%d checks)" % self.checks
        f = self.failures[0]
        return "FAIL at map %s, multi-index %s, point %r (%d checks, %d failures)" % (
            f.get("map"), f.get("multi_index"), f.get("point"),
            self.checks, len(self.failures))


def _degeneracy(multi_index):
    """A weakly increasing multi-index as distinct o sigma: the multi-index
    of its distinct opens, and the surjection sigma onto their positions
    (whose pullback plans their source rings keep), or None when the
    multi-index is nondegenerate (sigma is the identity)."""
    distinct = tuple(sorted(set(multi_index)))
    if len(distinct) == len(multi_index):
        return distinct, None
    return distinct, SimplexMap(len(distinct) - 1, [distinct.index(i) for i in multi_index])


def build_simplicial_section(cover: FiniteCover, local_sections, group: LieSpan,
                             max_q=3) -> SimplicialSection:
    """Glue local sections into averaged sections on every multi-intersection:
    the level-q datum at (i_0, ..., i_q) is, pointwise, the weighted average
    of the local values of opens i_0, ..., i_q.

    Only strictly increasing multi-indices are averaged.  A multi-index with
    repeats is distinct o sigma for its distinct opens and the surjection
    sigma, and its datum is the pullback of the distinct datum along sigma
    (every simplex is a unique degeneracy of a nondegenerate one).  The
    section records each such datum with the source object it was pulled
    back from, so that `_certified` need not pull it back again."""
    if max_q < 0:
        raise InputError("max_q must be nonnegative, got %d" % max_q)
    local_sections = list(local_sections)
    if len(local_sections) != len(cover.opens):
        raise InputError("expected one local section per open (%d), got %d"
                         % (len(cover.opens), len(local_sections)))
    by_open = {}
    for ls in local_sections:
        if not isinstance(ls, LocalSection):
            raise InputError("expected LocalSection values")
        if ls.open_index in by_open:
            raise InputError("two local sections for open %d" % ls.open_index)
        ls.check_against(cover, group)
        by_open[ls.open_index] = ls
    levels = {}
    made = {}
    for q in range(max_q + 1):
        level = {}
        for mi in cover.multi_indices(q):
            pts = cover.intersection(mi)
            if not pts:
                continue
            distinct, sigma = _degeneracy(mi)
            if sigma is None:
                level[mi] = {x: wav(SectionTuple(group, [by_open[i].values[x] for i in mi]))
                             for x in pts}
            else:
                source = levels[len(distinct) - 1][distinct]
                level[mi] = per_point = {x: pull_back(source[x], sigma) for x in pts}
                for x in pts:
                    made[mi, x] = (per_point[x], source[x])
        levels[q] = level
    section = SimplicialSection(cover, group, levels, max_q)
    section._pullbacks = made
    return section


def _reindex(multi_index, alpha):
    """The multi-index seen through alpha: component k becomes i_{alpha(k)}."""
    return tuple(multi_index[alpha(v)] for v in range(alpha.p + 1))


def _certified(s, max_q):
    """Whether (C1) every coface pullback of a nondegenerate datum at a
    level q >= 1 matches the datum of its face, and (C2) every degenerate
    datum distinct o sigma is the pullback of the datum at distinct along
    sigma, on the levels up to max_q of a section that passed condition
    (i).  The first mismatch stops the certificate.

    (C2) is not computed for a datum that is still the very object the
    build recorded (`SimplicialSection._pullbacks`), made from the object
    still stored at distinct: it is pull_back(source, sigma) already, and
    pullback is a deterministic function of its arguments, so the
    comparison could not fail.  Identity (`is`), not equality, decides, so
    a datum read from a document or replaced after the build, or one
    whose source was replaced, is compared as before."""
    levels = s.levels
    made = s._pullbacks
    for q in range(max_q + 1):
        cofaces = [SimplexMap.coface(q, i) for i in range(q + 1)] if q else []
        for mi, per_point in levels[q].items():
            distinct, sigma = _degeneracy(mi)
            if sigma is None:
                for alpha in cofaces:
                    face = levels[q - 1][_reindex(mi, alpha)]
                    for x, mat in per_point.items():
                        if pull_back(mat, alpha) != face[x]:
                            return False
            else:
                source = levels[len(distinct) - 1][distinct]
                for x, mat in per_point.items():
                    record = made.get((mi, x))
                    if record is not None and record[0] is mat and record[1] is source[x]:
                        continue
                    if pull_back(source[x], sigma) != mat:
                        return False
    return True


def validate_simplicial_section(s: SimplicialSection, max_q=None) -> ValidationReport:
    """Check the defining conditions: each level datum is defined on exactly
    the points of its intersection and lies in the group (condition (i)),
    and every coface and codegeneracy pullback matches the reindexed datum
    (condition (ii)); compositions of these generate all order maps.

    Condition (ii) counts one check per generator, datum and point, but
    once condition (i) has passed it is certified with fewer pullbacks, by
    (C1) the coface checks of the nondegenerate data at levels q >= 1 and
    (C2) one comparison per degenerate datum mi = delta o sigma, for delta
    the multi-index of mi's distinct opens and sigma a surjection:
    D(mi) == sigma* D(delta).  These imply every generator check.  For a
    generator alpha, factor sigma alpha = iota tau, a surjection tau then
    an injection iota (the epi-mono factorization of the simplex category).
    Then alpha* D(mi) = (sigma alpha)* D(delta) = tau* iota* D(delta)
    = tau* D(delta iota) = D(mi o alpha): iota* D(delta) = D(delta iota)
    by iterating (C1), since iota is a composite of cofaces and every face
    of a nondegenerate multi-index is nondegenerate; the last step is (C2) for
    mi o alpha = (delta iota) o tau.  Pullback is an exact ring map on
    canonical forms, so each equality is exact.  On a section fresh from
    `build_simplicial_section`, (C2) holds by construction for every
    degenerate datum that is still the object the build pulled back from
    the object still at delta, and is not recomputed for it (`_certified`);
    the (C1) checks, which test the averages themselves, all run.  When a
    comparison fails, or condition (i) did, every generator is pulled
    back, in the order cofaces then codegeneracies, and the report lists
    each failure."""
    if max_q is None:
        max_q = s.max_q
    if max_q < 0:
        raise InputError("max_q must be nonnegative, got %d" % max_q)
    if max_q > s.max_q:
        raise InputError("levels are only populated up to q = %d" % s.max_q)
    cover = s.cover
    report = ValidationReport(ok=True, checks=0)

    def fail(**info):
        report.ok = False
        report.failures.append(info)

    # condition (i): domains and membership
    for q in range(max_q + 1):
        level = s.levels.get(q)
        if level is None:
            fail(map=None, multi_index=None, point=None,
                 detail="level %d missing" % q)
            continue
        # each intersection once; a key that is not one of the level's
        # multi-indices (a library caller's) is intersected on its own
        intersections = {mi: cover.intersection(mi) for mi in cover.multi_indices(q)}
        expected_indices = {mi for mi, pts in intersections.items() if pts}
        if set(level) != expected_indices:
            fail(map=None, multi_index=sorted(set(level) ^ expected_indices)[0],
                 point=None, detail="level %d indexes the wrong multi-indices" % q)
        for mi, per_point in level.items():
            pts = intersections[mi] if mi in intersections else cover.intersection(mi)
            report.checks += 1
            if set(per_point) != set(pts):
                fail(map=None, multi_index=mi, point=None,
                     detail="datum not defined on exactly the intersection")
                continue
            for x, mat in per_point.items():
                report.checks += 1
                if not isinstance(mat, UniMatrix) or mat.ring.q != q:
                    fail(map=None, multi_index=mi, point=x,
                         detail="value is not a UniMatrix on the %d-simplex" % q)
                    continue
                try:
                    s.group.require_element(mat)
                except (MembershipError, RingMismatch):
                    fail(map=None, multi_index=mi, point=x,
                         detail="value lies outside the group")

    # condition (ii): level q has q + 1 cofaces (q >= 1) and, below max_q,
    # q + 1 codegeneracies, each checked at every datum and point
    if report.ok and _certified(s, max_q):
        for q in range(max_q + 1):
            generators = (q + 1) * ((q >= 1) + (q < max_q))
            report.checks += generators * sum(map(len, s.levels[q].values()))
        return report
    maps = [(SimplexMap.coface(q, i), q, q - 1)
            for q in range(1, max_q + 1) for i in range(q + 1)]
    maps += [(SimplexMap.codegeneracy(q, j), q, q + 1)
             for q in range(max_q) for j in range(q + 1)]
    for alpha, q, p in maps:
        for mi, per_point in s.levels.get(q, {}).items():
            for x, mat in per_point.items():
                pulled = pull_back(mat, alpha)
                other = s.levels[p].get(_reindex(mi, alpha), {}).get(x)
                report.checks += 1
                if other is None:
                    fail(map=alpha.describe(), multi_index=mi, point=x,
                         detail="reindexed datum missing")
                elif pulled != other:
                    fail(map=alpha.describe(), multi_index=mi, point=x,
                         detail="pullback does not match reindexed datum")
    return report


class TowerReport(_Report):
    __slots__ = ("ok", "levels", "failures")

    def __init__(self, ok, levels, failures=None):
        self.ok = ok
        self.levels = levels
        self.failures = [] if failures is None else failures

    def summary(self):
        status = "pass" if self.ok else "FAIL"
        dims = ", ".join("dim %d -> %d" % (lv["ideal_dim"], lv["quotient_dim"])
                         for lv in self.levels)
        return "%s (%s)" % (status, dims)


def tower_compatibility(t: SectionTuple, ideals) -> TowerReport:
    """Project a tuple through a descending chain of ideals and verify that
    averaging commutes with every projection and with the induced maps
    between consecutive quotients."""
    ideals = list(ideals)
    group = t.group
    if t.r != 0:
        raise InputError("tower checks need t-constant sections")
    for k in range(len(ideals) - 1):
        nxt, cur = ideals[k + 1], ideals[k]
        for b in nxt.basis:
            if not cur.contains(b):
                raise InputError("ideal chain is not descending at step %d" % (k + 1))

    base_avg = wav(t)
    # the coordinates of each log on the group's basis; a floor's projection
    # maps them linearly to the quotient's coordinates
    logs = [group.coordinates(log_unipotent(s)) for s in t.sections]
    base_log = group.coordinates(log_unipotent(base_avg))
    zero, simplex_zero, field_zero = t.ring.zero(), base_avg.ring.zero(), group.field.zero
    report = TowerReport(ok=True, levels=[])
    quotients = []
    for k, ideal in enumerate(ideals):
        quotient, proj = quotient_span(group, ideal)   # validates ideal-ness
        projected = CoordinateTuple(quotient.table, [proj.map_coordinates(x, zero)
                                                     for x in logs], t.ring)
        q_avg = wav(projected)
        ok = proj.map_coordinates(base_log, simplex_zero) == q_avg
        if not ok:
            report.ok = False
            report.failures.append("projection %d does not commute with the average" % k)
        report.levels.append({"ideal_dim": ideal.dim, "quotient_dim": quotient.dim,
                              "commutes": ok})
        quotients.append((quotient, proj, q_avg))

    for k in range(len(quotients) - 1):
        coarse_quotient, coarse_proj, coarse_avg = quotients[k]
        fine_quotient, fine_proj, fine_avg = quotients[k + 1]
        # the induced map sends each fine basis vector, via a chosen
        # preimage upstairs, to its coarse projection
        images = [apply_hom(coarse_proj, x) for x in fine_proj.section]
        try:
            induced = LieHom(fine_quotient, coarse_quotient, images)
        except InputError as exc:
            report.ok = False
            report.failures.append("no induced map between quotients %d and %d: %s"
                                   % (k + 1, k, exc))
            continue
        for fine_b, coarse_b in zip(fine_proj.image_coords, coarse_proj.image_coords):
            if induced.map_coordinates(fine_b, field_zero) != coarse_b:
                report.ok = False
                report.failures.append("induced map %d -> %d does not factor the "
                                       "projection" % (k + 1, k))
                break
        if induced.map_coordinates(fine_avg, simplex_zero) != coarse_avg:
            report.ok = False
            report.failures.append("averages disagree along the tower at step %d" % k)
    return report
