"""The weighted-average operators on tuples of torsor sections.

A tuple (f_0, ..., f_q) of sections of a trivial torsor under a unipotent
group is symmetrized by

    f'_i = exp( sum_j t_j * log(f_j f_i^{-1}) ) * f_i ,

one formula with two flavors: `wsym` for sections already living over the
q-simplex, `lift_w` for t-constant sections (the transitions are then
t-constant as well).  Iterating wsym a number of times equal to the length
of the group's derived series always produces a tuple whose components all
agree; the common value is the weighted average `wav`, a section over the
simplex that restricts to f_i at the i-th vertex.

The torsor is always the group acting on itself by left multiplication;
transitions are f_j f_i^{-1}, never f_i^{-1} f_j.

Lemma A: if the transition logs L_j = log(f_j f_0^{-1}) generate a Lie
algebra of class <= 2, every component of a pass equals exp(S) f_0, with
S = sum_j t_j L_j.  Lemma B: if every transition lies in Gamma_m, then
after the pass every transition lies in Gamma_{3m}.  So each tuple records
such an m, its `depth` (1 when constructed, 3m after a full pass), and a
pass computes one component exactly when q = 1 or 3m exceeds the
nilpotency class: one integer comparison, no bracket.  Before that, a
matrix pass whose sections agree below superdiagonal ceil(n/2) is linear:
every component is sum_j t_j f_j.  The proofs are in `wsym`.

The operators are written once over a group law (product, inverse, log,
exp, the algebra's linear operations and the linear-pass test).  A
`SectionTuple` holds unit upper triangular matrices under the matrix
product; a `CoordinateTuple` holds the Lie coordinates of its elements'
logs under the truncated BCH product of a `LieTable`, which is how
quotient towers are averaged.
"""

from __future__ import annotations

import operator

from .errors import InputError, NonConstantError, RingMismatch
from .exactring import (PolyRing, SimplexMap, SimplexPoly, eval_at_weights,
                        permute_coordinates, sum_of_products)
from .nilpotent import (LieSpan, NilMatrix, UniMatrix, embed_simplex, exp_nilpotent,
                        full_unipotent_span, log_unipotent, pull_back)

__all__ = [
    "WeightSeq", "SectionTuple", "CoordinateTuple", "SimplexMap", "transition", "wsym",
    "lift_w", "wav", "act_simplex_map", "act_permutation", "wav_at_weights",
    "eval_matrix_at_weights",
]


class WeightSeq:
    """q+1 scalars summing to 1 exactly: a rational point of the q-simplex."""

    __slots__ = ("field", "values")

    def __init__(self, field, values):
        self.field = field
        self.values = tuple(field.value(v) for v in values)
        if not self.values:
            raise InputError("a weight sequence needs at least one entry")
        acc = field.zero
        for v in self.values:
            acc = acc + v
        if acc != field.one:
            raise InputError("weights must sum to 1 exactly")

    @classmethod
    def uniform(cls, q, field):
        from fractions import Fraction
        return cls(field, [Fraction(1, q + 1)] * (q + 1))

    @classmethod
    def vertex(cls, q, i, field):
        if not 0 <= i <= q:
            raise InputError("vertex index out of range")
        return cls(field, [1 if j == i else 0 for j in range(q + 1)])

    @property
    def q(self):
        return len(self.values) - 1

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __repr__(self):
        return "WeightSeq(%s)" % (list(self.values),)


class _MatrixLaw:
    """The group law of unit upper triangular matrices: the matrix product,
    with exp and log to and from strictly upper matrices.  Each operation
    looks its function up when called, so a wrapper put on the module
    function (as perfbench's tracer does) sees every call."""

    mul = staticmethod(operator.mul)
    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)

    @staticmethod
    def inverse(g):
        return g.inverse()

    @staticmethod
    def log(g):
        return log_unipotent(g)

    @staticmethod
    def exp(x):
        return exp_nilpotent(x)

    @staticmethod
    def scale(x, s):
        return x.scale(s)

    @staticmethod
    def combine(xs, coefs):
        return NilMatrix.combination(xs, coefs)

    @staticmethod
    def linear_pass(sections, coords):
        """The pass's common value sum_j coords[j] sections[j] when every
        section equals sections[0] below superdiagonal k = ceil(n/2), else
        None (see `wsym`).  Below superdiagonal k that sum is sections[0]'s
        entry, since the coordinates sum to 1; each entry from superdiagonal
        k on is one sum of products."""
        first = sections[0]
        n, ring, rows = first.n, first.ring, first.rows
        k = (n + 1) // 2
        for f in sections[1:]:
            for i in range(n - 1):
                if f.rows[i][i + 1:i + k] != rows[i][i + 1:i + k]:
                    return None
        out = [list(row) for row in rows]
        for i in range(n - k):
            for j in range(i + k, n):
                out[i][j] = sum_of_products(ring, [(f.rows[i][j], c)
                                                   for f, c in zip(sections, coords)
                                                   if f.rows[i][j].nums])
        return UniMatrix(ring, tuple(map(tuple, out)), check=False)

    @staticmethod
    def embed(g, q, target):
        return embed_simplex(g, q, target)


class _Sections:
    """q+1 group elements over one ring, whose simplex dimension r (the
    domain degree) is 0 for t-constant elements or q over the q-simplex.
    Every transition lies in Gamma_depth; only `_rebuild` sets depth > 1."""

    __slots__ = ("sections", "q", "r", "depth")

    def __len__(self):
        return len(self.sections)

    def __getitem__(self, i):
        return self.sections[i]

    def __iter__(self):
        return iter(self.sections)

    def is_constant_tuple(self):
        """Do all components agree (as canonical forms)?"""
        first = self.sections[0]
        return all(s == first for s in self.sections[1:])


class SectionTuple(_Sections):
    """q+1 sections of the trivial torsor: unit upper triangular matrices
    over a common ring whose logs lie in the group span.

    The domain degree r is the simplex dimension of the entry ring: r = 0
    for t-constant sections, r = q for sections over the q-simplex.  These
    are the only two shapes the operators produce or consume.

    ``check=False`` skips the group-membership test (the ring and size
    checks stay); the operators pass it for values that lie in the group
    by construction.
    """

    __slots__ = ("group",)
    law = _MatrixLaw

    def __init__(self, group, sections, check=True):
        if not isinstance(group, LieSpan):
            raise InputError("a section tuple needs a LieSpan group")
        sections = tuple(sections)
        if not sections:
            raise InputError("a section tuple needs at least one section")
        self.group = group
        self.sections = sections
        self.q = len(sections) - 1
        self.depth = 1
        ring = sections[0].ring
        self.r = ring.q
        if self.r not in (0, self.q):
            raise InputError("domain degree %d must be 0 or the tuple degree %d"
                             % (self.r, self.q))
        for s in sections:
            if not isinstance(s, UniMatrix):
                raise InputError("sections must be UniMatrix values")
            if s.ring != ring or s.n != group.n:
                raise RingMismatch("sections must share one ring and matrix size")
            if s.ring.field != group.field:
                raise RingMismatch("section field differs from the group's")
            if check:
                group.require_element(s, "a section")

    @property
    def ring(self):
        return self.sections[0].ring

    @property
    def table(self):
        return self.group.table

    def _rebuild(self, sections, ring, depth=1):
        # the operators' values lie in the group by construction
        out = SectionTuple(self.group, sections, check=False)
        out.depth = depth
        return out

    def __eq__(self, other):
        return (isinstance(other, SectionTuple)
                and self.group.same_space(other.group)
                and self.sections == other.sections)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __repr__(self):
        return "SectionTuple(q=%d, r=%d, n=%d, dim %d group)" % (
            self.q, self.r, self.group.n, self.group.dim)


class CoordinateTuple(_Sections):
    """q+1 elements of the group of a nilpotent LieTable, each given by the
    coordinates of its log: a tuple of table.dim polynomials over one ring
    of domain degree 0 or q.  The operators treat it like a SectionTuple
    with the table's truncated BCH product as the group law, and `wav`
    returns the coordinates of the average's log."""

    __slots__ = ("table", "ring")

    def __init__(self, table, sections, ring):
        sections = tuple(tuple(s) for s in sections)
        if not sections:
            raise InputError("a section tuple needs at least one section")
        if ring.field != table.field:
            raise RingMismatch("coordinate ring field differs from the table's")
        for s in sections:
            if len(s) != table.dim:
                raise InputError("expected %d coordinates, got %d" % (table.dim, len(s)))
            if not all(isinstance(x, SimplexPoly) and (x.ring is ring or x.ring == ring)
                       for x in s):
                raise RingMismatch("coordinates must lie in the tuple's ring")
        self.table = table
        self.ring = ring
        self.sections = sections
        self.q = len(sections) - 1
        self.depth = 1
        self.r = ring.q
        if self.r not in (0, self.q):
            raise InputError("domain degree %d must be 0 or the tuple degree %d"
                             % (self.r, self.q))

    @property
    def law(self):
        return self.table

    def _rebuild(self, sections, ring, depth=1):
        out = CoordinateTuple(self.table, sections, ring)
        out.depth = depth
        return out

    def __repr__(self):
        return "CoordinateTuple(q=%d, r=%d, dim %d group)" % (self.q, self.r, self.table.dim)


def transition(f_i: UniMatrix, f_j: UniMatrix, group=None) -> UniMatrix:
    """The unique g with f_j = g * f_i, namely f_j * f_i^{-1}."""
    if not isinstance(f_i, UniMatrix) or not isinstance(f_j, UniMatrix):
        raise InputError("transitions are defined between UniMatrix sections")
    if f_i.ring != f_j.ring or f_i.n != f_j.n:
        raise RingMismatch("sections live in different spaces")
    if group is not None:
        for f in (f_i, f_j):
            group.require_element(f, "a section")
    return f_j * f_i.inverse()


def _transition_logs(t, first):
    """logs[i][j] = log(f_j f_i^{-1}), given the first row as first[j - 1] =
    log(f_j f_0^{-1}).  The rest is computed for 0 < i < j, so f_q^{-1} is
    never needed, and negated for the mirror entries, since
    log(g^{-1}) = -log(g)."""
    law = t.law
    m = len(t.sections)
    logs = [[None] * m for _ in range(m)]
    logs[0][1:] = first
    for i in range(1, m - 1):
        inverse = law.inverse(t.sections[i])
        for j in range(i + 1, m):
            logs[i][j] = law.log(law.mul(t.sections[j], inverse))
    for i in range(m):
        for j in range(i + 1, m):
            logs[j][i] = law.neg(logs[i][j])
    return logs


def wsym(t):
    """One symmetrization pass on a tuple of sections over the q-simplex.

    The pass first asks the law for a linear pass.  For matrices, with
    k = ceil(n/2), it is one when every f_j equals f_0 below superdiagonal
    k, and then every component equals sum_j t_j f_j:
      D_j = f_j - f_0 lives on superdiagonals >= k, and so does
      x_j = f_j f_0^{-1} - I = D_j f_0^{-1};
      so x_a x_b = 0, as 2k >= n: log(I + x_j) = x_j, exp(S) = I + S, and
      the logs commute;
      so every component equals (I + sum_j t_j x_j) f_0 = sum_j t_j f_j.
    By Lemma B, the lift leaves every transition of a full U_n on
    superdiagonals >= 3, so for n <= 6 the pass after the lift is linear.
    Lie coordinates have no linear pass.

    Otherwise the pass computes f_0^{-1} and the logs L_j = log(f_j f_0^{-1}).
    Lemma A: if the L_j generate a Lie algebra of class <= 2, every
    component equals exp(S) f_0, where S = sum_j t_j L_j:
      log(f_j f_k^{-1}) = L_j - L_k - [L_j, L_k]/2 by BCH;
      so sum_j t_j log(f_j f_k^{-1}) = S - L_k - [S, L_k]/2, as sum_j t_j = 1;
      so f'_k = exp(S - L_k - [S, L_k]/2) exp(L_k) f_0 = exp(S) f_0 by BCH.
    Lemma B: if every transition lies in Gamma_m, Lemma A holds in
    G/Gamma_{3m}, where every triple bracket of the L_j vanishes; so after
    the pass every transition lies in Gamma_{3m}.
    So when q = 1 (one log) or 3 * depth exceeds the class, which makes
    Gamma_{3 depth} trivial, only f'_0 is computed; otherwise all q+1
    components are, reusing f_0^{-1} and the L_j, with depth 3 * depth."""
    if t.r != t.q:
        raise InputError("wsym needs sections over the q-simplex (domain degree %d, "
                         "tuple degree %d)" % (t.r, t.q))
    if t.q == 0:
        return t
    law, ring = t.law, t.ring
    coords = [ring.coordinate(j) for j in range(t.q + 1)]
    linear = law.linear_pass(t.sections, coords)
    if linear is not None:
        return t._rebuild([linear] * (t.q + 1), ring)
    inverse = law.inverse(t.sections[0])
    first = [law.log(law.mul(f, inverse)) for f in t.sections[1:]]

    def component(i, row):
        # f'_i = exp(sum_{j != i} t_j row[j]) f_i, where row[j] = log(f_j f_i^{-1})
        others = [j for j in range(t.q + 1) if j != i]
        acc = law.combine([row[j] for j in others], [coords[j] for j in others])
        return law.mul(law.exp(acc), t.sections[i])

    # exp of a span element times a group element stays in the group
    if t.q == 1 or 3 * t.depth > t.table.nilpotency_class:
        return t._rebuild([component(0, [None] + first)] * (t.q + 1), ring)
    logs = _transition_logs(t, first)
    return t._rebuild([component(i, logs[i]) for i in range(t.q + 1)], ring, 3 * t.depth)


def lift_w(t):
    """Lift a tuple of t-constant sections onto the q-simplex, with the same
    defining formula but t-constant transitions.  A constant tuple lifts to
    its embedding, which wsym fixes."""
    if t.r != 0:
        raise InputError("lift_w needs t-constant sections (domain degree %d)" % t.r)
    if t.q == 0:
        return t
    target = PolyRing(t.ring.field, t.q, t.ring.params)
    embedded = t._rebuild([t.law.embed(s, t.q, target) for s in t.sections], target)
    if embedded.is_constant_tuple():
        return embedded
    return wsym(embedded)


def wav(t, d_override=None):
    """The weighted average of a tuple of t-constant sections: lift, then
    symmetrize at most d times (d = derived series length of the group, or a
    larger override); all components then agree and the common value is
    returned.  Passes stop once the components agree, since wsym fixes a
    constant tuple (every transition log is 0).  Without an override the
    table answers "is d > passes so far?" before each pass, which needs the
    derived series only before a third pass; the pass count at a failure is
    d itself."""
    if t.r != 0:
        raise InputError("wav needs t-constant sections (domain degree %d)" % t.r)
    table = t.table
    # more(p): is d > p, so that a pass may follow the first p?
    if d_override is None:
        more = table.derived_length_exceeds
    else:
        d = table.derived_length
        if not isinstance(d_override, int) or d_override < d:
            raise InputError("iteration override must be an integer >= %d" % d)
        more = lambda passes: passes < d_override
    cur = lift_w(t)
    passes = 0
    while not cur.is_constant_tuple():
        if not more(passes):
            raise NonConstantError("tuple components still disagree after %d passes" % passes)
        cur = wsym(cur)
        passes += 1
    return cur.sections[0]


def act_simplex_map(t: SectionTuple, alpha: SimplexMap) -> SectionTuple:
    """The simplicial action: reindex sections through alpha and pull their
    entries back along the induced map of simplices."""
    if not isinstance(alpha, SimplexMap):
        raise InputError("expected a SimplexMap")
    if alpha.q != t.q:
        raise InputError("map target [%d] does not match tuple degree %d"
                         % (alpha.q, t.q))
    picked = [t.sections[alpha(i)] for i in range(alpha.p + 1)]
    if t.r == 0:
        return SectionTuple(t.group, picked)
    return SectionTuple(t.group, [pull_back(s, alpha) for s in picked])


def act_permutation(t: SectionTuple, perm) -> SectionTuple:
    """The symmetry action of a permutation of {0, ..., q}: section i moves
    to slot perm(i) while entries substitute t_i -> t_{perm(i)}."""
    perm = tuple(int(v) for v in perm)
    if sorted(perm) != list(range(t.q + 1)):
        raise InputError("not a permutation of 0..%d" % t.q)
    new = [None] * (t.q + 1)
    for i in range(t.q + 1):
        new[perm[i]] = t.sections[i]
    if t.r == 0:
        return SectionTuple(t.group, new)
    target = t.ring
    moved = [s.map_entries(lambda e: permute_coordinates(e, perm), target)
             for s in new]
    return SectionTuple(t.group, moved)


def wav_at_weights(points, weights: WeightSeq, group=None) -> UniMatrix:
    """The weighted average point of q+1 constant group elements: evaluate
    the averaged section at the given weights."""
    points = list(points)
    if not points:
        raise InputError("need at least one point")
    n = points[0].n
    field = points[0].ring.field
    if group is None:
        group = full_unipotent_span(n, field)
    if len(points) != len(weights):
        raise InputError("expected %d points for these weights, got %d"
                         % (len(weights), len(points)))
    if weights.field != field:
        raise RingMismatch("weights and points use different fields")
    return eval_matrix_at_weights(wav(SectionTuple(group, points)), weights)


def eval_matrix_at_weights(mat, weights: WeightSeq):
    """A matrix over the q-simplex evaluated at a point of it, as a constant
    matrix; t-constant matrices are returned unchanged."""
    ring = mat.ring
    if ring.q == 0:
        return mat
    out_ring = PolyRing(ring.field, 0, ring.params)
    if mat.n == 1:
        # only strictly upper entries are evaluated, and each evaluation
        # checks the point; a 1 x 1 matrix has none, so check it here
        eval_at_weights(ring.zero(), weights.values)
    return mat.map_entries(
        lambda e: out_ring.constant(eval_at_weights(e, weights.values)), out_ring)