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
pass is linear, every component being sum_j t_j f_j, for matrices that
agree below superdiagonal ceil(n/2), and for Lie coordinates when 2m
exceeds the class.  The proofs are in `wsym`.

The formula is natural: if a coefficient automorphism sigma and a
permutation pi of the indices satisfy sigma(f_i) = f_{pi(i)}, then
tau = P_pi o sigma, with P_pi the substitution t_j -> t_{pi(j)}, is a ring
automorphism that commutes with product, inverse, log and exp and sends
t_j to t_{pi(j)}, so tau(f'_i) = f'_{pi(i)} after every pass.  A
`SectionTuple` may carry such pairs, its `symmetry` (a Galois orbit's
generators with the permutations they induce), and a pass that computes
every component computes one per orbit of the permutations and the others
as images under tau.

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
from .exactring import (FieldAutomorphism, PolyRing, SimplexMap, SimplexPoly,
                        coordinate_permutation, eval_at_weights, sum_of_products)
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
    def linear_pass(sections, coords, depth=1):
        """The pass's common value sum_j coords[j] sections[j] when every
        section equals sections[0] below superdiagonal k = ceil(n/2), else
        None (see `wsym`); the entries decide, not the depth.  Below
        superdiagonal k that sum is sections[0]'s entry, since the
        coordinates sum to 1; each entry from superdiagonal k on is one sum
        of products."""
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
    def embed(g, q):
        return embed_simplex(g, q)


class _Sections:
    """q+1 group elements over one ring, whose simplex dimension r (the
    domain degree) is 0 for t-constant elements or q over the q-simplex.
    Every transition lies in Gamma_depth; only `_rebuild` sets depth > 1.
    Only a SectionTuple has a nonempty `symmetry`."""

    __slots__ = ("sections", "q", "r", "depth", "symmetry")

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

    ``symmetry`` lists pairs (sigma, perm): a `FieldAutomorphism` of the
    group's field and a permutation of {0, ..., q} with
    tau(f_i) = f_{perm[i]}, where tau applies sigma to the coefficients and,
    over the q-simplex, then substitutes t_j -> t_{perm[j]}.  Every pass
    keeps it (see `wsym`).  ``check=True`` verifies each pair.
    """

    __slots__ = ("group",)
    law = _MatrixLaw

    def __init__(self, group, sections, check=True, symmetry=()):
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
            if s.ring is not ring or s.n != group.n:
                raise RingMismatch("sections must share one ring and matrix size")
            if s.ring.field is not group.field:
                raise RingMismatch("section field differs from the group's")
            if check:
                group.require_element(s, "a section")
        # passes with q < 2 compute one component, which no symmetry saves
        self.symmetry = symmetry = (tuple((sigma, tuple(perm)) for sigma, perm in symmetry)
                                    if self.q > 1 else ())
        for k, (sigma, perm) in enumerate(symmetry if check else ()):
            if not isinstance(sigma, FieldAutomorphism) or sigma.field is not group.field:
                raise InputError("symmetry %d needs an automorphism of the group's field" % k)
            if sorted(perm) != list(range(self.q + 1)):
                raise InputError("symmetry %d needs a permutation of 0..%d" % (k, self.q))
            tau = _conjugation(ring, sigma, perm)
            for i, s in enumerate(sections):
                if s.map_entries(tau, ring) != sections[perm[i]]:
                    raise InputError("symmetry %d does not send section %d to section %d"
                                     % (k, i, perm[i]))

    @property
    def ring(self):
        return self.sections[0].ring

    @property
    def table(self):
        return self.group.table

    def _rebuild(self, sections, ring, depth=1):
        # the operators' values lie in the group by construction, and every
        # pass and the lift's embedding keep the symmetry
        out = SectionTuple(self.group, sections, check=False)
        out.depth = depth
        out.symmetry = self.symmetry
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
        if ring.field is not table.field:
            raise RingMismatch("coordinate ring field differs from the table's")
        for s in sections:
            if len(s) != table.dim:
                raise InputError("expected %d coordinates, got %d" % (table.dim, len(s)))
            if not all(isinstance(x, SimplexPoly) and x.ring is ring for x in s):
                raise RingMismatch("coordinates must lie in the tuple's ring")
        self.table = table
        self.ring = ring
        self.sections = sections
        self.q = len(sections) - 1
        self.depth = 1
        self.symmetry = ()
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
    if f_i.ring is not f_j.ring or f_i.n != f_j.n:
        raise RingMismatch("sections live in different spaces")
    if group is not None:
        for f in (f_i, f_j):
            group.require_element(f, "a section")
    return f_j * f_i.inverse()


def _conjugation(ring, sigma, perm):
    """tau = P_perm o sigma on entries over ring: sigma on the coefficients,
    then, over the q-simplex, t_j -> t_{perm[j]} through one plan."""
    if ring.q == 0:
        return sigma
    permute = coordinate_permutation(ring, perm)
    return lambda e: permute(sigma(e))


def wsym(t):
    """One symmetrization pass on a tuple of sections over the q-simplex.

    The pass first asks the law for a linear pass, after which every
    component equals sum_j t_j f_j.  For matrices, with k = ceil(n/2), it is
    one when every f_j equals f_0 below superdiagonal k:
      D_j = f_j - f_0 lives on superdiagonals >= k, and so does
      x_j = f_j f_0^{-1} - I = D_j f_0^{-1};
      so x_a x_b = 0, as 2k >= n: log(I + x_j) = x_j, exp(S) = I + S, and
      the logs commute;
      so every component equals (I + sum_j t_j x_j) f_0 = sum_j t_j f_j.
    By Lemma B, the lift leaves every transition of a full U_n on
    superdiagonals >= 3, so for n <= 6 the pass after the lift is linear.
    For Lie coordinates, with m the depth, it is one when 2m exceeds the
    class c:
      every transition log lies in Gamma_m, so every bracket with two of
      them lies in Gamma_{2m} = 0, and BCH(S, F) = F + A(S) with A linear;
      so, as sum_j t_j = 1 and BCH(log(f_j f_i^{-1}), f_i) = f_j,
      f'_i = BCH(sum_j t_j log(f_j f_i^{-1}), f_i) = sum_j t_j f_j.

    Otherwise the pass computes f'_0 from f_0^{-1} and the logs
    L_j = log(f_j f_0^{-1}).  Lemma A: if the L_j generate a Lie algebra of
    class <= 2, every component equals exp(S) f_0, where S = sum_j t_j L_j:
      log(f_j f_k^{-1}) = L_j - L_k - [L_j, L_k]/2 by BCH;
      so sum_j t_j log(f_j f_k^{-1}) = S - L_k - [S, L_k]/2, as sum_j t_j = 1;
      so f'_k = exp(S - L_k - [S, L_k]/2) exp(L_k) f_0 = exp(S) f_0 by BCH.
    Lemma B: if every transition lies in Gamma_m, Lemma A holds in
    G/Gamma_{3m}, where every triple bracket of the L_j vanishes; so after
    the pass every transition lies in Gamma_{3m}.
    So when q = 1 (one log) or 3 * depth exceeds the class, which makes
    Gamma_{3 depth} trivial, only f'_0 is computed; otherwise all q+1
    components are, with depth 3 * depth.

    Then tau(f'_i) = f'_{perm[i]} for each (sigma, perm) of the tuple's
    symmetry (see the module docstring), so a component is computed, with
    its row of logs, only for an index no symmetry reaches from one
    computed before it, and the rest are images under the tau's.  A row
    negates the logs of earlier rows, as log(g^{-1}) = -log(g), so without
    a symmetry f_q^{-1} is never needed."""
    if t.r != t.q:
        raise InputError("wsym needs sections over the q-simplex (domain degree %d, "
                         "tuple degree %d)" % (t.r, t.q))
    if t.q == 0:
        return t
    law, ring, f = t.law, t.ring, t.sections
    coords = [ring.coordinate(j) for j in range(t.q + 1)]
    linear = law.linear_pass(f, coords, t.depth)
    if linear is not None:
        return t._rebuild([linear] * (t.q + 1), ring)
    # logs[(i, j)] = log(f_j f_i^{-1}), for the pairs computed so far
    logs = {}

    def component(i):
        # f'_i = exp(sum_{j != i} t_j log(f_j f_i^{-1})) f_i
        row = []
        inverse = None
        for j in range(t.q + 1):
            if j == i:
                continue
            x = logs.get((i, j))
            if x is None:
                mirror = logs.get((j, i))
                if mirror is not None:
                    x = law.neg(mirror)
                else:
                    if inverse is None:
                        inverse = law.inverse(f[i])
                    x = logs[(i, j)] = law.log(law.mul(f[j], inverse))
            row.append(x)
        acc = law.combine(row, coords[:i] + coords[i + 1:])
        return law.mul(law.exp(acc), f[i])

    # exp of a span element times a group element stays in the group
    if t.q == 1 or 3 * t.depth > t.table.nilpotency_class:
        return t._rebuild([component(0)] * (t.q + 1), ring)
    conjugations = [(perm, _conjugation(ring, sigma, perm)) for sigma, perm in t.symmetry]
    out = [None] * (t.q + 1)
    for i in range(t.q + 1):
        if out[i] is not None:
            continue
        out[i] = component(i)
        reached = [i]
        while reached:
            k = reached.pop()
            for perm, tau in conjugations:
                if out[perm[k]] is None:
                    # only a SectionTuple carries a symmetry
                    out[perm[k]] = out[k].map_entries(tau, ring)
                    reached.append(perm[k])
    return t._rebuild(out, ring, 3 * t.depth)


def lift_w(t):
    """Lift a tuple of t-constant sections onto the q-simplex, with the same
    defining formula but t-constant transitions.  A constant tuple lifts to
    its embedding, which wsym fixes."""
    if t.r != 0:
        raise InputError("lift_w needs t-constant sections (domain degree %d)" % t.r)
    if t.q == 0:
        return t
    embedded = t._rebuild([t.law.embed(s, t.q) for s in t.sections],
                          PolyRing(t.ring.field, t.q, t.ring.params))
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
    to slot perm(i) while entries substitute t_i -> t_{perm(i)}, all
    through one pullback plan."""
    perm = tuple(int(v) for v in perm)
    if sorted(perm) != list(range(t.q + 1)):
        raise InputError("not a permutation of 0..%d" % t.q)
    new = [None] * (t.q + 1)
    for i in range(t.q + 1):
        new[perm[i]] = t.sections[i]
    if t.r == 0:
        return SectionTuple(t.group, new)
    target = t.ring
    permute = coordinate_permutation(target, perm)
    return SectionTuple(t.group, [s.map_entries(permute, target) for s in new])


def wav_at_weights(points, weights: WeightSeq, group=None, symmetry=()) -> UniMatrix:
    """The weighted average point of q+1 constant group elements: evaluate
    the averaged section at the given weights.  ``symmetry`` is the points'
    symmetry, as `SectionTuple` takes it, for `wsym` to use."""
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
    if weights.field is not field:
        raise RingMismatch("weights and points use different fields")
    return eval_matrix_at_weights(wav(SectionTuple(group, points, symmetry=symmetry)),
                                  weights)


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