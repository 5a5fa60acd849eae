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
exceeds the class.  The proofs are in `wsym`.  `wav_by_passes` runs the
lift and the passes; it is the one place the formula is iterated.

In Lie coordinates Lemma A makes the average itself linear.  Let x_j be
the coordinates of log f_j and let the class be <= 2, so that BCH stops at
the first bracket and every triple bracket vanishes.  Then
L_j = BCH(x_j, -x_0) = x_j - x_0 - [x_j, x_0]/2, and, as sum_j t_j = 1,
S = sum_j t_j L_j = A - x_0 - [A, x_0]/2 with A = sum_j t_j x_j.  So
log(exp(S) f_0) = BCH(S, x_0) = S + x_0 + [S, x_0]/2
= A - [A, x_0]/2 + [A - x_0, x_0]/2 = A, since [x_0, x_0] = 0.  `wav` on
a `CoordinateTuple` of class <= 2 is therefore the one combination
sum_j t_j x_j (`LieTable.combine`), with no log, bracket or product; a
`SectionTuple` keeps exp(S) f_0, since a sum of group matrices is not
their product.

The formula is natural: every step is a group operation, so a pass
commutes with group homomorphisms and with ring automorphisms of the
entries.  If a coefficient automorphism sigma and a permutation pi of the
indices satisfy sigma(f_i) = f_{pi(i)}, then tau = P_pi o sigma, with P_pi
the substitution t_j -> t_{pi(j)}, commutes with product, inverse, log and
exp and sends t_j to t_{pi(j)}, so tau(f'_i) = f'_{pi(i)} after every pass;
that is why a Galois orbit's average at uniform weights is Galois
invariant (`descent.rational_point`).

The universal polynomial.  Right translation by a constant h leaves every
transition unchanged, so wav(f h) = wav(f) h and wav(f) = wav(f f_0^{-1})
f_0.  The tuple f f_0^{-1} = (1, exp L_1, ..., exp L_q) is the image of
(1, exp e_1, ..., exp e_q) in the free nilpotent group of class c on q
generators under the hom e_j -> L_j, for a group of class <= c, so by
naturality

    wav(f) = exp(Phi_{c,q}(L_1, ..., L_q)) f_0,

with Phi_{c,q} the log of that free average: one Lie polynomial on the
Lyndon basis of the free algebra, with coefficients in Q[t].  `wav` also
commutes with inversion: for h_i = f_i^{-1}, log(h_j h_i^{-1}) =
-Ad(f_i^{-1}) log(f_j f_i^{-1}), so h'_i = f_i^{-1} exp(-S_i) = (f'_i)^{-1}
after each pass.  Inversion in the free group is the hom e_j -> -e_j, so
Phi is odd: its parts of even weight vanish.  The projection onto class
c - 1 maps Phi_{c,q} to Phi_{c-1,q}, so for an even class Phi_{c,q} =
Phi_{c-1,q}, and `wav` uses Phi_{c',q} with c' the largest odd number <=
the class.

One dispatch, `_phi_terms`, gives Phi to `wav` and `wav_at_weights`: no
term when the components agree (q = 0 included), the average being f_0;
sum_j t_j e_j when q = 1 or the class is <= 2, by Lemma A; else
Phi_{c',q}, when the free algebra of class c' on q generators has
dimension <= MAX_UNIVERSAL_DIM, which admits (c', q) = (3, 2), (3, 3),
(3, 4) and (5, 2) only.  Phi_{c',q} is built on first use, once per
process, by `wav_by_passes` on a `CoordinateTuple` over the free
algebra's `LieTable` (`nilpotent.free_lie_table`), and only its Lyndon
words and coefficients are kept.  A tuple then costs f_0^{-1}, the q logs
L_j, one walk, `nilpotent.lie_polynomial` (a bracket per Lyndon word
reached and one combination), one exp and one product; a pass of `wsym`
makes the same walk for each component it computes, and the group law of
a `LieTable` makes it for BCH.  The brackets stay constant: the law's
combination with Phi's coefficients on the q-simplex puts the sum there
(for constant matrices one integer sum per t-monomial), and only f_0 is
embedded, for the product.  Tuples with Phi above the bound take the
pass loop.

The average at a point.  Evaluation at weights w commutes with every
step, so wav(f)(w) = exp(Phi_{c,q}(w; L_1, ..., L_q)) f_0.
`wav_at_weights` evaluates each coefficient of the dispatch's Phi at w in
the points' field and makes the same walk on constant matrices.  A tuple
above the bound is averaged symbolically and then evaluated, but points
with parameters (q >= 1) are refused first, since the weights give no
parameter a value.

The operators are written once over a group law (product, inverse, log,
exp, the algebra's linear operations and the linear-pass test).  A
`SectionTuple` holds unit upper triangular matrices under the matrix
product; a `CoordinateTuple` holds the Lie coordinates of its elements'
logs under the truncated BCH product of a `LieTable`, which is how
quotient towers are averaged.
"""

from __future__ import annotations

import operator
from itertools import islice

from .errors import InputError, NonConstantError, RingMismatch
from .exactring import (QQ, PolyRing, SimplexMap, SimplexPoly, coordinate_permutation,
                        eval_at_weights, extend_scalars, sum_of_products)
from .nilpotent import (LieSpan, NilMatrix, UniMatrix, _same, embed_simplex, exp_nilpotent,
                        free_lie_table, full_unipotent_span, lie_polynomial, log_unipotent,
                        lyndon_words, pull_back)

__all__ = [
    "WeightSeq", "SectionTuple", "CoordinateTuple", "SimplexMap", "transition", "wsym",
    "lift_w", "wav", "wav_by_passes", "act_simplex_map", "act_permutation",
    "wav_at_weights", "eval_matrix_at_weights",
]

# the largest free algebra whose universal polynomial `wav` builds and
# keeps: dimension 32 admits classes 3 and 4 up to q = 4 (Phi_{3,4} has 30
# Lyndon words) and classes 5 and 6 at q = 2 (14 words), while Phi_{5,3}
# has 80 words and Phi_{7,2} 41
MAX_UNIVERSAL_DIM = 32


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
    def combine(xs, coefs):
        return NilMatrix.combination(xs, coefs)

    @staticmethod
    def bracket(x, y):
        return x.bracket(y)

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
            if s.ring is not ring or s.n != group.n:
                raise RingMismatch("sections must share one ring and matrix size")
            if s.ring.field is not group.field:
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
    components are, with depth 3 * depth.  A row negates the logs of
    earlier rows, as log(g^{-1}) = -log(g), so f_q^{-1} is never needed."""
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
    # logs[(i, j)] = log(f_j f_i^{-1}), for the components computed so far;
    # each component is computed once, so only the mirror (j, i) is looked up
    logs = {}

    def component(i):
        # f'_i = exp(Phi(L)) f_i, L = (log(f_j f_i^{-1}))_{j != i}, Phi = sum_{j != i} t_j e_j
        row = []
        inverse = None
        for j in range(t.q + 1):
            if j == i:
                continue
            mirror = logs.get((j, i))
            if mirror is not None:
                x = law.neg(mirror)
            else:
                if inverse is None:
                    inverse = law.inverse(f[i])
                x = logs[(i, j)] = law.log(law.mul(f[j], inverse))
            row.append(x)
        s = lie_polynomial(law, [((k,), c) for k, c in enumerate(coords[:i] + coords[i + 1:])],
                           row)
        return law.mul(law.exp(s), f[i])

    # exp of a span element times a group element stays in the group
    if t.q == 1 or 3 * t.depth > t.table.nilpotency_class:
        return t._rebuild([component(0)] * (t.q + 1), ring)
    return t._rebuild([component(i) for i in range(t.q + 1)], ring, 3 * t.depth)


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


def _pass_bound(t, d_override):
    """more(p): is d > p, so that a pass may follow the first p?  d is the
    derived length of t's group, or an override of at least that; without
    one the table answers, which needs the derived series only before a
    third pass."""
    if t.r != 0:
        raise InputError("wav needs t-constant sections (domain degree %d)" % t.r)
    table = t.table
    if d_override is None:
        return table.derived_length_exceeds
    d = table.derived_length
    if not isinstance(d_override, int) or d_override < d:
        raise InputError("iteration override must be an integer >= %d" % d)
    return lambda passes: passes < d_override


def _passes(t, more):
    cur = lift_w(t)
    passes = 0
    while not cur.is_constant_tuple():
        if not more(passes):
            raise NonConstantError("tuple components still disagree after %d passes" % passes)
        cur = wsym(cur)
        passes += 1
    return cur.sections[0]


def wav_by_passes(t, d_override=None):
    """The weighted average of a tuple of t-constant sections by the
    paper's iteration: lift, then symmetrize at most d times (d = derived
    series length of the group, or a larger override); all components then
    agree and the common value is returned.  Passes stop once the
    components agree, since wsym fixes a constant tuple (every transition
    log is 0).  The pass count at a failure is d itself."""
    return _passes(t, _pass_bound(t, d_override))


# Phi_{c,q} for odd c, as (Lyndon word, coefficient over Q on the
# q-simplex) pairs with a nonzero coefficient; the keys are the (c, q)
# within MAX_UNIVERSAL_DIM, four at most
_UNIVERSAL = {}


def universal_polynomial(c, q):
    """Phi_{c,q}: the log of the average of (0, e_1, ..., e_q) in the free
    nilpotent Lie algebra of class c on q >= 2 generators, computed by
    `wav_by_passes` in its Lie coordinates, as (Lyndon word, coefficient)
    pairs with a nonzero coefficient; letter j - 1 stands for e_j."""
    words, table = free_lie_table(q, c, QQ)
    ring = PolyRing(QQ, 0)
    zero, one = ring.zero(), ring.one()
    points = [(zero,) * table.dim] + [(zero,) * j + (one,) + (zero,) * (table.dim - j - 1)
                                      for j in range(q)]
    phi = wav_by_passes(CoordinateTuple(table, points, ring))
    return tuple((w, x) for w, x in zip(words, phi) if x.nums)


def _phi_terms(t):
    """Phi's (Lyndon word, coefficient) terms for t (see the module
    docstring): () when the components agree, Lemma A's sum_j t_j e_j, or
    the cached Phi_{c',q}; None above the bound and over a simplex."""
    if t.r:
        return None
    if t.is_constant_tuple():
        return ()
    if t.q == 1 or t.table.nilpotency_class <= 2:
        ring = PolyRing(QQ, t.q)
        return tuple(((j,), ring.coordinate(j + 1)) for j in range(t.q))
    c = t.table.nilpotency_class
    key = (c - 1 + c % 2, t.q)
    terms = _UNIVERSAL.get(key)
    if terms is None and _admits(*key):
        terms = _UNIVERSAL[key] = universal_polynomial(*key)
    return terms


def _admits(c, q):
    """Has the free algebra of class c on q generators dimension at most
    MAX_UNIVERSAL_DIM?  Its Lyndon words are counted up to one more."""
    return sum(1 for _ in islice(lyndon_words(q, c), MAX_UNIVERSAL_DIM + 1)) \
        <= MAX_UNIVERSAL_DIM


def _average(t, terms, coefficient, place):
    """wav(t) from `_phi_terms`' terms: exp(Phi(L_1, ..., L_q)) f_0 with
    L_j = log(f_j f_0^{-1}), or f_0 when there are none, with Phi's
    coefficients mapped by `coefficient` (see `nilpotent.lie_polynomial`)
    and f_0 put on their ring by `place`."""
    law, f = t.law, t.sections
    if not terms:
        return place(f[0])
    inverse = law.inverse(f[0])
    logs = [law.log(law.mul(g, inverse)) for g in f[1:]]
    s = lie_polynomial(law, terms, logs, coefficient)
    return law.mul(law.exp(s), place(f[0]))


def wav(t, d_override=None):
    """The weighted average of a tuple of t-constant sections: the value of
    `wav_by_passes`, computed as exp(Phi(L)) f_0 wherever `_phi_terms`
    knows Phi, and for Lie coordinates of class <= 2 as sum_j t_j f_j (see
    the module docstring).  An override below the derived length is
    refused on all paths."""
    more = _pass_bound(t, d_override)
    law, q = t.law, t.q
    ring = PolyRing(t.ring.field, q, t.ring.params)
    if type(t) is CoordinateTuple and law.nilpotency_class <= 2:
        # Lemma A in Lie coordinates: the average is sum_j t_j f_j
        return law.combine(t.sections, [ring.coordinate(j) for j in range(q + 1)])
    terms = _phi_terms(t)
    if terms is None:
        return _passes(t, more)
    return _average(t, terms, lambda x: extend_scalars(x, ring), lambda g: law.embed(g, q))


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


def wav_at_weights(points, weights: WeightSeq, group=None) -> UniMatrix:
    """The weighted average point of q+1 constant group elements, wav(f)(w).
    Evaluation at w commutes with every step, so where `wav` knows Phi
    (see `_phi_terms`) this is exp(Phi(w; L_1, ..., L_q)) f_0, computed on
    constant matrices once each coefficient of Phi is evaluated at w;
    otherwise the averaged section is built and evaluated at w.  Points
    with parameters (q >= 1) raise "missing value for parameter" before
    any averaging, as the evaluation would."""
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
    t = SectionTuple(group, points)
    if t.q and t.ring.params and not t.r:
        # the average lies over the q-simplex times the parameters, and the
        # weights give no parameter a value
        raise InputError("missing value for parameter %r" % (t.ring.params[0],))
    terms = _phi_terms(t)
    if terms is None:
        return eval_matrix_at_weights(wav(t), weights)
    ring, values = PolyRing(field, t.q), weights.values
    return _average(
        t, terms, lambda x: t.ring.constant(eval_at_weights(extend_scalars(x, ring), values)),
        _same)


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