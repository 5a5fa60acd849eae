"""Nilpotent matrix Lie algebras and their unipotent groups.

Elements are square matrices with simplex-polynomial entries: strictly
upper triangular for the algebra, unit upper triangular for the group.
The two kinds share one storage class and one triangular product; the
kind fixes the diagonal, so products, entrywise maps and equality touch
only the strictly upper entries.
Nilpotency makes exp and log terminating power series, summed by one
helper, and the group inverse one back substitution, so everything here
is exact.  Every strictly upper entry of a triangular product, of a power
series (after the powers of x are formed), of an inverse and of a linear
combination is one fused sum of products (`exactring.sum_of_products`),
put into canonical form once; an entry that is a single term times 1 is
that term.

Spans (subalgebras given by a finite basis of constant matrices) keep
their basis in one sparse reduced echelon store, with the transform back
to the basis, so membership tests and coordinate solves work uniformly
for matrices with polynomial entries; the same store picks independent
vectors wherever a basis is chosen.  Going back, one helper sums
coordinates times the basis, kept as sparse rows of field scalars, into a
matrix over the coordinates' ring; a hom maps coordinates to coordinates
through its images'.  Quotients by an ideal are re-embedded as strictly
upper triangular matrices through a weight-truncated enveloping algebra;
the re-embedding is faithful because left multiplication fixes the
ground vector 1.

Each span also has a structure-constant table (`LieTable`), recorded by
its closure check or built on first use; the lower central series, the
derived length and the nilpotency class are read from it, and a hom's
bracket check compares the two tables.  The table is the group law in
Lie coordinates as well: an element is the coordinate vector of its log
and the product is BCH truncated at the class, so a quotient floor can be
averaged on its table alone.  `quotient_span` seeds its target's table and class from the
structure constants and series it computes anyway, records each projected
basis vector's coordinates, and checks neither the target's closure nor
the projection, which hold by construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from math import factorial

from .errors import InputError, MembershipError, RingMismatch
from .exactring import (PolyRing, ScalarField, SimplexPoly, extend_to_simplex,
                        substitute_simplex_map, sum_of_products)


# ---------------------------------------------------------------------------
# raw row helpers (tuples of tuples of SimplexPoly)
# ---------------------------------------------------------------------------

def _zero_rows(ring, n):
    return ((ring.zero(),) * n,) * n

def _identity_rows(ring, n):
    zeros = (ring.zero(),) * n
    return tuple(zeros[:i] + (ring.one(),) + zeros[i + 1:] for i in range(n))

def _add_rows(a, b):
    return tuple(tuple(y if x.is_zero else x if y.is_zero else x + y
                       for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

def _sub_rows(a, b):
    return tuple(tuple(x if y.is_zero else -y if x.is_zero else x - y
                       for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

def _minus_identity(rows, ring):
    # U - I of unit upper triangular rows is U with its diagonal blanked
    z = ring.zero()
    return tuple(row[:i] + (z,) + row[i + 1:] for i, row in enumerate(rows))

def _scale_rows(rows, s):
    # a zero entry scales to itself
    return tuple(tuple(x if x.is_zero else x * s for x in row) for row in rows)

def _entry(ring, pairs):
    """sum_k x_k y_k for the nonempty pairs of one matrix entry, each x_k a
    nonzero polynomial over ring and each y_k a polynomial over ring or a
    rational scalar: one sum of products, but a lone product is one
    product, and a lone term times the scalar 1 is the term itself."""
    if len(pairs) == 1:
        x, y = pairs[0]
        if type(y) is SimplexPoly:
            return x * y
        if y == 1:
            return x
    return sum_of_products(ring, pairs)


def _matmul(a, b, ring, unit=False):
    """The product of two strictly upper triangular matrices, or with unit
    of two unit upper triangular ones, as rows of the same kind.  The kind
    fixes the diagonal and the zeros below it, so only strictly upper
    entries are read or computed: (ab)_ij = sum_{i<k<j} a_ik b_kj, plus
    a_ij + b_ij for unit matrices, one `_entry`."""
    n = len(a)
    out = []
    for i, row in enumerate(_identity_rows(ring, n) if unit else _zero_rows(ring, n)):
        ai = a[i]
        row = list(row)
        for j in range(i + 1, n):
            pairs = [(ai[k], b[k][j]) for k in range(i + 1, j) if ai[k].nums and b[k][j].nums]
            if unit:
                pairs += [(x, 1) for x in (ai[j], b[i][j]) if x.nums]
            if pairs:
                row[j] = _entry(ring, pairs)
        out.append(tuple(row))
    return tuple(out)


def _upper_sums(blank, mats, coefs, ring):
    """blank with each strictly upper entry replaced by sum_k coefs[k]
    mats[k]_ij, one `_entry` each; the coefficients are polynomials over
    ring or rational scalars, and blank carries the diagonal of the
    result's kind."""
    n = len(blank)
    out = []
    for i, head in enumerate(blank):
        row = list(head)
        for j in range(i + 1, n):
            pairs = [(m[i][j], c) for m, c in zip(mats, coefs) if m[i][j].nums]
            if pairs:
                row[j] = _entry(ring, pairs)
        out.append(tuple(row))
    return tuple(out)


def _power_series(blank, x, coefs, ring):
    """blank + sum_k coefs[k - 1] x^k over k = 1 .. len(coefs), for a
    strictly upper x and a diagonal blank: each power of x is one product
    from the last, starting from x itself, and then each strictly upper
    entry is one sum of products."""
    powers = [x]
    for _ in coefs[1:]:
        powers.append(_matmul(powers[-1], x, ring))
    return _upper_sums(blank, powers, coefs, ring)


def _coerce_rows(ring, n, rows):
    if len(rows) != n:
        raise InputError("expected %d rows, got %d" % (n, len(rows)))
    out = []
    for row in rows:
        if len(row) != n:
            raise InputError("matrix rows must have length %d" % n)
        new = []
        for x in row:
            if isinstance(x, SimplexPoly):
                if x.ring is not ring:
                    raise RingMismatch("matrix entry over a different ring")
                new.append(x)
            else:
                new.append(ring.constant(x))
        out.append(tuple(new))
    return tuple(out)


class _TriangularMatrix:
    """An n x n matrix over a simplex-polynomial ring, stored as a tuple of
    row tuples.  A subclass fixes the diagonal: `_blank_rows` builds its
    matrix with no strictly upper entries, and `_check_diagonal` rejects
    checked rows that break its shape."""

    __slots__ = ("ring", "n", "rows")

    def __init__(self, ring, rows, check=True):
        n = len(rows)
        self.ring = ring
        self.n = n
        self.rows = _coerce_rows(ring, n, rows) if check else rows
        if check:
            self._check_diagonal()

    @classmethod
    def from_entries(cls, ring, n, entries):
        """Build from a {(i, j): value} map of strictly upper entries."""
        rows = [list(row) for row in cls._blank_rows(ring, n)]
        for (i, j), v in entries.items():
            if not 0 <= i < j < n:
                raise InputError("entry (%d, %d) is not strictly upper in size %d" % (i, j, n))
            rows[i][j] = v if isinstance(v, SimplexPoly) else ring.constant(v)
            if rows[i][j].ring is not ring:
                raise RingMismatch("matrix entry over a different ring")
        return cls(ring, tuple(tuple(r) for r in rows), check=False)

    def _require_same(self, other):
        if not isinstance(other, type(self)):
            raise InputError("expected a %s" % type(self).__name__)
        if other.ring is not self.ring or other.n != self.n:
            raise RingMismatch("matrices live in different spaces")

    def is_constant(self):
        return all(x.is_constant for x in self.strict_upper())

    def entry(self, i, j):
        return self.rows[i][j]

    def map_entries(self, fn, ring):
        """The matrix over ring with fn applied to each strictly upper entry.
        fn must send 0 to 0 and 1 to 1, as every ring map does (pullback,
        extension, evaluation, a Galois automorphism, descent to Q, a
        permutation of coordinates), so the diagonal and the part below it
        are taken from ring's blank matrix of this kind, not mapped."""
        rows = self.rows
        blank = self._blank_rows(ring, self.n)
        return type(self)(ring, tuple(head[:i + 1] + tuple(map(fn, row[i + 1:]))
                                      for i, (head, row) in enumerate(zip(blank, rows))),
                          check=False)

    def strict_upper(self):
        """The strictly upper entries, row by row."""
        return tuple(chain.from_iterable(row[i + 1:] for i, row in enumerate(self.rows)))

    def nonzero_upper(self):
        """The nonzero strictly upper entries, as a sparse {index: entry}
        map indexed like `strict_upper`."""
        return {k: x for k, x in enumerate(chain.from_iterable(
            row[i + 1:] for i, row in enumerate(self.rows))) if x.nums}

    def __eq__(self, other):
        """The kind fixes the diagonal and the zeros below it, so only the
        strictly upper entries are compared, by canonical form."""
        if not (isinstance(other, type(self)) and other.n == self.n
                and other.ring is self.ring):
            return False
        for i, (ra, rb) in enumerate(zip(self.rows, other.rows)):
            for j in range(i + 1, self.n):
                x, y = ra[j], rb[j]
                if x is not y and (x.den != y.den or x.nums != y.nums):
                    return False
        return True

    def __ne__(self, other):
        return not self.__eq__(other)

    def __repr__(self):
        body = "; ".join("[" + ", ".join(repr(x) for x in row) + "]" for row in self.rows)
        return "%s(%s)" % (type(self).__name__, body)


class NilMatrix(_TriangularMatrix):
    """A strictly upper triangular matrix over a simplex-polynomial ring."""

    __slots__ = ()
    _blank_rows = staticmethod(_zero_rows)

    def _check_diagonal(self):
        for i in range(self.n):
            for j in range(i + 1):
                if not self.rows[i][j].is_zero:
                    raise InputError("entry (%d, %d) below or on the diagonal is nonzero" % (i, j))

    @classmethod
    def zero(cls, ring, n):
        return cls(ring, _zero_rows(ring, n), check=False)

    def __add__(self, other):
        self._require_same(other)
        return NilMatrix(self.ring, _add_rows(self.rows, other.rows), check=False)

    def __sub__(self, other):
        self._require_same(other)
        return NilMatrix(self.ring, _sub_rows(self.rows, other.rows), check=False)

    def __neg__(self):
        # negation keeps each entry's canonical form
        return NilMatrix(self.ring, tuple(tuple(-x for x in row) for row in self.rows),
                         check=False)

    def scale(self, s):
        return NilMatrix(self.ring, _scale_rows(self.rows, s), check=False)

    @staticmethod
    def combination(mats, coefs):
        """sum_k coefs[k] mats[k] for matrices over one ring and
        coefficients that are polynomials over it or rational scalars: one
        sum of products per strictly upper entry."""
        ring, n = mats[0].ring, mats[0].n
        return NilMatrix(ring, _upper_sums(_zero_rows(ring, n), [m.rows for m in mats],
                                           coefs, ring), check=False)

    def bracket(self, other):
        """The commutator [self, other] = self other - other self."""
        self._require_same(other)
        ab = _matmul(self.rows, other.rows, self.ring)
        ba = _matmul(other.rows, self.rows, self.ring)
        return NilMatrix(self.ring, _sub_rows(ab, ba), check=False)

    @property
    def is_zero(self):
        return all(x.is_zero for row in self.rows for x in row)


class UniMatrix(_TriangularMatrix):
    """A unit upper triangular matrix over a simplex-polynomial ring."""

    __slots__ = ()
    _blank_rows = staticmethod(_identity_rows)

    def _check_diagonal(self):
        one = self.ring.one()
        for i in range(self.n):
            if self.rows[i][i] != one:
                raise InputError("diagonal entry (%d, %d) is not 1" % (i, i))
            for j in range(i):
                if not self.rows[i][j].is_zero:
                    raise InputError("entry (%d, %d) below the diagonal is nonzero" % (i, j))

    @classmethod
    def identity(cls, ring, n):
        return cls(ring, _identity_rows(ring, n), check=False)

    def __mul__(self, other):
        self._require_same(other)
        return UniMatrix(self.ring, _matmul(self.rows, other.rows, self.ring, unit=True),
                         check=False)

    def inverse(self):
        """Exact inverse by back substitution: V = U^-1 has V_ij = -(U_ij +
        sum_{i<k<j} U_ik V_kj) for i < j, from the last row up, one negated
        `_entry` each, so -U_ij itself where the sum has no product."""
        ring, u = self.ring, self.rows
        rows = [list(row) for row in _identity_rows(ring, self.n)]
        for i in range(self.n - 2, -1, -1):
            ui, vi = u[i], rows[i]
            for j in range(i + 1, self.n):
                pairs = [(ui[k], rows[k][j]) for k in range(i + 1, j)
                         if ui[k].nums and rows[k][j].nums]
                if ui[j].nums:
                    pairs.append((ui[j], 1))
                if pairs:
                    vi[j] = -_entry(ring, pairs)
        return UniMatrix(ring, tuple(map(tuple, rows)), check=False)

    @property
    def is_identity(self):
        return all(self.rows[i][j].is_zero
                   for i in range(self.n) for j in range(i + 1, self.n))


# ---------------------------------------------------------------------------
# exp, log, BCH
# ---------------------------------------------------------------------------

def exp_nilpotent(n_mat: NilMatrix) -> UniMatrix:
    """exp(N) = sum_{k < n} N^k / k!, exact because N^n = 0."""
    ring, n = n_mat.ring, n_mat.n
    coefs = [Fraction(1, factorial(k)) for k in range(1, n)]
    return UniMatrix(ring, _power_series(_identity_rows(ring, n), n_mat.rows, coefs, ring),
                     check=False)


def log_unipotent(u_mat: UniMatrix) -> NilMatrix:
    """log(U) = sum_{1 <= k < n} (-1)^(k+1) (U - I)^k / k."""
    ring, n = u_mat.ring, u_mat.n
    x = _minus_identity(u_mat.rows, ring)
    coefs = [Fraction((-1) ** (k + 1), k) for k in range(1, n)]
    return NilMatrix(ring, _power_series(_zero_rows(ring, n), x, coefs, ring), check=False)


def bch(a: NilMatrix, b: NilMatrix) -> NilMatrix:
    """The group-law pullback log(exp(a) exp(b)), exact in a nilpotent algebra."""
    if a.ring is not b.ring or a.n != b.n:
        raise RingMismatch("matrices live in different spaces")
    return log_unipotent(exp_nilpotent(a) * exp_nilpotent(b))


def embed_simplex(mat, q):
    """Lift a matrix with t-constant entries onto the q-simplex ring."""
    return mat.map_entries(lambda p: extend_to_simplex(p, q),
                           PolyRing(mat.ring.field, q, mat.ring.params))


def pull_back(mat, alpha):
    """A matrix over the q-simplex pulled back, entry by entry, along the
    simplex map alpha: [p] -> [q]."""
    target = alpha._plan(mat.ring)[1]
    return mat.map_entries(lambda e: substitute_simplex_map(e, alpha), target)


# ---------------------------------------------------------------------------
# exact linear algebra: one incremental echelon store
# ---------------------------------------------------------------------------

def _axpy(acc, c, vec):
    """acc += c vec for sparse {index: value} maps, dropping zero entries."""
    for i, x in vec.items():
        y = acc.get(i)
        y = c * x if y is None else y + c * x
        if y.is_zero:
            acc.pop(i, None)
        else:
            acc[i] = y


class _Echelon:
    """Independent vectors v_0, v_1, ... over a field, in the order they
    were kept, stored as the rows of their reduced echelon form: each row
    is a sparse {index: value} map that is 1 at its own pivot and 0 at the
    other rows' pivots, and `transform[r]` writes row r as a sparse
    combination {k: value} of the kept v_k.  A solve reads a vector's
    entries at the pivots and maps them back through the transform, so
    nothing larger than the rows and an m x m transform is stored."""

    __slots__ = ("field", "rows", "transform")

    def __init__(self, field, rows=(), what="basis"):
        self.field = field
        self.rows = []          # (pivot, sparse row)
        self.transform = []
        for row in rows:
            if not self.add_row(row):
                raise InputError("the %s is linearly dependent" % what)

    def add(self, vec):
        """Keep vec, as the next v_k, if it is independent of the vectors
        kept so far, and return whether it was kept."""
        return self.add_row({i: x for i, x in enumerate(vec) if not x.is_zero})

    def add_row(self, row):
        """`add` for a vector given as a fresh sparse {index: nonzero value}
        map, which the store takes over."""
        comb = {len(self.rows): self.field.one}
        for (piv, old), old_comb in zip(self.rows, self.transform):
            c = row.get(piv)
            if c is not None:
                _axpy(row, -c, old)
                _axpy(comb, -c, old_comb)
        if not row:
            return False
        piv = min(row)
        inv = row[piv].inverse()
        row = {i: x * inv for i, x in row.items()}
        comb = {k: x * inv for k, x in comb.items()}
        for (_, old), old_comb in zip(self.rows, self.transform):
            c = old.get(piv)
            if c is not None:
                _axpy(old, -c, row)
                _axpy(old_comb, -c, comb)
        self.rows.append((piv, row))
        self.transform.append(comb)
        return True

    def solve(self, vec, zero):
        """The coordinates of vec on the kept vectors: a sequence, or a
        fresh sparse {index: nonzero value} map that the solve consumes.
        Entries of vec may be scalars or polynomials; `zero` is the zero of
        their ring.  Raises MembershipError when vec is not a combination of
        the kept vectors."""
        rest = vec if isinstance(vec, dict) else {i: x for i, x in enumerate(vec)
                                                  if not x.is_zero}
        out = [zero] * len(self.rows)
        for (piv, row), comb in zip(self.rows, self.transform):
            c = rest.get(piv)
            if c is not None:
                _axpy(rest, -c, row)
                for k, t in comb.items():
                    out[k] = out[k] + c * t
        if rest:
            raise MembershipError("vector lies outside the span")
        return out


# ---------------------------------------------------------------------------
# structure constants, and the group law in Lie coordinates
# ---------------------------------------------------------------------------

def _free_mul(a, b, c):
    """The product of two elements of the free associative algebra on the
    letters 0 and 1, as {word: Fraction} maps, dropping words longer than c."""
    out = {}
    for u, x in a.items():
        for v, y in b.items():
            if len(u) + len(v) <= c:
                out[u + v] = out.get(u + v, 0) + x * y
    return out


_BCH_TERMS = {}


def _bch_terms(c):
    """The terms of degree 2..c of BCH(X, Y) = log(exp X exp Y), as
    (word, coefficient) pairs in order of increasing length.  A word over
    {0: X, 1: Y} stands for the right-nested bracket [w_1, [w_2, ...,
    [w_{k-1}, w_k]]], and every word ends in (0, 1).

    The series is computed once per c in the free associative algebra
    truncated at degree c; the Dynkin-Specht-Wever lemma then turns its
    degree-k part into Lie words: it is 1/k times the sum over words w of
    coef(w) [w].  A word ending in two equal letters brackets to zero, and
    one ending in (1, 0) is minus the word ending in (0, 1)."""
    terms = _BCH_TERMS.get(c)
    if terms is not None:
        return terms
    w = {(0,) * i + (1,) * j: Fraction(1, factorial(i) * factorial(j))
         for i in range(c + 1) for j in range(c + 1 - i) if i + j}
    log, pw = {}, {(): Fraction(1)}
    for k in range(1, c + 1):
        pw = _free_mul(pw, w, c)
        for word, x in pw.items():
            log[word] = log.get(word, 0) + x * Fraction((-1) ** (k + 1), k)
    lie = {}
    for word, x in log.items():
        if len(word) < 2 or word[-1] == word[-2]:
            continue
        if word[-1] == 0:
            word, x = word[:-2] + (0, 1), -x
        lie[word] = lie.get(word, 0) + x / len(word)
    terms = [(word, x) for word, x in sorted(lie.items(), key=lambda e: (len(e[0]), e[0]))
             if x]
    _BCH_TERMS[c] = terms
    return terms


class LieTable:
    """The structure constants of a Lie algebra on a basis e_0, ...,
    e_{dim-1}: [e_i, e_j] = sum_k struct[(i, j)][k] e_k for i < j, as field
    scalars.  Coordinate vectors may hold scalars or polynomials over any
    ring with the table's field.

    For a nilpotent algebra the table is also its group's law in Lie
    coordinates: an element is the coordinate vector of its log, the
    product is BCH(X, Y) truncated at the nilpotency class c (exact, since
    every bracket of more than c elements vanishes), the inverse is the
    negative, and log and exp are the identity.  `average.wsym` and `wav`
    run on this law as on the matrix product.  A known class may be given."""

    __slots__ = ("field", "dim", "struct", "_pairs", "_class", "_derived_length")

    def __init__(self, field, dim, struct, nilpotency_class=None):
        self.field = field
        self.dim = dim
        self.struct = struct
        # the pairs with a nonzero bracket, each with its nonzero constants
        self._pairs = []
        for pair, consts in sorted(struct.items()):
            nonzero = tuple((k, s) for k, s in enumerate(consts) if not s.is_zero)
            if nonzero:
                self._pairs.append((pair, nonzero))
        self._class = nilpotency_class
        self._derived_length = None

    def bracket(self, u, v, zero):
        """[u, v] for coordinate vectors u and v; `zero` is the zero of
        their entries."""
        out = [zero] * self.dim
        for (i, j), consts in self._pairs:
            ui, uj, vi, vj = u[i], u[j], v[i], v[j]
            if ui.is_zero or vj.is_zero:
                if uj.is_zero or vi.is_zero:
                    continue
                c = -(uj * vi)
            elif uj.is_zero or vi.is_zero:
                c = ui * vj
            else:
                c = ui * vj - uj * vi
            if not c.is_zero:
                for k, s in consts:
                    out[k] = out[k] + c * s
        return tuple(out)

    def _series(self, pairs):
        """Nonzero terms s_0 = g, s_1, ... of a bracket series, each an
        independent list of coordinate vectors; s_{k+1} keeps the brackets of
        pairs(s_0, s_k) that are independent of the ones kept before them."""
        zero, one = self.field.zero, self.field.one
        cur = [tuple(one if k == i else zero for k in range(self.dim))
               for i in range(self.dim)]
        out = []
        while cur:
            out.append(cur)
            ech = _Echelon(self.field)
            cur = [w for w in (self.bracket(a, b, zero) for a, b in pairs(out[0], cur))
                   if ech.add(w)]
        return out

    def lower_central_series(self):
        """g = g_1, g_{k+1} = [g, g_k], down to the last nonzero term."""
        return self._series(lambda unit, cur: ((a, b) for a in unit for b in cur))

    @property
    def nilpotency_class(self):
        if self._class is None:
            self._class = len(self.lower_central_series())
        return self._class

    @property
    def derived_length(self):
        """The number of nonzero terms of g, [g, g], [[g,g],[g,g]], ...;
        [g, g] is spanned by the brackets of pairs i < j."""
        if self._derived_length is None:
            self._derived_length = len(self._series(lambda unit, cur: combinations(cur, 2)))
        return self._derived_length

    def derived_length_exceeds(self, k):
        """Is the derived length greater than k?  It is at least 1 iff the
        algebra is nonzero and at least 2 iff some bracket is, so only
        k >= 2 builds the derived series."""
        if self._derived_length is not None or k >= 2:
            return self.derived_length > k
        return bool(self._pairs) if k else self.dim > 0

    # -- the group law in Lie coordinates ---------------------------------

    def mul(self, x, y):
        """BCH(x, y) truncated at the nilpotency class, for vectors of
        polynomials over one ring: x + y and the rational multiples of the
        brackets summed as one combination."""
        if not self.dim:
            return x
        zero = x[0].ring.zero()
        letters = (x, y)
        nested = {}

        def bracketed(word):
            # the right-nested bracket of a word, one bracket per suffix
            if len(word) == 1:
                return letters[word[0]]
            got = nested.get(word)
            if got is None:
                got = nested[word] = self.bracket(letters[word[0]], bracketed(word[1:]), zero)
            return got

        terms = _bch_terms(self.nilpotency_class)
        return self.combine([x, y] + [bracketed(word) for word, _ in terms],
                            [1, 1] + [coef for _, coef in terms])

    def combine(self, xs, coefs):
        """sum_k coefs[k] xs[k] for vectors xs[k] of polynomials over one
        ring, whose coefficients are polynomials over that ring or rational
        scalars: one sum of products per coordinate."""
        if not self.dim:
            return ()
        ring = xs[0][0].ring
        out = []
        for k in range(self.dim):
            pairs = [(x[k], c) for x, c in zip(xs, coefs) if x[k].nums]
            out.append(sum_of_products(ring, pairs))
        return tuple(out)

    def inverse(self, x):
        return self.neg(x)

    def linear_pass(self, sections, coords, depth):
        """The pass's common value sum_j coords[j] sections[j] when every
        transition log lies in Gamma_depth with 2 depth above the class,
        so that BCH is affine in them (see `average.wsym`), else None."""
        if 2 * depth > self.nilpotency_class:
            return self.combine(sections, coords)
        return None

    def log(self, x):
        return x

    def exp(self, x):
        return x

    @staticmethod
    def add(x, y):
        return tuple(b if a.is_zero else a if b.is_zero else a + b for a, b in zip(x, y))

    @staticmethod
    def neg(x):
        return tuple(-a for a in x)

    @staticmethod
    def scale(x, s):
        return tuple(a if a.is_zero else a * s for a in x)

    @staticmethod
    def embed(x, q):
        """A vector of t-constant entries lifted onto the q-simplex ring."""
        return tuple(extend_to_simplex(a, q) for a in x)


# ---------------------------------------------------------------------------
# spans (subalgebras) of strictly upper matrices
# ---------------------------------------------------------------------------

def _upper_row(mat):
    """The nonzero strictly upper entries of a constant matrix, as a sparse
    {index: field value} map indexed like `strict_upper`; InputError
    when an entry is not constant."""
    return {k: e.constant_value() for k, e in mat.nonzero_upper().items()}


@cache
def _upper_positions(n):
    """The (i, j) position of each index of `strict_upper`, and the index
    of each position."""
    pos = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return pos, {p: k for k, p in enumerate(pos)}


def _upper_bracket(u, v, n):
    """[u, v] = uv - vu for constant n x n strictly upper matrices given as
    sparse {index: field value} maps like `_upper_row`'s, as a fresh map of
    the same kind; only products of nonzero entries are formed."""
    pos, index = _upper_positions(n)
    out = {}
    for x, y, sign in ((u, v, 1), (v, u, -1)):
        for k, a in x.items():
            i, m = pos[k]
            for l, b in y.items():
                if pos[l][0] == m:
                    at = index[(i, pos[l][1])]
                    p = a * b if sign > 0 else -(a * b)
                    cur = out.get(at)
                    out[at] = p if cur is None else cur + p
    return {k: x for k, x in out.items() if not x.is_zero}


def _sum_rows(coefs, rows, ring, n):
    """sum_k c_k r_k as an n x n NilMatrix over ring, for sparse rows r_k
    like `_upper_row`'s and coefficients that are field values or
    polynomials over ring: each product of a nonzero c_k and an entry is
    summed into one accumulator by index, and the rows are built once."""
    acc = {}
    for c, row in zip(coefs, rows):
        if c.is_zero:
            continue
        for k, x in row.items():
            y = c * x
            cur = acc.get(k)
            acc[k] = y if cur is None else cur + y
    pos = _upper_positions(n)[0]
    return NilMatrix.from_entries(ring, n, {pos[k]: v for k, v in acc.items()})


class LieSpan:
    """A Lie subalgebra of strictly upper triangular n x n matrices, given
    by an independent basis of constant matrices over a scalar field.
    Each basis matrix is read once, into a sparse row like `_upper_row`'s
    (`_rows`), which the closure check, quotients and `from_coordinates`
    read; the echelon store takes copies.  Construction verifies
    independence and closure under the bracket; the closure check brackets
    every basis pair of rows and solves it, which gives the
    structure-constant table as well.  The size n and the field are read
    from the basis; an empty basis needs both given, and a given n must
    match the basis."""

    __slots__ = ("field", "ring", "n", "basis", "_rows", "_echelon", "_table")

    def __init__(self, basis, n=None, field=None, check=True):
        basis = tuple(basis)
        if basis:
            first = basis[0]
            field = first.ring.field
            if n is not None and n != first.n:
                raise InputError("span size n = %d, but its basis matrices are %d x %d"
                                 % (n, first.n, first.n))
            n = first.n
        elif n is None or field is None:
            raise InputError("an empty span needs explicit n and field")
        self.field = field
        self.n = n
        self.ring = PolyRing(field, 0)
        fixed, rows = [], []
        for b in basis:
            if not isinstance(b, NilMatrix):
                raise InputError("span basis entries must be NilMatrix values")
            if b.n != n or b.ring.field is not field:
                raise RingMismatch("span basis matrices live in different spaces")
            try:
                row = _upper_row(b)
            except InputError:
                raise InputError("span basis matrices must have constant entries") from None
            rows.append(row)
            fixed.append(b if b.ring is self.ring
                         else _sum_rows((field.one,), (row,), self.ring, n))
        self.basis = tuple(fixed)
        self._rows = tuple(rows)
        self._echelon = _Echelon(field, [dict(row) for row in rows], what="span basis")
        self._table = self._build_table() if check else None

    @property
    def dim(self):
        return len(self.basis)

    @property
    def table(self):
        """The structure constants on this basis (see `_build_table`)."""
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def _build_table(self):
        """Bracket every basis pair in field scalars and solve it: the
        coordinates are the structure constants, and a bracket outside the
        span fails the closure check.  A span of dimension n(n-1)/2 is the
        whole strictly upper algebra, whose class is n - 1."""
        rows = self._rows
        struct = {}
        for i, j in combinations(range(self.dim), 2):
            try:
                struct[(i, j)] = tuple(self.coordinates(_upper_bracket(rows[i], rows[j],
                                                                       self.n)))
            except MembershipError:
                raise InputError("span is not closed under the bracket "
                                 "(basis pair %d, %d)" % (i, j)) from None
        full = self.dim == self.n * (self.n - 1) // 2
        return LieTable(self.field, self.dim, struct, self.n - 1 if full else None)

    def coordinates(self, mat):
        """Coordinates of a matrix (entries may be polynomials over any ring
        with the same scalar field) in the span basis, or of a constant one
        given as a fresh sparse {index: field value} map like `_upper_row`'s,
        which the solve consumes.  Raises MembershipError when the matrix
        lies outside the span."""
        if isinstance(mat, dict):
            return self._echelon.solve(mat, self.field.zero)
        if not isinstance(mat, NilMatrix):
            raise InputError("expected a NilMatrix")
        if mat.n != self.n or mat.ring.field is not self.field:
            raise RingMismatch("matrix does not live in this span's space")
        return self._echelon.solve(mat.nonzero_upper(), mat.ring.zero())

    def require_element(self, u, what="a matrix"):
        """Raise unless the unit upper matrix u lies in the group of this
        span: RingMismatch for the wrong size or field, MembershipError when
        log(u) lies outside the span.  A span of dimension n(n-1)/2 holds
        every strictly upper matrix, and log(u) is strictly upper, so then
        the log is not computed."""
        if u.n != self.n or u.ring.field is not self.field:
            raise RingMismatch("%s does not live in this span's space" % what)
        if self.dim == self.n * (self.n - 1) // 2:
            return
        try:
            self.coordinates(log_unipotent(u))
        except MembershipError:
            raise MembershipError("%s lies outside the group span" % what) from None

    def contains(self, mat):
        try:
            self.coordinates(mat)
            return True
        except MembershipError:
            return False

    def from_coordinates(self, coords, ring=None):
        ring = ring or self.ring
        if len(coords) != self.dim:
            raise InputError("expected %d coordinates, got %d" % (self.dim, len(coords)))
        coefs = [c if isinstance(c, SimplexPoly) else self.field.value(c) for c in coords]
        return _sum_rows(coefs, self._rows, ring, self.n)

    def same_space(self, other):
        """Do the two spans have identical row spaces?"""
        return (self.n == other.n and self.dim == other.dim
                and all(self.contains(b) for b in other.basis))

    def __repr__(self):
        return "LieSpan(n=%d, dim=%d over %r)" % (self.n, self.dim, self.field)


def lower_central_series(span: LieSpan):
    """g = g_1, g_{k+1} = [g, g_k], listed down to and including zero: the
    span's table picks each term's basis, and the matrices are those
    coordinates on the span basis.  Every term is closed under the bracket
    by construction, so none is checked."""
    out = [span]
    if span.dim:
        for level in span.table.lower_central_series()[1:] + [[]]:
            out.append(LieSpan([span.from_coordinates(c) for c in level],
                               n=span.n, field=span.field, check=False))
    return out


def derived_series_length(span: LieSpan) -> int:
    """Length of the shortest normal chain with abelian quotients: the number
    of nonzero terms of the derived series g, [g, g], [[g,g],[g,g]], ...,
    read from the span's structure constants."""
    return span.table.derived_length


def nilpotency_class(span: LieSpan) -> int:
    return span.table.nilpotency_class


def full_unipotent_span(n: int, field: ScalarField) -> LieSpan:
    """The span of all strictly upper n x n matrices: the Lie algebra of the
    full unipotent group of that size."""
    if n < 1:
        raise InputError("matrix size must be at least 1")
    ring = PolyRing(field, 0)
    basis = [NilMatrix.from_entries(ring, n, {(i, j): 1})
             for i in range(n) for j in range(i + 1, n)]
    return LieSpan(basis, n=n, field=field, check=False)


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

class LieHom:
    """A Lie algebra homomorphism between spans, given by basis images.
    Construction verifies the images land in the target span and that
    brackets of basis pairs are preserved, both in coordinates: the image
    of [b_i, b_j] is read from the source table, the bracket of the images
    from the target table.  A hom built with check=False promises that its
    images lie in the target: `apply_hom` solves them once (`image_coords`),
    so a broken promise raises MembershipError.  `identity` and
    `quotient_span` keep it by construction."""

    __slots__ = ("source", "target", "images", "complement", "section", "_image_coords")

    def __init__(self, source, target, images, check=True, complement=None,
                 section=None, image_coords=None):
        if not isinstance(source, LieSpan) or not isinstance(target, LieSpan):
            raise InputError("hom endpoints must be LieSpan values")
        images = tuple(images)
        if len(images) != source.dim:
            raise InputError("expected %d basis images, got %d" % (source.dim, len(images)))
        self.source = source
        self.target = target
        self.images = images
        self.complement = complement
        self.section = section      # chosen preimages of the target basis, if any
        self._image_coords = None if check else image_coords
        if check:
            try:
                coords = self.image_coords
            except MembershipError:
                raise InputError("a basis image lies outside the target span") from None
            if source.field is not target.field:
                raise RingMismatch("matrix field does not match the hom")
            zero = target.field.zero
            for i, j in combinations(range(source.dim), 2):
                lhs = self.map_coordinates(source.table.struct[(i, j)], zero)
                if lhs != target.table.bracket(coords[i], coords[j], zero):
                    raise InputError("images do not preserve the bracket "
                                     "(basis pair %d, %d)" % (i, j))

    @classmethod
    def identity(cls, span):
        return cls(span, span, span.basis, check=False, section=span.basis)

    def __call__(self, mat):
        return apply_hom(self, mat)

    @property
    def image_coords(self):
        """The target coordinates of each basis image, as field scalars;
        solved on first use unless the hom was built with them."""
        if self._image_coords is None:
            self._image_coords = tuple(
                tuple(c.constant_value() for c in self.target.coordinates(img))
                for img in self.images)
        return self._image_coords

    def map_coordinates(self, coords, zero):
        """The target coordinates of the hom's value at the source element
        with these coordinates; `zero` is the zero of their entries."""
        out = [zero] * self.target.dim
        for x, row in zip(coords, self.image_coords):
            if not x.is_zero:
                for k, a in enumerate(row):
                    if not a.is_zero:
                        out[k] = out[k] + x * a
        return tuple(out)

    def __repr__(self):
        return "LieHom(%r -> %r)" % (self.source, self.target)


def apply_hom(hom: LieHom, mat):
    """Apply a hom to an algebra element, or to a group element through
    log and exp, as a map of coordinates (`LieHom.map_coordinates`).
    Polynomial entries are carried along."""
    if isinstance(mat, UniMatrix):
        return exp_nilpotent(apply_hom(hom, log_unipotent(mat)))
    coords = hom.source.coordinates(mat)
    if mat.ring.field is not hom.target.field:
        raise RingMismatch("matrix field does not match the hom")
    return hom.target.from_coordinates(hom.map_coordinates(coords, mat.ring.zero()), mat.ring)


# ---------------------------------------------------------------------------
# quotients, re-embedded as strictly upper matrices
# ---------------------------------------------------------------------------

def _pbw_monomials(weights, cls_bound):
    """All exponent tuples with weighted degree <= cls_bound, sorted by
    decreasing weighted degree (ties lexicographic)."""
    m = len(weights)
    out = []

    def rec(i, partial, deg):
        if i == m:
            out.append(tuple(partial))
            return
        a = 0
        while deg + a * weights[i] <= cls_bound:
            rec(i + 1, partial + [a], deg + a * weights[i])
            a += 1

    rec(0, [], 0)
    out.sort(key=lambda e: (-sum(a * w for a, w in zip(e, weights)), e))
    return out


class _PbwAlgebra:
    """Left multiplication on the enveloping algebra truncated at weighted
    degree > cls_bound.  Straightening moves generators into sorted order
    with e_x e_y = e_y e_x + [e_x, e_y]; since bracket terms never lower
    the weighted degree, the truncation is by a two-sided ideal."""

    __slots__ = ("field", "m", "weights", "cls_bound", "struct", "monomials",
                 "index", "_memo")

    def __init__(self, field, weights, cls_bound, struct):
        self.field = field
        self.m = len(weights)
        self.weights = tuple(weights)
        self.cls_bound = cls_bound
        self.struct = struct
        self.monomials = _pbw_monomials(self.weights, cls_bound)
        self.index = {mono: i for i, mono in enumerate(self.monomials)}
        self._memo = {}

    def _wdeg(self, word):
        return sum(self.weights[g] for g in word)

    def straighten(self, word):
        """Express a word in the generators as a combination of sorted
        monomials, working modulo weighted degree > cls_bound."""
        word = tuple(word)
        known = self._memo.get(word)
        if known is not None:
            return known
        if self._wdeg(word) > self.cls_bound:
            self._memo[word] = {}
            return {}
        for p in range(len(word) - 1):
            x, y = word[p], word[p + 1]
            if x > y:
                out = {}
                swapped = word[:p] + (y, x) + word[p + 2:]
                for mono, c in self.straighten(swapped).items():
                    out[mono] = out.get(mono, self.field.zero) + c
                bracket = self.struct[(y, x)]      # [e_y, e_x]; we need -that
                for k in range(self.m):
                    ck = bracket[k]
                    if not ck.is_zero:
                        sub = word[:p] + (k,) + word[p + 2:]
                        for mono, c in self.straighten(sub).items():
                            out[mono] = out.get(mono, self.field.zero) - ck * c
                out = {mo: c for mo, c in out.items() if not c.is_zero}
                self._memo[word] = out
                return out
        counts = [0] * self.m
        for g in word:
            counts[g] += 1
        out = {tuple(counts): self.field.one}
        self._memo[word] = out
        return out

    def left_mult_matrix(self, gen, ring):
        """Matrix of v -> e_gen v on the sorted monomial basis."""
        dim = len(self.monomials)
        entries = {}
        for col, mono in enumerate(self.monomials):
            word = (gen,)
            for g in range(self.m):
                word = word + (g,) * mono[g]
            for out_mono, c in self.straighten(word).items():
                row = self.index[out_mono]
                entries[(row, col)] = ring.constant(c)
        return NilMatrix.from_entries(ring, dim, entries)


def quotient_span(span: LieSpan, ideal: LieSpan):
    """Quotient of a span by an ideal, re-embedded as strictly upper
    matrices, together with the projection hom.

    Returns (quotient LieSpan, LieHom from span onto it).  The hom also
    records which span basis indices were chosen to complement the ideal
    (`complement`), which pins down compatible projections along towers,
    and each basis image's target coordinates (`image_coords`).  The
    target's table is its structure constants on the adapted basis, so a
    caller can average in the quotient's Lie coordinates.
    """
    field = span.field
    if ideal.n != span.n or ideal.field is not field:
        raise RingMismatch("ideal lives in a different matrix space")
    rows, ideal_rows = span._rows, ideal._rows
    for row in ideal_rows:
        try:
            span.coordinates(dict(row))
        except MembershipError:
            raise InputError("ideal is not contained in the span") from None
    for a in rows:
        for b in ideal_rows:
            try:
                ideal.coordinates(_upper_bracket(a, b, span.n))
            except MembershipError:
                raise InputError("the given subspace is not an ideal") from None

    if ideal.dim == 0:
        hom = LieHom(span, span, span.basis, check=False,
                     complement=tuple(range(span.dim)), section=span.basis)
        return span, hom
    if ideal.dim == span.dim:
        target = LieSpan((), n=1, field=field)
        images = tuple(NilMatrix.zero(span.ring, 1) for _ in span.basis)
        hom = LieHom(span, target, images, check=False, complement=(), section=())
        return target, hom

    # pick span basis vectors completing the ideal to a basis of the span;
    # the store then solves on the ideal basis followed by the complement
    # (the store and its solves take their rows over, so each gets a copy)
    ech = _Echelon(field, [dict(row) for row in ideal_rows], what="ideal basis")
    complement = tuple(idx for idx, row in enumerate(rows) if ech.add_row(dict(row)))
    m = len(complement)

    def h_coords(vec):
        return tuple(ech.solve(vec, field.zero)[ideal.dim:])

    # structure constants of the quotient on the complement classes
    struct = {(i, j): h_coords(_upper_bracket(rows[complement[i]], rows[complement[j]],
                                              span.n))
              for i, j in combinations(range(m), 2)}
    table = LieTable(field, m, struct)

    # weights from a lower-central-series adapted basis of the quotient
    levels = table.lower_central_series()
    cls_bound = len(levels)
    adapted = []            # (vector over the complement classes, weight)
    ech2 = _Echelon(field)
    for k in range(cls_bound, 0, -1):
        adapted += [(v, k) for v in levels[k - 1] if ech2.add(v)]
    weights = [w for _, w in adapted]

    def to_adapted(vec):
        return tuple(ech2.solve(vec, field.zero))

    astruct = {(i, j): to_adapted(table.bracket(adapted[i][0], adapted[j][0], field.zero))
               for i, j in combinations(range(m), 2)}

    algebra = _PbwAlgebra(field, weights, cls_bound, astruct)
    ring = span.ring
    rho = [algebra.left_mult_matrix(g, ring) for g in range(m)]
    # closed under the bracket by construction, so not checked
    target = LieSpan(rho, check=False)
    # rho_i is the adapted basis vector i, so astruct is its table, and its
    # class is the quotient's
    target._table = LieTable(field, m, astruct, cls_bound)

    # project each span basis vector: complement coords, then adapted coords
    image_coords = tuple(to_adapted(h_coords(dict(row))) for row in rows)
    images = tuple(target.from_coordinates(c) for c in image_coords)
    # a preimage of each target basis vector: the same combination of the
    # complement representatives that defines the adapted basis vector
    reps = [rows[i] for i in complement]
    section = tuple(_sum_rows(v, reps, ring, span.n) for v, _ in adapted)
    # a hom by construction (rho is faithful on the quotient), so not checked
    hom = LieHom(span, target, images, check=False, complement=complement,
                 section=section, image_coords=image_coords)
    return target, hom
