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
that term.  So is every polynomial coordinate of a bracket, of a
combination and of a hom's map in Lie coordinates (`LieTable`,
`LieHom.map_coordinates`).

A matrix over a ring with no variables (the points of an orbit, the
transition logs and their brackets) computes in one integer form
instead: one denominator for the whole matrix and field.degree integer
numerators per entry, with the gcd taken out once per result.  Products,
the inverse (there the series sum_k (-X)^k), exp, log, brackets,
combinations with rational or constant coefficients, negation and
equality read and write only that form; a matrix converts its rows in
once, on first use (the JSON reader builds the form of a constant grid
directly), and a result builds its rows only when something reads them
(serialization, `map_entries`, coordinates, `repr`).  A combination of
such matrices with coefficients on the q-simplex, the average's Phi, is
one integer sum per t-monomial of the coefficients, and each entry of
the sum on the simplex is built once from those.

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
derived length and the nilpotency class are read from it, on sparse rows,
and a hom's bracket check compares the two tables.  The table is the group
law in Lie coordinates as well: an element is the coordinate vector of its
log and the product is BCH truncated at the class, so a quotient floor can
be averaged on its table alone.  `free_lie_table` builds the table of a free
nilpotent Lie algebra on its Lyndon basis, and the same triangular solve
writes BCH on that basis; BCH and the average's Phi are both Lie
polynomials on Lyndon words, evaluated by one bracket walk,
`lie_polynomial`.  `quotient_span` works in the span's Lie coordinates:
past the containment solves, its ideal check, complement and quotient
constants come from the span's table on sparse rows (`bracket_rows`, the
map the series use).  It seeds its target's table and class from the
structure constants and series it computes anyway, records each projected
basis vector's coordinates and each chosen preimage's span coordinates,
and checks neither the target's closure nor the projection, which hold by
construction; the target builds its re-embedding only when something reads
it.  A hom is its images' target coordinates and its section's source
coordinates, and sums their matrices when they are read; matrix images are
solved once, when it is built.  `apply_hom` also takes a coordinate
vector, and a hom is checked on its tables' nonzero structure, so a chain
of quotients can be mapped and compared without any matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, combinations, compress
from math import factorial, gcd, lcm

from .errors import InputError, MembershipError, RingMismatch
from .exactring import (FieldAutomorphism, PolyRing, ScalarField, ScalarValue, SimplexPoly,
                        _canonical, _canonical_scalar, extend_to_simplex,
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
    """sum_k x_k y_k for the pairs of one matrix entry or vector coordinate,
    each x_k a polynomial over ring and each y_k a polynomial over ring, a
    rational scalar or a field value: one sum of products, but a lone
    product is one product, and a lone term times the scalar 1 is the term
    itself."""
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


# ---------------------------------------------------------------------------
# the integer form of a constant matrix
# ---------------------------------------------------------------------------
#
# The strictly upper part of an n x n matrix over a ring with no variables,
# as (den, planes): one positive denominator and field.degree lists of
# integers indexed like `strict_upper`, plane p holding the x^p power-basis
# numerator of every entry, so that entry k is the vector (planes[0][k],
# ..., planes[d-1][k]) over den.  gcd(den, every numerator) = 1, so equal
# matrices have equal forms.  A form is never changed once built.

@cache
def _upper_positions(n):
    """The (i, j) position of each index of `strict_upper`, and the index
    of each position."""
    pos = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return pos, {p: k for k, p in enumerate(pos)}


@cache
def _upper_products(n):
    """The terms of a strictly upper product by factor index: for each
    index of a position (i, k) with k < n - 1, the (index of (i, j), index
    of (k, j)) pairs over k < j < n."""
    index = _upper_positions(n)[1]
    return tuple((index[(i, k)], tuple((index[(i, j)], index[(k, j)])
                                       for j in range(k + 1, n)))
                 for i in range(n) for k in range(i + 1, n - 1))


def _int_from_rows(rows, d):
    """The integer form of constant rows.  Over the lcm of the canonical
    entries' denominators the gcd is already 1."""
    entries = [x for i, row in enumerate(rows) for x in row[i + 1:]]
    den = lcm(*[x.den for x in entries if x.nums])
    planes = [[0] * len(entries) for _ in range(d)]
    for k, x in enumerate(entries):
        if x.nums:
            m = den // x.den
            for plane, c in zip(planes, x.nums[0]):
                plane[k] = c * m
    return den, planes


def _int_rows(ring, blank, form):
    """blank with each strictly upper entry read from the integer form, as
    a constant polynomial in canonical form."""
    den, planes = form
    vecs = iter(zip(*planes))
    out = []
    for i, head in enumerate(blank):
        row = list(head)
        for j in range(i + 1, len(blank)):
            vec = next(vecs)
            if any(vec):
                g = gcd(den, *vec)
                row[j] = SimplexPoly(ring, den // g,
                                     {0: tuple([c // g for c in vec]) if g != 1 else vec})
        out.append(tuple(row))
    return tuple(out)


def _int_acc(c, a, b, m, products):
    """c += m a b in place, for strictly upper integer planes and the
    `_upper_products` of their size: only nonzero a_ik and b_kj are
    multiplied."""
    for x, pairs in products:
        u = a[x]
        if u:
            u *= m
            for o, y in pairs:
                v = b[y]
                if v:
                    c[o] += u * v


def _int_reduce(field, conv):
    """xden times the power-basis planes of sum_k conv[k] x^k, for 2d - 1
    convolution planes: `ScalarField._reduce` applied at every index."""
    d, xden = field.degree, field._xden
    out = conv[:d] if xden == 1 else [[xden * v for v in plane] for plane in conv[:d]]
    for high, row in zip(conv[d:], field._ixpow):
        if any(high):
            for i, r in enumerate(row):
                if r:
                    out[i] = [v + r * h for v, h in zip(out[i], high)]
    return out


def _int_sum(field, n, terms):
    """sum_k m_k x_k y_k in integer form, over terms (x, y, den, m): x the
    planes of a form, y another form's planes (a list) or the integer
    numerator vector of a scalar (a tuple), den the pair's denominator and
    m an integer.  As in
    `exactring.sum_of_products`, every pair is scaled to the lcm of the
    pair denominators, so the whole sum is one unreduced convolution per
    entry, reduced modulo m(x) once (with `field._xden` in the
    denominator), and the gcd is taken out once over the whole matrix.  A
    sum whose convolution stops below x^d (over Q, or every y a rational
    scalar) needs no reduction."""
    d = field.degree
    size = n * (n - 1) // 2
    den = lcm(*[t[2] for t in terms])
    width = max([len(x) + len(y) - 1 for x, y, _, _ in terms], default=1)
    conv = [[0] * size for _ in range(2 * d - 1 if width > d else d)]
    products = _upper_products(n)
    for x, y, pden, mult in terms:
        m = den // pden * mult
        xs = [(p, xp) for p, xp in enumerate(x) if any(xp)]
        if type(y) is tuple:
            for q, s in enumerate(y):
                if s:
                    s *= m
                    for p, xp in xs:
                        conv[p + q] = [c + s * v for c, v in zip(conv[p + q], xp)]
        else:
            ys = [(q, yq) for q, yq in enumerate(y) if any(yq)]
            for p, xp in xs:
                for q, yq in ys:
                    _int_acc(conv[p + q], xp, yq, m, products)
    if width > d:
        den *= field._xden
        conv = _int_reduce(field, conv)
    g = gcd(den, *chain.from_iterable(conv))
    if g != 1:
        den //= g
        conv = [[v // g for v in plane] for plane in conv]
    return den, conv


def _int_terms(c):
    """(den, [(monomial key, numerator vector)]) of a rational scalar or a
    polynomial: its nonzero coefficients over one denominator, each vector
    with no zero coordinate after the first, so a rational value is a
    vector of length one."""
    if isinstance(c, SimplexPoly):
        den, items = c.den, c.nums.items()
    else:
        den, items = c.denominator, ((0, (c.numerator,)),) if c else ()
    out = []
    for key, vec in items:
        while len(vec) > 1 and not vec[-1]:
            vec = vec[:-1]
        out.append((key, vec))
    return den, out


def _int_poly_rows(ring, n, sums):
    """The rows of the NilMatrix sum_e t^e M_e over ring, a simplex ring
    with no parameters, for (monomial key e, integer form of M_e) pairs:
    each strictly upper entry is built once, over the lcm of its
    monomials' denominators."""
    columns = [(key, den, list(zip(*planes))) for key, (den, planes) in sums]
    rows = [list(row) for row in _zero_rows(ring, n)]
    for k, (i, j) in enumerate(_upper_positions(n)[0]):
        terms = [(key, den, vecs[k]) for key, den, vecs in columns if any(vecs[k])]
        if terms:
            d = lcm(*[den for _, den, _ in terms])
            rows[i][j] = _canonical(ring, d, {key: vec if den == d else tuple([x * (d // den)
                                                                               for x in vec])
                                              for key, den, vec in terms})
    return tuple(map(tuple, rows))


def _int_series(field, n, x, coefs):
    """sum_k coefs[k - 1] x^k over k = 1 .. len(coefs) in integer form, for
    x in integer form and rational coefs: each power one product from the
    last, starting from x itself, and the highest power's product is a term
    of the one final sum."""
    powers = [x]
    for _ in coefs[2:]:
        p = powers[-1]
        powers.append(_int_sum(field, n, [(p[1], x[1], p[0] * x[0], 1)]))
    terms = [(p[1], (c.numerator,), p[0] * c.denominator, 1) for p, c in zip(powers, coefs)]
    if len(coefs) > 1:
        p, c = powers[-1], coefs[-1]
        terms.append((p[1], x[1], p[0] * x[0] * c.denominator, c.numerator))
    return _int_sum(field, n, terms)


class _TriangularMatrix:
    """An n x n matrix over a simplex-polynomial ring, stored as a tuple of
    row tuples.  A subclass fixes the diagonal: `_blank_rows` builds its
    matrix with no strictly upper entries, and `_check_diagonal` rejects
    checked rows that break its shape.

    Over a ring with no variables (no t, no parameter) the products,
    `UniMatrix.inverse`, exp, log, brackets, combinations and negation
    compute in the integer form instead, and two matrices that both have
    it compare it.  A matrix converts its rows to that form once, on first
    use, and a result in that form builds its rows only when something
    reads them."""

    __slots__ = ("ring", "n", "_rows", "_int")

    def __init__(self, ring, rows, check=True):
        n = len(rows)
        self.ring = ring
        self.n = n
        self._rows = _coerce_rows(ring, n, rows) if check else rows
        self._int = None
        if check:
            self._check_diagonal()

    @classmethod
    def _from_int(cls, ring, n, form):
        self = object.__new__(cls)
        self.ring = ring
        self.n = n
        self._rows = None
        self._int = form
        return self

    @property
    def rows(self):
        rows = self._rows
        if rows is None:
            rows = self._rows = _int_rows(self.ring, self._blank_rows(self.ring, self.n),
                                          self._int)
        return rows

    def _int_form(self):
        """The integer form, for a matrix over a ring with no variables."""
        form = self._int
        if form is None:
            form = self._int = _int_from_rows(self._rows, self.ring.field.degree)
        return form

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
        are taken from ring's blank matrix of this kind, not mapped.  A
        Galois automorphism of a matrix over a ring with no variables, into
        that ring, maps the integer form instead (`apply_form`)."""
        if (type(fn) is FieldAutomorphism and ring is self.ring and not ring.nvars
                and fn.field is ring.field):
            return type(self)._from_int(ring, self.n, fn.apply_form(self._int_form()))
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
        strictly upper entries are compared, by canonical form: the integer
        forms when both matrices have one, else the rows."""
        if not (isinstance(other, type(self)) and other.n == self.n
                and other.ring is self.ring):
            return False
        if self._int is not None and other._int is not None:
            return self._int == other._int
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
        # negation keeps each entry's canonical form, and the integer form's
        if not self.ring.nvars:
            den, planes = self._int_form()
            return NilMatrix._from_int(self.ring, self.n,
                                       (den, [[-x for x in plane] for plane in planes]))
        return NilMatrix(self.ring, tuple(tuple(-x for x in row) for row in self.rows),
                         check=False)

    def scale(self, s):
        return NilMatrix(self.ring, _scale_rows(self.rows, s), check=False)

    @staticmethod
    def combination(mats, coefs):
        """sum_k coefs[k] mats[k] for matrices over one ring and coefficients
        that are rational scalars or polynomials over that ring or, for
        t-constant matrices, over the q-simplex with the same field and
        parameters, where the sum then lies.  Over a ring with no variables
        it is one integer sum per monomial of the coefficients, and a sum on
        the simplex builds each entry once from those; otherwise each
        strictly upper entry is one sum of products, of the matrices lifted
        to the simplex if they are not there."""
        ring, n = mats[0].ring, mats[0].n
        target = next((c.ring for c in coefs if isinstance(c, SimplexPoly)), ring)
        if ring.nvars:
            if target is not ring:
                mats = [embed_simplex(m, target.q) for m in mats]
            return NilMatrix(target, _upper_sums(_zero_rows(target, n), [m.rows for m in mats],
                                                 coefs, target), check=False)
        field, by_key = ring.field, {}
        for m, c in zip(mats, coefs):
            cden, items = _int_terms(c)
            if items:
                den, planes = m._int_form()
                for key, vec in items:
                    by_key.setdefault(key, []).append((planes, vec, den * cden, 1))
        if target is ring:
            return NilMatrix._from_int(ring, n, _int_sum(field, n, by_key.get(0, [])))
        return NilMatrix(target, _int_poly_rows(target, n, [
            (key, _int_sum(field, n, by_key[key])) for key in sorted(by_key)]), check=False)

    def bracket(self, other):
        """The commutator [self, other] = self other - other self."""
        self._require_same(other)
        if not self.ring.nvars:
            (da, a), (db, b) = self._int_form(), other._int_form()
            return NilMatrix._from_int(self.ring, self.n, _int_sum(
                self.ring.field, self.n, [(a, b, da * db, 1), (b, a, da * db, -1)]))
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
        """(I + A)(I + B) = I + A + B + AB, over a ring with no variables as
        one integer sum."""
        self._require_same(other)
        if not self.ring.nvars:
            (da, a), (db, b) = self._int_form(), other._int_form()
            return UniMatrix._from_int(self.ring, self.n, _int_sum(
                self.ring.field, self.n,
                [(a, b, da * db, 1), (a, (1,), da, 1), (b, (1,), db, 1)]))
        return UniMatrix(self.ring, _matmul(self.rows, other.rows, self.ring, unit=True),
                         check=False)

    def inverse(self):
        """Exact inverse by back substitution: V = U^-1 has V_ij = -(U_ij +
        sum_{i<k<j} U_ik V_kj) for i < j, from the last row up, one negated
        `_entry` each, so -U_ij itself where the sum has no product.  Over a
        ring with no variables it is sum_{k < n} (-X)^k for X = U - I, in
        integer form."""
        ring = self.ring
        if not ring.nvars:
            return UniMatrix._from_int(ring, self.n, _int_series(
                ring.field, self.n, self._int_form(), [(-1) ** k for k in range(1, self.n)]))
        u = self.rows
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
    if not ring.nvars:
        return UniMatrix._from_int(ring, n, _int_series(ring.field, n, n_mat._int_form(),
                                                        coefs))
    return UniMatrix(ring, _power_series(_identity_rows(ring, n), n_mat.rows, coefs, ring),
                     check=False)


def log_unipotent(u_mat: UniMatrix) -> NilMatrix:
    """log(U) = sum_{1 <= k < n} (-1)^(k+1) (U - I)^k / k."""
    ring, n = u_mat.ring, u_mat.n
    coefs = [Fraction((-1) ** (k + 1), k) for k in range(1, n)]
    if not ring.nvars:
        # the integer form of U holds U - I
        return NilMatrix._from_int(ring, n, _int_series(ring.field, n, u_mat._int_form(),
                                                        coefs))
    x = _minus_identity(u_mat.rows, ring)
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
    nothing larger than the rows and an m x m transform is stored.

    The axis rule: while every kept v_k is s_k times a unit vector at its
    own pivot, its row is that unit vector and its transform is
    {k: 1/s_k}, and `axes` maps each pivot to (k, 1/s_k).  While `axes`
    covers every row, a solve reads each entry of the vector at its axis
    and scales it, and an entry off the axes lies outside the span; and
    `add_row` keeps a one-entry row at a new position without reading the
    old rows, or rejects it as dependent when its position is already an
    axis.  The first kept row with more than one entry is not an axis, so
    from then on the store eliminates."""

    __slots__ = ("field", "rows", "transform", "axes")

    def __init__(self, field, rows=(), what="basis"):
        self.field = field
        self.rows = []          # (pivot, sparse row)
        self.transform = []
        self.axes = {}          # pivot -> (k, 1/s_k) of the kept v_k on an axis
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
        axes = self.axes
        if len(row) == 1 and len(axes) == len(self.rows):
            (piv, x), = row.items()
            if piv in axes:
                return False
            k, one = len(self.rows), self.field.one
            t = one if x == one else x.inverse()
            if t is not one:
                row = {piv: one}
            self.rows.append((piv, row))
            self.transform.append({k: t})
            axes[piv] = (k, t)
            return True
        comb = {len(self.rows): self.field.one}
        for (piv, old), old_comb in zip(self.rows, self.transform):
            c = row.get(piv)
            if c is not None:
                _axpy(row, -c, old)
                _axpy(comb, -c, old_comb)
        if not row:
            return False
        piv = min(row)
        if row[piv] != self.field.one:
            # x * 1 = x, so a row whose pivot is already 1 is kept as it is
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
        axes = self.axes
        if len(axes) == len(out):
            one = self.field.one
            for i, c in rest.items():
                at = axes.get(i)
                if at is None:
                    raise MembershipError("vector lies outside the span")
                k, t = at
                out[k] = c if t is one else c * t
            return out
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

class LieTable:
    """The structure constants of a Lie algebra on a basis e_0, ...,
    e_{dim-1}: [e_i, e_j] = sum_k struct[(i, j)][k] e_k for i < j, as field
    scalars.  Coordinate vectors may hold field scalars, or polynomials
    over one ring with the table's field.  Over polynomials each
    coordinate of a bracket, and of a combination, is one fused sum of
    products (`exactring.sum_of_products`): the table keeps its constants
    indexed by output, and a rational constant is the multiplier of its
    pair, an irrational one scales the pair's first factor.  The lower
    central and derived series bracket sparse rows.

    For a nilpotent algebra the table is also its group's law in Lie
    coordinates: an element is the coordinate vector of its log, the
    product is BCH(X, Y) truncated at the nilpotency class c (exact, since
    every bracket of more than c elements vanishes), the inverse is the
    negative, and log and exp are the identity.  BCH is a Lie polynomial on
    the Lyndon basis (`_bch_terms`), evaluated by `lie_polynomial` like
    the average's Phi.  `average.wsym` and `wav` run on this law as on the
    matrix product.  A known class may be given."""

    __slots__ = ("field", "dim", "struct", "_pairs", "_outputs", "_ad", "_class",
                 "_derived_length")

    def __init__(self, field, dim, struct, nilpotency_class=None):
        self.field = field
        self.dim = dim
        self.struct = struct
        # the pairs with a nonzero bracket, each with its nonzero constants;
        # the zero brackets of a table usually share one zero row, which is
        # read once
        self._pairs = []
        zero_row = None
        for pair, consts in sorted(struct.items()):
            if consts is zero_row:
                continue
            nonzero = tuple((k, s) for k, s in enumerate(consts) if not s.is_zero)
            if nonzero:
                self._pairs.append((pair, nonzero))
            else:
                zero_row = consts
        self._outputs = None
        self._ad = None
        self._class = nilpotency_class
        self._derived_length = None

    def _by_output(self):
        """For each output k, the (i, j, s, -s) of the pairs i < j whose
        bracket has the constant s != 0 at e_k, built on first use; a
        rational s is an int or a Fraction, an irrational one a field
        value."""
        if self._outputs is None:
            out = [[] for _ in range(self.dim)]
            for (i, j), consts in self._pairs:
                for k, s in consts:
                    if s.is_rational:
                        s = Fraction(s.nums[0], s.den) if s.den != 1 else s.nums[0]
                    out[k].append((i, j, s, -s))
            self._outputs = out
        return self._outputs

    def bracket(self, u, v, zero=None):
        """[u, v] for coordinate vectors u and v; `zero` is the zero of
        their entries, by default that of the polynomials in u, or the
        field's for field scalars.  Over polynomials each coordinate is one
        sum of products over the nonzero pairs (u_i, v_j) and (u_j, v_i);
        field scalars are bracketed as sparse rows (`bracket_rows`)."""
        if not self.dim:
            return ()
        if isinstance(u[0], SimplexPoly):
            return self._poly_bracket(u, v)
        row = self.bracket_rows({i: x for i, x in enumerate(u) if not x.is_zero},
                                {j: y for j, y in enumerate(v) if not y.is_zero})
        if zero is None:
            zero = self.field.zero
        return tuple([row.get(k, zero) for k in range(self.dim)])

    def _poly_bracket(self, u, v):
        ring = u[0].ring
        if ring.field is not self.field:
            raise RingMismatch("value belongs to a different field")
        if any(x.ring is not ring for x in chain(u, v)):
            raise RingMismatch("polynomials over different rings")
        zero = ring.zero()
        out = []
        for terms in self._by_output():
            pairs, mults = [], []
            for i, j, s, t in terms:
                for a, b, m in ((u[i], v[j], s), (u[j], v[i], t)):
                    if a.nums and b.nums:
                        if type(m) is ScalarValue:
                            a, m = a.scale(m), 1    # irrational: scale the first factor
                        pairs.append((a, b))
                        mults.append(m)
            out.append(sum_of_products(ring, pairs, mults) if pairs else zero)
        return tuple(out)

    def bracket_rows(self, a, b):
        """[a, b] for sparse {index: nonzero field value} rows, as a fresh
        row of that kind: only the nonzero entries of a and b are read, each
        pair through the map ad[i][j] of the nonzero constants of [e_i, e_j]
        (either order), built on first use."""
        ad, one = self._ad, self.field.one
        if ad is None:
            ad = self._ad = {}
            for (i, j), consts in self._pairs:
                ad.setdefault(i, {})[j] = dict(consts)
                ad.setdefault(j, {})[i] = {k: -s for k, s in consts}
        acc = {}
        for i, x in a.items():
            row = ad.get(i)
            if row:
                for j, y in b.items():
                    consts = row.get(j)
                    if consts:
                        _axpy(acc, y if x is one else x * y, consts)
        return acc

    def _series(self, what, pairs):
        """Nonzero terms s_0 = g, s_1, ... of the `what` bracket series, each
        an independent list of coordinate vectors; s_{k+1} keeps the
        brackets of pairs(s_0, s_k) that are independent of the ones kept
        before them.  Each term of a series that reaches zero is smaller
        than the one before, so a term past the dim-th raises InputError
        (the algebra is not nilpotent, or not solvable).  The terms are
        bracketed as sparse rows (`bracket_rows`) and returned as dense
        vectors."""
        field = self.field
        cur = [{i: field.one} for i in range(self.dim)]
        out = []
        while cur:
            if len(out) == self.dim:
                raise InputError("the %s series does not reach zero in %d terms"
                                 % (what, self.dim))
            out.append(cur)
            ech = _Echelon(field)
            cur = [w for w in (self.bracket_rows(a, b) for a, b in pairs(out[0], cur))
                   if w and ech.add_row(dict(w))]
        zero = field.zero
        return [[tuple(row.get(k, zero) for k in range(self.dim)) for row in level]
                for level in out]

    def lower_central_series(self):
        """g = g_1, g_{k+1} = [g, g_k], down to the last nonzero term."""
        return self._series("lower central",
                            lambda unit, cur: ((a, b) for a in unit for b in cur))

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
            self._derived_length = len(self._series(
                "derived", lambda unit, cur: combinations(cur, 2)))
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
        polynomials over one ring."""
        return lie_polynomial(self, _bch_terms(self.nilpotency_class), (x, y))

    def combine(self, xs, coefs):
        """sum_k coefs[k] xs[k] for vectors xs[k] over one ring, whose
        coefficients are rational scalars, field values or polynomials over
        that ring or, for t-constant vectors, over the q-simplex, where the
        sum then lies: one sum of products per coordinate.  Polynomials over
        any other ring raise RingMismatch.  A t-constant
        entry with no parameters is the constant factor of its pair, as in
        `NilMatrix.combination`; vectors with parameters are lifted to the
        simplex.  Vectors of field scalars are summed entry by entry."""
        if not self.dim:
            return ()
        if not isinstance(xs[0][0], SimplexPoly):
            zero = self.field.zero
            return tuple(sum([x[k] * c for x, c in zip(xs, coefs) if not x[k].is_zero], zero)
                         for k in range(self.dim))
        ring = xs[0][0].ring
        target = next((c.ring for c in coefs if isinstance(c, SimplexPoly)), ring)
        if ({x.ring for x in chain(*xs)} != {ring}
                or any(isinstance(c, SimplexPoly) and c.ring is not target for c in coefs)):
            raise RingMismatch("polynomials over different rings")
        if target is not ring and not ring.nvars:
            coefs = [c if isinstance(c, SimplexPoly) else target.constant(c) for c in coefs]
            return tuple(sum_of_products(target, [(c, x[k].constant_value())
                                                  for x, c in zip(xs, coefs) if x[k].nums])
                         for k in range(self.dim))
        if target is not ring:
            xs = [self.embed(x, target.q) for x in xs]
            ring = target
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
    def neg(x):
        return tuple(-a for a in x)

    @staticmethod
    def embed(x, q):
        """A vector of t-constant entries lifted onto the q-simplex ring."""
        return tuple(extend_to_simplex(a, q) for a in x)


# ---------------------------------------------------------------------------
# the free nilpotent Lie algebra, on its Lyndon basis
# ---------------------------------------------------------------------------

def lyndon_words(q, c):
    """The Lyndon words of length <= c over the letters 0, ..., q-1, as
    tuples in lexicographic order, one at a time (Duval, Theoret. Comput.
    Sci. 60, 1988): each word is strictly smaller than its proper
    suffixes.  There are none when c < 1 or q < 1."""
    if q < 1 or c < 1:
        return
    w = [-1]
    while w:
        w[-1] += 1
        yield tuple(w)
        m = len(w)
        while len(w) < c:
            w.append(w[-m])
        while w and w[-1] == q - 1:
            w.pop()


@cache
def standard_factorization(word):
    """(u, v) with word = uv and v the least proper suffix of the Lyndon
    word, so that the standard bracketing is P_word = [P_u, P_v]."""
    i = min(range(1, len(word)), key=lambda i: word[i:])
    return word[:i], word[i:]


def _free_mul(a, b, c):
    """The product of two elements of the free associative algebra on the
    letters 0, 1, ..., as {word: rational} maps, dropping words longer
    than c."""
    out = {}
    for u, x in a.items():
        for v, y in b.items():
            if len(u) + len(v) <= c:
                out[u + v] = out.get(u + v, 0) + x * y
    return out


def _free_bracket(a, b, c):
    """ab - ba in the free associative algebra truncated above length c,
    with no zero coefficient."""
    out = _free_mul(a, b, c)
    for word, x in _free_mul(b, a, c).items():
        out[word] = out.get(word, 0) - x
    return {word: x for word, x in out.items() if x}


@cache
def _free_lyndon(q, c):
    """The standard bracketings P_w of the Lyndon words w of length <= c
    over q letters, as a {w: P_w} map in basis order: by length and then
    lexicographically, so the letters come first (Chen-Fox-Lyndon, Ann.
    Math. 68, 1958; Reutenauer, *Free Lie Algebras*, 1993, ch. 5).  P_w is
    formed in the free associative algebra, where it is w plus larger
    words of its length."""
    polys = {}
    for w in sorted(lyndon_words(q, c), key=lambda w: (len(w), w)):
        polys[w] = {w: 1} if len(w) == 1 else _free_bracket(
            *(polys[u] for u in standard_factorization(w)), c)
    return polys


def _lyndon_coordinates(element, polys):
    """The coordinates of a Lie element of the free associative algebra, a
    {word: nonzero rational} map that the solve consumes, on the P_w of
    `_free_lyndon`, as a {w: coefficient} map with no zero: triangularly,
    since the least word of what is left is Lyndon and its coefficient is
    that word's coordinate."""
    out = {}
    while element:
        least = min(element)
        x = out[least] = element[least]
        for word, y in polys[least].items():
            y = element.get(word, 0) - x * y
            if y:
                element[word] = y
            else:
                del element[word]
    return out


def free_lie_table(q, c, field):
    """The free nilpotent Lie algebra of class c on q >= 2 generators: its
    basis, the Lyndon words of `_free_lyndon` (word (j,) being generator
    j), and its `LieTable` on their standard bracketings, each bracket
    [P_u, P_v] formed in the free associative algebra and solved by
    `_lyndon_coordinates`.  The constants are integers; every zero of the
    table is the field's one zero, and every zero bracket shares one zero
    row."""
    polys = _free_lyndon(q, c)
    words = list(polys)
    zeros = (field.zero,) * len(words)
    struct = {}
    for i, j in combinations(range(len(words)), 2):
        coords = _lyndon_coordinates(_free_bracket(polys[words[i]], polys[words[j]], c), polys)
        struct[(i, j)] = tuple(field.value(coords[w]) if w in coords else field.zero
                               for w in words) if coords else zeros
    return words, LieTable(field, len(words), struct, c)


@cache
def _bch_terms(c):
    """BCH(X, Y) = log(exp X exp Y) through degree c, as (Lyndon word,
    coefficient) pairs with a nonzero coefficient, in the basis order of
    `_free_lyndon(2, c)`, letter 0 standing for X and 1 for Y: the series
    is summed in the free associative algebra truncated at degree c, and
    solved on the Lyndon basis by `_lyndon_coordinates` (Casas-Murua, J.
    Math. Phys. 50, 2009)."""
    w = {(0,) * i + (1,) * j: Fraction(1, factorial(i) * factorial(j))
         for i in range(c + 1) for j in range(c + 1 - i) if i + j}
    log, pw = {}, {(): Fraction(1)}
    for k in range(1, c + 1):
        pw = _free_mul(pw, w, c)
        for word, x in pw.items():
            log[word] = log.get(word, 0) + x * Fraction((-1) ** (k + 1), k)
    polys = _free_lyndon(2, c)
    coords = _lyndon_coordinates({word: x for word, x in log.items() if x}, polys)
    return tuple((word, coords[word]) for word in polys if word in coords)


def _same(x):
    return x


def lie_polynomial(law, terms, letters, coefficient=_same):
    """sum_w coefficient(c_w) P_w for a Lie polynomial's (Lyndon word w,
    coefficient c_w) terms, P_w being w's standard bracketing with letter j
    standing for letters[j]: one `law.bracket` per Lyndon word reached
    through `standard_factorization`, and one `law.combine`.
    `LieTable.mul` evaluates BCH this way, `average.wav` evaluates Phi on
    its constant logs with coefficients on the q-simplex, which the
    combination lifts, and `wav_at_weights` with Phi's coefficients
    evaluated at the weights."""
    brackets = {(j,): x for j, x in enumerate(letters)}

    def bracketed(word):
        got = brackets.get(word)
        if got is None:
            u, v = standard_factorization(word)
            got = brackets[word] = law.bracket(bracketed(u), bracketed(v))
        return got

    return law.combine([bracketed(w) for w, _ in terms], [coefficient(x) for _, x in terms])


# ---------------------------------------------------------------------------
# spans (subalgebras) of strictly upper matrices
# ---------------------------------------------------------------------------

def _upper_row(mat):
    """The nonzero strictly upper entries of a constant matrix, as a sparse
    {index: field value} map indexed like `strict_upper`, read from the
    integer form when the matrix has one (only the nonzero positions of
    the first plane when the higher planes are zero); InputError when an
    entry is not constant."""
    if mat._int is not None:
        den, planes = mat._int
        field = mat.ring.field
        first, higher = planes[0], planes[1:]
        if any(map(any, higher)):
            return {k: _canonical_scalar(field, den, vec)
                    for k, vec in enumerate(zip(*planes)) if any(vec)}
        tail = (0,) * len(higher)
        return {k: _canonical_scalar(field, den, (first[k],) + tail)
                for k in compress(range(len(first)), first)}
    return {k: e.constant_value() for k, e in mat.nonzero_upper().items()}


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
    structure-constant table as well.  A basis of dimension n(n-1)/2 spans
    the whole strictly upper algebra, which is closed, so it is not
    checked, and its table is built on first use.  The size n and the field
    are read from the basis; an empty basis needs both given, and a given n
    must match the basis."""

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
        full = self.dim == n * (n - 1) // 2
        self._table = self._build_table() if check and not full else None

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
        span fails the closure check.  A zero bracket is not solved; its
        row is one shared zero row.  A span of dimension n(n-1)/2 is the
        whole strictly upper algebra, whose class is n - 1."""
        rows = self._rows
        zero_row = (self.field.zero,) * self.dim
        struct = {}
        for i, j in combinations(range(self.dim), 2):
            bracket = _upper_bracket(rows[i], rows[j], self.n)
            try:
                struct[(i, j)] = tuple(self.coordinates(bracket)) if bracket else zero_row
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
        lies outside the span.  By the echelon store's axis rule, a basis
        of multiples of the E_ij (a full U_n on the E_ij, a term of its
        lower central series) solves by reading each entry at its position
        and scaling it; any other basis solves by elimination."""
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
    full unipotent group of that size.  Its basis is the E_ij in row order,
    each built in the integer form, (1, a unit vector in the first plane);
    the higher planes of every E_ij are one shared zero list."""
    if n < 1:
        raise InputError("matrix size must be at least 1")
    ring = PolyRing(field, 0)
    size = n * (n - 1) // 2
    zeros = [[0] * size] * (field.degree - 1)
    basis = [NilMatrix._from_int(ring, n, (1, [[0] * k + [1] + [0] * (size - k - 1)] + zeros))
             for k in range(size)]
    return LieSpan(basis, n=n, field=field, check=False)


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

class LieHom:
    """A Lie algebra homomorphism between spans, held as the target
    coordinates of its basis images (`image_coords`, field scalars) and,
    when it has one, as source coordinates of chosen preimages of the
    target basis (`section_coords`, field scalars).  Images given as
    matrices (`images=`) are solved once, at construction, so one outside
    the target raises InputError, checked or not; the matrices `images`
    and `section` are summed from the coordinates on each read.
    Construction checks that the spans share a field and that brackets of
    basis pairs are preserved, in coordinates and on the nonzero structure
    only: the image of [b_i, b_j] is summed from the source table's nonzero
    constants, the bracket of the images from the target table's
    (`LieTable.bracket_rows`) on their nonzero entries, and a pair with
    neither is zero on both sides.  The first pair (i, j) that differs, in
    order, is reported.  A hom built with check=False is taken as given;
    `identity` and `quotient_span` are homs by construction."""

    __slots__ = ("source", "target", "image_coords", "complement", "section_coords",
                 "_columns")

    def __init__(self, source, target, images=None, check=True, complement=None,
                 image_coords=None, section_coords=None):
        if not isinstance(source, LieSpan) or not isinstance(target, LieSpan):
            raise InputError("hom endpoints must be LieSpan values")
        if images is not None:
            images = tuple(images)
        elif image_coords is None:
            raise InputError("a hom needs its basis images or their coordinates")
        given = images if images is not None else image_coords
        if len(given) != source.dim:
            raise InputError("expected %d basis images, got %d" % (source.dim, len(given)))
        field = target.field
        if check and source.field is not field:
            raise RingMismatch("matrix field does not match the hom")
        if images is not None:
            try:
                image_coords = tuple(tuple([c.constant_value() for c in target.coordinates(img)])
                                     for img in images)
            except MembershipError:
                raise InputError("a basis image lies outside the target span") from None
        elif check:
            for row in image_coords:
                if len(row) != target.dim:
                    raise InputError("expected %d coordinates, got %d" % (target.dim, len(row)))
            image_coords = tuple(tuple([field.value(c) for c in row]) for row in image_coords)
        self.source = source
        self.target = target
        self.image_coords = image_coords
        self.complement = complement
        self.section_coords = section_coords
        self._columns = None        # image coordinates by target index
        if check:
            rows = [{k: a for k, a in enumerate(row) if not a.is_zero} for row in image_coords]
            lhs = {}
            for pair, consts in source.table._pairs:
                acc = lhs[pair] = {}
                for k, s in consts:
                    _axpy(acc, s, rows[k])
            rhs = {}
            for i, j in combinations(range(source.dim), 2):
                if rows[i] and rows[j]:
                    rhs[(i, j)] = target.table.bracket_rows(rows[i], rows[j])
            for pair in sorted(lhs.keys() | rhs.keys()):
                if lhs.get(pair, {}) != rhs.get(pair, {}):
                    raise InputError("images do not preserve the bracket "
                                     "(basis pair %d, %d)" % pair)

    @classmethod
    def identity(cls, span):
        """The identity of a span: the projection onto its quotient by the
        zero ideal, with every basis index in the complement."""
        zero, one = span.field.zero, span.field.one
        units = tuple(tuple([one if k == i else zero for k in range(span.dim)])
                      for i in range(span.dim))
        return cls(span, span, check=False, complement=tuple(range(span.dim)),
                   image_coords=units, section_coords=units)

    def __call__(self, mat):
        return apply_hom(self, mat)

    @property
    def images(self):
        """The basis images as matrices over the target's ring."""
        return tuple([self.target.from_coordinates(c) for c in self.image_coords])

    @property
    def section(self):
        """The chosen preimages as matrices over the source's ring, or None."""
        if self.section_coords is None:
            return None
        return tuple([self.source.from_coordinates(c) for c in self.section_coords])

    def map_coordinates(self, coords, zero):
        """The target coordinates of the hom's value at the source element
        with these coordinates; `zero` is the zero of their entries.  Target
        coordinate k sums the products of coords[i] with the nonzero
        image_coords[i][k], read by column (`_columns`, built on first use);
        over polynomials it is one sum of products."""
        if len(coords) != self.source.dim:
            raise InputError("expected %d coordinates, got %d" % (self.source.dim, len(coords)))
        if self._columns is None:
            self._columns = [[(i, row[k]) for i, row in enumerate(self.image_coords)
                              if not row[k].is_zero] for k in range(self.target.dim)]
        if isinstance(zero, SimplexPoly):
            ring = zero.ring
            if ring.field is not self.target.field:
                raise RingMismatch("value belongs to a different field")
            out = []
            for column in self._columns:
                pairs = [(coords[i], a) for i, a in column if coords[i].nums]
                out.append(_entry(ring, pairs) if pairs else zero)
            return tuple(out)
        return tuple([sum([coords[i] * a for i, a in column if not coords[i].is_zero], zero)
                      for column in self._columns])

    def __repr__(self):
        return "LieHom(%r -> %r)" % (self.source, self.target)


def apply_hom(hom: LieHom, mat):
    """Apply a hom to an algebra element, or to a group element through
    log and exp, as a map of coordinates (`LieHom.map_coordinates`).
    Polynomial entries are carried along.  The element may also be given
    as its coordinate vector on the source basis, of field scalars or of
    polynomials over one ring, which stands for an algebra and a group
    element alike (log and exp are the identity in Lie coordinates); the
    value is then its target coordinate vector."""
    if isinstance(mat, (tuple, list)):
        if mat and isinstance(mat[0], SimplexPoly):
            ring = mat[0].ring
            coords = [c if isinstance(c, SimplexPoly) else ring.constant(c) for c in mat]
            if any(c.ring is not ring for c in coords):
                raise RingMismatch("polynomials over different rings")
            return hom.map_coordinates(coords, ring.zero())
        field = hom.target.field
        return hom.map_coordinates([field.value(c) for c in mat], field.zero)
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


class _QuotientSpan(LieSpan):
    """A quotient's target span: its field, its size n (the PBW monomial
    count) and its structure-constant table are known at once, and its
    re-embedding, the left multiplication matrices of the generators with
    their rows and echelon store, is built when one of them is first read.
    Every generator's matrix is the adapted basis vector's, so the table is
    that of the built basis."""

    __slots__ = ("_algebra",)

    def __init__(self, algebra, ring, table):
        self.field = table.field
        self.ring = ring
        self.n = len(algebra.monomials)
        self._table = table
        self._algebra = algebra

    @property
    def dim(self):
        return self._table.dim

    def __getattr__(self, name):
        # reached only while a slot is unset
        if name not in ("basis", "_rows", "_echelon"):
            raise AttributeError(name)
        mats = [self._algebra.left_mult_matrix(g, self.ring) for g in range(self.dim)]
        for mat in mats:
            # the rows are then read from the integer form, so the first
            # read, often inside `apply_hom`, converts no constant polynomial
            mat._int_form()
        # closed under the bracket by construction, so not checked
        built = LieSpan(mats, check=False)
        self.basis, self._rows, self._echelon = built.basis, built._rows, built._echelon
        return getattr(self, name)


def quotient_span(span: LieSpan, ideal: LieSpan):
    """Quotient of a span by an ideal, re-embedded as strictly upper
    matrices, together with the projection hom.

    Returns (quotient LieSpan, LieHom from span onto it).  The hom also
    records which span basis indices were chosen to complement the ideal
    (`complement`), which pins down compatible projections along towers,
    each basis image's target coordinates (`image_coords`) and a chosen
    preimage of each target basis vector as span coordinates
    (`section_coords`).  The target's table is its structure constants on
    the adapted basis, so a caller can average in the quotient's Lie
    coordinates.  The target's basis matrices are built only when first
    read, and the hom's images and section matrices on each read.

    Past the containment solves, all is done in the span's Lie coordinates:
    each bracket of a span basis vector with an ideal vector, on the
    table's nonzero constants (`LieTable.bracket_rows`), is solved in one
    echelon store of the ideal vectors; the complement is the unit vectors
    that store then keeps; the quotient's constants are the solves of the
    table's nonzero constants.
    """
    field = span.field
    if ideal.n != span.n or ideal.field is not field:
        raise RingMismatch("ideal lives in a different matrix space")
    zero, one = field.zero, field.one
    gens = []               # the ideal basis as sparse span coordinates
    for row in ideal._rows:
        try:
            coords = span.coordinates(dict(row))
        except MembershipError:
            raise InputError("ideal is not contained in the span") from None
        gens.append({k: c for k, c in enumerate(coords) if not c.is_zero})

    if ideal.dim == 0:
        return span, LieHom.identity(span)
    if ideal.dim == span.dim:
        # the ideal is the span itself, so every bracket lies in it
        target = LieSpan((), n=1, field=field)
        hom = LieHom(span, target, check=False, complement=(),
                     image_coords=((),) * span.dim, section_coords=())
        return target, hom

    span_table = span.table
    # the store takes its rows over, so it gets copies
    ech = _Echelon(field, [dict(g) for g in gens], what="ideal basis")
    for a in range(span.dim):
        for g in gens:
            bracket = span_table.bracket_rows({a: one}, g)
            if bracket:
                try:
                    ech.solve(bracket, zero)
                except MembershipError:
                    raise InputError("the given subspace is not an ideal") from None

    # the unit vectors completing the ideal to a basis of the span; the
    # store then solves on the ideal basis followed by the complement
    complement = tuple(idx for idx in range(span.dim) if ech.add_row({idx: one}))
    m = len(complement)

    def h_coords(vec):
        return tuple(ech.solve(vec, zero)[ideal.dim:])

    # structure constants of the quotient on the complement classes
    nonzero = dict(span_table._pairs)
    zero_row = (zero,) * m
    struct = {}
    for i, j in combinations(range(m), 2):
        consts = nonzero.get((complement[i], complement[j]))
        struct[(i, j)] = h_coords(dict(consts)) if consts else zero_row
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
        return tuple(ech2.solve(vec, zero))

    astruct = {(i, j): to_adapted(table.bracket(adapted[i][0], adapted[j][0], zero))
               for i, j in combinations(range(m), 2)}

    # the class of the adapted table is the quotient's
    target = _QuotientSpan(_PbwAlgebra(field, weights, cls_bound, astruct), span.ring,
                           LieTable(field, m, astruct, cls_bound))

    # project each span basis vector: complement coords, then adapted coords
    image_coords = tuple(to_adapted(h_coords({idx: one})) for idx in range(span.dim))
    # a preimage of each target basis vector: the same combination of the
    # complement representatives that defines the adapted basis vector
    section_coords = []
    for v, _ in adapted:
        coords = [zero] * span.dim
        for idx, x in zip(complement, v):
            coords[idx] = x
        section_coords.append(tuple(coords))
    # a hom by construction (the re-embedding is faithful on the quotient),
    # so not checked
    hom = LieHom(span, target, check=False, complement=complement,
                 section_coords=tuple(section_coords), image_coords=image_coords)
    return target, hom
