"""Exact coefficient arithmetic for simplex polynomials.

Scalars are rationals or elements of a simple extension Q[x]/(m(x)),
stored as Fraction coordinate vectors in the power basis.  Polynomials
live on the geometric q-simplex t_0 + ... + t_q = 1 (optionally crossed
with an affine parameter space) and are kept in a canonical normal form
that eliminates the last coordinate t_q, so two polynomials agree as
functions iff their normal forms are identical.

A polynomial stores its coefficients as integer numerators over one
shared positive denominator (the layout of FLINT's fmpq_poly): each
exponent maps to a vector of field.degree integers, the power-basis
coordinates, no vector is all zero, and the gcd of the denominator and
every numerator is 1.  Products convolve the numerators in integers and
reduce modulo m(x) once per output term, through the power table cleared
to integers over one denominator.  Every operation is a pure function on
immutable values; all arithmetic is exact.

A sum of products sum_k x_k y_k, the entry of a matrix product or of a
power series, is one fused accumulation (`sum_of_products`, which is also
the product of two polynomials): each pair is scaled to the lcm of the
pair denominators, the integer numerators of every product are summed in
one dict (over a number field as unreduced convolutions, each reduced
modulo m(x) once), and the sum is put into canonical form once, so no
partial sum is built or divided by a gcd.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain
from operator import add, mul

from .errors import InputError, RingMismatch


def _fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise InputError("expected an integer or Fraction, got %r" % type(x).__name__)


# ---------------------------------------------------------------------------
# dense univariate helpers (coefficient lists, low degree) for the minimal
# polynomial: used only to reduce, invert and root-check extension elements
# ---------------------------------------------------------------------------

def _trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _upoly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _upoly_divmod(a, b):
    a = list(a)
    lead = b[-1]
    out = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / lead
        if c:
            out[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return _trim(out), _trim(a)


def _upoly_sub(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else Fraction(0))
           - (b[i] if i < len(b) else Fraction(0)) for i in range(n)]
    return _trim(out)


def _upoly_inverse_mod(a, m, var):
    """Inverse of a modulo m in Q[x].  A common factor of positive degree
    proves m reducible, which is bad input rather than a division error."""
    # extended Euclid on coefficient lists
    r0, r1 = list(m), _trim(list(a))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _upoly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _upoly_sub(s0, _upoly_mul(q, s1))
    if len(r0) != 1:
        factor = [c / r0[-1] for c in r0]
        raise InputError("defining polynomial %s is reducible: it has the factor %s"
                         % (_upoly_str(m, var), _upoly_str(factor, var)))
    inv_lead = 1 / r0[0]
    return [c * inv_lead for c in s0]


def _has_integer_root_cubic(b2, b1, b0):
    """Does y^3 + b2 y^2 + b1 y + b0 (integer coefficients) have an integer
    root?  Every root lies inside the Cauchy bound; the stationary points
    (-b2 -+ sqrt(b2^2 - 3 b1)) / 3 split that range into strictly monotone
    runs of integers, each searched by exact bisection."""
    bound = 1 + max(abs(b2), abs(b1), abs(b0))

    def f(y):
        return ((y + b2) * y + b1) * y + b0

    def root_in(lo, hi, sign):
        lo, hi = max(lo, -bound), min(hi, bound)
        if lo > hi:
            return False
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * f(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        return f(lo) == 0

    disc = b2 * b2 - 3 * b1
    if disc < 0:
        return root_in(-bound, bound, 1)
    r = math.isqrt(disc)
    # the floors of the stationary points are k1 or k1 + 1, and k2 or k2 + 1
    k1 = (-b2 - r - 1) // 3
    k2 = (-b2 + r) // 3
    return (root_in(-bound, k1, 1) or f(k1 + 1) == 0
            or root_in(k1 + 2, k2, -1) or f(k2 + 1) == 0
            or root_in(k2 + 2, bound, 1))


# ---------------------------------------------------------------------------
# scalar fields and their elements
# ---------------------------------------------------------------------------

class ScalarField:
    """The coefficient field: Q itself, or a simple extension Q[x]/(m(x)).

    ``minpoly`` is the monic defining polynomial as a coefficient tuple
    (constant term first).  For degrees 2 and 3 a rational-root test
    certifies irreducibility; higher degrees are accepted as declared, and
    a zero divisor met while inverting is reported as a proof of
    reducibility.
    """

    __slots__ = ("var", "minpoly", "degree", "_xpow", "_ixpow", "_xden", "_hash", "zero", "one")

    def __init__(self, var=None, minpoly=None):
        if var is None and minpoly is None:
            self.var = None
            self.minpoly = None
            self.degree = 1
            self._xpow = None
            self._ixpow = ()
            self._xden = 1
        else:
            if not isinstance(var, str) or not var:
                raise InputError("extension variable must be a nonempty string")
            coeffs = tuple(_fraction(c) for c in minpoly)
            if len(coeffs) < 3:
                raise InputError("extension degree must be at least 2")
            if coeffs[-1] != 1:
                raise InputError("defining polynomial must be monic")
            self.var = var
            self.minpoly = coeffs
            self.degree = len(coeffs) - 1
            if self.degree <= 3 and self._has_rational_root():
                raise InputError("defining polynomial of degree <= 3 has a rational root")
            self._xpow = self._power_table()
            # the rows x^d .. x^(2d-2) cleared to integers over one denominator
            table = self._xpow[self.degree:]
            self._xden = math.lcm(*(c.denominator for row in table for c in row))
            self._ixpow = tuple(tuple(c.numerator * (self._xden // c.denominator) for c in row)
                                for row in table)
        self._hash = hash((self.var, self.minpoly))
        # values are immutable, so every use shares one zero and one one
        self.zero = self.value(0)
        self.one = self.value(1)

    @classmethod
    def rationals(cls):
        return _RATIONALS

    @classmethod
    def extension(cls, var, minpoly):
        return cls(var, minpoly)

    @property
    def is_rationals(self):
        return self.minpoly is None

    def _has_rational_root(self):
        # clear denominators: a_0 + a_1 x + ... + a_d x^d with integer a_i
        den = math.lcm(*(c.denominator for c in self.minpoly))
        ints = [int(c * den) for c in self.minpoly]
        if ints[0] == 0:
            return True
        if self.degree == 2:
            a0, a1, a2 = ints
            disc = a1 * a1 - 4 * a2 * a0
            return disc >= 0 and math.isqrt(disc) ** 2 == disc
        # x = y / a_3 turns a_3^2 f(x) into a monic integer cubic in y, whose
        # rational roots are integers
        a0, a1, a2, a3 = ints
        return _has_integer_root_cubic(a2, a1 * a3, a0 * a3 * a3)

    def _power_table(self):
        """Coordinates of x^k for k = 0 .. 2d-2, each reduced mod m(x)."""
        d = self.degree
        table = []
        for k in range(d):
            row = [Fraction(0)] * d
            row[k] = Fraction(1)
            table.append(tuple(row))
        for k in range(d, 2 * d - 1):
            prev = table[k - 1]
            shifted = [Fraction(0)] + list(prev[: d - 1])
            top = prev[d - 1]
            if top:
                for i in range(d):
                    shifted[i] -= top * self.minpoly[i]
            table.append(tuple(shifted))
        return table

    def _reduce(self, conv):
        """xden times the power-basis vector of sum_k conv[k] x^k, for an
        integer convolution of length 2d - 1."""
        d = self.degree
        xden = self._xden
        out = conv[:d] if xden == 1 else [c * xden for c in conv[:d]]
        for k, row in enumerate(self._ixpow):
            ck = conv[d + k]
            if ck:
                for i, r in enumerate(row):
                    if r:
                        out[i] += ck * r
        return tuple(out)

    def _imul(self, a, b):
        """xden times the product of two integer power-basis vectors."""
        if self.degree == 1:
            return (a[0] * b[0],)
        conv = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        return self._reduce(conv)

    # -- element constructors ------------------------------------------------

    def value(self, x) -> "ScalarValue":
        if isinstance(x, ScalarValue):
            if x.field != self:
                raise RingMismatch("value belongs to a different field")
            return x
        if isinstance(x, (int, Fraction)):
            coords = (Fraction(x),) + (Fraction(0),) * (self.degree - 1)
            return ScalarValue(self, coords)
        if isinstance(x, (list, tuple)):
            if len(x) != self.degree:
                raise InputError("expected %d coordinates, got %d" % (self.degree, len(x)))
            return ScalarValue(self, tuple(_fraction(c) for c in x))
        raise InputError("cannot build a field element from %r" % type(x).__name__)

    @property
    def gen(self):
        """The class of x, for extensions."""
        if self.is_rationals:
            raise InputError("the rational field has no extension generator")
        coords = [Fraction(0)] * self.degree
        coords[1] = Fraction(1)
        return ScalarValue(self, tuple(coords))

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, ScalarField)
                and self.var == other.var and self.minpoly == other.minpoly)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.is_rationals:
            return "ScalarField(Q)"
        return "ScalarField(Q[%s]/(%s))" % (self.var, _upoly_str(self.minpoly, self.var))


def _upoly_str(coeffs, var):
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append("%s*%s" % (c, var) if c != 1 else var)
        else:
            parts.append("%s*%s^%d" % (c, var, k) if c != 1 else "%s^%d" % (var, k))
    return " + ".join(parts) if parts else "0"


class ScalarValue:
    """An element of a ScalarField: d rational coordinates in the power basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    def _coerce(self, other):
        if isinstance(other, ScalarValue):
            if other.field is not self.field and other.field != self.field:
                raise RingMismatch("field mismatch in scalar arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.value(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ScalarValue(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ScalarValue(self.field, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        return ScalarValue(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        a, b = self.coords, o.coords
        if f.degree == 1:
            return ScalarValue(f, (a[0] * b[0],))
        d = f.degree
        conv = [Fraction(0)] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:d]
        xpow = f._xpow
        for k in range(d, 2 * d - 1):
            ck = conv[k]
            if ck:
                row = xpow[k]
                for i in range(d):
                    if row[i]:
                        out[i] += ck * row[i]
        return ScalarValue(f, tuple(out))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("division by zero field element")
        f = self.field
        if f.degree == 1:
            return ScalarValue(f, (1 / self.coords[0],))
        inv = _upoly_inverse_mod(list(self.coords), list(f.minpoly), f.var)
        inv = inv + [Fraction(0)] * (f.degree - len(inv))
        return ScalarValue(f, tuple(inv[: f.degree]))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            raise InputError("scalar powers must be integers")
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        out = self.field.one
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    @property
    def is_zero(self):
        return not any(self.coords)

    @property
    def is_rational(self):
        return not any(self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise InputError("value has nonzero coordinates outside Q")
        return self.coords[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.value(other)
        if not isinstance(other, ScalarValue):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((self.field, self.coords))

    def __repr__(self):
        if self.field.degree == 1:
            return str(self.coords[0])
        return _upoly_str(self.coords, self.field.var)


_RATIONALS = ScalarField()
QQ = _RATIONALS


# ---------------------------------------------------------------------------
# order-preserving maps between the ordered sets [p] = {0, ..., p}
# ---------------------------------------------------------------------------

class SimplexMap:
    """An order-preserving map [p] -> [q], the morphisms of the simplex
    category.  Cofaces skip one value, codegeneracies take one value twice;
    every order-preserving map is a composition of these.  The pullback
    plan of `substitute_simplex_map` is kept per instance in ``_pullback``."""

    __slots__ = ("p", "q", "values", "_pullback")

    def __init__(self, q, values):
        values = tuple(int(v) for v in values)
        if not values:
            raise InputError("a simplex map needs at least one value")
        if any(values[i] > values[i + 1] for i in range(len(values) - 1)):
            raise InputError("simplex map values must be weakly increasing")
        if values[0] < 0 or values[-1] > q:
            raise InputError("simplex map values must lie in [0, %d]" % q)
        self.q = q
        self.p = len(values) - 1
        self.values = values
        self._pullback = None

    @classmethod
    def identity(cls, q):
        return cls(q, range(q + 1))

    @classmethod
    def coface(cls, q, i):
        """The injective map [q-1] -> [q] that misses the value i."""
        if not 0 <= i <= q or q < 1:
            raise InputError("coface index out of range")
        return cls(q, [v for v in range(q + 1) if v != i])

    @classmethod
    def codegeneracy(cls, q, i):
        """The surjective map [q+1] -> [q] that takes the value i twice."""
        if not 0 <= i <= q:
            raise InputError("codegeneracy index out of range")
        return cls(q, list(range(i + 1)) + list(range(i, q + 1)))

    def __call__(self, i):
        return self.values[i]

    def compose(self, other: "SimplexMap") -> "SimplexMap":
        """self o other, where other: [r] -> [p] and self: [p] -> [q]."""
        if other.q != self.p:
            raise InputError("simplex maps are not composable")
        return SimplexMap(self.q, [self.values[v] for v in other.values])

    def preimage(self, j):
        return tuple(i for i, v in enumerate(self.values) if v == j)

    def __eq__(self, other):
        return (isinstance(other, SimplexMap)
                and self.q == other.q and self.values == other.values)

    def __hash__(self):
        return hash((self.q, self.values))

    def __repr__(self):
        return "SimplexMap([%d]->[%d], %s)" % (self.p, self.q, list(self.values))

    def describe(self):
        """Short name: d^i / s^i for (co)faces, else the value list."""
        if self.p == self.q - 1 and len(set(self.values)) == self.p + 1:
            missing = set(range(self.q + 1)) - set(self.values)
            if len(missing) == 1:
                return "d^%d:[%d]->[%d]" % (missing.pop(), self.p, self.q)
        if self.p == self.q + 1:
            for i in range(len(self.values) - 1):
                if self.values[i] == self.values[i + 1]:
                    return "s^%d:[%d]->[%d]" % (self.values[i], self.p, self.q)
        return "%s:[%d]->[%d]" % (list(self.values), self.p, self.q)


# ---------------------------------------------------------------------------
# the polynomial ring of the q-simplex (times an affine parameter space)
# ---------------------------------------------------------------------------

class PolyRing:
    """Coordinate ring of the q-simplex times affine parameters.

    The honest variables are t_0, ..., t_{q-1} (the last coordinate is
    eliminated through t_q = 1 - t_0 - ... - t_{q-1}) followed by the
    named parameters.  Exponent vectors index these variables in order.
    """

    __slots__ = ("field", "q", "params", "nvars", "_zero", "_one", "_hash")

    def __init__(self, field, q, params=()):
        if not isinstance(field, ScalarField):
            raise InputError("ring needs a ScalarField")
        if not isinstance(q, int) or q < 0:
            raise InputError("simplex dimension must be a nonnegative integer")
        params = tuple(params)
        if len(set(params)) != len(params):
            raise InputError("duplicate parameter names")
        self.field = field
        self.q = q
        self.params = params
        self.nvars = q + len(params)
        self._zero = None
        self._one = None
        self._hash = hash((field, q, params))

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, PolyRing) and self.field == other.field
                and self.q == other.q and self.params == other.params)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        extra = " params=%s" % (self.params,) if self.params else ""
        return "PolyRing(q=%d%s over %r)" % (self.q, extra, self.field)

    def zero(self) -> "SimplexPoly":
        if self._zero is None:
            self._zero = SimplexPoly(self, 1, {})
        return self._zero

    def one(self) -> "SimplexPoly":
        if self._one is None:
            self._one = self.constant(1)
        return self._one

    def _from_coords(self, coords) -> "SimplexPoly":
        """The canonical form of {exponent: tuple of Fraction coordinates}.
        Over the least common denominator of reduced fractions, the gcd of
        the denominator and all numerators is already 1."""
        den = math.lcm(*(c.denominator for v in coords.values() for c in v))
        nums = {e: tuple(c.numerator * (den // c.denominator) for c in v)
                for e, v in coords.items() if any(v)}
        return SimplexPoly(self, den, nums) if nums else self.zero()

    def constant(self, x) -> "SimplexPoly":
        v = self.field.value(x)
        if v.is_zero:
            return self.zero()
        return self._from_coords({(0,) * self.nvars: v.coords})

    def coordinate(self, j) -> "SimplexPoly":
        """The simplex coordinate t_j in canonical form (t_q eliminated)."""
        if not isinstance(j, int) or not 0 <= j <= self.q:
            raise InputError("coordinate index out of range 0..%d" % self.q)
        if self.q == 0:
            return self.one()
        if j < self.q:
            exp = [0] * self.nvars
            exp[j] = 1
            return self.poly({tuple(exp): 1})
        terms = {(0,) * self.nvars: 1}
        for i in range(self.q):
            exp = [0] * self.nvars
            exp[i] = 1
            terms[tuple(exp)] = -1
        return self.poly(terms)

    def parameter(self, name) -> "SimplexPoly":
        try:
            idx = self.params.index(name)
        except ValueError:
            raise InputError("unknown parameter %r" % (name,)) from None
        exp = [0] * self.nvars
        exp[self.q + idx] = 1
        return self.poly({tuple(exp): 1})

    def poly(self, terms) -> "SimplexPoly":
        """Build from a raw {exponent-tuple: coefficient} map (can contain zeros)."""
        coords = {}
        for exp, coef in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.nvars or any(e < 0 for e in exp):
                raise InputError("bad exponent vector %r" % (exp,))
            v = self.field.value(coef).coords
            cur = coords.get(exp)
            coords[exp] = v if cur is None else tuple(map(add, cur, v))
        return self._from_coords(coords)


def _canonical(ring, den, nums):
    """A SimplexPoly from a positive denominator and nonzero integer
    vectors, divided through by the gcd of all of them."""
    if not nums:
        return ring.zero()
    if den != 1:
        g = math.gcd(den, *chain.from_iterable(nums.values()))
        if g != 1:
            den //= g
            nums = {e: tuple([x // g for x in v]) for e, v in nums.items()}
    return SimplexPoly(ring, den, nums)


def sum_of_products(ring, pairs):
    """sum_k x_k y_k in canonical form, for a list of pairs of a
    SimplexPoly x_k over ring and a factor y_k that is a SimplexPoly over
    ring or a rational scalar (an int or a Fraction).  A product of two
    polynomials is the sum of one pair.

    Every pair's product is scaled to the lcm of the pair denominators, so
    the whole sum is one integer accumulation: over Q one integer per
    exponent, over a number field one unreduced convolution per exponent,
    reduced modulo m(x) once.  The sum is put into canonical form once, so
    no partial sum is ever built or normalized."""
    if not pairs:
        return ring.zero()
    field = ring.field
    # (numerators of the longer polynomial factor, of the other one or None
    # when it is a constant, the constant's numerator vector, the pair's
    # denominator); a constant factor only scales, with no exponent sums
    work = []
    for x, y in pairs:
        if isinstance(y, SimplexPoly):
            a, b = x.nums, y.nums
            if len(a) < len(b):
                a, b = b, a
            s = None
            if len(b) == 1:
                (e, v), = b.items()
                if not any(e):
                    s = v
            work.append((a, b if s is None else None, s, x.den * y.den))
        else:
            work.append((x.nums, None, (y.numerator,), x.den * y.denominator))
    den = math.lcm(*[w[3] for w in work])
    if field.degree == 1:
        acc = {}
        get = acc.get
        for a, b, s, pden in work:
            m = den // pden
            if b is None:
                m *= s[0]
                for e, (u,) in a.items():
                    acc[e] = get(e, 0) + m * u
                continue
            for ea, (u,) in a.items():
                u *= m
                for eb, (v,) in b.items():
                    e = tuple(map(add, ea, eb))
                    acc[e] = get(e, 0) + u * v
        return _canonical(ring, den, {e: (c,) for e, c in acc.items() if c})
    width = 2 * field.degree - 1
    conv = {}

    def slot(e):
        c = conv.get(e)
        if c is None:
            c = conv[e] = [0] * width
        return c

    for a, b, s, pden in work:
        m = den // pden
        for ea, u in a.items():
            if m != 1:
                u = [m * x for x in u]
            if b is None:
                products = ((ea, s),)
            else:
                products = [(tuple(map(add, ea, eb)), v) for eb, v in b.items()]
            for e, v in products:
                c = slot(e)
                for i, x in enumerate(u):
                    if x:
                        for j, z in enumerate(v):
                            c[i + j] += x * z
    reduce = field._reduce
    nums = {}
    for e, c in conv.items():
        v = reduce(c)
        if any(v):
            nums[e] = v
    return _canonical(ring, den * field._xden, nums)


class _Terms(Mapping):
    """The read-only {exponent: ScalarValue} view of a SimplexPoly."""

    __slots__ = ("_poly",)

    def __init__(self, poly):
        self._poly = poly

    def __getitem__(self, exp):
        return self._poly._scalar(self._poly.nums[exp])

    def __iter__(self):
        return iter(self._poly.nums)

    def __len__(self):
        return len(self._poly.nums)


class SimplexPoly:
    """A polynomial on the q-simplex (times parameters), in canonical form.

    The coefficients share one positive integer denominator ``den``;
    ``nums`` maps each exponent tuple over (t_0..t_{q-1}, params) to the
    integer numerators of its coefficient, ``field.degree`` power-basis
    coordinates.  No vector is all zero, and the gcd of ``den`` and every
    numerator is 1; the zero polynomial is the empty map over den 1.  Over
    a fixed ring, equality of these forms is equality of functions.
    ``terms`` reads the same coefficients as ScalarValue values.
    """

    __slots__ = ("ring", "den", "nums")

    def __init__(self, ring, den, nums):
        self.ring = ring
        self.den = den
        self.nums = nums

    @property
    def terms(self):
        return _Terms(self)

    def _scalar(self, vec):
        return ScalarValue(self.ring.field, tuple(Fraction(x, self.den) for x in vec))

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SimplexPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatch("polynomials over different rings")
            return other
        if isinstance(other, (int, Fraction, ScalarValue)):
            return self.ring.constant(other)
        return None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.nums:
            return o
        if not o.nums:
            return self
        da, db = self.den, o.den
        if da == db:
            out = dict(self.nums)
            mb = 1
        else:
            g = math.gcd(da, db)
            ma, mb = db // g, da // g
            da *= ma
            out = {e: tuple([x * ma for x in v]) for e, v in self.nums.items()}
        for exp, v in o.nums.items():
            if mb != 1:
                v = tuple([x * mb for x in v])
            cur = out.get(exp)
            if cur is None:
                out[exp] = v
            else:
                s = tuple(map(add, cur, v))
                if any(s):
                    out[exp] = s
                else:
                    del out[exp]
        return _canonical(self.ring, da, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(o.__neg__())

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        return SimplexPoly(self.ring, self.den,
                           {e: tuple([-x for x in v]) for e, v in self.nums.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ScalarValue)):
            return self.scale(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.nums or not o.nums:
            return self.ring.zero()
        return sum_of_products(self.ring, [(self, o)])

    __rmul__ = __mul__

    def scale(self, s):
        field = self.ring.field
        v = field.value(s)
        if v.is_zero:
            return self.ring.zero()
        if v.is_rational:
            f = v.coords[0]
            n = f.numerator
            return _canonical(self.ring, self.den * f.denominator,
                              {e: tuple([x * n for x in u]) for e, u in self.nums.items()})
        sden = math.lcm(*(c.denominator for c in v.coords))
        sv = tuple(c.numerator * (sden // c.denominator) for c in v.coords)
        imul = field._imul
        return _canonical(self.ring, self.den * sden * field._xden,
                          {e: imul(u, sv) for e, u in self.nums.items()})

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise InputError("polynomial powers must be nonnegative integers")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self):
        return not self.nums

    @property
    def is_constant(self):
        return not self.nums or (len(self.nums) == 1
                                 and not any(next(iter(self.nums))))

    def constant_value(self) -> ScalarValue:
        if not self.nums:
            return self.ring.field.zero
        if not self.is_constant:
            raise InputError("polynomial is not constant")
        vec, = self.nums.values()
        return self._scalar(vec)

    def total_degree(self):
        return max((sum(e) for e in self.nums), default=0)

    def map_coefficients(self, fn) -> "SimplexPoly":
        return self.ring._from_coords({exp: fn(coef).coords
                                       for exp, coef in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ScalarValue)):
            other = self.ring.constant(other)
        if not isinstance(other, SimplexPoly):
            return NotImplemented
        return ((self.ring is other.ring or self.ring == other.ring)
                and self.den == other.den and self.nums == other.nums)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((self.ring, self.den, frozenset(self.nums.items())))

    def __repr__(self):
        if not self.nums:
            return "0"
        names = ["t%d" % i for i in range(self.ring.q)] + list(self.ring.params)
        terms = self.terms
        parts = []
        for exp in sorted(self.nums, key=lambda e: (sum(e), e)):
            coef = terms[exp]
            factors = ["%s^%d" % (n, e) if e > 1 else n
                       for n, e in zip(names, exp) if e]
            cs = repr(coef)
            if ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = "(%s)" % cs
            parts.append("*".join([cs] + factors) if factors else cs)
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# the published operations
# ---------------------------------------------------------------------------

def make_simplex_coordinate(q, j, field=QQ, params=()) -> SimplexPoly:
    """t_j on the q-simplex; for j = q this is 1 - t_0 - ... - t_{q-1}."""
    return PolyRing(field, q, params).coordinate(j)


def poly_arith(a: SimplexPoly, b: SimplexPoly, op: str) -> SimplexPoly:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise InputError("unknown operation %r" % (op,))


def _evaluate(p: SimplexPoly, images, target_ring: PolyRing):
    """Evaluate p at a full list of variable images (ring elements)."""
    total = target_ring.zero()
    powcache = {}
    for exp, coef in p.terms.items():
        term = target_ring.constant(coef)
        for v, e in enumerate(exp):
            if e:
                key = (v, e)
                pw = powcache.get(key)
                if pw is None:
                    pw = images[v] ** e
                    powcache[key] = pw
                term = term * pw
        total = total + term
    return total


def _pullback_plan(alpha: SimplexMap, ring: PolyRing):
    """How alpha pulls back the variables of ``ring``, worked out once per
    (map, source ring) and kept on the map, with the one target ring of
    every pullback along it.  ``relabel[v]`` is the target variable of a
    variable whose image is one honest coordinate, -1 for a variable whose
    image is 0, and None when the image ``images[v]`` is a sum or the
    eliminated coordinate t_p; ``powers`` caches its powers.  The images
    are sums of coordinates, so their powers have integer rational
    coefficients over the denominator 1."""
    plan = alpha._pullback
    if plan is not None and plan[0] == ring:
        return plan
    if alpha.q != ring.q:
        raise InputError("map target [%d] does not match the polynomial's simplex [%d]"
                         % (alpha.q, ring.q))
    target = PolyRing(ring.field, alpha.p, ring.params)
    relabel = []
    images = {}
    for j in range(ring.q):
        pre = alpha.preimage(j)
        if not pre:
            relabel.append(-1)
        elif len(pre) == 1 and pre[0] < alpha.p:
            relabel.append(pre[0])
        else:
            relabel.append(None)
            img = target.zero()
            for i in pre:
                img = img + target.coordinate(i)
            images[j] = img
    relabel.extend(range(alpha.p, target.nvars))
    plan = (ring, target, relabel, images, {})
    alpha._pullback = plan
    return plan


def _add_vector(out, exp, v):
    cur = out.get(exp)
    out[exp] = v if cur is None else tuple(map(add, cur, v))


def substitute_simplex_map(p: SimplexPoly, alpha: SimplexMap) -> SimplexPoly:
    """Pull back along the affine map of simplices extending alpha: [p]->[q].

    Each t_j with j in [q] becomes the sum of t_i over the alpha-preimage
    of j (an empty sum is 0); the result is canonical on the p-simplex.
    A term whose variables all go to single honest coordinates is only
    relabelled, a term with a variable sent to 0 is dropped, and only the
    remaining variables are expanded as products.
    """
    _, target, relabel, images, powers = _pullback_plan(alpha, p.ring)
    width = target.nvars
    out = {}
    for exp, vec in p.nums.items():
        base = [0] * width
        factor = None
        for v, e in enumerate(exp):
            if e:
                r = relabel[v]
                if r is None:
                    pw = powers.get((v, e))
                    if pw is None:
                        pw = powers[(v, e)] = images[v] ** e
                    factor = pw if factor is None else factor * pw
                elif r < 0:
                    break
                else:
                    base[r] = e
        else:
            if factor is None:
                _add_vector(out, tuple(base), vec)
            else:
                for fexp, fvec in factor.nums.items():
                    f = fvec[0]
                    _add_vector(out, tuple(map(add, base, fexp)), tuple([x * f for x in vec]))
    return _canonical(target, p.den, {e: v for e, v in out.items() if any(v)})


def permute_coordinates(p: SimplexPoly, perm) -> SimplexPoly:
    """Substitute t_j -> t_{perm[j]} for a permutation of {0, ..., q}."""
    ring = p.ring
    perm = tuple(int(v) for v in perm)
    if sorted(perm) != list(range(ring.q + 1)):
        raise InputError("not a permutation of 0..%d" % ring.q)
    images = [ring.coordinate(perm[j]) for j in range(ring.q)]
    images.extend(ring.parameter(name) for name in ring.params)
    return _evaluate(p, images, ring)


def extend_to_simplex(p: SimplexPoly, q: int, target=None) -> SimplexPoly:
    """View a polynomial constant in t (a q = 0 ring) on the q-simplex.  A
    caller extending many polynomials passes their common ``target`` ring."""
    ring = p.ring
    if ring.q != 0:
        raise InputError("only t-constant polynomials can be extended")
    if target is None:
        target = PolyRing(ring.field, q, ring.params)
    elif target.q != q or target.params != ring.params or (
            target.field is not ring.field and target.field != ring.field):
        raise RingMismatch("target ring does not extend the polynomial's ring")
    pad = (0,) * q
    return SimplexPoly(target, p.den, {pad + exp: v for exp, v in p.nums.items()})


def eval_at_weights(p: SimplexPoly, weights, param_values=None) -> ScalarValue:
    """Exact evaluation at a weight sequence (q+1 scalars summing to 1).

    The variable values are cleared to integer vectors over one scale B,
    and each power and product of them carries one more factor xden of
    the field, so a term of total degree D is an integer vector over
    den (B xden)^D; the terms are summed over the highest such denominator."""
    ring = p.ring
    field = ring.field
    ws = [field.value(w) for w in weights]
    if len(ws) != ring.q + 1:
        raise InputError("expected %d weights, got %d" % (ring.q + 1, len(ws)))
    total_w = field.zero
    for w in ws:
        total_w = total_w + w
    if total_w != field.one:
        raise InputError("weights must sum to 1 exactly")
    values = list(ws[: ring.q])
    pv = param_values or {}
    for name in ring.params:
        if name not in pv:
            raise InputError("missing value for parameter %r" % (name,))
        values.append(field.value(pv[name]))
    scale = math.lcm(*(c.denominator for x in values for c in x.coords))
    ints = [tuple(c.numerator * (scale // c.denominator) for c in x.coords) for x in values]
    step = scale * field._xden
    top = p.total_degree()
    imul = field._imul
    powers = {}
    total = [0] * field.degree
    for exp, vec in p.nums.items():
        mono = None
        for v, e in enumerate(exp):
            if e:
                pw = powers.get((v, e))
                if pw is None:
                    pw = ints[v]
                    for _ in range(e - 1):
                        pw = imul(pw, ints[v])
                    powers[(v, e)] = pw
                mono = pw if mono is None else imul(mono, pw)
        if mono is not None:
            vec = imul(vec, mono)
        lift = step ** (top - sum(exp))
        for i, x in enumerate(vec):
            total[i] += x * lift
    den = p.den * step ** top
    return ScalarValue(field, tuple(Fraction(x, den) for x in total))


# ---------------------------------------------------------------------------
# Galois actions on extension fields
# ---------------------------------------------------------------------------

class FieldAutomorphism:
    """A field automorphism of a simple extension, fixing Q, given by the
    image of the generator (which must again be a root of m(x))."""

    __slots__ = ("field", "image", "_powers", "_rows", "_rden")

    def __init__(self, field: ScalarField, image):
        if field.is_rationals:
            raise InputError("automorphisms are only defined for extensions")
        self.field = field
        self.image = field.value(image)
        powers = [field.one]
        for _ in range(field.degree - 1):
            powers.append(powers[-1] * self.image)
        self._powers = tuple(powers)
        # the matrix of the map on power-basis coordinates, cleared to
        # integers: row i holds coordinate i of image^k for k = 0 .. d-1
        rden = self._rden = math.lcm(*(c.denominator for pw in powers for c in pw.coords))
        self._rows = tuple(zip(*[[c.numerator * (rden // c.denominator) for c in pw.coords]
                                 for pw in powers]))
        # the generator must go to a root of the defining polynomial; that
        # defines a field map of the extension into itself, which is
        # injective and Q-linear, hence an automorphism
        acc = field.zero
        for k, c in enumerate(field.minpoly):
            if c:
                acc = acc + (self._powers[k] if k < field.degree
                             else self.image ** k) * c
        if not acc.is_zero:
            raise InputError("generator image is not a root of the defining polynomial")

    def apply_value(self, v: ScalarValue) -> ScalarValue:
        if v.field != self.field:
            raise RingMismatch("value is not over this automorphism's field")
        acc = self.field.zero
        for c, pw in zip(v.coords, self._powers):
            if c:
                acc = acc + pw * c
        return acc

    def __call__(self, v):
        if isinstance(v, ScalarValue):
            return self.apply_value(v)
        if isinstance(v, SimplexPoly):
            if v.ring.field is not self.field and v.ring.field != self.field:
                raise RingMismatch("polynomial is not over this automorphism's field")
            # an automorphism is injective, so no vector becomes zero
            rows = self._rows
            return _canonical(v.ring, v.den * self._rden,
                              {e: tuple(sum(map(mul, row, u)) for row in rows)
                               for e, u in v.nums.items()})
        raise InputError("cannot apply an automorphism to %r" % type(v).__name__)

    def __repr__(self):
        return "FieldAutomorphism(%s -> %r)" % (self.field.var, self.image)


class GaloisAction:
    """A chosen set of generators of a Galois group acting on an extension."""

    __slots__ = ("field", "generators")

    def __init__(self, field: ScalarField, generator_images):
        self.field = field
        self.generators = tuple(FieldAutomorphism(field, im) for im in generator_images)
        if not self.generators:
            raise InputError("a Galois action needs at least one generator")

    def __repr__(self):
        return "GaloisAction(%r, %d generators)" % (self.field, len(self.generators))


def apply_galois(g: FieldAutomorphism, v):
    """Apply an automorphism coefficientwise to a scalar or polynomial."""
    return g(v)
