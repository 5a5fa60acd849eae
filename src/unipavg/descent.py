"""Rational points from Galois orbits by uniform averaging.

An orbit of torsor points over a field extension, closed under the Galois
generators, is averaged with the uniform weight sequence.  The permutation
symmetry of the average together with the rationality of the weights
forces the result to be fixed by the Galois action, hence to have rational
entries; rationality alone is asserted, as it implies invariance.  The
average is taken at the uniform weights w by `wav_at_weights`: where `wav`
knows Phi (agreeing points, q = 1, class <= 2, or within its bound) it is
exp(Phi(w; L_1, ..., L_q)) f_0, computed on constant matrices, and no
symbolic average is built.

Both ends stay in the integer form of constant matrices (see `nilpotent`):
the closure check applies each generator to a point's form
(`FieldAutomorphism.apply_form`) and compares forms, and the descent reads
the average's form, whose planes after the first vanish exactly when the
average is rational.  Neither builds a polynomial entry.
"""

from __future__ import annotations

from .average import WeightSeq, wav_at_weights
from .errors import InputError, RationalityError, RingMismatch
from .exactring import QQ, GaloisAction, PolyRing
from .nilpotent import LieSpan, UniMatrix

__all__ = ["GaloisOrbit", "rational_point"]


class GaloisOrbit:
    """Torsor points over an extension field, closed under a Galois action.

    Construction verifies that applying each generator permutes the list
    of points (exact multiset equality of their integer forms) and that
    every point's log lies in the group span.
    """

    __slots__ = ("group", "action", "points")

    def __init__(self, group: LieSpan, action: GaloisAction, points):
        points = tuple(points)
        if not points:
            raise InputError("an orbit needs at least one point")
        if not isinstance(action, GaloisAction):
            raise InputError("expected a GaloisAction")
        if group.field is not action.field:
            raise RingMismatch("group span and Galois action use different fields")
        for z in points:
            if not isinstance(z, UniMatrix):
                raise InputError("orbit points must be UniMatrix values")
            if z.ring.q != 0 or z.ring.params:
                raise InputError("orbit points must be constant matrices")
            group.require_element(z, "an orbit point")
        self.group = group
        self.action = action
        self.points = points
        for g_idx, sigma in enumerate(action.generators):
            remaining = list(points)
            for z in points:
                moved = z.map_entries(sigma, z.ring)
                for k, w in enumerate(remaining):
                    if moved == w:
                        del remaining[k]
                        break
                else:
                    raise InputError("orbit is not closed under Galois generator %d"
                                     % g_idx)

    @property
    def q(self):
        return len(self.points) - 1

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return "GaloisOrbit(%d points over %r)" % (len(self.points), self.action.field)


def rational_point(orbit: GaloisOrbit) -> UniMatrix:
    """The uniform-weight average of the orbit, returned over the rational
    field.  Aborts loudly if the result has an entry outside the rationals,
    which a valid orbit never gives.  That check covers Galois invariance
    too: every automorphism fixes Q, so a rational point is invariant.
    The average is constant, so it is read in the integer form: it is
    rational exactly when every plane after the first is zero, and then
    (den, [plane 0]) is its form over Q, whose gcd is already 1."""
    weights = WeightSeq.uniform(orbit.q, orbit.action.field)
    averaged = wav_at_weights(orbit.points, weights, orbit.group)
    den, planes = averaged._int_form()
    if any(map(any, planes[1:])):
        raise RationalityError("averaged point has an irrational entry")
    return UniMatrix._from_int(PolyRing(QQ, 0), averaged.n, (den, planes[:1]))
