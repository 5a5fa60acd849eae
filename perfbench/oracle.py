"""Independent sympy re-computation of the averaging chain at a fixed weight.

Shares no code with unipavg.  Matrix entries live in Q or in Q(a) for a
number field with minimal polynomial m(a); `reduce` brings each entry
back to canonical form after every product (expansion, and remainder
modulo m for a number field).  `passes` counts the lift as the first pass.
"""

from __future__ import annotations

import sympy as sp


def _reducer(minpoly, var):
    if minpoly is None:
        return sp.expand
    return lambda e: sp.rem(sp.expand(e), minpoly, var)


def _mul(a, b, red):
    return (a * b).applyfunc(red)


def _exp(nil, red):
    n = nil.shape[0]
    acc, term = sp.eye(n), sp.eye(n)
    for k in range(1, n):
        term = _mul(term, nil, red) / k
        acc = acc + term
    return acc.applyfunc(red)


def _log(uni, red):
    n = uni.shape[0]
    x = uni - sp.eye(n)
    acc, power = sp.zeros(n, n), sp.eye(n)
    for k in range(1, n):
        power = _mul(power, x, red)
        acc = acc + sp.Rational((-1) ** (k + 1), k) * power
    return acc.applyfunc(red)


def _inv(uni, red):
    n = uni.shape[0]
    x = sp.eye(n) - uni
    acc, power = sp.eye(n), sp.eye(n)
    for _ in range(1, n):
        power = _mul(power, x, red)
        acc = acc + power
    return acc.applyfunc(red)


def _pass(mats, weights, red):
    out = []
    for i, fi in enumerate(mats):
        fi_inv = _inv(fi, red)
        arg = sp.zeros(*fi.shape)
        for j, fj in enumerate(mats):
            if j != i:
                arg = arg + weights[j] * _log(_mul(fj, fi_inv, red), red)
        out.append(_mul(_exp(arg.applyfunc(red), red), fi, red))
    return out


def wav_at(points, weights, passes, minpoly=None, var=None):
    """The average of constant sympy matrices at exact weights, after
    `passes` symmetrization passes; raises if the components still differ."""
    red = _reducer(minpoly, var)
    cur = [p.applyfunc(red) for p in points]
    for _ in range(passes):
        cur = _pass(cur, [sp.Rational(w.numerator, w.denominator) for w in weights], red)
    first = cur[0]
    for other in cur[1:]:
        if (first - other).applyfunc(red) != sp.zeros(*first.shape):
            raise AssertionError("sympy oracle: components still disagree after %d passes"
                                 % passes)
    return first
