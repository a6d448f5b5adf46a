"""Shared helpers for the test suite: seeded random generators,
evaluation utilities and the series-built delta chain.  Everything is
deterministic given the Random instance passed in."""

from __future__ import annotations

from fractions import Fraction

from qshuffle.formal import Window, delta_series, series_mul
from qshuffle.identities import W
from qshuffle.qring import LaurentQ, RatQ


def random_fraction(rng, lo=-9, hi=9, nonzero=False) -> Fraction:
    while True:
        f = Fraction(rng.randint(lo, hi), rng.randint(1, 7))
        if f or not nonzero:
            return f


def random_q_point(rng) -> Fraction:
    """A random rational q0 avoiding 0 and +-1."""
    while True:
        f = random_fraction(rng, nonzero=True)
        if f not in (1, -1):
            return f


def random_laurent(rng, max_terms=4, exp_range=4, nonzero=False) -> LaurentQ:
    while True:
        terms = {}
        for _ in range(rng.randint(0, max_terms)):
            terms[rng.randint(-exp_range, exp_range)] = random_fraction(rng)
        p = LaurentQ(terms)
        if p or not nonzero:
            return p


def random_ratq(rng, nonzero=False) -> RatQ:
    num = random_laurent(rng, nonzero=nonzero)
    den = random_laurent(rng, max_terms=3, exp_range=2, nonzero=True)
    return RatQ(num, den)


def random_q_monomial(rng, exp_range=3) -> RatQ:
    c = random_fraction(rng, nonzero=True)
    return RatQ(LaurentQ.q_power(rng.randint(-exp_range, exp_range), c))


def coefficients(p) -> dict:
    """The terms of a polynomial or series as {(e_1, ..., e_n): RatQ}, the
    format the constructors accept, the keys read through ``exponents``."""
    p = getattr(p, "poly", p)  # a series is read through its polynomial
    return {key: RatQ(p.coeff(key)) for key in p.exponents()}


def series_delta_chain(zs, window, reading, q_inverted=False):
    """The right side of the window identity for the chain order zs, built
    as m verified ``series_mul`` products of ``delta_series`` on a padded
    window, m = len(zs) - 1: q^(e m) delta(w, c z_1) prod_i delta(z_i,
    q^(2e) z_(i+1)).  Its coefficients are exact on its reliable box only;
    the reference for ``identities._rhs_poly``."""
    m, e = len(zs) - 1, -1 if q_inverted else 1
    shift = -e * m if reading == "qminus" else e * m
    wide = Window(window.lo - 2 * (m + 2), window.hi + 2 * (m + 2))
    chain = delta_series(W, RatQ.q_power(shift), zs[0], wide)
    for i in range(m):
        chain = series_mul(chain, delta_series(zs[i], RatQ.q_power(2 * e), zs[i + 1], wide))
    return chain.scale(RatQ.q_power(e * m))
