"""Shared helpers for the test suite: seeded random generators,
evaluation utilities, the exact digit scan, the three reference builds
of the delta chain, the difference rule for the window readings and
the reduced-fraction build of the partial-fraction steps.  Everything
is deterministic given the Random instance passed in."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from qshuffle import poly
from qshuffle.formal import Window, delta_series, series_mul
from qshuffle.identities import W, _lhs_poly, _zs
from qshuffle.poly import MultiLaurent, zvar
from qshuffle.qring import LaurentQ, RatQ
from qshuffle.ratfun import BinomialFactor, RatFun


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


def exact_bound(terms: dict, K: int) -> int:
    """The largest |digit| of packed values at K bits a digit, read digit
    by digit: the reference for the kernel's bound certificate."""
    if not terms:
        return 0
    d = poly._digits(terms.values(), K, poly._width(terms.values(), K))
    return max(max(d), -min(d))


def unfolded_rhs_polys(m, window, q_inverted=False):
    """The (reading, polynomial) pairs of both readings of the delta chain
    before any orbit is folded, from one pass over the index box: the
    reference whose ``fold_orbits`` ``identities._rhs_polys`` builds in
    its pass.  With delta(x, c y) = sum_i c^(-i-1) x^i y^(-i-1) the indices
    are i_0 = e_w and i_j = i_(j-1) + 1 + e_j, and z_(m+1) carries -i_m -
    1; the readings c = q^(-+e m) add +- e m (e_w + 1) to the q-power the
    pass computes, and each is packed on its own."""
    e = -1 if q_inverted else 1
    terms = {}
    for ew, *ez in product(range(window.lo, window.hi + 1), repeat=m + 1):
        i, p = ew, e * m
        for ej in ez:
            i += 1 + ej
            p -= 2 * e * (i + 1)
        if window.lo <= -i - 1 <= window.hi:
            terms[(*ez, -i - 1, ew)] = p
    vs = (*_zs(m), W)  # the registry order z_1..z_(m+1), w: e_w comes last
    for reading, c in (("qminus", e * m), ("qplus", -e * m)):
        yield reading, MultiLaurent._q_monomials(vs, {x: (1, p + c * (x[-1] + 1)) for x, p in terms.items()})


def laurent_delta_chain(m, window, reading, q_inverted=False):
    """The closed-form delta chain of ``identities._rhs_polys``, unfolded,
    built through the public constructor, one ``LaurentQ.q_power`` per
    monomial: the reference for the packed build."""
    e = -1 if q_inverted else 1
    shift = -e * m if reading == "qminus" else e * m
    terms = {}
    for ew, *ez in product(range(window.lo, window.hi + 1), repeat=m + 1):
        i, p = ew, e * m - shift * (ew + 1)
        for ej in ez:
            i += 1 + ej
            p -= 2 * e * (i + 1)
        if window.lo <= -i - 1 <= window.hi:
            terms[(*ez, -i - 1, ew)] = LaurentQ.q_power(p)
    return MultiLaurent(_zs(m) + [W], terms)


def series_delta_chain(zs, window, reading, q_inverted=False):
    """The right side of the window identity for the chain order zs, built
    as m verified ``series_mul`` products of ``delta_series`` on a padded
    window, m = len(zs) - 1: q^(e m) delta(w, c z_1) prod_i delta(z_i,
    q^(2e) z_(i+1)).  Its coefficients are exact on its reliable box only;
    the reference for ``identities._rhs_polys``."""
    m, e = len(zs) - 1, -1 if q_inverted else 1
    shift = -e * m if reading == "qminus" else e * m
    wide = Window(window.lo - 2 * (m + 2), window.hi + 2 * (m + 2))
    chain = delta_series(W, RatQ.q_power(shift), zs[0], wide)
    for i in range(m):
        chain = series_mul(chain, delta_series(zs[i], RatQ.q_power(2 * e), zs[i + 1], wide))
    return chain.scale(RatQ.q_power(e * m))


def difference_readings(m, window, q_inverted=False, rhs_scale=None) -> dict:
    """The readings of ``identities.window_identity_report`` decided on the
    difference of the sides: a reading matches when the orbit fold of
    lhs - rhs is empty.  The reference for the report, which folds each
    side on its own and compares the folds."""
    zs, lhs = _zs(m), _lhs_poly(m, window, q_inverted)
    readings = {}
    for reading, rhs in unfolded_rhs_polys(m, window, q_inverted):
        if rhs_scale is not None:
            rhs = rhs.scale(rhs_scale)
        readings[reading] = not (lhs - rhs).fold_orbits(zs)
    return readings


def ratfun_pf_pair(perturb):
    """(lhs, rhs) of both partial-fraction steps of
    ``identities._pf_pair``, optionally perturbed, as reduced ``RatFun``s
    built by ``RatFun`` products and sums, each pole divided in with its
    ``RatQ`` unit: the reference for the unreduced build, whose steps hold
    iff (lhs - rhs).is_zero() here.  Both sides come multiplied by
    q^2 + 1, since the split constants are c/(q^2 + 1)."""
    z1, z2 = zvar(1, 1), zvar(1, 2)
    one = RatQ.one()
    q2 = RatQ.q_power(2)
    num = MultiLaurent.var_power(z1, 1) - MultiLaurent.var_power(z2, 1)
    if perturb == "numerator-flip":
        num = MultiLaurent.var_power(z1, 1) + MultiLaurent.var_power(z2, 1)

    q2p1 = LaurentQ({2: 1, 0: 1})

    def inv(a, vi, b, vj):
        f, unit = BinomialFactor.make(a, vi, b, vj)
        return RatFun.inverse_factor(f) / unit

    # step one: split (q^2 + 1)(z1 - z2)/((q^2 z2 - z1)(q^-1 z2 - q z1))
    lhs1 = (RatFun(num) * inv(q2, z2, one, z1) * inv(
        RatQ.q_power(-1), z2, RatQ.q_power(1), z1
    )).scale(q2p1)
    c1 = -RatQ.q_power(1)
    if perturb == "scale-sign":
        c1 = -c1
    if perturb == "scale-shift":
        c1 = c1 * RatQ.q_power(1)
    p1a = inv(q2, z2, one, z1)
    p1b = inv(one, z2, q2, z1)
    if perturb == "pole-swap":
        p1a = inv(one, z2, q2, z1)
    rhs1 = (p1a + p1b).scale(c1)

    # step two: split (q^2 + 1)(z1 - z2)/((q^2 z1 - z2)(q^-2 z1 - z2))
    e = 3 if perturb == "exponent-bump" else 2
    lhs2 = (RatFun(num) * inv(q2, z1, one, z2) * inv(RatQ.q_power(-e), z1, one, z2)).scale(q2p1)
    rhs2 = (inv(q2, z1, one, z2) + inv(one, z1, q2, z2)).scale(q2)
    return [(lhs1, rhs1), (lhs2, rhs2)]
