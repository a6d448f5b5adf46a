"""Pole-sum identities for current commutation relations.

The central object is the sum

    L_m = sum over k and permutations of

          [m+1 k]_q prod_{i<j} (z_{s(i)} - z_{s(j)})
          -----------------------------------------------------------------
          prod_{i<=k} (q^-m z_{s(i)} - w) prod_{i>k} (q^-m w - z_{s(i)})
          prod_{i<j} (q^2 z_{s(i)} - z_{s(j)})

with k running from 0 to m+1 and s over permutations of {1..m+1}.  As a
rational function L_m vanishes identically: ``build_pole_sum`` writes it
as one numerator over the summands' shared symmetric denominator, taking
the alternating sum over s with the shuffle product's divided
differences, so the check reduces to that numerator being zero.
``term_value`` builds one summand as the independent reference.  The
q -> 1/q mirror of the sum vanishes as well.

As a formal distribution the story is finer: expanding each summand in
the region dictated by its k (the first k variables dominate w, the rest
are dominated by it) leaves a one-dimensional delta chain,

    L_m = q^m sum_s s[ delta(w, q^-m z_1) prod_i delta(z_i, q^2 z_{i+1}) ],

and ``window_identity_report`` verifies this equality coefficientwise on
a finite exponent window, checking that the q^-m reading of the w-delta
matches and the q^+m reading does not.  Both sides are exact on the whole
window (``expand_ratfun`` of each summand, the delta chain in closed form)
and each is built once, for the identity permutation: a window is one
interval for every variable, so the symmetrized sides agree on it exactly
when the difference of the sides sums to zero over every orbit of the z's
(``MultiLaurent.fold_orbits``).

``partial_fraction_check`` covers the two elementary rewriting steps the
reduction rests on, together with named mutations that must all break
them.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from itertools import combinations, product
from math import factorial

from .formal import TruncSeries, Window, expand_ratfun
from .poly import MultiLaurent, VarId, aux_var, grassmannian_steps, zvar
from .qring import LaurentQ, RatQ, q_binomial
from .ratfun import BinomialFactor, RatFun

W = aux_var("w")


def _zs(m: int) -> list[VarId]:
    return [zvar(1, i) for i in range(1, m + 2)]


def _binom(m: int, k: int, q_inverted: bool) -> LaurentQ:
    b = q_binomial(m + 1, k)
    return b.bar() if q_inverted else b


def pole_sum_denominator(m: int) -> dict[BinomialFactor, int]:
    """All binomials any summand can use, in either orientation."""
    zs = _zs(m)
    den = {}
    for z in zs:
        den[BinomialFactor(z, W, RatQ.q_power(m))] = 1
        den[BinomialFactor(z, W, RatQ.q_power(-m))] = 1
    for a, b in combinations(zs, 2):
        den[BinomialFactor(a, b, RatQ.q_power(2))] = 1
        den[BinomialFactor(a, b, RatQ.q_power(-2))] = 1
    return den


def term_value(m: int, k: int, sigma, q_inverted: bool = False) -> RatFun:
    """One summand as a single fraction, the reference ``build_pole_sum``
    is checked against: its numerator, its canonical pole factors and the
    q-monomial unit they absorb go into one ``RatFun``."""
    if not 0 <= k <= m + 1:
        raise ValueError("k runs from 0 to m+1")
    e = -1 if q_inverted else 1
    rel = [_zs(m)[s - 1] for s in sigma]
    num = MultiLaurent.constant(_binom(m, k, q_inverted))
    for a, b in combinations(rel, 2):
        num = num.mul_binomial(1, a, -1, b)
    den, unit = {}, RatQ.one()
    poles = [(-e * m, z, W) if pos < k else (-e * m, W, z) for pos, z in enumerate(rel)]
    for p, a, b in poles + [(2 * e, a, b) for a, b in combinations(rel, 2)]:
        f, u = BinomialFactor.make(RatQ.q_power(p), a, RatQ.one(), b)
        den[f] = den.get(f, 0) + 1
        unit = unit * u
    return RatFun(num.scale(RatQ.one() / unit), den)


@dataclass
class PoleSum:
    m: int
    q_inverted: bool
    value: RatFun
    term_count: int

    def is_zero(self) -> bool:
        return self.value.is_zero()


def build_pole_sum(m: int, q_inverted: bool = False, coeff=None, progress=None) -> PoleSum:
    """Assemble L_m over the common denominator.

    The summand (k, s) is sgn(s) D s(c_k H_k) / E, with D = prod_{i<j}
    (z_i - z_j), E the symmetric product of all pole factors, c_k the
    coefficient and H_k = prod_{i<=k} (q^-m w - z_i) prod_{i>k} (q^-m z_i
    - w) prod_{i<j} (q^2 z_j - z_i).  Summed over s this is D^2 d_w0(c_k
    H_k) / E (Macdonald), so L_m takes one polynomial and m(m+1)/2
    divided-difference steps.  E is ``pole_sum_denominator(m)`` multiplied
    out, times (-1)^(n + n(n-1)/2) with n = m+1.

    ``coeff`` may replace the k -> [m+1 k] coefficient map (a scientific
    control; the genuine sum vanishes, a perturbed one must not).
    ``progress`` is called with a status line per k block and per d_w0
    chain.
    """
    if m < 1:
        raise ValueError("the pole sum needs m >= 1")
    e = -1 if q_inverted else 1
    zs, n = _zs(m), m + 1
    qm = RatQ.q_power(-e * m)
    total = MultiLaurent.zero()
    for k in range(m + 2):
        h = MultiLaurent.constant(_binom(m, k, q_inverted) if coeff is None else coeff(k))
        for i, z in enumerate(zs):
            h = h.mul_binomial(qm, W, -1, z) if i < k else h.mul_binomial(qm, z, -1, W)
        total = total + h
        if progress is not None:
            progress(f"m={m} k={k}: {(k + 1) * factorial(n)} terms folded in")
    for a, b in combinations(zs, 2):
        total = total.mul_binomial(RatQ.q_power(2 * e), b, -1, a)
    for j in range(1, n):  # d_w0: move slot j+1 past slots 1..j, for j = 1..m
        for i in grassmannian_steps(j, 1):
            total = total.divided_difference(zs[i - 1], zs[i])
        if progress is not None:
            progress(f"m={m} d_w0 chain {j}/{m}: {len(total.terms)} monomials")
    if (n + n * (n - 1) // 2) % 2:
        total = -total
    for a, b in combinations(zs, 2):
        total = total.mul_binomial(1, a, -1, b).mul_binomial(1, a, -1, b)
    return PoleSum(m, q_inverted, RatFun(total, pole_sum_denominator(m)), (m + 2) * factorial(n))


def verify_rational_vanishing(ms=(1, 2), progress=None) -> dict:
    """Run L_m == 0 for each m in both orientations; returns a report."""
    results = []
    for m in ms:
        for q_inverted in (False, True):
            t0 = time.perf_counter()
            ps = build_pole_sum(m, q_inverted=q_inverted, progress=progress)
            entry = {
                "m": m,
                "q_inverted": q_inverted,
                "zero": ps.is_zero(),
                "term_count": ps.term_count,
                "elapsed_ms": round(1000 * (time.perf_counter() - t0), 1),
            }
            if not ps.is_zero():
                entry["witness"] = str(ps.value)[:200]
            results.append(entry)
    return {"results": results, "all_zero": all(r["zero"] for r in results)}


# ---------- the two partial-fraction steps ----------

PF_MUTATIONS = (
    "scale-sign",
    "scale-shift",
    "pole-swap",
    "exponent-bump",
    "numerator-flip",
)


def _pf_pair(perturb):
    """(lhs, rhs) for both rewriting steps, optionally perturbed.

    The split constants are c/(q^2 + 1), outside the Laurent coefficient
    ring, so both sides of each step come multiplied by q^2 + 1: a side
    vanishes iff it does times that nonzero scalar."""
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


def partial_fraction_check(perturb: str | None = None) -> bool:
    """Both rewriting steps hold; any mutation from PF_MUTATIONS breaks
    at least one of them."""
    if perturb is not None and perturb not in PF_MUTATIONS:
        raise ValueError(f"unknown mutation {perturb!r}")
    return all((lhs - rhs).is_zero() for lhs, rhs in _pf_pair(perturb))


# ---------- the windowed distribution identity ----------


def _lhs_series(m: int, window: Window, q_inverted: bool) -> TruncSeries:
    zs = _zs(m)
    total = None
    for k in range(m + 2):
        order = zs[:k] + [W] + zs[k:]
        part = expand_ratfun(term_value(m, k, tuple(range(1, m + 2)), q_inverted), order, window)
        total = part if total is None else total + part
    return total


def _rhs_poly(m: int, window: Window, reading: str, q_inverted: bool) -> MultiLaurent:
    """The delta chain on the window: with delta(x, c y) = sum_i c^(-i-1) x^i
    y^(-i-1) its indices are i_0 = e_w and i_j = i_(j-1) + 1 + e_j, and
    z_(m+1) carries -i_m - 1, one q-power per monomial of degree -(m+1)."""
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
    return MultiLaurent(_zs(m) + [W], terms)  # the registry order z_1..z_(m+1), w


def window_identity_report(m: int, window: Window, q_inverted: bool = False, rhs_scale=None) -> dict:
    """Compare both delta readings of the identity against the expanded
    sum on the whole window; exactly the q^-m reading should survive.

    ``rhs_scale`` perturbs the overall delta coefficient (a control: with
    a wrong scale neither reading can match)."""
    lhs = _lhs_series(m, window, q_inverted).poly
    readings = {}
    for reading in ("qminus", "qplus"):
        rhs = _rhs_poly(m, window, reading, q_inverted)
        if rhs_scale is not None:
            rhs = rhs.scale(rhs_scale)
        readings[reading] = not (lhs - rhs).fold_orbits(_zs(m))
    matched = [r for r, ok in readings.items() if ok]
    return {
        "m": m,
        "window": window.as_pair(),
        "q_inverted": q_inverted,
        "readings": readings,
        "matched": matched,
        "compared": dict.fromkeys(readings, window.as_pair()),
    }


def progress_stderr(line: str):
    print(line, file=sys.stderr, flush=True)
