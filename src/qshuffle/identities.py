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
window and each is built once, for the identity permutation, as one
polynomial: the left side sums the ``expand_ratfun`` expansions of the
m + 2 summands, each built reduced (``term_value``), and the right side
is the delta chain in closed form, one q-power per monomial.  A window is
one interval for every variable, so the symmetrized sides agree on it
exactly when the two sides have the same sum over every orbit of the z's
(``MultiLaurent.fold_orbits``): the left side is folded once, and each
reading's fold is compared with it.

``partial_fraction_check`` covers the two elementary rewriting steps the
reduction rests on, together with named mutations that must all break
them.  Each side of a step is built as an unreduced (numerator,
{factor: multiplicity}) pair from kernel parts: canonical factors
(``BinomialFactor.from_parts``) whose units sign q^shift are read off by
exponent arithmetic, a right side's simple fractions added over their lcm
(``fraction_sum``), and the step is decided by cross-multiplying
(``fractions_equal``), with no division and no reduction.

So each identity is decided by one exact polynomial test: L_m by its
numerator over the shared denominator being zero, the window identity by
the orbit folds of its two sides being equal, and each partial-fraction
step by the cross-multiplied numerators being equal.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from itertools import combinations, product
from math import factorial

from .formal import Window, expand_ratfun
from .poly import MultiLaurent, VarId, aux_var, grassmannian_steps, zvar
from .qring import LaurentQ, q_binomial
from .ratfun import BinomialFactor, RatFun, fraction_sum, fractions_equal

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
        den[BinomialFactor.from_parts(z, W, m)] = 1
        den[BinomialFactor.from_parts(z, W, -m)] = 1
    for a, b in combinations(zs, 2):
        den[BinomialFactor.from_parts(a, b, 2)] = 1
        den[BinomialFactor.from_parts(a, b, -2)] = 1
    return den


def _poles(poles):
    """The product of the poles q^s z_vi - q^t z_vj, given as (s, vi, t, vj),
    as ({canonical factor: multiplicity}, sign, shift): the product is sign
    q^shift times the factors', each pole's unit read off by exponent
    arithmetic (q^s z_vi - q^t z_vj = q^s (z_vi - q^(t-s) z_vj) for vi before
    vj, and -q^t (z_vj - q^(s-t) z_vi) otherwise)."""
    den, sign, shift = {}, 1, 0
    for s, vi, t, vj in poles:
        if vi < vj:
            f = BinomialFactor.from_parts(vi, vj, t - s)
            shift += s
        else:
            f = BinomialFactor.from_parts(vj, vi, s - t)
            sign, shift = -sign, shift + t
        den[f] = den.get(f, 0) + 1
    return den, sign, shift


def term_value(m: int, k: int, sigma, q_inverted: bool = False) -> RatFun:
    """One summand as a single fraction, the reference ``build_pole_sum``
    is checked against: its numerator, its canonical pole factors and the
    q-monomial unit they absorb go into one ``RatFun``.  The unit is taken
    into the q-binomial by exponent arithmetic and the numerator's factors
    are multiplied on as (a, s) pairs.  It is built reduced: the
    numerator's factors z_a - z_b are none of the poles, whose q-powers
    are q^(+-m) and q^(+-2) with m >= 1."""
    if not 0 <= k <= m + 1:
        raise ValueError("k runs from 0 to m+1")
    e = -1 if q_inverted else 1
    rel = [_zs(m)[s - 1] for s in sigma]
    poles = [(-e * m, z, 0, W) if pos < k else (-e * m, W, 0, z) for pos, z in enumerate(rel)]
    den, sign, shift = _poles(poles + [(2 * e, a, 0, b) for a, b in combinations(rel, 2)])
    qb = _binom(m, k, q_inverted).terms
    num = MultiLaurent.constant(LaurentQ._raw({p - shift: sign * c for p, c in qb.items()}))
    for a, b in combinations(rel, 2):
        num = num._mul_binomial(a, (1, 0), b, (-1, 0))
    return RatFun(num, den, _reduced=True)


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
    qm, neg = (1, -e * m), (-1, 0)
    total = MultiLaurent.zero()
    for k in range(m + 2):
        h = MultiLaurent.constant(_binom(m, k, q_inverted) if coeff is None else coeff(k))
        for i, z in enumerate(zs):
            h = h._mul_binomial(W, qm, z, neg) if i < k else h._mul_binomial(z, qm, W, neg)
        total = total + h
        if progress is not None:
            progress(f"m={m} k={k}: {(k + 1) * factorial(n)} terms folded in")
    for a, b in combinations(zs, 2):
        total = total._mul_binomial(b, (1, 2 * e), a, neg)
    for j in range(1, n):  # d_w0: move slot j+1 past slots 1..j, for j = 1..m
        for i in grassmannian_steps(j, 1):
            total = total.divided_difference(zs[i - 1], zs[i])
        if progress is not None:
            progress(f"m={m} d_w0 chain {j}/{m}: {len(total.terms)} monomials")
    if (n + n * (n - 1) // 2) % 2:
        total = -total
    for a, b in combinations(zs, 2):
        total = total._mul_binomial(a, (1, 0), b, neg)._mul_binomial(a, (1, 0), b, neg)
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


# the split constants c/(q^2 + 1) lie outside the Laurent coefficient
# ring, so both sides of each step come multiplied by q^2 + 1
_Q2P1 = LaurentQ({2: 1, 0: 1})


def _pf_side(terms, poles, scalar=None):
    """sum a q^s z_1^e_1 z_2^e_2 over the items (e_1, e_2): (a, s) of terms,
    times ``scalar`` and over the poles q^s z_vi - q^t z_vj given as (s, vi,
    t, vj), as an unreduced (numerator, {factor: multiplicity}) pair: the
    poles' unit sign q^shift is divided into each (a, s)."""
    den, sign, shift = _poles(poles)
    num = MultiLaurent._q_monomials(tuple(_zs(1)), {x: (a * sign, s - shift) for x, (a, s) in terms.items()})
    return (num if scalar is None else num.scale(scalar)), den


def _pf_pair(perturb):
    """(lhs, rhs) for both rewriting steps, optionally perturbed, each side
    an unreduced (numerator, {factor: multiplicity}) pair; the right sides
    are sums of simple fractions, added over their lcm (``fraction_sum``)."""
    z1, z2 = _zs(1)
    num = {(1, 0): (1, 0), (0, 1): (1 if perturb == "numerator-flip" else -1, 0)}
    c1 = {"scale-sign": (1, 1), "scale-shift": (-1, 2)}.get(perturb, (-1, 1))

    # step one: (q^2 + 1)(z1 - z2)/((q^2 z2 - z1)(q^-1 z2 - q z1))
    #         = -q/(q^2 z2 - z1) - q/(z2 - q^2 z1)
    lhs1 = _pf_side(num, [(2, z2, 0, z1), (-1, z2, 1, z1)], _Q2P1)
    p1b = (0, z2, 2, z1)
    p1a = p1b if perturb == "pole-swap" else (2, z2, 0, z1)
    rhs1 = fraction_sum(_pf_side({(0, 0): c1}, [p]) for p in (p1a, p1b))

    # step two: (q^2 + 1)(z1 - z2)/((q^2 z1 - z2)(q^-2 z1 - z2))
    #         = q^2/(q^2 z1 - z2) + q^2/(z1 - q^2 z2)
    e = 3 if perturb == "exponent-bump" else 2
    lhs2 = _pf_side(num, [(2, z1, 0, z2), (-e, z1, 0, z2)], _Q2P1)
    rhs2 = fraction_sum(_pf_side({(0, 0): (1, 2)}, [p]) for p in ((2, z1, 0, z2), (0, z1, 2, z2)))
    return [(lhs1, rhs1), (lhs2, rhs2)]


def partial_fraction_check(perturb: str | None = None) -> bool:
    """Both rewriting steps hold; any mutation from PF_MUTATIONS breaks
    at least one of them.  Each step is decided on its unreduced sides by
    cross-multiplying (``fractions_equal``), with no division."""
    if perturb is not None and perturb not in PF_MUTATIONS:
        raise ValueError(f"unknown mutation {perturb!r}")
    return all(fractions_equal(lhs, rhs) for lhs, rhs in _pf_pair(perturb))


# ---------- the windowed distribution identity ----------


def _lhs_poly(m: int, window: Window, q_inverted: bool) -> MultiLaurent:
    """The m + 2 summand expansions for the identity permutation, summed;
    each is exact on the whole window."""
    zs, total = _zs(m), MultiLaurent.zero()
    for k in range(m + 2):
        f = term_value(m, k, tuple(range(1, m + 2)), q_inverted)
        total = total + expand_ratfun(f, zs[:k] + [W] + zs[k:], window).poly
    return total


def _rhs_polys(m: int, window: Window, q_inverted: bool):
    """The (reading, polynomial) pairs of both readings of the delta chain
    on the window, from one pass over the index box: with delta(x, c y) =
    sum_i c^(-i-1) x^i y^(-i-1) its indices are i_0 = e_w and i_j =
    i_(j-1) + 1 + e_j, and z_(m+1) carries -i_m - 1, one q-power per
    monomial of degree -(m+1).  The readings c = q^(-+e m) of the w-delta
    add +- e m (e_w + 1) to the part of that q-power the pass computes,
    e m included; each is packed as it is asked for
    (``MultiLaurent._q_monomials``)."""
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


def window_identity_report(m: int, window: Window, q_inverted: bool = False, rhs_scale=None) -> dict:
    """Compare both delta readings of the identity against the expanded
    sum on the whole window; exactly the q^-m reading should survive.

    ``rhs_scale`` perturbs the overall delta coefficient (a control: with
    a wrong scale neither reading can match)."""
    zs = _zs(m)
    lhs = _lhs_poly(m, window, q_inverted).fold_orbits(zs)
    readings = {}
    for reading, rhs in _rhs_polys(m, window, q_inverted):
        if rhs_scale is not None:
            rhs = rhs.scale(rhs_scale)
        readings[reading] = lhs == rhs.fold_orbits(zs)
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
