"""Truncated formal distributions with verified multiplication.

A bilateral series like the formal delta has coefficients on infinitely
many exponents, so we store only the coefficients whose exponent vector
lies inside a finite per-variable window.  The point of this module is
that products of such truncations are only meaningful when the full
(untruncated) product is locally finite: each output exponent must
receive finitely many contributions, and all of them must come from the
stored part of each operand.

A ``TruncSeries`` is the terms of a ``MultiLaurent`` (a sorted variable
registry and a dict from exponent tuples to RatQ coefficients) restricted
to a box; it re-slots, relabels, scales and adds those terms through
``MultiLaurent`` and keeps only its own bookkeeping on top:

* ``window``    -- the per-variable exponent box the truncation targets;
* ``reliable``  -- the sub-box on which stored coefficients are exact;
* ``support``   -- a structural description of the *true* support:
  per-variable exponent bounds (possibly infinite) plus "ties", linear
  relations sum(e_v for v in Z) = c that every true term satisfies.

``series_mul`` runs an interval-propagation argument over this data.  If
it cannot bound the contributing exponents it raises
``NonAdmissibleProduct`` instead of returning garbage; if contributions
would come from outside an operand's reliable box it shrinks the result
window until they cannot.  The arithmetic itself goes through
``MultiLaurent``: ``series_mul`` multiplies the contributing terms,
``expand_ratfun`` multiplies by one truncated geometric series per
denominator factor, and ``compare_on_window`` subtracts.  Every series
starts as an ``expand_ratfun`` expansion: a polynomial is one with no
denominator, a pole 1/(z-w) one with a single factor, and the formal
delta the difference of a pole's two expansions.  Only the geometric
series there writes coefficients; everything else filters terms to
boxes.  Multiplying the two opposite expansions of 1/(z-w) fails; delta
chains pass.  All series here are over Q(q) and the objects are immutable
once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from .poly import MultiLaurent, VarId, _sorted_vars
from .qring import RQ_ONE, RatQ
from .ratfun import BinomialFactor, RatFun


class NonAdmissibleProduct(ArithmeticError):
    """The requested series product is not structurally locally finite."""


@dataclass(frozen=True)
class Window:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty window")

    def intersect(self, other: Window) -> Window:
        return Window(max(self.lo, other.lo), min(self.hi, other.hi))

    def contains(self, e: int) -> bool:
        return self.lo <= e <= self.hi

    def as_pair(self):
        return (self.lo, self.hi)


# intervals are (lo, hi) pairs with None meaning unbounded on that side
def _iv_meet(a, b):
    lo = b[0] if a[0] is None else a[0] if b[0] is None else max(a[0], b[0])
    hi = b[1] if a[1] is None else a[1] if b[1] is None else min(a[1], b[1])
    return (lo, hi)


def _iv_empty(a) -> bool:
    return a[0] is not None and a[1] is not None and a[0] > a[1]


def _iv_sum(ivs):
    lo = 0
    hi = 0
    for a, b in ivs:
        lo = None if (lo is None or a is None) else lo + a
        hi = None if (hi is None or b is None) else hi + b
    return (lo, hi)


def _iv_window_minus(w: Window, iv):
    lo = None if iv[1] is None else w.lo - iv[1]
    hi = None if iv[0] is None else w.hi - iv[0]
    return (lo, hi)


@dataclass(frozen=True)
class Support:
    """Structural over-approximation of a series' true support."""

    bounds: dict  # VarId -> (lo|None, hi|None)
    ties: dict  # frozenset[VarId] -> int

    def bound(self, v: VarId):
        return self.bounds.get(v, (0, 0))

    def relabel(self, mapping: dict) -> Support:
        nb = {mapping.get(v, v): iv for v, iv in self.bounds.items()}
        nt = {
            frozenset(mapping.get(v, v) for v in Z): c
            for Z, c in self.ties.items()
        }
        return Support(nb, nt)


def _merge_supports_for_sum(a: Support, b: Support) -> Support:
    bounds = {}
    for v in set(a.bounds) | set(b.bounds):
        ia, ib = a.bound(v), b.bound(v)
        lo = None if ia[0] is None or ib[0] is None else min(ia[0], ib[0])
        hi = None if ia[1] is None or ib[1] is None else max(ia[1], ib[1])
        bounds[v] = (lo, hi)
    ties = {Z: c for Z, c in a.ties.items() if b.ties.get(Z) == c}
    return Support(bounds, ties)


def _in_box(terms: dict, box: Window) -> dict:
    return {e: c for e, c in terms.items() if all(box.contains(x) for x in e)}


def _in_intervals(terms: dict, ivs) -> dict:
    """The terms whose exponent in each slot lies in that slot's (lo, hi)."""
    return {
        e: c for e, c in terms.items() if all(lo <= x <= hi for x, (lo, hi) in zip(e, ivs))
    }


class TruncSeries:
    """A windowed truncation of a formal distribution over Q(q)."""

    __slots__ = ("vars", "terms", "window", "reliable", "support")

    def __init__(self, vars, terms, window: Window, reliable: Window, support: Support):
        if not (window.lo <= reliable.lo and reliable.hi <= window.hi):
            raise ValueError("reliable window must sit inside the window")
        p = MultiLaurent(vars, terms)
        self.vars, self.terms = p.vars, _in_box(p.terms, reliable)
        self.window, self.reliable, self.support = window, reliable, support

    @classmethod
    def _trusted(cls, vars, terms, window, reliable, support) -> TruncSeries:
        """Wrap terms a ``MultiLaurent`` method made from stored ones, unchecked."""
        self = cls.__new__(cls)
        self.vars, self.terms = vars, terms
        self.window, self.reliable, self.support = window, reliable, support
        return self

    # ---------- constructors ----------

    @classmethod
    def from_poly(cls, p: MultiLaurent, window: Window) -> TruncSeries:
        return expand_ratfun(RatFun(p), p.vars, window)

    # ---------- bookkeeping ----------

    def _poly(self) -> MultiLaurent:
        """The stored terms as a polynomial (shared, not copied)."""
        return MultiLaurent._raw(self.vars, self.terms)

    def with_vars(self, extra) -> TruncSeries:
        p = self._poly().with_vars(extra)
        if p.vars == self.vars:
            return self
        bounds = dict.fromkeys(p.vars, (0, 0)) | self.support.bounds
        # the new slots hold exponent 0, which the reliable box may exclude
        return TruncSeries._trusted(
            p.vars, _in_box(p.terms, self.reliable), self.window, self.reliable,
            Support(bounds, self.support.ties),
        )

    def relabel(self, mapping: dict) -> TruncSeries:
        p = self._poly().relabel(mapping)
        return TruncSeries._trusted(
            p.vars, p.terms, self.window, self.reliable, self.support.relabel(mapping)
        )

    def coeff(self, exps) -> RatQ:
        return self.terms.get(tuple(exps), RatQ.zero())

    def scale(self, c) -> TruncSeries:
        p = self._poly().scale(c)
        return TruncSeries._trusted(p.vars, p.terms, self.window, self.reliable, self.support)

    # ---------- addition ----------

    def __add__(self, other: TruncSeries) -> TruncSeries:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        p = self._poly() + other._poly()
        window = self.window.intersect(other.window)
        reliable = self.reliable.intersect(other.reliable)
        support = _merge_supports_for_sum(self.support, other.support)
        return TruncSeries._trusted(p.vars, _in_box(p.terms, reliable), window, reliable, support)

    def __neg__(self) -> TruncSeries:
        return self.scale(-1)

    def __sub__(self, other: TruncSeries) -> TruncSeries:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self + other.scale(-1)

    # ---------- multiplication ----------

    def __mul__(self, other: TruncSeries) -> TruncSeries:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return series_mul(self, other)

    def __str__(self) -> str:
        n = len(self.terms)
        return (
            f"TruncSeries[{', '.join(map(str, self.vars))}] "
            f"({n} terms on {self.reliable.as_pair()} of {self.window.as_pair()})"
        )

    __repr__ = __str__


# ---------- elementary series ----------


def expand_inverse(
    factor: BinomialFactor, dominant: VarId, window: Window
) -> TruncSeries:
    """Expansion of 1/(z_i - c z_j) in the region where ``dominant`` wins.

    Dominant z_i gives sum(c^t z_j^t z_i^(-1-t), t >= 0); dominant z_j
    gives the negative of the mirrored sum.
    """
    if dominant == factor.i:
        order = (factor.i, factor.j)
    elif dominant == factor.j:
        order = (factor.j, factor.i)
    else:
        raise ValueError("dominant variable must belong to the factor")
    return expand_ratfun(RatFun.inverse_factor(factor), order, window)


def expand_binomial_inverse(a, vi, b, vj, dominant, window: Window) -> TruncSeries:
    """Expansion of 1/(a z_vi - b z_vj) with raw coefficients."""
    f, unit = BinomialFactor.make(a, vi, b, vj)
    return expand_inverse(f, dominant, window).scale(RQ_ONE / unit)


def delta_series(x: VarId, c, y: VarId, window: Window) -> TruncSeries:
    """The formal delta at x = c y: sum(c^(-i-1) x^i y^(-i-1)) over all i,
    the difference of the two expansions of 1/(x - c y)."""
    c = RatQ.coerce(c)
    if not c.is_q_monomial():
        raise ValueError("delta scalar must be a nonzero q-monomial")
    return expand_binomial_inverse(1, x, c, y, x, window) - expand_binomial_inverse(
        1, x, c, y, y, window
    )


# ---------- verified multiplication ----------

_MAX_ROUNDS = 64


def _propagate(a: TruncSeries, b: TruncSeries, vs, cand: Window):
    """Bound, per variable, the operand exponents that can contribute to
    a result exponent inside ``cand``.  Returns (A, B) interval dicts,
    "empty" when no contribution is possible, or None when some interval
    stays unbounded (the structural check fails)."""
    A = {v: a.support.bound(v) if v in a.vars else (0, 0) for v in vs}
    B = {v: b.support.bound(v) if v in b.vars else (0, 0) for v in vs}
    for _ in range(_MAX_ROUNDS):
        changed = False
        for v in vs:
            na = _iv_meet(A[v], _iv_window_minus(cand, B[v]))
            nb = _iv_meet(B[v], _iv_window_minus(cand, A[v]))
            if na != A[v]:
                A[v] = na
                changed = True
            if nb != B[v]:
                B[v] = nb
                changed = True
        for side, ties in ((A, a.support.ties), (B, b.support.ties)):
            for Z, c in ties.items():
                for v in Z:
                    if v not in side:
                        continue
                    rest = _iv_sum(side[u] for u in Z if u != v and u in side)
                    nv = _iv_meet(side[v], _iv_window_minus(Window(c, c), rest))
                    if nv != side[v]:
                        side[v] = nv
                        changed = True
        if any(_iv_empty(iv) for iv in list(A.values()) + list(B.values())):
            return "empty"
        if not changed:
            break
    for iv in list(A.values()) + list(B.values()):
        if iv[0] is None or iv[1] is None:
            return None
    return A, B


def series_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Product of two truncations, verified to be locally finite.

    Raises NonAdmissibleProduct when the structural support data cannot
    certify finiteness (e.g. opposite expansions of the same binomial),
    or when no nonempty result window can be made reliable.
    """
    a = a.with_vars(b.vars)
    b = b.with_vars(a.vars)
    vs = a.vars
    window = a.window.intersect(b.window)
    cand = a.reliable.intersect(b.reliable)
    empty = False
    while True:
        got = _propagate(a, b, vs, cand)
        if got == "empty":
            empty = True
            break
        if got is None:
            raise NonAdmissibleProduct(
                "cannot certify local finiteness of the series product"
            )
        A, B = got
        lo_bump = False
        hi_bump = False
        for side, s in ((A, a), (B, b)):
            for v in vs:
                iv = side[v]
                if v in s.vars:
                    if iv[0] < s.reliable.lo:
                        lo_bump = True
                    if iv[1] > s.reliable.hi:
                        hi_bump = True
                else:
                    # absent variables only ever contribute exponent 0
                    if iv[0] < 0 or iv[1] > 0:
                        raise NonAdmissibleProduct(
                            "contribution bound escapes an absent variable"
                        )
        if not (lo_bump or hi_bump):
            break
        lo = cand.lo + (1 if lo_bump else 0)
        hi = cand.hi - (1 if hi_bump else 0)
        if lo > hi:
            raise NonAdmissibleProduct(
                "no reliable result window left; enlarge the operand windows"
            )
        cand = Window(lo, hi)

    terms = {}
    if not empty:
        pa = MultiLaurent._raw(vs, _in_intervals(a.terms, [A[v] for v in vs]))
        pb = MultiLaurent._raw(vs, _in_intervals(b.terms, [B[v] for v in vs]))
        terms = _in_box((pa * pb).terms, cand)

    bounds = {}
    for v in vs:
        iva = a.support.bound(v) if v in a.vars else (0, 0)
        ivb = b.support.bound(v) if v in b.vars else (0, 0)
        bounds[v] = _iv_sum((iva, ivb))
    ties = _combine_ties(a, b)
    return TruncSeries._trusted(vs, terms, window, cand, Support(bounds, ties))


def _fixed_sum(s: TruncSeries, Z) -> int | None:
    """Sum of the forced exponents of Z on s, or None if not forced."""
    total = 0
    for v in Z:
        iv = s.support.bound(v) if v in s.vars else (0, 0)
        if iv[0] is None or iv[0] != iv[1]:
            return None
        total += iv[0]
    return total


def _combine_ties(a: TruncSeries, b: TruncSeries) -> dict:
    ties = {}
    for Z, c in a.support.ties.items():
        k = _fixed_sum(b, Z)
        if k is not None:
            ties[Z] = c + k
    for Z, c in b.support.ties.items():
        k = _fixed_sum(a, Z)
        if k is not None and Z not in ties:
            ties[Z] = c + k
    for Za, ca in a.support.ties.items():
        for Zb, cb in b.support.ties.items():
            Z = Za | Zb
            ka = _fixed_sum(a, Zb - Za)
            kb = _fixed_sum(b, Za - Zb)
            if ka is not None and kb is not None and Z not in ties:
                ties[Z] = ca + cb + ka + kb
    return ties


# ---------- rational-function expansion ----------


def expand_ratfun(f: RatFun, order, window: Window) -> TruncSeries:
    """Iterated Laurent expansion of a RatFun in a dominance order.

    ``order`` lists variables from most to least dominant and must cover
    every variable of f.  Each denominator factor is expanded in the
    geometric series dictated by its more dominant variable; the result
    is exact on the whole window (reliable equals window).
    """
    order = list(order)
    if len(set(order)) != len(order):
        raise ValueError("duplicate variable in expansion order")
    missing = [v for v in f.vars() if v not in order]
    if missing:
        raise ValueError(f"expansion order misses variables: {missing}")
    if f.is_zero():
        vs = _sorted_vars(order)
        return TruncSeries(
            vs,
            {},
            window,
            window,
            Support({v: (0, 0) for v in vs}, {}),
        )

    pos = {v: k for k, v in enumerate(order)}
    num = f.num.with_vars(order)
    vs = num.vars
    idx = {v: i for i, v in enumerate(vs)}

    # one entry per denominator copy: (dominant, subordinate, scalar)
    copies = []
    for fac, mult in f.den.items():
        if pos[fac.i] < pos[fac.j]:
            dom, sub, base, unit = fac.i, fac.j, fac.c, RQ_ONE
        else:
            dom, sub, base, unit = fac.j, fac.i, RQ_ONE / fac.c, -(RQ_ONE / fac.c)
        for _ in range(mult):
            copies.append((dom, sub, base, unit))

    # cap the geometric index of each copy by walking down the dominance
    # order: contributions below window.lo in the dominant variable of a
    # copy can never climb back
    nmax = {v: num.exp_range(v)[1] for v in vs}
    caps = [0] * len(copies)
    for v in order:
        D = [k for k, cp in enumerate(copies) if cp[0] == v]
        S = [k for k, cp in enumerate(copies) if cp[1] == v]
        if not D:
            continue
        total = nmax[v] - len(D) - window.lo + sum(caps[k] for k in S)
        for k in D:
            caps[k] = max(0, total)

    # exponents a partial term may hold while some copies are still
    # unapplied and still reach the window; used to prune dead terms early
    def live(start: int):
        lo = {v: 0 for v in vs}
        hi = {v: 0 for v in vs}
        for k in range(start, len(copies)):
            dom, sub, _, _ = copies[k]
            lo[dom] -= 1 + caps[k]
            hi[dom] -= 1
            hi[sub] += caps[k]
        return [(window.lo - hi[v], window.hi - lo[v]) for v in vs]

    partial = num
    for k, (dom, sub, base, unit) in enumerate(copies):
        # unit * sum(base^t dom^(-1-t) sub^t, t <= caps[k])
        geo = {}
        coeff = unit
        for t in range(caps[k] + 1):
            exps = [0] * len(vs)
            exps[idx[dom]], exps[idx[sub]] = -1 - t, t
            geo[tuple(exps)] = coeff
            coeff = coeff * base
        prod = partial * MultiLaurent._raw(vs, geo)
        partial = MultiLaurent._raw(vs, _in_intervals(prod.terms, live(k + 1)))

    box = {}
    for v in vs:
        D = sum(1 for cp in copies if cp[0] == v)
        S = sum(1 for cp in copies if cp[1] == v)
        lo, hi = num.exp_range(v)
        box[v] = (None if D else lo, (hi - D) if not S else None)
    ties = {}
    deg = num.total_degree_if_homogeneous()
    if deg is not None and vs:
        ties[frozenset(vs)] = deg - len(copies)
    # the constructor keeps only the terms inside the window
    return TruncSeries(vs, partial.terms, window, window, Support(box, ties))


# ---------- comparison ----------


def compare_on_window(a: TruncSeries, b: TruncSeries, window: Window | None = None) -> bool:
    """Exact coefficient comparison on the common reliable box."""
    try:
        box = a.reliable.intersect(b.reliable)
        if window is not None:
            box = box.intersect(window)
    except ValueError:
        raise ValueError("empty reliable intersection; enlarge the windows")
    return not _in_box((a._poly() - b._poly()).terms, box)
