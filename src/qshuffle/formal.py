"""Truncated formal distributions with verified multiplication.

A bilateral series like the formal delta has coefficients on infinitely
many exponents, so we store only the coefficients whose exponent vector
lies inside a finite per-variable window.  The point of this module is
that products of such truncations are only meaningful when the full
(untruncated) product is locally finite: each output exponent must
receive finitely many contributions, and all of them must come from the
stored part of each operand.

A ``TruncSeries`` is the terms of a ``MultiLaurent`` restricted to a box
in the variables' exponents.  It never reads or builds a term key: it
re-slots, relabels, scales, adds, filters (``MultiLaurent.within``) and
reads coefficients (``MultiLaurent.coeff``) through ``MultiLaurent``,
and keeps only its own bookkeeping on top:

* ``window``    -- the per-variable exponent box the truncation targets;
* ``reliable``  -- the sub-box on which stored coefficients are exact;
* ``support``   -- a structural description of the *true* support:
  per-variable exponent bounds (possibly infinite) plus a degree, the
  exponent sum every true term shares (absent variables count 0), or
  None when that sum is not fixed.  One degree suffices because every
  series starts as an ``expand_ratfun`` expansion, which has one exactly
  when its fraction is homogeneous, and relabelings, sums and products
  keep or lose it as a whole.

``series_mul`` runs an interval-propagation argument over this data.  If
it cannot bound the contributing exponents it raises
``NonAdmissibleProduct`` instead of returning garbage; if contributions
would come from outside an operand's reliable box it shrinks the result
window until they cannot.  The arithmetic itself goes through
``MultiLaurent``: ``series_mul`` multiplies the contributing terms,
``expand_ratfun`` filters once, then takes one pruned geometric step
(``MultiLaurent._geometric_step``) per denominator factor, and
``compare_on_window`` subtracts.  The tests build the window identity's
delta chain, which ``identities`` writes in closed form, from
``delta_series`` and ``series_mul``.  Every series starts as an
``expand_ratfun`` expansion: a polynomial is one with no denominator, a
pole 1/(z-w) one with a single factor, and the formal delta the
difference of a pole's two expansions.  Multiplying the two opposite
expansions of 1/(z-w) fails; delta chains pass.  Coefficients lie in
Q[q, q^-1]: every pole scalar is a q-monomial, and scaling by a scalar
outside that ring raises ``ValueError``.  The objects are immutable
once built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import MultiLaurent, VarId
from .qring import RQ_ONE, RatQ, int_exponent
from .ratfun import BinomialFactor, RatFun


class NonAdmissibleProduct(ArithmeticError):
    """The requested series product is not structurally locally finite."""


@dataclass(frozen=True)
class Window:
    lo: int
    hi: int

    def __post_init__(self):
        int_exponent(self.lo, "window bound")
        int_exponent(self.hi, "window bound")
        if self.lo > self.hi:
            raise ValueError("empty window")

    def intersect(self, other: Window) -> Window:
        return Window(max(self.lo, other.lo), min(self.hi, other.hi))

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


def _iv_minus(lo: int, hi: int, iv):
    """The interval [lo, hi] minus iv."""
    return (None if iv[1] is None else lo - iv[1], None if iv[0] is None else hi - iv[0])


@dataclass(frozen=True)
class Support:
    """Structural over-approximation of a series' true support."""

    bounds: dict  # VarId -> (lo|None, hi|None)
    degree: int | None  # exponent sum of every true term, absent variables 0

    def bound(self, v: VarId):
        return self.bounds.get(v, (0, 0))

    def relabel(self, mapping: dict) -> Support:
        return Support({mapping.get(v, v): iv for v, iv in self.bounds.items()}, self.degree)


def _merge_supports_for_sum(a: Support, b: Support) -> Support:
    bounds = {}
    for v in set(a.bounds) | set(b.bounds):
        ia, ib = a.bound(v), b.bound(v)
        lo = None if ia[0] is None or ib[0] is None else min(ia[0], ib[0])
        hi = None if ia[1] is None or ib[1] is None else max(ia[1], ib[1])
        bounds[v] = (lo, hi)
    return Support(bounds, a.degree if a.degree == b.degree else None)


def _in_box(p: MultiLaurent, box: Window) -> MultiLaurent:
    """The terms of p whose exponent in every variable lies in the box."""
    return p.within(dict.fromkeys(p.vars, box.as_pair()))


class TruncSeries:
    """A windowed truncation of a formal distribution over Q(q)."""

    __slots__ = ("poly", "window", "reliable", "support")

    def __init__(self, vars, terms, window: Window, reliable: Window, support: Support):
        if not (window.lo <= reliable.lo and reliable.hi <= window.hi):
            raise ValueError("reliable window must sit inside the window")
        self.poly = _in_box(MultiLaurent(vars, terms), reliable)
        self.window, self.reliable, self.support = window, reliable, support

    @classmethod
    def _trusted(cls, p: MultiLaurent, window, reliable, support) -> TruncSeries:
        """Wrap a polynomial a ``MultiLaurent`` method made from stored terms, unchecked."""
        self = cls.__new__(cls)
        self.poly, self.window, self.reliable, self.support = p, window, reliable, support
        return self

    @property
    def vars(self) -> tuple[VarId, ...]:
        return self.poly.vars

    @property
    def terms(self) -> dict:
        """The stored terms, one per monomial (see ``MultiLaurent``)."""
        return self.poly.terms

    # ---------- constructors ----------

    @classmethod
    def from_poly(cls, p: MultiLaurent, window: Window) -> TruncSeries:
        return expand_ratfun(RatFun(p), p.vars, window)

    # ---------- bookkeeping ----------

    def with_vars(self, extra) -> TruncSeries:
        p = self.poly.with_vars(extra)
        if p.vars == self.vars:
            return self
        bounds = dict.fromkeys(p.vars, (0, 0)) | self.support.bounds
        # the new slots hold exponent 0, which the reliable box may exclude
        return TruncSeries._trusted(
            _in_box(p, self.reliable), self.window, self.reliable, Support(bounds, self.support.degree)
        )

    def relabel(self, mapping: dict) -> TruncSeries:
        p = self.poly.relabel(mapping)
        return TruncSeries._trusted(p, self.window, self.reliable, self.support.relabel(mapping))

    def coeff(self, exps) -> RatQ:
        """The coefficient of the monomial with these variable exponents."""
        return RatQ(self.poly.coeff(exps))

    def scale(self, c) -> TruncSeries:
        return TruncSeries._trusted(self.poly.scale(c), self.window, self.reliable, self.support)

    # ---------- addition ----------

    def __add__(self, other: TruncSeries) -> TruncSeries:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        p = self.poly + other.poly
        window = self.window.intersect(other.window)
        reliable = self.reliable.intersect(other.reliable)
        support = _merge_supports_for_sum(self.support, other.support)
        # both operands' terms lie in their reliable boxes; only a smaller
        # box or a new registry slot (holding exponent 0) can drop any
        if (self.vars, self.reliable) != (other.vars, other.reliable):
            p = _in_box(p, reliable)
        return TruncSeries._trusted(p, window, reliable, support)

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
            f"({n} monomials on {self.reliable.as_pair()} of {self.window.as_pair()})"
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
    the difference of the two expansions of 1/(x - c y); the factor
    checks that c is a nonzero q-monomial."""
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
    A = {v: a.support.bound(v) for v in vs}
    B = {v: b.support.bound(v) for v in vs}
    for _ in range(_MAX_ROUNDS):
        changed = False
        for v in vs:
            na = _iv_meet(A[v], _iv_minus(cand.lo, cand.hi, B[v]))
            nb = _iv_meet(B[v], _iv_minus(cand.lo, cand.hi, A[v]))
            if na != A[v]:
                A[v] = na
                changed = True
            if nb != B[v]:
                B[v] = nb
                changed = True
        for side, deg in ((A, a.support.degree), (B, b.support.degree)):
            if deg is None:
                continue
            for v in vs:
                rest = _iv_sum(side[u] for u in vs if u != v)
                nv = _iv_meet(side[v], _iv_minus(deg, deg, rest))
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
            for lo, hi in side.values():
                if lo < s.reliable.lo:
                    lo_bump = True
                if hi > s.reliable.hi:
                    hi_bump = True
        if not (lo_bump or hi_bump):
            break
        lo = cand.lo + (1 if lo_bump else 0)
        hi = cand.hi - (1 if hi_bump else 0)
        if lo > hi:
            raise NonAdmissibleProduct(
                "no reliable result window left; enlarge the operand windows"
            )
        cand = Window(lo, hi)

    p = MultiLaurent.zero(vs) if empty else _in_box(a.poly.within(A) * b.poly.within(B), cand)

    bounds = {v: _iv_sum((a.support.bound(v), b.support.bound(v))) for v in vs}
    da, db = a.support.degree, b.support.degree
    degree = None if da is None or db is None else da + db
    return TruncSeries._trusted(p, window, cand, Support(bounds, degree))


# ---------- rational-function expansion ----------


def expand_ratfun(f: RatFun, order, window: Window) -> TruncSeries:
    """Iterated Laurent expansion of a RatFun in a dominance order.

    ``order`` lists variables from most to least dominant and must cover
    every variable of f.  Each denominator factor is expanded in the
    geometric series dictated by its more dominant variable; the result is
    exact on the whole window (reliable equals window).  The numerator is
    filtered once, to the terms the factors can still carry into the
    window, and each factor is one ``MultiLaurent._geometric_step`` on the
    next such box of its two variables; the caps only build these boxes.
    """
    order = list(order)
    if len(set(order)) != len(order):
        raise ValueError("duplicate variable in expansion order")
    missing = [v for v in f.vars() if v not in order]
    if missing:
        raise ValueError(f"expansion order misses variables: {missing}")

    pos = {v: k for k, v in enumerate(order)}
    num = f.num.with_vars(order)
    vs = num.vars

    # one entry per denominator copy: (dominant, subordinate, factor)
    copies = []
    for fac, mult in f.den.items():
        dom, sub = (fac.i, fac.j) if pos[fac.i] < pos[fac.j] else (fac.j, fac.i)
        copies += [(dom, sub, fac)] * mult

    # caps[k] bounds the geometric index of copy k, walking down the
    # dominance order, and only builds the live boxes: no step is capped,
    # since at copy k (dominant v) a term has e_v <= nmax[v] - (earlier
    # D_v) + (earlier S_v caps) and its box keeps e_v - 1 - t >= window.lo
    # + (later D_v) - (later S_v caps), so t <= total below (D_v the
    # copies with dominant v, S_v those with v subordinate)
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
            dom, sub, _ = copies[k]
            lo[dom] -= 1 + caps[k]
            hi[dom] -= 1
            hi[sub] += caps[k]
        return {v: (window.lo - hi[v], window.hi - lo[v]) for v in vs}

    partial = num.within(live(0))  # the last live box is the window
    for k, (dom, _, fac) in enumerate(copies):
        nxt = live(k + 1)
        partial = partial._geometric_step(fac.i, fac.j, (fac.a, fac.s), dom, {v: nxt[v] for v in (fac.i, fac.j)})

    box = {}
    for v in vs:
        D = sum(1 for cp in copies if cp[0] == v)
        S = sum(1 for cp in copies if cp[1] == v)
        lo, hi = num.exp_range(v)
        box[v] = (None if D else lo, (hi - D) if not S else None)
    deg = num.total_degree_if_homogeneous()
    degree = deg - len(copies) if deg is not None and vs else None
    return TruncSeries._trusted(partial, window, window, Support(box, degree))


# ---------- comparison ----------


def compare_on_window(a: TruncSeries, b: TruncSeries, window: Window | None = None) -> bool:
    """Exact coefficient comparison on the common reliable box."""
    try:
        box = a.reliable.intersect(b.reliable)
        if window is not None:
            box = box.intersect(window)
    except ValueError:
        raise ValueError("empty reliable intersection; enlarge the windows")
    return not _in_box(a.poly - b.poly, box)
